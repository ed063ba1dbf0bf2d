"""The features writer's float texts: ``cli._float_reprs`` against
``float.__repr__``, and ``cli._write_features`` against ``json.dumps`` on
arbitrary finite, exactly symmetric matrices, across the writer's row
blocks."""
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from equiscalar import cli
from float_repr_sweep import edge_values, sweep


def test_float_reprs_match_float_repr_on_a_million_bit_patterns_and_the_edges():
    bad = sweep(10 ** 6, seed=2106)
    assert not bad, bad[:10]


def test_float_reprs_keep_shape_order_and_short_arrays():
    values = edge_values()
    want = [repr(v).encode() for v in values.tolist()]
    assert cli._float_reprs(values).tolist() == want
    assert cli._float_reprs(values[:255]).tolist() == want[:255]
    grid = values[:6000].reshape(200, 30)[:, ::3]  # 2-d and not contiguous
    assert cli._float_reprs(grid).tolist() == [repr(v).encode() for v in grid.ravel().tolist()]
    assert cli._float_reprs(np.zeros(0)).tolist() == []


def _written(out):
    chunks = []
    cli._write_features(out, chunks.append)
    return "".join(chunks)


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(0, 24), rows_of=st.sampled_from([50, cli._ROWS_OF]))
def test_writer_equals_json_dumps_on_arbitrary_square_matrices(data, n, rows_of):
    g = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(allow_nan=False, allow_infinity=False)))
    g = np.where(np.tri(n, dtype=bool), g.T, g)  # mirrored, as features.gram makes it
    out = {"n": n, "d": 2, "metric": "euclidean", "gram": g}
    with mock.patch.object(cli, "_ROWS_OF", rows_of):
        text = _written(out)
    assert text == json.dumps({**out, "gram": g.tolist()}, indent=2)
