import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from equiscalar import core
from equiscalar.errors import (
    DimensionMismatchError,
    NonFiniteError,
    RoleError,
    ShapeError,
)


def test_inner_euclidean_orthogonal_basis():
    m = core.euclidean(2)
    assert core.inner(m, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_minkowski_timelike_unit():
    m = core.minkowski(4)
    assert core.inner(m, [1, 0, 0, 0], [1, 0, 0, 0]) == 1.0


def test_inner_minkowski_lightlike():
    m = core.minkowski(4)
    assert core.inner(m, [1, 1, 0, 0], [1, 1, 0, 0]) == 0.0


def test_minkowski_matrix_signature():
    lam = core.minkowski(4).matrix
    assert np.array_equal(lam, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_inner_dimension_mismatch():
    m = core.euclidean(3)
    with pytest.raises(DimensionMismatchError):
        core.inner(m, [1.0, 2.0], [1.0, 2.0, 3.0])


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
    st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
    st.sampled_from(["euclidean", "minkowski"]),
)
def test_inner_symmetric(a, b, kind):
    m = core.Metric(kind, 4)
    assert core.inner(m, a, b) == core.inner(m, b, a)


def test_inner_invariant_under_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        m = core.euclidean(d)
        before = core.inner(m, a, b)
        after = core.inner(m, q @ a, q @ b)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


@pytest.mark.parametrize("k", range(1, 7))
def test_sort_sign_is_the_parity_of_each_permutation(k):
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    parity = np.rint(np.linalg.det(np.eye(k)[perms]))
    images, signs = core.sort_sign(perms)
    assert np.array_equal(images, np.broadcast_to(np.arange(k), perms.shape))
    assert np.array_equal(signs, parity)
    # Any distinct values in the same relative order sort with the same sign,
    # and a stack of rows is the same as its rows one at a time.
    spread = np.stack([perms * 3 + 5, perms * 3 + 5])
    images, stacked = core.sort_sign(spread)
    assert np.array_equal(images, np.sort(spread, axis=-1))
    assert np.array_equal(stacked, np.stack([parity, parity]))


def test_vector_rejects_nan():
    with pytest.raises(NonFiniteError):
        core.as_vector([1.0, np.nan])


def test_vector_rejects_matrix():
    with pytest.raises(ShapeError):
        core.as_vector([[1.0, 2.0]])


def test_metric_rejects_unknown_kind():
    with pytest.raises(ValueError):
        core.Metric("galilean", 3)


def test_tuple_roles_default_free():
    x = core.VectorTuple(np.eye(3))
    assert x.roles == (core.FREE,) * 3
    assert x.n == 3 and x.d == 3


def test_tuple_role_validation():
    with pytest.raises(RoleError):
        core.VectorTuple(np.eye(2), ("position",))
    with pytest.raises(RoleError):
        core.VectorTuple(np.eye(2), ("position", "momentum"))


def test_tuple_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        core.VectorTuple([[1.0, np.inf]])


def test_json_round_trip():
    x = core.VectorTuple([[1.0, 2.0], [3.0, 4.0]], ("position", "free"))
    y = core.VectorTuple.from_json(x.to_json())
    assert np.array_equal(x.vectors, y.vectors)
    assert x.roles == y.roles
    obj = json.loads(x.to_json())
    assert obj["d"] == 2


def test_json_inconsistent_dimension():
    with pytest.raises(ShapeError):
        core.VectorTuple.from_json('{"d": 3, "vectors": [[1, 2]], "roles": ["free"]}')


def test_csv_round_trip():
    x = core.VectorTuple([[0.5, -1.25], [3.0, 4.0]], ("position", "free"))
    y = core.VectorTuple.from_csv(x.to_csv())
    assert np.array_equal(x.vectors, y.vectors)
    assert x.roles == y.roles


def test_csv_unknown_role_tag():
    with pytest.raises(RoleError):
        core.VectorTuple.from_csv("#roles: p,x\n1,2\n3,4\n")


@pytest.mark.parametrize("text,line", [("1,2\n3\n", "line 2"), ("1,x\n", "line 1"),
                                       ("#roles: f,f\n\n1,2\n3,4,5\n", "line 4")])
def test_csv_bad_row_names_its_line(text, line):
    with pytest.raises(ShapeError, match=line):
        core.VectorTuple.from_csv(text)


def test_position_indices_are_kept_read_only():
    roles = ("free", "position", "free", "position", "position")
    for _ in range(2):  # a second tuple with the same roles reads the kept array
        x = core.VectorTuple(np.zeros((5, 2)), roles)
        idx = x.position_indices()
        assert idx.tolist() == [1, 3, 4] and idx.dtype == int
        with pytest.raises(ValueError):
            idx[0] = 0
    assert x.rows(1, 4).position_indices().tolist() == [0, 2]
    assert core.VectorTuple(np.zeros((2, 2))).position_indices().size == 0
    # Roles tuples longer than 32 are scanned per call, read-only too.
    long = core.VectorTuple(np.zeros((40, 2)), ("position", "free") * 20)
    idx = long.position_indices()
    assert idx.tolist() == list(range(0, 40, 2))
    with pytest.raises(ValueError):
        idx[0] = 1
