"""The output contract of the commands that print computed numbers, under
extreme finite input: a run exits 0 with finite JSON on stdout and nothing
on stderr, or exits 2 with one ``<command>: <message>`` line on stderr and
nothing on stdout. No traceback, and no warning."""
import json
import warnings

import numpy as np
from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equiscalar import features
from equiscalar.cli import main
from equiscalar.core import VectorTuple, euclidean, minkowski

# Finite floats at the edges of float64: ±1e±300, the largest, subnormals and
# signed zeros, with ordinary values; any finite float besides.
_EDGES = [1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
          5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1.0, -1.0, 0.5, 3.0]
_FLOATS = st.sampled_from(_EDGES) | st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False)
_SETTINGS = settings(max_examples=150, database=None, deadline=None)


def _vectors(n_rows, d):
    """n_rows rows of d extreme floats, or those rows with some replaced by a
    copy of row 0 (coincident) or row 0 nudged by a tiny amount (near-coincident)."""
    row = st.lists(_FLOATS, min_size=d, max_size=d)
    nudges = st.sampled_from([None, 0.0, 5e-324, 1e-300, 1e-16, -1e-12])

    def close(args):
        rows, extra = args
        rows = list(rows)
        for i, nudge in enumerate(extra[:len(rows) - 1], start=1):
            if nudge is not None:
                rows[i] = [rows[0][0] + nudge, *rows[0][1:]]
        return rows
    return st.tuples(st.lists(row, min_size=n_rows, max_size=n_rows),
                     st.lists(nudges, max_size=n_rows)).map(close)


def _run(tmp_path_factory, name, obj, args):
    """Invoke the CLI on ``obj`` written as the JSON file ``name``, with every
    warning recorded."""
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args(str(path)))
    return result, caught


def _not_finite(constant):
    raise AssertionError(f"printed {constant}")


def _assert_contract(result, caught, command):
    assert caught == [], [str(w.message) for w in caught]
    if result.exit_code == 0:
        assert result.stderr == ""
        json.loads(result.stdout, parse_constant=_not_finite)
    else:
        assert result.exit_code == 2, (result.exception, result.output)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{command}: "), result.stderr


@st.composite
def _tuples(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return {"d": d, "vectors": draw(_vectors(n, d)), "roles": ["free"] * n}


@seed(20261020)
@_SETTINGS
@given(tup=_tuples(), metric=st.sampled_from(["euclid", "minkowski"]), subdets=st.booleans(),
       omega=st.none() | st.integers(1, 3))
def test_features_prints_finite_json_or_exits_2(tmp_path_factory, tup, metric, subdets, omega):
    def args(path):
        return ["features", "--metric", metric, "--in", path, *(["--subdets"] if subdets else []),
                *(["--omega", str(omega)] if omega is not None else [])]
    result, caught = _run(tmp_path_factory, "x.json", tup, args)
    _assert_contract(result, caught, "features")
    if result.exit_code == 0:  # the streamed writer prints what json.dumps would
        assert result.stdout == json.dumps(_features_payload(tup, metric, subdets, omega), indent=2) + "\n"


def _features_payload(tup, metric, subdets, omega):
    """The payload ``features`` prints for ``tup``, built from the library."""
    x = VectorTuple(tup["vectors"])
    kind = (euclidean if metric == "euclid" else minkowski)(x.d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = features.gram(kind, x)
        payload = {"n": x.n, "d": x.d, "metric": kind.kind, "gram": g.tolist()}
        if subdets:
            payload["subdets"] = [{"indices": list(k), "value": v}
                                  for k, v in features.subdeterminants(x).items()]
        if omega is not None:
            payload["omega"] = [{"i": i, "j": j, "value": v}
                                for (i, j), v in sorted(features.omega_sample(g, omega).entries.items())]
    return payload


@st.composite
def _particles(draw, d, charged):
    n = draw(st.integers(2 if charged else 1, 4))
    rs, vs = draw(_vectors(n, d)), draw(_vectors(n, d))
    weight = "charge" if charged else "mass"
    obj = {"particles": [{"r": r, "v": v, weight: draw(_FLOATS)} for r, v in zip(rs, vs)]}
    for name in ("k", "c") if charged else ("G",):
        if draw(st.booleans()):
            obj[name] = draw(_FLOATS)
    return obj


def _demo_args(which, trials):
    def args(path):
        checked = ["--check-equivariance", str(trials), "--seed", "5"] if trials else []
        return ["demo", which, "--in", path, *checked]
    return args


@seed(20261021)
@_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), trials=st.sampled_from([0, 0, 3]))
def test_demo_energy_prints_finite_json_or_exits_2(tmp_path_factory, data, d, trials):
    obj = data.draw(_particles(d, charged=False))
    _assert_contract(*_run(tmp_path_factory, "p.json", obj, _demo_args("energy", trials)), "demo")


@seed(20261022)
@_SETTINGS
@given(obj=_particles(3, charged=True), trials=st.sampled_from([0, 0, 3]))
def test_demo_emforce_prints_finite_json_or_exits_2(tmp_path_factory, obj, trials):
    _assert_contract(*_run(tmp_path_factory, "p.json", obj, _demo_args("emforce", trials)), "demo")


_EXPRESSIONS = ["u_i v_i", "eps_ijk u_j v_k", "u_i u_i v_j", "u_i v_j", "u_i v_i + u_j u_j"]


@seed(20261023)
@_SETTINGS
@given(data=st.data(), expr=st.sampled_from(_EXPRESSIONS), metric=st.sampled_from(["euclid", "minkowski"]))
def test_einsum_eval_prints_finite_json_or_exits_2(tmp_path_factory, data, expr, metric):
    d = 3 if "eps" in expr else data.draw(st.integers(1, 4))
    u, v = data.draw(_vectors(2, d))
    args = lambda path: ["einsum", "eval", expr, "--bind", path, "--dim", str(d), "--metric", metric]
    _assert_contract(*_run(tmp_path_factory, "b.json", {"u": u, "v": v}, args), "einsum eval")

