"""`equiscalar features` output, pinned byte for byte.

``tests/data/golden_features.json`` holds, for each input, metric and option
set below, the exit code and stdout of the command without ``--out`` and the
exit code, stdout and written file text of the command with ``--out``, as
written by ``json.dump(out, fh, indent=2)`` of the whole payload. Any change
to how ``features`` writes its JSON must reproduce them exactly.

The command writes the Gram in blocks of rows, formatting each entry on or
above the diagonal once, with ``cli._float_reprs`` (array arithmetic for
normal doubles, ``float.__repr__`` for zeros and subnormals), and reusing
its text for the mirror entry, and the Omega band through a template; the
tests below also check that writer against ``json.dumps(out, indent=2)``
directly, on the finite, exactly symmetric Grams the command gives it.
``tests/test_cli_contract.py`` checks it through the command on extreme
finite input, and ``tests/test_float_reprs.py`` checks the formatter itself
against ``float.__repr__``.

Regenerate (only when a change is meant to move the output) with

    PYTHONPATH=src python tests/test_golden_features.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equiscalar import features
from equiscalar.cli import _write_features, main
from equiscalar.core import VectorTuple, euclidean, minkowski

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_features.json"

# name -> vectors; the last overflows the Gram, which the command rejects.
INPUTS = {
    "n1": np.random.default_rng(1).standard_normal((1, 3)),
    "n3": np.random.default_rng(2).standard_normal((3, 3)),
    "n8": np.random.default_rng(3).standard_normal((8, 4)),
    "n25": np.random.default_rng(4).integers(-8, 9, (25, 1)) / 4.0,  # short texts
    "overflow": np.array([[1e200, 0.0, 0.0], [-1e200, 1.0, 0.0], [1e200, 1e200, 0.0],
                          [0.5, 0.25, -2.0]]),
}
METRICS = ("euclid", "minkowski")
VARIANTS = {
    "plain": [],
    "omega2": ["--omega", "2"],
    "omega3": ["--omega", "3"],
    "subdets": ["--subdets"],
    "subdets-omega2": ["--subdets", "--omega", "2"],
}
CASES = [f"{i}-{m}-{v}" for i in INPUTS for m in METRICS for v in VARIANTS]


def _run(name, workdir, to_file):
    inp, metric, variant = name.split("-", 2)
    infile = Path(workdir) / f"{inp}.json"
    infile.write_text(VectorTuple(INPUTS[inp]).to_json())
    outfile = Path(workdir) / f"{name}.out.json"
    args = ["features", "--metric", metric, *VARIANTS[variant], "--in", str(infile)]
    result = CliRunner().invoke(main, args + (["--out", str(outfile)] if to_file else []))
    run = {"exit": result.exit_code, "stdout": result.stdout}
    if to_file:
        run["file"] = outfile.read_text() if outfile.exists() else None
    return run


def _outputs(name, workdir):
    return {"stdout": _run(name, workdir, False), "out": _run(name, workdir, True)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_features_output_matches_golden(golden, name, tmp_path):
    assert _outputs(name, tmp_path) == golden[name]


def test_golden_cases_cover_non_finite_grams(golden):
    assert set(golden) == set(CASES)
    for name in CASES:
        if name.startswith("overflow-"):
            assert golden[name]["stdout"] == {"exit": 2, "stdout": ""}
            assert golden[name]["out"] == {"exit": 2, "stdout": "", "file": None}


def _written(out):
    chunks = []
    _write_features(out, chunks.append)
    return "".join(chunks)


def _json_text(out):
    return json.dumps({**out, "gram": out["gram"].tolist()}, indent=2)


@pytest.mark.parametrize("n, metric", [(100, euclidean(4)), (100, minkowski(4)),
                                       (1000, minkowski(4)), (4, euclidean(4)),
                                       (4, minkowski(4))])
def test_writer_equals_json_dumps(n, metric):
    x = VectorTuple(np.random.default_rng(n).standard_normal((n, 4)))
    g = features.gram(metric, x)
    omega = [{"i": i, "j": j, "value": v}
             for (i, j), v in sorted(features.omega_sample(g, 3).entries.items())]
    out = {"n": n, "d": 4, "metric": metric.kind, "gram": g, "omega": omega}
    assert _written(out) == _json_text(out)


def test_writer_spells_signed_zero_subnormal_and_extreme_entries_as_json_does():
    g = np.array([[-0.0, 1e300, 0.0, 1e-320],
                  [1e300, 0.0, -1e300, -2.5e-8],
                  [0.0, -1e300, 1e-320, -0.0],
                  [1e-320, -2.5e-8, -0.0, -1e300]])
    out = {"n": 4, "d": 2, "metric": "minkowski", "gram": g,
           "subdets": [{"indices": [0, 1], "value": -0.0}]}
    text = _written(out)
    assert text == _json_text(out)
    assert "-0.0" in text and "1e-320" in text and "-1e+300" in text


def _symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return np.triu(a) + np.triu(a, 1).T


def _off_the_happy_path():
    """name -> symmetric matrix at the edges of the writer's store: texts
    that fill it, and none at all."""
    cases = {}
    # 24-character reprs fill the writer's S24 store; a narrower one would
    # cut their texts in the lower triangle.
    g = cases["longest-reprs"] = _symmetric(7, 10)
    for i, j, v in [(0, 1, -2.2250738585072014e-308), (2, 5, -1.7976931348623157e+308),
                    (3, 3, -2.2250738585072014e-308), (6, 4, -1.7976931348623157e+308)]:
        g[i, j] = g[j, i] = v
    cases["empty"] = np.zeros((0, 0))
    return cases


OFF_THE_HAPPY_PATH = _off_the_happy_path()


@pytest.mark.parametrize("name", list(OFF_THE_HAPPY_PATH))
def test_writer_equals_json_dumps_off_the_happy_path(name):
    g = OFF_THE_HAPPY_PATH[name]
    n = len(g)
    band = [{"i": i, "j": (i + s) % n, "value": g[i, (i + s) % n].item()}
            for i in range(n) for s in range(3)]
    out = {"n": n, "d": 2, "metric": "euclidean", "gram": g, "omega": band}
    assert _written(out) == _json_text(out)


def test_stdout_is_the_out_file_plus_a_newline(golden):
    for name in CASES:
        if golden[name]["stdout"]["exit"] == 0:
            assert golden[name]["stdout"]["stdout"] == golden[name]["out"]["file"] + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: _outputs(name, tmp) for name in CASES}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
