"""`equiscalar features` output, pinned byte for byte.

``tests/data/golden_features.json`` holds, for each input, metric and option
set below, the exit code and stdout of the command without ``--out`` and the
exit code, stdout and written file text of the command with ``--out``, as
written by ``json.dump(out, fh, indent=2)`` of the whole payload. Any change
to how ``features`` writes its JSON must reproduce them exactly.

The command writes the Gram row by row; the tests below also check that
writer against ``json.dumps(out, indent=2)`` directly.

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

# name -> vectors; the last overflows the Gram to +-Infinity.
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

# numpy warns on stderr about the overflow (in the Gram and in the
# subdeterminants); the command runs on, as it does outside the test suite.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


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
    for metric in METRICS:
        text = golden[f"overflow-{metric}-plain"]["out"]["file"]
        assert "Infinity" in text and "-Infinity" in text


def _written(out):
    chunks = []
    _write_features(out, chunks.append)
    return "".join(chunks)


def _json_text(out):
    return json.dumps({**out, "gram": out["gram"].tolist()}, indent=2)


@pytest.mark.parametrize("n, metric", [(100, euclidean(4)), (100, minkowski(4)),
                                       (1000, minkowski(4))])
def test_writer_equals_json_dumps(n, metric):
    x = VectorTuple(np.random.default_rng(n).standard_normal((n, 4)))
    g = features.gram(metric, x)
    omega = [{"i": i, "j": j, "value": v}
             for (i, j), v in sorted(features.omega_sample(g, 3).entries.items())]
    out = {"n": n, "d": 4, "metric": metric.kind, "gram": g, "omega": omega}
    assert _written(out) == _json_text(out)


def test_writer_spells_non_finite_and_signed_zero_entries_as_json_does():
    g = np.array([[np.inf, -np.inf, -0.0], [np.nan, 0.0, 1e-320], [-np.nan, 1e300, -2.5e-8]])
    out = {"n": 3, "d": 2, "metric": "minkowski", "gram": g,
           "subdets": [{"indices": [0, 1], "value": -np.inf}]}
    text = _written(out)
    assert text == _json_text(out)
    assert "-Infinity" in text and "NaN" in text and "-0.0" in text


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
