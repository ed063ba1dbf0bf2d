import csv
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equiscalar import groups, harness, mpnn, physics
from equiscalar.cli import _TRAIN_KEYS, _block_target, _certify_target, main
from equiscalar.core import VectorTuple

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def _write(path, text):
    path.write_text(text)
    return str(path)


# -- sample-group ----------------------------------------------------------------


def test_sample_group_orthogonal(runner):
    result = runner.invoke(main, ["sample-group", "--group", "o", "--dim", "3", "--seed", "1"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    q = np.array(obj["q"])
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_sample_group_deterministic(runner):
    args = ["sample-group", "--group", "lorentz", "--dim", "4", "--seed", "7"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


@pytest.mark.parametrize("family", ["o", "so", "lorentz", "e", "poincare", "perm"])
def test_sample_group_matches_golden_output(runner, family):
    # Written by the per-family samplers before they shared one family table.
    case = json.loads((DATA / "golden_sample_group.json").read_text())[family]
    result = runner.invoke(main, case["args"])
    assert result.exit_code == 0
    assert result.output == case["output"]


def test_console_script_is_cli_main():
    root = Path(__file__).parents[1]
    entry = re.search(r'^\[project\.scripts\]\nequiscalar = "([\w.]+):(\w+)"$',
                      (root / "pyproject.toml").read_text(), re.M)
    assert entry is not None
    module, name = entry.groups()
    assert getattr(importlib.import_module(module), name) is main
    case = json.loads((DATA / "golden_sample_group.json").read_text())["lorentz"]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", module, *case["args"]], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == case["output"]


def test_sample_group_choices_are_sampled_families():
    option = next(p for p in main.commands["sample-group"].params if p.name == "group")
    assert list(option.type.choices) == ["o", "so", "lorentz", "e", "poincare", "perm"]
    assert set(option.type.choices) <= set(groups.FAMILIES)


def test_sample_group_requires_seed(runner):
    result = runner.invoke(main, ["sample-group", "--group", "o", "--dim", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("rapidity_max", ["9", "12"])
def test_sample_group_lorentz_large_rapidity(runner, rapidity_max):
    for seed in range(1, 11):
        result = runner.invoke(main, ["sample-group", "--group", "lorentz", "--dim", "4",
                                      "--rapidity-max", rapidity_max, "--seed", str(seed)])
        assert result.exit_code == 0, (seed, result.output)


# -- features --------------------------------------------------------------------


def test_features_json_input(runner, tmp_path):
    x = VectorTuple([[1.0, 0.0], [0.0, 2.0]])
    infile = _write(tmp_path / "x.json", x.to_json())
    result = runner.invoke(main, ["features", "--in", infile])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["gram"] == [[1.0, 0.0], [0.0, 4.0]]
    assert obj["metric"] == "euclidean"


def test_features_csv_with_subdets_and_omega(runner, tmp_path):
    x = VectorTuple(np.arange(6.0).reshape(3, 2))
    infile = _write(tmp_path / "x.csv", x.to_csv())
    outfile = tmp_path / "feat.json"
    result = runner.invoke(
        main,
        ["features", "--in", infile, "--subdets", "--omega", "1", "--out", str(outfile)],
    )
    assert result.exit_code == 0
    obj = json.loads(outfile.read_text())
    assert len(obj["subdets"]) == 3  # C(3, 2) column pairs
    assert len(obj["omega"]) == 3 * 2  # n(d+1)


def test_features_minkowski_metric(runner, tmp_path):
    x = VectorTuple([[1.0, 0.0, 0.0, 0.0]])
    infile = _write(tmp_path / "x.json", x.to_json())
    result = runner.invoke(main, ["features", "--metric", "minkowski", "--in", infile])
    obj = json.loads(result.output)
    assert obj["gram"] == [[1.0]]
    assert obj["metric"] == "minkowski"


def test_features_bad_input_exits_2(runner, tmp_path):
    infile = _write(tmp_path / "x.json", "{not json")
    result = runner.invoke(main, ["features", "--in", infile])
    assert result.exit_code == 2


def test_features_too_many_subdets_exits_2(runner, tmp_path):
    x = VectorTuple(np.random.default_rng(0).standard_normal((200, 4)))
    infile = _write(tmp_path / "x.json", x.to_json())
    result = runner.invoke(main, ["features", "--in", infile, "--subdets"])
    assert result.exit_code == 2
    assert "subdeterminants" in result.output


@pytest.mark.parametrize("text", [
    "[1, 2]", '"x"', "3", '{"d": 2, "roles": ["free"]}', '{"vectors": [[1, 2]], "roles": ["free"]}',
    '{"d": 2, "vectors": [[1, 2]]}', '{"d": 2, "vectors": [[1, 2]], "roles": 5}',
    '{"d": 2, "vectors": [[1, 2]], "roles": null}',
    '{"d": 2, "vectors": {"a": 1}, "roles": ["free"]}',
])
def test_features_malformed_json_tuple_exits_2(runner, tmp_path, text):
    infile = _write(tmp_path / "x.json", text)
    result = runner.invoke(main, ["features", "--in", infile])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("features: ")


@pytest.mark.parametrize("vectors, args, message", [
    ([[1e200, 0, 0], [1, 2, 3]], [], "gram not finite: NaN or Inf"),
    ([[1e200, 0, 0], [1, 2, 3]], ["--omega", "1"], "gram not finite: NaN or Inf"),
    ([[1e200, 0, 0], [1, 2, 3]], ["--metric", "minkowski"], "gram not finite: NaN or Inf"),
    ([[1e110, 0, 0], [0, 1e110, 0], [0, 0, 1e110]], ["--subdets"],
     "subdets not finite: NaN or Inf"),
], ids=["gram", "gram-omega", "gram-minkowski", "subdets"])
def test_features_non_finite_result_exits_2(runner, tmp_path, vectors, args, message):
    text = json.dumps({"d": 3, "vectors": vectors, "roles": ["free"] * len(vectors)})
    infile = _write(tmp_path / "x.json", text)
    outfile = tmp_path / "x.out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["features", *args, "--in", infile, "--out", str(outfile)])
    assert result.exit_code == 2
    assert result.stderr == f"features: {message}\n" and result.stdout == ""
    assert not outfile.exists() and caught == []


def test_features_unwritable_out_exits_2(runner, tmp_path):
    infile = _write(tmp_path / "x.json", VectorTuple([[1.0, 2.0]]).to_json())
    outfile = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["features", "--in", infile, "--out", str(outfile)])
    assert result.exit_code == 2
    assert result.stderr.startswith("features: ") and str(outfile) in result.stderr
    assert result.stdout == ""


# -- demo ------------------------------------------------------------------------


def test_demo_energy_hand_value(runner, tmp_path):
    particles = {
        "G": 1.0,
        "particles": [
            {"r": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
            {"r": [1.0, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
        ],
    }
    infile = _write(tmp_path / "p.json", json.dumps(particles))
    result = runner.invoke(main, ["demo", "energy", "--in", infile])
    assert result.exit_code == 0
    assert json.loads(result.output)["energy"] == pytest.approx(-2.0)


def test_demo_emforce_forms_agree(runner, tmp_path):
    rng = np.random.default_rng(0)
    particles = {
        "k": 1.0,
        "c": 2.0,
        "particles": [
            {"r": rng.standard_normal(3).tolist(), "v": rng.standard_normal(3).tolist(), "charge": 1.0}
            for _ in range(3)
        ],
    }
    infile = _write(tmp_path / "p.json", json.dumps(particles))
    result = runner.invoke(
        main, ["demo", "emforce", "--in", infile, "--check-equivariance", "20", "--seed", "3"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert np.allclose(obj["force_cross"], obj["force_scalar"], atol=1e-12)
    assert obj["equivariance"]["max_residual"] <= 1e-12


@pytest.mark.parametrize(
    "particle",
    [
        {"r": [0.0, 0, 0], "v": [0.0, 0, 0], "mass": float("nan")},
        {"r": [0.0, 0, 0], "v": [0.0, 0, 0], "mass": float("inf")},
        {"r": [0.0, 0, 0], "v": [0.0, 0, 0], "charge": float("-inf")},
        {"r": [0.0, 0, 0], "v": [0.0, 0, 0], "charge": "x"},
        {"r": [0.0, 0, 0], "v": [0.0, 0, 0], "mass": [1.0]},
    ],
    ids=["mass-nan", "mass-inf", "charge-inf", "charge-str", "mass-list"],
)
@pytest.mark.parametrize("which", ["energy", "emforce"])
def test_demo_rejects_bad_mass_or_charge(runner, tmp_path, particle, which):
    other = {"r": [1.0, 0, 0], "v": [0.0, 0, 0]}
    infile = _write(tmp_path / "p.json", json.dumps({"particles": [particle, other]}))
    result = runner.invoke(main, ["demo", which, "--in", infile])
    assert result.exit_code == 2
    assert "demo: particle" in result.output


@pytest.mark.parametrize("text", ["[1, 2]", '{"particles": [1]}', '{"particles": 3}', "{}"])
def test_demo_rejects_malformed_particle_file(runner, tmp_path, text):
    infile = _write(tmp_path / "p.json", text)
    result = runner.invoke(main, ["demo", "energy", "--in", infile])
    assert result.exit_code == 2
    assert "particle file must be an object" in result.output


_DEMO_PARTICLES = {"G": 0.7, "k": 1.3, "c": 2.0, "particles": [
    {"r": [0.1, -0.4, 0.9], "v": [0.3, 0.2, -0.5], "mass": 1.5, "charge": 1.0},
    {"r": [1.2, 0.3, -0.2], "v": [-0.1, 0.4, 0.6], "mass": 0.5, "charge": -2.0},
    {"r": [-0.7, 0.8, 0.4], "v": [0.2, -0.3, 0.1], "mass": 2.0, "charge": 0.5},
    {"r": [0.5, -1.1, -0.6], "v": [0.0, 0.7, -0.2], "mass": 1.0, "charge": 1.5},
]}
# Written by the check that rebuilt the particles one trial at a time; the
# floats are exact reprs, so the text is that check's stdout byte for byte.
_DEMO_STDOUT = {which: json.dumps(out, indent=2) + "\n" for which, out in {
    "energy": {"energy": -6.0308551853505,
               "equivariance": {"trials": 20, "max_residual": 6.316290097616681e-16}},
    "emforce": {"force_cross": [0.5960758060125095, 0.43371763071238256, 0.13052626702272602],
                "force_scalar": [0.5960758060125096, 0.43371763071238245, 0.13052626702272588],
                "equivariance": {"trials": 20, "max_residual": 4.863496632272003e-16}},
}.items()}


@pytest.mark.parametrize("which", ["energy", "emforce"])
def test_demo_equivariance_check_prints_its_seeded_output(runner, tmp_path, which):
    infile = _write(tmp_path / "p.json", json.dumps(_DEMO_PARTICLES))
    args = ["demo", which, "--check-equivariance", "20", "--seed", "3", "--in"]
    result = runner.invoke(main, [*args, infile])
    assert result.exit_code == 0
    assert result.stdout == _DEMO_STDOUT[which]
    particles = [{"r": [0.0, 0, 0], "v": [0.0, 0, 0]}, {"r": [1.0, 0], "v": [0.0, 0]}]
    for bad in ([], particles):
        result = runner.invoke(main, [*args, _write(tmp_path / "bad.json", json.dumps({"particles": bad}))])
        assert result.exit_code == 2 and result.stderr.startswith("demo: ")


# Finite particle files whose results leave float64: masses, positions and
# velocities near 1e200 overflow the energy, and a source 1e-200 from the test
# particle divides the force by a distance cubed that underflows to 0.
_HUGE = {"particles": [
    {"r": [1e200, 2e200, -1e200], "v": [1e200, 0.0, 1e200], "mass": 1e200},
    {"r": [-1e200, 3e200, 0.0], "v": [0.0, 1e200, 0.0], "mass": 2e200},
]}
_CLOSE = {"particles": [
    {"r": [0.0, 0.0, 0.0], "v": [0.1, 0.0, 0.0], "charge": 1.0},
    {"r": [1e-200, 0.0, 0.0], "v": [0.0, 0.2, 0.0], "charge": 1.0},
]}


# A source velocity near 1e300 whose cross product with the separation
# overflows: the cross form's magnetic term is inf * 0 = NaN, while the
# scalar form, with no cross products, stays finite.
_CROSSED = {"particles": [
    {"r": [0.0, 0.0, 0.0], "v": [0.0, 0.0, 0.1], "charge": 1.0},
    {"r": [1e10, 0.0, 0.0], "v": [0.0, 1e300, 0.0], "charge": 1.0},
]}


@pytest.mark.parametrize("which, particles, args, names", [
    ("energy", _HUGE, [], "energy"),
    ("energy", _HUGE, ["--check-equivariance", "3", "--seed", "1"], "energy and max_residual"),
    ("emforce", _CLOSE, [], "force_cross and force_scalar"),
    ("emforce", _CROSSED, [], "force_cross"),
], ids=["energy-1e200", "energy-1e200-checked", "emforce-1e-200-apart", "emforce-cross-product-overflows"])
def test_demo_exits_2_on_a_result_that_is_not_finite(runner, tmp_path, which, particles, args, names):
    infile = _write(tmp_path / "p.json", json.dumps(particles))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["demo", which, *args, "--in", infile])
    assert result.exit_code == 2
    assert result.stderr == f"demo: {names} not finite: NaN or Inf\n" and result.stdout == ""
    assert caught == []


def test_demo_prints_the_vanishing_force_of_a_source_past_float64_range(runner, tmp_path):
    particles = {"particles": [
        {"r": [1e308, -1e308, 1e308], "v": [0.1, 0.0, 0.0], "charge": 1.0},
        {"r": [0.0, 0.0, 0.0], "v": [0.0, 0.2, 0.0], "charge": 1.0},
    ]}
    infile = _write(tmp_path / "p.json", json.dumps(particles))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["demo", "emforce", "--in", infile])
    assert result.exit_code == 0 and result.stderr == "" and caught == []
    assert json.loads(result.stdout) == {"force_cross": [0.0] * 3, "force_scalar": [0.0] * 3}


@pytest.mark.parametrize("particles, force", [
    ({"c": 1e200, "particles": [
        {"r": [0.0, 0.0, 0.0], "v": [0.1, 0.0, 0.0], "charge": 1.0},
        {"r": [1.0, 0.0, 0.0], "v": [0.0, 0.2, 0.0], "charge": 1.0},
    ]}, [-1.0, 0.0, 0.0]),
    ({"particles": [
        {"r": [5e109, 0.0, 0.0], "v": [0.1, 0.0, 0.0], "charge": 1.0},
        {"r": [-5e109, 0.0, 0.0], "v": [0.0, 0.2, 0.0], "charge": 1.0},
    ]}, [0.0, 0.0, 0.0]),
], ids=["c-1e200-no-magnetic-term", "distance-cubed-overflows"])
def test_demo_emforce_powers_past_float64_range_reach_their_limits(runner, tmp_path, particles, force):
    infile = _write(tmp_path / "p.json", json.dumps(particles))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["demo", "emforce", "--in", infile])
    assert result.exit_code == 0 and result.stderr == "" and caught == []
    assert json.loads(result.stdout) == {"force_cross": force, "force_scalar": force}


def test_demo_equivariance_requires_seed(runner, tmp_path):
    infile = _write(
        tmp_path / "p.json",
        json.dumps({"particles": [{"r": [0.0, 0, 0], "v": [0.0, 0, 0]}]}),
    )
    result = runner.invoke(main, ["demo", "energy", "--in", infile, "--check-equivariance", "5"])
    assert result.exit_code == 2


# -- einsum ----------------------------------------------------------------------


def test_einsum_check_valid(runner):
    result = runner.invoke(main, ["einsum", "check", "u_i v_i w_j"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["valid"] is True
    assert obj["output_order"] == 1


def test_einsum_check_invalid_exits_1(runner):
    result = runner.invoke(main, ["einsum", "check", "u_i v_i w_i"])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["violations"][0]["rule"] == "once-or-twice"


def test_einsum_check_parse_error_exits_2(runner):
    result = runner.invoke(main, ["einsum", "check", "u_i +"])
    assert result.exit_code == 2


def test_einsum_eval_dot(runner, tmp_path):
    bindings = {"u": [1.0, 2.0, 3.0], "v": [4.0, 5.0, 6.0]}
    bindfile = _write(tmp_path / "b.json", json.dumps(bindings))
    result = runner.invoke(
        main, ["einsum", "eval", "u_i v_i", "--bind", bindfile, "--dim", "3"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["value"] == pytest.approx(32.0)


def test_einsum_eval_non_numeric_binding_exits_2(runner, tmp_path):
    bindfile = _write(tmp_path / "b.json", json.dumps({"u": {"a": 1}, "v": [1, 2, 3]}))
    result = runner.invoke(
        main, ["einsum", "eval", "u_i v_i", "--bind", bindfile, "--dim", "3"]
    )
    assert result.exit_code == 2
    assert "'u'" in result.output


def test_einsum_eval_non_finite_binding_exits_2(runner, tmp_path):
    bindfile = _write(tmp_path / "b.json", '{"u": [Infinity, 0, 0], "v": [0, 1, 0]}')
    result = runner.invoke(
        main, ["einsum", "eval", "eps_ijk u_j v_k", "--bind", bindfile, "--dim", "3"]
    )
    assert result.exit_code == 2
    assert "'u'" in result.output


@pytest.mark.parametrize("expr, v", [
    ("u_i v_i", [1e200, 0, 0]), ("eps_ijk u_j v_k", [0, 1e200, 0]),
], ids=["dot-overflows", "cross-overflows"])
def test_einsum_eval_exits_2_on_a_value_that_is_not_finite(runner, tmp_path, expr, v):
    bindfile = _write(tmp_path / "b.json", json.dumps({"u": [1e200, 0, 0], "v": v}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["einsum", "eval", expr, "--bind", bindfile, "--dim", "3"])
    assert result.exit_code == 2
    assert result.stderr == "einsum eval: value not finite: NaN or Inf\n" and result.stdout == ""
    assert caught == []

TRAIN_CONFIG = """
# tiny smoke-test configuration
n_particles = 3
n_samples = 12
layers = 1
widths = [4]
activation = "tanh"
mode = "pooled"
edge_inv_sqrt = 1
lr = 0.001
epochs = 1
batch = 4
seed = 0
"""


def test_train_writes_model_and_report(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG)
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.csv"
    result = runner.invoke(
        main, ["train", "--config", cfg, "--out", str(model_path), "--report", str(report_path)]
    )
    assert result.exit_code == 0, result.output
    obj = json.loads(result.output)
    assert obj["epochs"] == 1
    assert not obj["aborted"]
    assert obj["equivariance_residual"] <= 1e-9
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "val_mse", "equivariance_residual"]
    assert len(rows) == 3  # header + epochs 0 and 1
    assert json.loads(model_path.read_text())["mode"] == "pooled"


def test_train_report_residual_per_epoch(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG.replace("epochs = 1", "epochs = 3"))
    report_path = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["train", "--config", cfg, "--out", str(tmp_path / "m.json"), "--report", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    with open(report_path, newline="") as fh:
        residuals = [float(row[3]) for row in list(csv.reader(fh))[1:]]
    assert len(residuals) == 4  # epochs 0..3
    assert len(set(residuals)) > 1  # each row certifies that epoch's model
    assert max(residuals) <= 1e-9
    assert json.loads(result.output)["equivariance_residual"] == residuals[-1]


def test_train_deterministic(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG)
    outputs = []
    for tag in ("a", "b"):
        model_path = tmp_path / f"model_{tag}.json"
        report_path = tmp_path / f"report_{tag}.csv"
        result = runner.invoke(
            main,
            ["train", "--config", cfg, "--out", str(model_path), "--report", str(report_path)],
        )
        assert result.exit_code == 0
        outputs.append((model_path.read_text(), report_path.read_text()))
    assert outputs[0] == outputs[1]


def test_train_requires_seed(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", "n_particles = 3\nn_samples = 8\n")
    result = runner.invoke(
        main,
        ["train", "--config", cfg, "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2


def test_train_single_sample_exits_2(runner, tmp_path):
    # One sample goes to validation and leaves none to train on.
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG.replace("n_samples = 12", "n_samples = 1"))
    result = runner.invoke(
        main,
        ["train", "--config", cfg, "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2


# -- certify ---------------------------------------------------------------------


def test_certify_gram_passes(runner, tmp_path):
    spec = {"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "scalar-invariant"}
    specfile = _write(tmp_path / "spec.json", json.dumps(spec))
    outfile = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["certify", "--target", "gram", "--spec", specfile, "--trials", "50",
         "--seed", "2", "--out", str(outfile)],
    )
    assert result.exit_code == 0, result.output
    obj = json.loads(outfile.read_text())
    assert obj["passed"] is True
    assert obj["max_residual"] <= 1e-8


def test_certify_wrong_output_kind_fails(runner, tmp_path):
    # The Gram matrix is invariant, not vector-equivariant; certification
    # against the wrong law must exit 1.
    spec = {"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "vector-equivariant"}
    specfile = _write(tmp_path / "spec.json", json.dumps(spec))
    result = runner.invoke(
        main,
        ["certify", "--target", "gram", "--spec", specfile, "--trials", "20", "--seed", "2"],
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["passed"] is False


def test_certify_einsum_target(runner, tmp_path):
    spec = {"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "vector-equivariant"}
    specfile = _write(tmp_path / "spec.json", json.dumps(spec))
    result = runner.invoke(
        main,
        ["certify", "--target", "einsum:u_i v_i w_j", "--spec", specfile,
         "--trials", "50", "--seed", "4"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["max_residual"] <= 1e-9


def test_certify_trained_model(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG)
    model_path = tmp_path / "model.json"
    result = runner.invoke(
        main,
        ["train", "--config", cfg, "--out", str(model_path), "--report", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 0
    specs = [
        {
            "group": g,
            "dim": 3,
            "n_vectors": 6,
            "roles": ["position", "free"] * 3,
            "output_kind": "vector-translation-invariant",
            "blocks": 3,
            "scalars_per_block": 1,
        }
        for g in ("perm", "translation", "o")
    ]
    specfile = _write(tmp_path / "spec.json", json.dumps(specs))
    result = runner.invoke(
        main,
        ["certify", "--target", f"model:{model_path}", "--spec", specfile,
         "--trials", "20", "--seed", "5", "--tolerance", "1e-9"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["passed"] is True


# Edits of the golden concat model file (2 layers of nets) that no longer
# fit the model it declares.
_BAD_MODEL_NETS = {
    "weight-row-dropped": (lambda nets: nets[0]["g_v"]["weights"][1].pop(),
                           "layer 0 net g_v weights[1] must be a finite array of shape (6, 6), got shape (5, 6)"),
    "bias-entry-added": (lambda nets: nets[1]["gt_r"]["biases"][0].append(0.5),
                         "layer 1 net gt_r biases[0] must be a finite array of shape (6,), got shape (7,)"),
    "one-of-two-layers": (lambda nets: nets.pop(), "nets must be a list of 2 layers, one per model layer"),
}


@pytest.mark.parametrize("case", _BAD_MODEL_NETS)
def test_certify_a_model_file_that_does_not_fit_its_model_exits_2(runner, tmp_path, case):
    edit, message = _BAD_MODEL_NETS[case]
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    edit(obj["nets"])
    model_path = _write(tmp_path / "model.json", json.dumps(obj))
    specfile = _write(tmp_path / "spec.json", json.dumps(
        [{k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()} for spec in BLOCK_SPECS]))
    result = runner.invoke(main, ["certify", "--target", f"model:{model_path}", "--spec", specfile,
                                  "--trials", "5", "--seed", "1"])
    assert result.exit_code == 2
    assert result.stderr == f"certify: {message}\n" and result.stdout == ""


# Edits of the golden concat model file whose fields do not have their type.
_BAD_MODEL_FIELDS = {
    "n-particles-a-string": ({"n_particles": "4"}, "n_particles must be an integer >= 1, got '4'"),
    "layers-a-float": ({"layers": 2.0}, "layers must be an integer >= 1, got 2.0"),
    "layers-a-bool": ({"layers": True}, "layers must be an integer >= 1, got True"),
    "hidden-a-string": ({"hidden": "16"}, "hidden must be a list of integers >= 1, got '16'"),
    "hidden-a-float-width": ({"hidden": [16.5, 16]}, "hidden must be a list of integers >= 1, got [16.5, 16]"),
    "activation-a-number": ({"activation": 3}, "activation must be one of 'tanh', 'softplus', got 3"),
}


@pytest.mark.parametrize("case", _BAD_MODEL_FIELDS)
def test_certify_a_model_file_with_a_field_of_the_wrong_type_exits_2(runner, tmp_path, case):
    fields, message = _BAD_MODEL_FIELDS[case]
    obj = {**json.loads((DATA / "golden_concat.model.json").read_text()), **fields}
    model_path = _write(tmp_path / "model.json", json.dumps(obj))
    specfile = _write(tmp_path / "spec.json", json.dumps(
        [{k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()} for spec in BLOCK_SPECS]))
    result = runner.invoke(main, ["certify", "--target", f"model:{model_path}", "--spec", specfile,
                                  "--trials", "5", "--seed", "1"])
    assert result.exit_code == 2
    assert result.stderr == f"certify: {message}\n" and result.stdout == ""


def _block_spec_file(tmp_path):
    return _write(tmp_path / "spec.json", json.dumps(
        [{k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()} for spec in BLOCK_SPECS]))


def test_certify_a_model_file_with_a_nan_weight_exits_2_naming_it(runner, tmp_path):
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    obj["nets"][0]["g_r"]["biases"][1][0] = float("nan")
    model_path = _write(tmp_path / "model.json", json.dumps(obj))
    result = runner.invoke(main, ["certify", "--target", f"model:{model_path}", "--spec",
                                  _block_spec_file(tmp_path), "--trials", "5", "--seed", "1"])
    assert result.exit_code == 2
    assert result.stderr == ("certify: layer 0 net g_r biases[1] must be a finite array of shape (6,), "
                             "got nan at index [0]\n")


def test_certify_a_model_whose_outputs_overflow_fails_with_exit_1(runner, tmp_path):
    # Finite weights whose pair coefficients overflow the messages: NaN or Inf
    # outputs fail their trials instead of dropping out of the residuals.
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    for net in obj["nets"][0].values():
        net["biases"][-1] = [1e308]
    model_path = _write(tmp_path / "model.json", json.dumps(obj))
    with np.errstate(all="ignore"):
        result = runner.invoke(main, ["certify", "--target", f"model:{model_path}", "--spec",
                                      _block_spec_file(tmp_path), "--trials", "5", "--seed", "1"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["passed"] is False and len(payload["failures"]) == 5
    assert all(f["error"].startswith("NonFiniteError: ") for f in payload["failures"])


def test_certify_a_model_whose_outputs_overflow_prints_no_numpy_warning(tmp_path):
    # Layer 0's g_r pair coefficients overflow the messages and the nets
    # downstream: the outputs' NonFiniteError failures are the only report.
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    obj["nets"][0]["g_r"]["biases"][-1] = [1e308]
    model_path = _write(tmp_path / "model.json", json.dumps(obj))
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "equiscalar.cli", "certify", "--target", f"model:{model_path}",
                          "--spec", _block_spec_file(tmp_path), "--trials", "12", "--seed", "37"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 1 and run.stderr == ""
    payload = json.loads(run.stdout)
    assert payload["passed"] is False and len(payload["failures"]) == 12
    assert all(f["error"].startswith("NonFiniteError: ") for f in payload["failures"])


def test_certify_unknown_target_exits_2(runner, tmp_path):
    spec = {"group": "o", "dim": 3, "n_vectors": 2}
    specfile = _write(tmp_path / "spec.json", json.dumps(spec))
    result = runner.invoke(
        main, ["certify", "--target", "hamiltonian", "--spec", specfile, "--seed", "1"]
    )
    assert result.exit_code == 2


def test_certify_out_writes_the_report_and_keeps_stdout(runner, tmp_path):
    spec = {"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "scalar-invariant"}
    specfile = _write(tmp_path / "spec.json", json.dumps(spec))
    args = ["certify", "--target", "gram", "--spec", specfile, "--trials", "20", "--seed", "2"]
    plain = runner.invoke(main, args)
    outfile = tmp_path / "report.json"
    written = runner.invoke(main, args + ["--out", str(outfile)])
    assert plain.exit_code == written.exit_code == 0
    assert written.stdout == plain.stdout == outfile.read_text() + "\n"
    missing = tmp_path / "missing" / "report.json"
    result = runner.invoke(main, args + ["--out", str(missing)])
    assert result.exit_code == 2
    assert result.stderr.startswith("certify: ") and str(missing) in result.stderr
    assert result.stdout == ""

@pytest.mark.parametrize("constant", ["G", "k", "c"])
@pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), [1.0]])
@pytest.mark.parametrize("which", ["energy", "emforce"])
def test_demo_rejects_bad_physical_constants(runner, tmp_path, constant, value, which):
    particles = [{"r": [0.0, 0, 0], "v": [0.0, 0, 0], "charge": 1.0},
                 {"r": [1.0, 0, 0], "v": [0.0, 1, 0], "charge": -1.0}]
    infile = _write(tmp_path / "p.json", json.dumps({"particles": particles, constant: value}))
    result = runner.invoke(main, ["demo", which, "--in", infile])
    assert result.exit_code == 2
    assert f"demo: {constant} " in result.output


def test_demo_accepts_integer_constants(runner, tmp_path):
    particles = [{"r": [0.0, 0, 0], "v": [0.0, 0, 0], "mass": 2.0},
                 {"r": [1.0, 0, 0], "v": [0.0, 0, 0], "mass": 1.0}]
    infile = _write(tmp_path / "p.json", json.dumps({"particles": particles, "G": 2}))
    result = runner.invoke(main, ["demo", "energy", "--in", infile])
    assert result.exit_code == 0
    assert json.loads(result.output)["energy"] == -8.0


# -- batched certify targets -------------------------------------------------------

BLOCK_SPECS = [dict(group=g, dim=3, n_vectors=8, roles=("position", "free") * 4,
                    output_kind="vector-translation-invariant", blocks=4, scalars_per_block=1)
               for g in ("perm", "translation", "o")]


def _particle_energy(x, scalars):
    """The energy target as it was written, on Particle lists."""
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], mass=abs(scalars[i, 0]) + 0.1)
             for i in range(x.n // 2)]
    return physics.total_energy(parts, 1.0)


def _particle_forces(x, scalars):
    """The emforce target as it was written, on Particle lists."""
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], charge=scalars[i, 0])
             for i in range(x.n // 2)]
    return np.array([physics.em_force_scalar(parts[i], parts[:i] + parts[i + 1:], 1.0, 1.0)
                     for i in range(len(parts))])


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("target, spec, reference", [
    ("gram", dict(group="o", dim=3, n_vectors=5, output_kind="scalar-invariant"), None),
    ("gram", dict(group="lorentz", dim=4, n_vectors=3, output_kind="scalar-invariant"), None),
    ("energy", BLOCK_SPECS[0], _particle_energy),
    ("emforce", BLOCK_SPECS[0], _particle_forces),
    (mpnn.CONCAT, BLOCK_SPECS[0], None),
    (mpnn.POOLED, BLOCK_SPECS[0], None),
])
def test_batched_target_matches_the_per_trial_target_bit_for_bit(target, spec, reference):
    if target in (mpnn.CONCAT, mpnn.POOLED):
        model = mpnn.MpnnModel(4, layers=2, hidden=(16, 16), mode=target,
                               edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=3)
        fn, specs = _block_target(model.forward), [harness.SymmetrySpec(**spec)]
    else:
        fn, specs = _certify_target(target, [spec])
    rng = np.random.default_rng(7)
    trials, n, d = harness.CHUNK_TRIALS, spec["n_vectors"], spec["dim"]
    vectors = rng.standard_normal((trials, n, d))
    scalars = rng.standard_normal((trials, n // 2, 1)) if spec.get("scalars_per_block") else None
    got = fn.batched(vectors, scalars)
    assert got.shape[0] == trials
    for t in range(trials):
        x = VectorTuple(vectors[t], specs[0].roles)
        args = (x,) if scalars is None else (x, scalars[t])
        assert _bits(got[t]) == _bits(fn(*args))
        if reference is not None:
            assert _bits(got[t]) == _bits(reference(*args))


def test_emforce_stack_with_a_coincident_trial_reports_like_the_per_trial_target(monkeypatch):
    fn, specs = _certify_target("emforce", BLOCK_SPECS)
    sample, calls = harness._sample_input, itertools.count()

    def coincident_at_trial_5(spec, rng, lightlike):
        vectors, scalars = sample(spec, rng, lightlike)
        if next(calls) % 20 == 5:  # trial 5 of each 20-trial run
            vectors[2] = vectors[0]  # particle 1 sits on particle 0
        return vectors, scalars

    monkeypatch.setattr(harness, "_sample_input", coincident_at_trial_5)
    report = harness.certify_joint(fn, specs, 20, groups.make_rng(3)).to_dict()
    per_trial = harness.certify_joint(lambda x, s: fn(x, s), specs, 20, groups.make_rng(3))
    assert json.dumps(report) == json.dumps(per_trial.to_dict())
    assert [(f["trial"], f["error"]) for f in report["failures"]] == [
        (5, "DegenerateInputError: source 0 coincides with the test particle position")]
    assert report["max_residual"] <= 1e-12


# -- one input boundary ----------------------------------------------------------

_CERTIFY_O3 = json.dumps({"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "scalar-invariant"})
_CERTIFY_LORENTZ_1E400 = ('{"group": "lorentz", "dim": 4, "n_vectors": 3, '
                          '"output_kind": "scalar-invariant", "rapidity_max": 1e400}')


def _train_args(tmp_path, old, new):
    cfg = _write(tmp_path / "train.cfg", TRAIN_CONFIG.replace(old, new))
    return ["train", "--config", cfg, "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.csv")]


def _certify_args(tmp_path, spec, *extra):
    return ["certify", "--target", "gram", "--spec", _write(tmp_path / "spec.json", spec),
            "--trials", "5", "--seed", "1", *extra]


def _spec_args(tmp_path, **spec):
    spec = {"group": "o", "dim": 3, "n_vectors": 3, "output_kind": "scalar-invariant", **spec}
    return _certify_args(tmp_path, json.dumps(spec))


def _without_line(tmp_path, line):
    return _train_args(tmp_path, line + "\n", "")


# case -> (the command's name, its arguments given tmp_path, words its message holds)
BAD_INPUT = {
    "einsum-dim-0": ("einsum check", lambda p: ["einsum", "check", "u_i v_i", "--dim", "0"], ["dimension"]),
    "train-n-particles-x": ("train", lambda p: _train_args(p, "n_particles = 3", "n_particles = x"),
                            ["n_particles", "an integer"]),
    "train-epochs-x": ("train", lambda p: _train_args(p, "epochs = 1", "epochs = x"), ["epochs", "an integer"]),
    "train-seed-x": ("train", lambda p: _train_args(p, "seed = 0", "seed = x"), ["seed", "an integer"]),
    "train-unknown-key": ("train", lambda p: _train_args(p, "epochs = 1", "epochs = 1\nepoch = 5"), ["'epoch'"]),
    "lorentz-rapidity-nan": ("sample-group", lambda p: [
        "sample-group", "--group", "lorentz", "--dim", "4", "--seed", "1", "--rapidity-max", "nan"],
        ["rapidity_max"]),
    "lorentz-rapidity-inf": ("sample-group", lambda p: [
        "sample-group", "--group", "lorentz", "--dim", "4", "--seed", "1", "--rapidity-max", "inf"],
        ["rapidity_max"]),
    "perm-dim-minus-1": ("sample-group", lambda p: [
        "sample-group", "--group", "perm", "--dim", "-1", "--seed", "1"], ["dim"]),
    "perm-dim-0": ("sample-group", lambda p: [
        "sample-group", "--group", "perm", "--dim", "0", "--seed", "1"], ["dim"]),
    "certify-rapidity-1e400": ("certify", lambda p: _certify_args(p, _CERTIFY_LORENTZ_1E400), ["rapidity_max"]),
    "certify-tolerance-nan": ("certify", lambda p: _certify_args(p, _CERTIFY_O3, "--tolerance", "nan"),
                              ["tolerance"]),
    "certify-tolerance-minus-1": ("certify", lambda p: _certify_args(p, _CERTIFY_O3, "--tolerance", "-1"),
                                  ["tolerance"]),
    "spec-o-dim-minus-1": ("certify", lambda p: _spec_args(p, dim=-1), ["dim must be an integer >= 1"]),
    "spec-dim-2.5": ("certify", lambda p: _spec_args(p, dim=2.5), ["dim must be an integer"]),
    "spec-n-vectors-0": ("certify", lambda p: _spec_args(p, n_vectors=0), ["n_vectors must be an integer >= 1"]),
    "spec-n-vectors-2.0": ("certify", lambda p: _spec_args(p, n_vectors=2.0),
                           ["n_vectors must be an integer"]),
    "spec-blocks-2.0": ("certify", lambda p: _spec_args(p, group="perm", n_vectors=4, blocks=2.0),
                        ["blocks must be None or an integer"]),
    "spec-scalars-per-block-minus-1": ("certify", lambda p: _spec_args(
        p, group="perm", n_vectors=4, blocks=2, scalars_per_block=-1), ["scalars_per_block must be"]),
    "spec-scalars-per-block-without-blocks": ("certify", lambda p: _spec_args(
        p, group="perm", n_vectors=4, scalars_per_block=1), ["scalars_per_block needs blocks"]),
    "spec-list-empty": ("certify", lambda p: _certify_args(p, "[]"), ["at least one spec"]),
    "train-seed-1.5": ("train", lambda p: _train_args(p, "seed = 0", "seed = 1.5"), ["seed", "an integer"]),
    "train-layers-1.5": ("train", lambda p: _train_args(p, "layers = 1", "layers = 1.5"),
                         ["layers", "an integer"]),
    "train-batch-x": ("train", lambda p: _train_args(p, "batch = 4", "batch = x"), ["batch", "an integer"]),
    "train-widths-8": ("train", lambda p: _train_args(p, "widths = [4]", "widths = 8"),
                       ["widths", "a list of integers"]),
    "train-edge-rbf-centers-0.5": ("train", lambda p: _train_args(
        p, "lr = 0.001", "lr = 0.001\nedge_rbf_centers = 0.5"), ["edge_rbf_centers", "a list of"]),
    "train-edge-rbf-width-wide": ("train", lambda p: _train_args(
        p, "lr = 0.001", "lr = 0.001\nedge_rbf_width = wide"), ["edge_rbf_width", "a finite number"]),
    "train-edge-rbf-width-0": ("train", lambda p: _train_args(
        p, "lr = 0.001", "lr = 0.001\nedge_rbf_width = 0"), ["rbf_width", "> 0, got 0"]),
    "train-lr-fast": ("train", lambda p: _train_args(p, "lr = 0.001", "lr = fast"), ["lr", "a finite number"]),
    "train-lr-nan": ("train", lambda p: _train_args(p, "lr = 0.001", "lr = nan"), ["lr", "a finite number"]),
    "train-no-n-samples": ("train", lambda p: _without_line(p, "n_samples = 12"), ["n_samples", "an integer"]),
    "train-no-seed": ("train", lambda p: _without_line(p, "seed = 0"), ["seed", "an integer"]),
    "train-edge-inv-sqrt-False": ("train", lambda p: _train_args(
        p, "edge_inv_sqrt = 1", "edge_inv_sqrt = False"), ["edge_inv_sqrt", "true, false, 1 or 0"]),
    "train-edge-inv-sqrt-no": ("train", lambda p: _train_args(
        p, "edge_inv_sqrt = 1", "edge_inv_sqrt = no"), ["edge_inv_sqrt", "true, false, 1 or 0"]),
    "train-edge-inv-sqrt-2": ("train", lambda p: _train_args(
        p, "edge_inv_sqrt = 1", "edge_inv_sqrt = 2"), ["edge_inv_sqrt", "true, false, 1 or 0"]),
    "train-activation-relu": ("train", lambda p: _train_args(
        p, 'activation = "tanh"', "activation = relu"), ["activation", "'relu'"]),
    "train-batch-0": ("train", lambda p: _train_args(p, "batch = 4", "batch = 0"), ["batch", "an integer >= 1"]),
    "train-epochs-negative": ("train", lambda p: _train_args(p, "epochs = 1", "epochs = -1"),
                              ["epochs", "an integer >= 0"]),
    "train-layers-0": ("train", lambda p: _train_args(p, "layers = 1", "layers = 0"), ["layers", "an integer >= 1"]),
    "train-widths-0": ("train", lambda p: _train_args(p, "widths = [4]", "widths = [0]"),
                       ["widths", "a list of integers >= 1"]),
    "spec-roles-pos": ("certify", lambda p: _spec_args(p, n_vectors=2, roles=["pos", "free"]),
                       ["roles", "'pos'"]),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_2_with_the_command_name_and_no_traceback(runner, tmp_path, monkeypatch, case):
    command, args, words = BAD_INPUT[case]

    def drawn(*args, **kwargs):
        raise AssertionError("train drew its dataset before checking its config")

    monkeypatch.setattr(mpnn, "generate_dataset", drawn)
    result = runner.invoke(main, args(tmp_path))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"{command}: ") and "Traceback" not in result.output
    assert all(word in result.stderr for word in words), result.stderr
    assert result.stdout == ""


def test_train_without_optional_keys_takes_the_library_defaults(runner, tmp_path):
    cfg = _write(tmp_path / "train.cfg", "n_particles = 3\nn_samples = 10\nepochs = 1\nseed = 1\n")
    model_path, default_path = tmp_path / "m.json", tmp_path / "default.json"
    result = runner.invoke(
        main, ["train", "--config", cfg, "--out", str(model_path), "--report", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 0, result.output
    mpnn.MpnnModel(3, seed=1).save(default_path)
    trained, default = (json.loads(p.read_text()) for p in (model_path, default_path))
    assert trained.pop("nets") != default.pop("nets")
    assert trained == default


# -- every value checked against its type ---------------------------------------


@pytest.mark.parametrize("value, enabled", [
    ("false", False), ("0", False), ("true", True), ("1", True),
])
def test_edge_inv_sqrt_means_what_it_says(runner, tmp_path, value, enabled):
    result = runner.invoke(main, _train_args(tmp_path, "edge_inv_sqrt = 1", f"edge_inv_sqrt = {value}"))
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "m.json").read_text())["edge_config"]["include_inv_sqrt"] is enabled


ALL_TRAIN_KEYS = """
n_particles = 3
n_samples = 10
seed = 4
edge_inv_sqrt = true
edge_rbf_centers = [0.5, 1]
edge_rbf_width = 0.25
layers = 2
widths = [3, 2]
activation = softplus
mode = concat
readout = velocity
epochs = 2
lr = 0.002
batch = 3
"""


def test_a_config_may_set_all_fourteen_keys(runner, tmp_path):
    assert sorted(_TRAIN_KEYS) == sorted(line.split(" = ")[0] for line in ALL_TRAIN_KEYS.split("\n") if line)
    cfg = _write(tmp_path / "train.cfg", ALL_TRAIN_KEYS)
    result = runner.invoke(
        main, ["train", "--config", cfg, "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["epochs"] == 2
    model = json.loads((tmp_path / "m.json").read_text())
    model.pop("nets")
    assert model == {
        "n_particles": 3, "layers": 2, "hidden": [3, 2], "activation": "softplus", "mode": "concat",
        "readout": "velocity",
        "edge_config": {"include_inv_sqrt": True, "rbf_centers": [0.5, 1], "rbf_width": 0.25},
    }
