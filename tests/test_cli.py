import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equiscalar import groups
from equiscalar.cli import main
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


# -- train -----------------------------------------------------------------------

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
