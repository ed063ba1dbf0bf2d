"""Every checked field of every public object refuses a bad value by one rule
and one message form, ``<field> must be <kind>, got <value!r>``, and takes
numpy numbers. The few random draws here are seeded."""
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equiscalar import basis, core, einsum, features, groups, harness, mpnn, physics
from equiscalar.cli import main
from equiscalar.errors import EquiscalarError

DATA = Path(__file__).parent / "data"

_TUPLE = core.VectorTuple(np.eye(3), ("position", "free", "free"))
_ZERO = [0.0, 0.0, 0.0]
_TRANSLATION = groups.Translation(np.ones(3))
_BAND = features.omega_sample(np.eye(4), 1)

# The values each kind of field refuses; ``or None`` fields take None.
_BAD = {
    "integer": [True, float("nan"), float("inf"), -float("inf"), "1", None, 2.5],
    "real": [True, float("nan"), float("inf"), -float("inf"), "1", None],
    "choice": [True, float("nan"), float("inf"), -float("inf"), "1", None, 2.5],
    "bool": [float("nan"), float("inf"), -float("inf"), "1", None, 2.5, 1, np.True_],
    "object": [True, float("nan"), "1", None, 2.5, {}],
}

# case -> (the field as its message names it, the kind of its rule, the call
# that checks a value, a value with numpy numbers that it takes, or None). A
# list field is given each bad value of its items' kind as a list of one.
FIELDS = {
    "SymmetrySpec.group": ("group", "choice", lambda v: harness.SymmetrySpec(v, 3, 2), None),
    "SymmetrySpec.output_kind": ("output_kind", "choice",
                                 lambda v: harness.SymmetrySpec("o", 3, 2, output_kind=v), None),
    "SymmetrySpec.dim": ("dim", "integer", lambda v: harness.SymmetrySpec("o", v, 2), np.int64(3)),
    "SymmetrySpec.n_vectors": ("n_vectors", "integer", lambda v: harness.SymmetrySpec("o", 3, v), np.int32(2)),
    "SymmetrySpec.blocks": ("blocks", "integer or None",
                            lambda v: harness.SymmetrySpec("perm", 3, 2, blocks=v), np.int64(2)),
    "SymmetrySpec.scalars_per_block": (
        "scalars_per_block", "integer",
        lambda v: harness.SymmetrySpec("perm", 3, 2, blocks=2, scalars_per_block=v), np.int8(1)),
    "SymmetrySpec.rapidity_max": ("rapidity_max", "real",
                                  lambda v: harness.SymmetrySpec("lorentz", 4, 2, rapidity_max=v), np.float64(1.5)),
    "certify_joint.trials": ("trials", "integer", lambda v: harness.certify_joint(
        lambda x: x.vectors, [harness.SymmetrySpec("o", 3, 2)], v, groups.make_rng(0)), np.int64(2)),
    "draw_record.group": ("group", "choice", lambda v: groups.draw_record(v, 3), None),
    "draw_record.dim": ("dim", "integer", lambda v: groups.draw_record("o", v), np.int64(3)),
    "draw_record.rapidity_max": ("rapidity_max", "real", lambda v: groups.draw_record("lorentz", 4, v),
                                 np.float64(2.0)),
    "Metric.kind": ("metric kind", "choice", lambda v: core.Metric(v, 3), None),
    "Metric.dim": ("metric dimension", "integer", lambda v: core.Metric("euclidean", v), np.int64(3)),
    "translation_reduce.pivot": ("pivot", "choice", lambda v: features.translation_reduce(_TUPLE, v), None),
    "compose.g2": ("g2", "choice", lambda v: groups.compose(_TRANSLATION, v), None),
    "EquivariantModel.mode": ("mode", "choice", lambda v: basis.EquivariantModel(
        "e", core.euclidean(3), basis.uniform_mixture(), mode=v), None),
    "EquivariantModel.family": ("family", "choice", lambda v: basis.EquivariantModel(
        v, core.euclidean(3), basis.uniform_mixture()), None),
    "symmetrize_permutation.n": ("n", "integer", lambda v: basis.symmetrize_permutation(basis.uniform_mixture(), v),
                                 np.int64(3)),
    "einsum.evaluate.d": ("d", "integer", lambda v: einsum.evaluate(einsum.parse("u_i u_i"), {"u": np.ones(3)}, v),
                          np.int64(3)),
    "einsum.validate.mode": ("mode", "choice", lambda v: einsum.validate(
        einsum.parse("u_i v_i"), core.euclidean(3), v), None),
    "Particle.mass": ("particle mass", "real", lambda v: physics.Particle(_ZERO, _ZERO, mass=v), np.float64(2.0)),
    "Particle.charge": ("particle charge", "real", lambda v: physics.Particle(_ZERO, _ZERO, charge=v),
                        np.float32(-1.0)),
    "TrainConfig.epochs": ("epochs", "integer", lambda v: mpnn.TrainConfig(epochs=v), np.int64(1)),
    "TrainConfig.lr": ("lr", "real", lambda v: mpnn.TrainConfig(lr=v), np.float64(0.01)),
    "TrainConfig.batch_size": ("batch_size", "integer", lambda v: mpnn.TrainConfig(batch_size=v), np.int64(4)),
    "TrainConfig.seed": ("seed", "integer", lambda v: mpnn.TrainConfig(seed=v), np.uint32(7)),
    "TrainConfig.val_fraction": ("val_fraction", "real", lambda v: mpnn.TrainConfig(val_fraction=v),
                                 np.float64(0.25)),
    "TrainConfig.stop_at_val_ratio": ("stop_at_val_ratio", "real or None",
                                      lambda v: mpnn.TrainConfig(stop_at_val_ratio=v), np.float64(0.5)),
    "EdgeConfig.include_inv_sqrt": ("include_inv_sqrt", "bool", lambda v: mpnn.EdgeConfig(include_inv_sqrt=v),
                                    None),
    "EdgeConfig.rbf_centers": ("rbf_centers", "real list", lambda v: mpnn.EdgeConfig(rbf_centers=v),
                               [np.float64(0.5), np.int64(1)]),
    "EdgeConfig.rbf_width": ("rbf_width", "real", lambda v: mpnn.EdgeConfig(rbf_width=v), np.float64(0.5)),
    "ScalarNet.widths": ("widths", "integer list", lambda v: mpnn.ScalarNet(v), [3, np.int64(4), 1]),
    "ScalarNet.activation": ("activation", "choice", lambda v: mpnn.ScalarNet([3, 1], v), None),
    "ScalarNet.stack": ("stack", "integer or None", lambda v: mpnn.ScalarNet([3, 1], stack=v), np.int64(2)),
    "MpnnModel.n_particles": ("n_particles", "integer", lambda v: mpnn.MpnnModel(v), np.int64(3)),
    "MpnnModel.layers": ("layers", "integer", lambda v: mpnn.MpnnModel(3, layers=v), np.int64(1)),
    "MpnnModel.hidden": ("hidden", "integer list", lambda v: mpnn.MpnnModel(3, hidden=v), (np.int64(4),)),
    "MpnnModel.activation": ("activation", "choice", lambda v: mpnn.MpnnModel(3, activation=v), None),
    "MpnnModel.mode": ("mode", "choice", lambda v: mpnn.MpnnModel(3, mode=v), None),
    "MpnnModel.readout": ("readout", "choice", lambda v: mpnn.MpnnModel(3, readout=v), None),
    "MpnnModel.seed": ("seed", "integer", lambda v: mpnn.MpnnModel(3, seed=v), np.uint32(7)),
    "MpnnModel.edge_config": ("edge_config", "object", lambda v: mpnn.MpnnModel(3, edge_config=v), None),
    "omega_sample.d": ("d", "integer", lambda v: features.omega_sample(np.eye(4), v), np.int64(1)),
    "omega_complete.max_iter": ("max_iter", "integer", lambda v: features.omega_complete(_BAND, max_iter=v),
                                np.int64(2)),
    "OmegaSample.n": ("n", "integer", lambda v: features.OmegaSample(v, 1, _BAND.entries), np.int64(4)),
    "OmegaSample.d": ("d", "integer", lambda v: features.OmegaSample(4, v, _BAND.entries), np.int8(1)),
    "generate_dataset.n_particles": ("n_particles", "integer",
                                     lambda v: mpnn.generate_dataset(groups.make_rng(0), v, 2), np.int64(2)),
    "generate_dataset.n_samples": ("n_samples", "integer",
                                   lambda v: mpnn.generate_dataset(groups.make_rng(0), 2, v), np.int64(2)),
    "generate_dataset.k": ("k", "real", lambda v: mpnn.generate_dataset(groups.make_rng(0), 2, 1, k=v),
                           np.float64(2.0)),
    "generate_dataset.c": ("c", "real", lambda v: mpnn.generate_dataset(groups.make_rng(0), 2, 1, c=v), np.int64(3)),
}


def _bad_values(kind):
    base, _, tail = kind.partition(" ")
    if tail == "list":
        return [[v] for v in _BAD[base]]
    return [v for v in _BAD[base] if not (v is None and tail == "or None")]


_CASES = [(case, value) for case, (_, kind, _, _) in FIELDS.items() for value in _bad_values(kind)]


@pytest.mark.parametrize("case, value", _CASES, ids=[f"{case}-{value!r}" for case, value in _CASES])
def test_a_bad_value_is_refused_naming_its_field(case, value):
    field, _, check, _ = FIELDS[case]
    with pytest.raises(EquiscalarError) as info:
        check(value)
    got = repr(type(value).__name__) if case == "compose.g2" else repr(value)
    assert re.fullmatch(rf"{re.escape(field)} must be .+, got {re.escape(got)}", str(info.value)), str(info.value)


_NUMPY = [case for case, (*_, good) in FIELDS.items() if good is not None]


@pytest.mark.parametrize("case", _NUMPY)
def test_a_numpy_number_is_taken(case):
    *_, check, good = FIELDS[case]
    check(good)


def test_a_model_built_with_numpy_integers_saves_as_json():
    model = mpnn.MpnnModel(np.int64(3), layers=np.int64(1), hidden=(np.int32(4),))
    saved = json.loads(json.dumps(model.to_dict()))
    assert (saved["n_particles"], saved["layers"], saved["hidden"]) == (3, 1, [4])


# -- one kind phrase from the constructor, a train config and a saved model ------

# (config key, saved-model path, the constructor's check of a value)
_SHARED = [
    ("n_particles", "n_particles", lambda v: mpnn.MpnnModel(v)),
    ("layers", "layers", lambda v: mpnn.MpnnModel(3, layers=v)),
    ("widths", "hidden", lambda v: mpnn.MpnnModel(3, hidden=v)),
    ("activation", "activation", lambda v: mpnn.MpnnModel(3, activation=v)),
    ("mode", "mode", lambda v: mpnn.MpnnModel(3, mode=v)),
    ("readout", "readout", lambda v: mpnn.MpnnModel(3, readout=v)),
    ("edge_rbf_centers", "edge_config.rbf_centers", lambda v: mpnn.EdgeConfig(rbf_centers=v)),
    ("edge_rbf_width", "edge_config.rbf_width", lambda v: mpnn.EdgeConfig(rbf_width=v)),
]
# The values a config's text and JSON both spell: as config text, and parsed.
_SPELLED = [('"1"', "1"), ("nan", float("nan")), ("inf", float("inf")), ("-inf", -float("inf")), ("-2.5", -2.5)]
_CONFIG = "n_particles = 3\nn_samples = 4\nseed = 0\nepochs = 1\n"


def _kind(message, field, value):
    match = re.fullmatch(rf"{re.escape(field)} must be (.+), got {re.escape(repr(value))}", message)
    assert match, message
    return match.group(1)


@pytest.mark.parametrize("key, path, build", _SHARED, ids=[key for key, _, _ in _SHARED])
def test_a_bad_value_has_one_kind_in_code_in_a_config_and_in_a_saved_model(key, path, build, tmp_path,
                                                                          monkeypatch):
    def drawn(*args, **kwargs):
        raise AssertionError("train drew its dataset before checking its config")

    monkeypatch.setattr(mpnn, "generate_dataset", drawn)
    golden = json.loads((DATA / "golden_concat.model.json").read_text())
    for text, value in _SPELLED:
        with pytest.raises(EquiscalarError) as info:
            build(value)
        kinds = {_kind(str(info.value), path.rpartition(".")[2], value)}

        config = tmp_path / "train.cfg"
        config.write_text(_CONFIG.replace(f"{key} = 3\n", "") + f"{key} = {text}\n")
        result = CliRunner().invoke(main, ["train", "--config", str(config), "--out", str(tmp_path / "m.json"),
                                           "--report", str(tmp_path / "r.csv")])
        assert result.exit_code == 2 and result.stderr.startswith("train: "), result.output
        kinds.add(_kind(result.stderr[len("train: "):-1], key, value))

        saved = json.loads(json.dumps(golden))
        *parents, name = path.split(".")
        target = saved
        for parent in parents:
            target = target[parent]
        target[name] = value
        with pytest.raises(EquiscalarError) as info:
            mpnn.MpnnModel.from_dict(json.loads(json.dumps(saved)))
        kinds.add(_kind(str(info.value), path, value))
        assert len(kinds) == 1, kinds
