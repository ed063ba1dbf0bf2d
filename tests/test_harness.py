import json

import numpy as np
import pytest

from equiscalar import basis, groups, harness
from equiscalar.core import POSITION, VectorTuple
from equiscalar.errors import ShapeError


def _mean_vector(x: VectorTuple) -> np.ndarray:
    return x.vectors.mean(axis=0)


def _first_norm(x: VectorTuple) -> float:
    return float(np.linalg.norm(x.vectors[0]))


# -- spec validation -----------------------------------------------------------


def test_spec_rejects_unknown_group():
    with pytest.raises(ShapeError):
        harness.SymmetrySpec("u2", 3, 2)


def test_spec_rejects_unknown_output_kind():
    with pytest.raises(ShapeError):
        harness.SymmetrySpec("o", 3, 2, output_kind="matrix")


def test_spec_rejects_ragged_blocks():
    with pytest.raises(ShapeError):
        harness.SymmetrySpec("perm", 3, 5, blocks=2)


@pytest.mark.parametrize("blocks", [0, -2])
def test_spec_rejects_non_positive_blocks(blocks):
    with pytest.raises(ShapeError):
        harness.SymmetrySpec("perm", 3, 4, blocks=blocks)


def test_spec_defaults_free_roles():
    spec = harness.SymmetrySpec("o", 3, 2)
    assert spec.roles == ("free", "free")


# -- positive controls -----------------------------------------------------------


def test_equivariant_function_certifies_clean():
    spec = harness.SymmetrySpec("o", 3, 3)
    report = harness.certify(_mean_vector, spec, 200, groups.make_rng(0))
    assert report.trials == 200
    assert not report.failures
    assert report.max_residual <= 1e-12


def test_invariant_scalar_certifies_clean():
    spec = harness.SymmetrySpec("o", 3, 2, output_kind=harness.SCALAR_INVARIANT)
    report = harness.certify(_first_norm, spec, 100, groups.make_rng(1))
    assert report.max_residual <= 1e-12


def test_lorentz_certification_with_lightlike_stress():
    model = basis.EquivariantModel(
        "lorentz",
        __import__("equiscalar.core", fromlist=["minkowski"]).minkowski(4),
        basis.uniform_mixture(),
    )
    spec = harness.SymmetrySpec("lorentz", 4, 3)
    report = harness.certify(
        lambda x: basis.evaluate(model, x), spec, 100, groups.make_rng(2)
    )
    assert report.max_residual <= 1e-8


def _lightlike_loop(rng, n, d):
    """The near-lightlike stress input drawn one vector at a time."""
    vecs = rng.standard_normal((n, d))
    for i in range(n):
        u = rng.standard_normal(d - 1)
        u /= np.linalg.norm(u)
        scale = rng.standard_normal()
        vecs[i, 0] = scale
        vecs[i, 1:] = 0.999 * scale * u
    return vecs


@pytest.mark.parametrize("family", ["lorentz", "poincare"])
def test_lightlike_stress_input_matches_the_loop_bit_for_bit(family):
    for seed in range(40):
        for n in (1, 2, 5, 13, 30):
            d = 2 + seed % 7
            spec = harness.SymmetrySpec(family, d, n)
            rng_a, rng_b = groups.make_rng(seed), groups.make_rng(seed)
            x, _ = harness._sample_input([spec], rng_a, trial=3)
            assert np.array_equal(x.vectors, _lightlike_loop(rng_b, n, d))
            assert rng_a.standard_normal() == rng_b.standard_normal()


def test_pseudo_vector_output_kind():
    def crossf(x):
        return np.cross(x.vectors[0], x.vectors[1])

    spec = harness.SymmetrySpec("o", 3, 2, output_kind=harness.PSEUDO_VECTOR)
    report = harness.certify(crossf, spec, 200, groups.make_rng(3))
    assert report.max_residual <= 1e-12
    # The same function certified as a plain vector must fail on reflections.
    bad = harness.certify(
        crossf,
        harness.SymmetrySpec("o", 3, 2, output_kind=harness.VECTOR_EQUIVARIANT),
        200,
        groups.make_rng(3),
    )
    assert bad.max_residual > 1e-2
    assert bad.components["det=+1"]["max_residual"] <= 1e-12
    assert bad.components["det=-1"]["max_residual"] > 1e-2


def test_translation_invariant_output_kind():
    def mean_diff(x):
        return x.vectors[0] - x.vectors[1]

    spec = harness.SymmetrySpec(
        "e",
        3,
        2,
        roles=(POSITION, POSITION),
        output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
    )
    report = harness.certify(mean_diff, spec, 100, groups.make_rng(4))
    assert report.max_residual <= 1e-12


def test_permutation_blocks_with_scalars():
    # Two (position, velocity) blocks; per-block charge scalars ride along.
    def f(x, scalars):
        rs = x.vectors[0::2]
        vs = x.vectors[1::2]
        return scalars[:, 0:1] * rs + vs

    spec = harness.SymmetrySpec(
        "perm", 3, 4, blocks=2, scalars_per_block=1
    )
    report = harness.certify(f, spec, 100, groups.make_rng(5))
    assert report.max_residual <= 1e-12


# -- negative controls --------------------------------------------------------------


def test_planted_violation_detected():
    eps = 1e-3

    def planted(x):
        v = x.vectors[0]
        return v + eps * (1.0 + np.linalg.norm(v)) * np.array([1.0, 0.0, 0.0])

    spec = harness.SymmetrySpec("o", 3, 2)
    report = harness.certify(planted, spec, 20, groups.make_rng(6))
    assert report.max_residual >= eps / 2.0
    assert report.worst_input is not None
    parsed = json.loads(report.worst_input)
    assert len(parsed["vectors"]) == 2


def test_component_breakdown_present():
    spec = harness.SymmetrySpec("o", 3, 2)
    report = harness.certify(_mean_vector, spec, 50, groups.make_rng(7))
    assert set(report.components) <= {"det=+1", "det=-1"}
    assert sum(c["trials"] for c in report.components.values()) == 50


def test_exceptions_recorded_as_failures():
    def flaky(x):
        if x.vectors[0, 0] > 0:
            raise ValueError("boom")
        return x.vectors[0]

    report = harness.certify(
        flaky, harness.SymmetrySpec("o", 3, 2), 50, groups.make_rng(8)
    )
    assert report.failures
    assert all("ValueError" in f["error"] for f in report.failures)
    assert report.trials == 50


# -- joint certification --------------------------------------------------------------


def test_joint_rotation_translation_permutation():
    def centered_mean(x):
        centered = x.vectors - x.vectors.mean(axis=0)
        return centered

    specs = [
        harness.SymmetrySpec(
            "o",
            3,
            4,
            roles=(POSITION,) * 4,
            output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        ),
        harness.SymmetrySpec(
            "translation",
            3,
            4,
            roles=(POSITION,) * 4,
            output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        ),
        harness.SymmetrySpec("perm", 3, 4, output_kind=harness.VECTOR_TRANSLATION_INVARIANT),
    ]
    report = harness.certify_joint(centered_mean, specs, 100, groups.make_rng(9))
    assert report.max_residual <= 1e-12
    assert not report.failures


def test_joint_detects_single_broken_symmetry():
    # Equivariant under rotations but not translations: positions leak in.
    def leaky(x):
        return x.vectors[0]

    # Roles come from the first spec, so both specs tag the slots as positions.
    specs = [
        harness.SymmetrySpec(
            "o",
            3,
            2,
            roles=(POSITION, POSITION),
            output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        ),
        harness.SymmetrySpec(
            "translation",
            3,
            2,
            roles=(POSITION, POSITION),
            output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        ),
    ]
    report = harness.certify_joint(leaky, specs, 50, groups.make_rng(10))
    assert report.max_residual > 1e-2


def test_certify_requires_trials():
    with pytest.raises(ShapeError):
        harness.certify(_mean_vector, harness.SymmetrySpec("o", 3, 2), 0, groups.make_rng(0))


def test_report_round_trips_json():
    report = harness.certify(
        _mean_vector, harness.SymmetrySpec("o", 3, 2), 10, groups.make_rng(11)
    )
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["trials"] == 10
    assert blob["max_residual"] <= 1e-12
