import itertools
import json
import warnings

import numpy as np
import pytest

from equiscalar import basis, features, groups, harness
from equiscalar.core import FREE, POSITION, VectorTuple, euclidean, minkowski
from equiscalar.errors import RoleError, ShapeError


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


# group, dim, n_vectors, keywords, the field the message names
BAD_SPECS = {
    "lorentz-dim-1": ("lorentz", 1, 3, {}, "dim must be an integer >= 2"),
    "poincare-dim-1": ("poincare", 1, 3, {}, "dim must be an integer >= 2"),
    "o-dim-0": ("o", 0, 2, {}, "dim must be an integer >= 1"),
    "o-dim-minus-1": ("o", -1, 2, {}, "dim must be an integer >= 1"),
    "o-dim-2.5": ("o", 2.5, 2, {}, "dim must be an integer"),
    "o-dim-3.0": ("o", 3.0, 2, {}, "dim must be an integer"),
    "o-dim-true": ("o", True, 2, {}, "dim must be an integer"),
    "n-vectors-0": ("o", 3, 0, {}, "n_vectors must be an integer >= 1"),
    "n-vectors-minus-1": ("so", 3, -1, {}, "n_vectors must be an integer >= 1"),
    "n-vectors-2.0": ("e", 3, 2.0, {}, "n_vectors must be an integer"),
    "blocks-1.5": ("perm", 3, 4, {"blocks": 1.5}, "blocks must be None or an integer"),
    "blocks-2.0": ("perm", 3, 4, {"blocks": 2.0}, "blocks must be None or an integer"),
    "scalars-per-block-minus-1": ("perm", 3, 4, {"blocks": 2, "scalars_per_block": -1},
                                  "scalars_per_block must be an integer >= 0"),
    "scalars-per-block-0.5": ("perm", 3, 4, {"blocks": 2, "scalars_per_block": 0.5},
                              "scalars_per_block must be an integer"),
    "scalars-per-block-without-blocks": ("perm", 3, 4, {"scalars_per_block": 1},
                                         "scalars_per_block needs blocks"),
    "rapidity-string": ("lorentz", 4, 3, {"rapidity_max": "x"}, "rapidity_max must be a finite number"),
    "rapidity-none": ("lorentz", 4, 3, {"rapidity_max": None}, "rapidity_max must be a finite number"),
    "rapidity-true": ("lorentz", 4, 3, {"rapidity_max": True}, "rapidity_max must be a finite number"),
    "rapidity-nan": ("poincare", 4, 3, {"rapidity_max": float("nan")}, "rapidity_max must be a finite number"),
    "rapidity-inf": ("o", 3, 3, {"rapidity_max": float("inf")}, "rapidity_max must be a finite number"),
    "rapidity-0": ("lorentz", 4, 3, {"rapidity_max": 0}, "rapidity_max must be a finite number"),
    "rapidity-past-max": ("lorentz", 4, 3, {"rapidity_max": 1e308}, "rapidity_max must be a finite number"),
}


@pytest.mark.parametrize("case", BAD_SPECS)
def test_a_spec_outside_its_family_record_is_rejected_when_built(case):
    group, dim, n, kwargs, field = BAD_SPECS[case]
    with pytest.raises(ShapeError, match=field):
        harness.SymmetrySpec(group, dim, n, **kwargs)


def test_a_spec_with_an_unknown_role_is_rejected_when_built():
    with pytest.raises(RoleError, match="roles"):
        harness.SymmetrySpec("o", 3, 2, roles=("pos", "free"))


@pytest.mark.parametrize("rapidity_max", [2, 0.5, np.float64(9.0), groups._MAX_RAPIDITY])
def test_a_spec_takes_any_real_rapidity_max_in_range(rapidity_max):
    spec = harness.SymmetrySpec("lorentz", 4, 2, rapidity_max=rapidity_max)
    assert spec.rapidity_max == rapidity_max


def test_a_spec_takes_numpy_integers():
    spec = harness.SymmetrySpec("perm", np.int64(3), np.int32(4), blocks=np.int64(2),
                                scalars_per_block=np.int8(1))
    report = harness.certify(lambda x, s: x.vectors[0::2], spec, np.int64(3), groups.make_rng(0))
    assert json.loads(json.dumps(report.to_dict()))["trials"] == 3
    assert not report.failures and report.max_residual == 0.0


# specs, trials, the word the message names
BAD_RUNS = {
    "no-spec": ([], 3, "needs at least one spec"),
    "trials-2.5": ([harness.SymmetrySpec("o", 3, 2)], 2.5, "trials must be an integer >= 1"),
    "trials-string": ([harness.SymmetrySpec("o", 3, 2)], "3", "trials must be an integer >= 1"),
}


@pytest.mark.parametrize("case", BAD_RUNS)
def test_certify_joint_checks_its_own_arguments(case):
    specs, trials, word = BAD_RUNS[case]
    with pytest.raises(ShapeError, match=word):
        harness.certify_joint(_mean_vector, specs, trials, groups.make_rng(0))


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


@pytest.mark.parametrize("family", ["o", "e", "lorentz", "poincare"])
def test_gram_model_certifies_at_n_1000(family):
    # The translation families see every vector as a position.
    n = 1000
    metric = minkowski(4) if family in ("lorentz", "poincare") else euclidean(3)
    roles = (POSITION,) * n if family in ("e", "poincare") else None
    model = basis.EquivariantModel(
        family, metric, basis.FixedClosure(lambda f: np.tanh(f.gram.sum(axis=1) / f.n))
    )
    spec = harness.SymmetrySpec(family, metric.dim, n, roles=roles)
    report = harness.certify(lambda x: basis.evaluate(model, x), spec, 40, groups.make_rng(1))
    assert not report.failures
    assert report.max_residual <= 1e-8


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
            vecs, _ = harness._sample_input(spec, rng_a, lightlike=True)
            assert np.array_equal(vecs, _lightlike_loop(rng_b, n, d))
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


# -- non-finite outputs ------------------------------------------------------------


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_output_fails_its_trial(value):
    report = harness.certify(lambda x: np.full(3, value), harness.SymmetrySpec("o", 3, 3), 7,
                             groups.make_rng(0))
    assert [f["trial"] for f in report.failures] == list(range(7))
    assert {f["error"] for f in report.failures} == {"NonFiniteError: output on the input is NaN or Inf"}
    assert report.max_residual == 0.0 and report.worst_input is None and not report.components
    assert np.isnan(report.mean_residual)


def test_a_non_finite_output_on_the_image_alone_fails_its_trial():
    calls = iter(range(100))

    def fn(x):  # the second call of trials 0, 1 and 2: the image's output
        return x.vectors[0] * (np.nan if next(calls) in (1, 3, 5) else 1.0)

    report = harness.certify(fn, harness.SymmetrySpec("o", 3, 2), 6, groups.make_rng(1))
    assert [(f["trial"], f["error"]) for f in report.failures] == [
        (t, "NonFiniteError: output on the image is NaN or Inf") for t in range(3)]
    assert sum(c["trials"] for c in report.components.values()) == 3
    assert 0.0 < report.max_residual < 1e-12 and np.isfinite(report.mean_residual)


def test_nan_outputs_fail_only_their_trials_and_leave_the_rest_as_before():
    def some_nan(x):
        out = x.vectors[0].copy()
        if x.vectors[1, 0] > 1.0:
            out[0] = np.nan
        return out

    def finite(x):
        return x.vectors[0].copy()

    spec = harness.SymmetrySpec("o", 3, 2)
    report = harness.certify(some_nan, spec, 30, groups.make_rng(25))
    clean = harness.certify(finite, spec, 30, groups.make_rng(25))
    failed = {f["trial"] for f in report.failures}
    assert failed and all(f["error"].startswith("NonFiniteError") for f in report.failures)
    assert len(failed) < 30 and report.max_residual <= clean.max_residual
    assert sum(c["trials"] for c in report.components.values()) == 30 - len(failed)


def test_outputs_too_large_for_the_residual_fail_quietly():
    # Finite outputs whose squared norms overflow make the residual NaN: the
    # trial fails with that reason, and no numpy warning escapes.
    report = harness.certify(lambda x: 1e300 * x.vectors[0], harness.SymmetrySpec("o", 3, 2), 4,
                             groups.make_rng(2))
    assert [(f["trial"], f["error"]) for f in report.failures] == [
        (t, "NonFiniteError: residual is NaN: the outputs overflow its arithmetic") for t in range(4)]
    report = harness.certify(lambda x: 1e150 * x.vectors[0], harness.SymmetrySpec("o", 3, 2), 4,
                             groups.make_rng(2))
    assert not report.failures and report.max_residual < 1e-15


def test_a_boost_whose_determinant_overflows_reports_alike_under_any_warning_filter():
    # At rapidity 354 a boost's entries near 1e153 overflow det(q) and the
    # image's Gram: the whole stack runs with numpy's warnings off, so the
    # report is the same whether warnings print or raise, and none escapes.
    spec = harness.SymmetrySpec("lorentz", 4, 3, output_kind="scalar-invariant", rapidity_max=354)

    def report():
        fn = lambda x: features.gram(minkowski(4), x)
        return json.dumps(harness.certify_joint(fn, [spec], 50, groups.make_rng(1)).to_dict())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        printed = report()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        raised = report()
    assert caught == [] and printed == raised
    assert json.loads(printed)["trials"] == 50


# -- the stacked loop against the per-trial loop it replaced ----------------------


def _oracle_certify_joint(fn, specs, trials, rng):
    """The per-trial certification loop: sample, apply, transform and compare
    one trial at a time, serializing each new worst input."""

    def serialize(x, scalars):
        obj = json.loads(x.to_json())
        if scalars is not None:
            obj["scalars"] = np.asarray(scalars).tolist()
        return json.dumps(obj)

    def apply_input(g, spec, x, scalars):
        if isinstance(g, groups.Permutation):
            sigma = g.sigma
            if spec.blocks is not None and len(sigma) != spec.n_vectors:
                per = spec.n_vectors // spec.blocks
                sigma = np.add.outer(sigma * per, np.arange(per)).ravel()
            return (groups.apply(groups.Permutation(sigma), x),
                    scalars[list(g.sigma)] if scalars is not None else None)
        return groups.apply(g, x), scalars

    def transform(g, spec, out):
        if spec.output_kind == harness.SCALAR_INVARIANT:
            return out
        if isinstance(g, groups.Permutation):
            return out[list(g.sigma)] if out.ndim == 2 else out
        out = out @ g.q.T
        if spec.output_kind == harness.VECTOR_EQUIVARIANT and g._translates:
            return out + g.w
        if spec.output_kind == harness.PSEUDO_VECTOR:
            return out * np.linalg.det(g.q)
        return out

    report = harness.CertReport(trials=trials)
    total = 0.0
    for trial in range(trials):
        vecs, scalars = harness._sample_input(specs[0], rng, trial % 4 == 3 and harness._stressed(specs))
        x = VectorTuple(vecs, specs[0].roles)
        elements = [groups.sample(s.group, rng, (s.blocks or s.n_vectors) if s.group == "perm"
                                  else s.dim, s.rapidity_max) for s in specs]
        try:
            out = np.asarray(fn(x) if scalars is None else fn(x, scalars), dtype=np.float64)
            x2, scalars2, expected = x, scalars, out
            for g, spec in zip(elements, specs):
                x2, scalars2 = apply_input(g, spec, x2, scalars2)
                expected = transform(g, spec, expected)
            out2 = np.asarray(fn(x2) if scalars2 is None else fn(x2, scalars2), dtype=np.float64)
            if out2.shape != out.shape:
                raise ShapeError(f"output of shape {out2.shape} on the image, {out.shape} on the input")
        except Exception as exc:  # noqa: BLE001
            report.failures.append({"trial": trial, "error": f"{type(exc).__name__}: {exc}",
                                    "input": serialize(x, scalars)})
            continue
        residual = float(np.linalg.norm(out2 - expected) / (1.0 + np.linalg.norm(out)))
        total += residual
        if residual >= report.max_residual:
            report.max_residual = residual
            report.worst_input = serialize(x, scalars)
        for g in elements:
            if isinstance(g, (groups.Permutation, groups.Translation)):
                continue
            key = f"det={'+1' if np.linalg.det(g.q) > 0 else '-1'}"
            comp = report.components.setdefault(key, {"trials": 0, "max_residual": 0.0})
            comp["trials"] += 1
            comp["max_residual"] = max(comp["max_residual"], residual)
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report


def _ragged(x, *scalars):
    # Output rows and failures vary with the input, so one stack holds
    # outputs of several shapes and trials that fail at different stages.
    v = x.vectors
    if v[0, 0] > 1.2:
        raise ArithmeticError("first coordinate too large")
    out = v * (1.0 + 0.01 * np.tanh(v[0, 0])) + (0.0 if v[1, 0] < 0.5 else 1e-3)
    return out if v[0, 1] > 0 else out[0]


@pytest.mark.parametrize("kind", [
    harness.VECTOR_EQUIVARIANT, harness.PSEUDO_VECTOR, harness.SCALAR_INVARIANT,
    harness.VECTOR_TRANSLATION_INVARIANT,
])
@pytest.mark.parametrize("groups_", [
    ("o",), ("so",), ("e",), ("lorentz",), ("poincare",), ("translation",), ("perm",),
    ("perm", "translation", "o"), ("lorentz", "poincare"), ("e", "perm"),
])
def test_stacked_loop_matches_the_per_trial_loop(groups_, kind):
    d = 4 if {"lorentz", "poincare"} & set(groups_) else 3
    roles = (POSITION, FREE, POSITION)
    specs = [harness.SymmetrySpec(g, d, 3, roles=roles, output_kind=kind) for g in groups_]
    fns = (_ragged, _mean_vector, lambda x: x.vectors[0, 0] * x.vectors[1, 1])
    runs = [(fn, seed, trials) for fn in fns for seed, trials in ((0, 1), (1, 30))]
    runs.append((_ragged, 2, harness.CHUNK_TRIALS + 3))
    for fn, seed, trials in runs:
        got = harness.certify_joint(fn, specs, trials, groups.make_rng(seed))
        want = _oracle_certify_joint(fn, specs, trials, groups.make_rng(seed))
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_block_permutation_with_scalars_matches_the_per_trial_loop():
    specs = [harness.SymmetrySpec(g, 3, 6, roles=(POSITION, FREE) * 3,
                                  output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
                                  blocks=3, scalars_per_block=2)
             for g in ("perm", "translation", "o")]

    def fn(x, scalars):
        return scalars[:, :1] * (x.vectors[0::2] - x.vectors[0::2].mean(axis=0)) + x.vectors[1::2]

    for seed in range(3):
        got = harness.certify_joint(fn, specs, 40, groups.make_rng(seed))
        want = _oracle_certify_joint(fn, specs, 40, groups.make_rng(seed))
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_target_is_called_twice_per_trial_in_trial_order():
    seen = []

    def fn(x):
        seen.append(x.vectors.copy())
        return x.vectors[0]

    trials = harness.CHUNK_TRIALS + 2
    harness.certify(fn, harness.SymmetrySpec("o", 3, 2), trials, groups.make_rng(17))
    assert len(seen) == 2 * trials
    rng = groups.make_rng(17)
    for trial in range(trials):
        vecs, _ = harness._sample_input(harness.SymmetrySpec("o", 3, 2), rng, False)
        g = groups.sample("o", rng, 3)
        assert np.array_equal(seen[2 * trial], vecs)
        assert np.array_equal(seen[2 * trial + 1], groups.apply(g, VectorTuple(vecs)).vectors)


def test_serialized_input_appends_scalars_to_the_tuple_json():
    x = VectorTuple(np.array([[0.1, -2.0, 3e-17], [1.0, 0.0, -0.0]]), (POSITION, FREE))
    scalars = np.array([[0.5], [-1.25]])
    obj = json.loads(x.to_json())
    obj["scalars"] = scalars.tolist()
    assert harness._serialize_input(x, scalars) == json.dumps(obj)
    assert harness._serialize_input(x, None) == x.to_json()


@pytest.mark.parametrize("rows", [2, 4])
def test_permutation_of_output_rows_that_do_not_match_the_slots_fails_the_trial(rows):
    report = harness.certify(lambda x: np.ones((rows, 3)), harness.SymmetrySpec("perm", 3, 3),
                             5, groups.make_rng(18))
    assert [f["trial"] for f in report.failures] == list(range(5))
    assert all(f["error"] == f"ShapeError: output has {rows} rows; the permutation moves 3"
               for f in report.failures)


@pytest.mark.parametrize("chunk", [1, 7])
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    specs = [harness.SymmetrySpec(g, 4, 3, roles=(POSITION, FREE, POSITION))
             for g in ("lorentz", "perm", "poincare")]
    want = json.dumps(harness.certify_joint(_ragged, specs, 23, groups.make_rng(19)).to_dict())
    monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
    assert json.dumps(harness.certify_joint(_ragged, specs, 23, groups.make_rng(19)).to_dict()) == want


# -- output shapes, batched targets, validation cost ------------------------------


@pytest.mark.parametrize("other", [lambda v: np.append(v[0], 1.0), lambda v: v])
def test_an_output_shape_that_changes_on_the_image_fails_the_trial(other):
    def fn(x):
        v = x.vectors
        return v[0] if v[0, 1] > 0 else other(v)

    # An output of shape (4,) fails its transform first; one of (2, 3) moves.
    report = harness.certify(fn, harness.SymmetrySpec("o", 3, 2), 50, groups.make_rng(20))
    shape = np.shape(other(np.ones((2, 3))))
    changes = {f"ShapeError: output of shape {shape} on the image, (3,) on the input"}
    if shape == (2, 3):
        changes.add(f"ShapeError: output of shape (3,) on the image, {shape} on the input")
    assert {f["error"] for f in report.failures if f["error"].startswith("ShapeError")} == changes
    assert report.trials == 50


def _first_row(vectors, scalars):
    return vectors[:, 0]


def test_batched_target_is_called_twice_per_chunk():
    calls = []

    def fn(x):
        raise AssertionError("called per trial")

    def batched(vectors, scalars):
        calls.append(vectors.shape)
        return _first_row(vectors, scalars)

    fn.batched = batched
    trials = harness.CHUNK_TRIALS + 3
    spec = harness.SymmetrySpec("o", 3, 2)
    report = harness.certify(fn, spec, trials, groups.make_rng(21))
    assert calls == [(harness.CHUNK_TRIALS, 2, 3)] * 2 + [(3, 2, 3)] * 2
    plain = harness.certify(lambda x: x.vectors[0], spec, trials, groups.make_rng(21))
    assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())


@pytest.mark.parametrize("batched, roles", [
    (lambda v, s: 1 / 0, (FREE, FREE, FREE)),  # the batched call raises
    (lambda v, s: v[1:, 0], (FREE, FREE, FREE)),  # one output short
    (lambda v, s, calls=itertools.count(): v[:, :1 + next(calls) % 2],  # shapes differ on the image
     (FREE, FREE, FREE)),
    (_first_row, (POSITION, FREE, POSITION)),  # a permutation moves the roles
])
def test_batched_target_falls_back_to_the_per_trial_loop(batched, roles):
    seen = []

    def fn(x):
        seen.append(x.roles)
        return x.vectors[0]

    fn.batched = batched
    specs = [harness.SymmetrySpec(g, 3, 3, roles=roles) for g in ("perm", "o")]
    report = harness.certify_joint(fn, specs, 30, groups.make_rng(22))
    assert len(seen) == 60
    plain = harness.certify_joint(lambda x: x.vectors[0], specs, 30, groups.make_rng(22))
    assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())


def test_images_are_validated_once_per_stack(monkeypatch):
    # One VectorTuple validation per spec's image stack, whatever the trial
    # count: the stacked inputs, drawn finite by the generator, are built
    # without one, targets get row views, and a permuted image, the rows and
    # roles of a valid tuple reordered, needs none.
    validations = []
    validate = VectorTuple.__post_init__

    def counted(self):
        validations.append(self.n)
        validate(self)

    monkeypatch.setattr(VectorTuple, "__post_init__", counted)
    specs = [harness.SymmetrySpec(g, 3, 4) for g in ("perm", "o")]
    harness.certify_joint(lambda x: x.vectors[0], specs, harness.CHUNK_TRIALS, groups.make_rng(23))
    assert validations == [4 * harness.CHUNK_TRIALS]  # the o image's
