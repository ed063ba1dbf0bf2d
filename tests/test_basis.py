import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from equiscalar import basis, groups, harness
from equiscalar.core import (
    FREE,
    POSITION,
    VectorTuple,
    euclidean,
    minkowski,
    sort_sign,
)
from equiscalar.errors import EquiscalarError, RoleError, ShapeError
from equiscalar.features import (
    CENTER_OF_POSITIONS,
    ScalarFeatureSet,
    gram,
    subdeterminants,
    translation_reduce,
)


# -- generalized_cross -------------------------------------------------------


def test_cross_right_handed_basis():
    out = basis.generalized_cross([[1.0, 0, 0], [0, 1.0, 0]])
    assert np.array_equal(out, [0.0, 0.0, 1.0])


def test_cross_d2_is_quarter_turn():
    out = basis.generalized_cross([[3.0, 4.0]])
    assert np.allclose(out, [-4.0, 3.0], rtol=0, atol=1e-14)


def test_cross_matches_numpy_at_d3():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal((2, 3))
        assert np.allclose(basis.generalized_cross([a, b]), np.cross(a, b), atol=1e-12)


def test_cross_defining_identity():
    rng = np.random.default_rng(1)
    for d in range(2, 6):
        vs = rng.standard_normal((d - 1, d))
        x = basis.generalized_cross(vs)
        for _ in range(5):
            y = rng.standard_normal(d)
            det = np.linalg.det(np.column_stack([*vs, y]))
            assert np.dot(x, y) == pytest.approx(det, rel=1e-10, abs=1e-10)


def _cofactor_cross(vs):
    """Cofactor expansion of det(v_1, ..., v_{d-1}, y) along its last column."""
    cols = np.column_stack(vs)
    d = cols.shape[0]
    return np.array(
        [(-1.0) ** (k + d + 1) * np.linalg.det(np.delete(cols, k, axis=0)) for k in range(d)]
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cross_matches_cofactor_expansion(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(20):
        vs = rng.standard_normal((d - 1, d))
        want = _cofactor_cross(vs)
        got = basis.generalized_cross(vs)
        assert got.shape == (d,)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_cross_dependent_inputs_vanish():
    v = np.array([1.0, 2.0, 3.0])
    out = basis.generalized_cross([v, 2.0 * v])
    assert np.max(np.abs(out)) <= 1e-12


def test_cross_wrong_arity():
    # One 3-vector implies d=2; the vectors no longer fit their own slot count.
    with pytest.raises(EquiscalarError):
        basis.generalized_cross([[1.0, 0, 0]])


# -- evaluate: families ------------------------------------------------------


def _gram_closure(features):
    # A deliberately nonlinear invariant coefficient function.
    return np.tanh(features.gram.sum(axis=1))


def test_select_vector_returns_it():
    rng = np.random.default_rng(2)
    x = VectorTuple(rng.standard_normal((4, 3)))
    model = basis.EquivariantModel("o", euclidean(3), basis.select_vector(1))
    assert np.array_equal(basis.evaluate(model, x), x.vectors[1])


def test_o_family_equivariance():
    rng = groups.make_rng(3)
    model = basis.EquivariantModel("o", euclidean(3), basis.FixedClosure(_gram_closure))
    for _ in range(100):
        x = VectorTuple(rng.standard_normal((4, 3)))
        q = groups.sample_orthogonal(rng, 3)
        lhs = basis.evaluate(model, groups.apply(q, x))
        rhs = q.q @ basis.evaluate(model, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))


def test_lorentz_family_equivariance():
    rng = groups.make_rng(4)
    model = basis.EquivariantModel("lorentz", minkowski(4), basis.FixedClosure(_gram_closure))
    for _ in range(100):
        x = VectorTuple(rng.standard_normal((3, 4)))
        g = groups.sample_lorentz(rng, 4)
        lhs = basis.evaluate(model, groups.apply(g, x))
        rhs = g.q @ basis.evaluate(model, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_e_family_invariant_mode_ignores_translation():
    rng = groups.make_rng(5)
    roles = (POSITION, POSITION, FREE)
    model = basis.EquivariantModel(
        "e", euclidean(3), basis.FixedClosure(_gram_closure), mode=basis.MODE_INVARIANT
    )
    x = VectorTuple(rng.standard_normal((3, 3)), roles)
    w = groups.Translation(rng.standard_normal(3))
    a = basis.evaluate(model, x)
    b = basis.evaluate(model, groups.apply(w, x))
    assert np.max(np.abs(a - b)) <= 1e-12


def test_e_family_equivariant_mode_shifts_by_w():
    rng = groups.make_rng(6)
    roles = (POSITION, POSITION, POSITION)
    model = basis.EquivariantModel(
        "e", euclidean(3), basis.FixedClosure(_gram_closure), mode=basis.MODE_EQUIVARIANT
    )
    x = VectorTuple(rng.standard_normal((3, 3)), roles)
    w = rng.standard_normal(3)
    a = basis.evaluate(model, x)
    b = basis.evaluate(model, groups.apply(groups.Translation(w), x))
    assert np.max(np.abs(b - (a + w))) <= 1e-12


def test_poincare_centroid_is_translation_equivariant():
    rng = groups.make_rng(7)
    model = basis.EquivariantModel(
        "poincare", minkowski(4), basis.uniform_mixture()
    )
    x = VectorTuple(rng.standard_normal((3, 4)), (POSITION,) * 3)
    g = groups.sample_poincare(rng, 4)
    lhs = basis.evaluate(model, groups.apply(g, x))
    rhs = g.q @ basis.evaluate(model, x) + g.w
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


@pytest.mark.parametrize("family, metric", [("e", euclidean(4)), ("poincare", minkowski(4))])
def test_invariant_mode_certifies_translation_invariant_in_both_affine_families(family, metric):
    model = basis.EquivariantModel(
        family, metric, basis.FixedClosure(lambda f: np.tanh(f.gram.sum(axis=1))),
        mode=basis.MODE_INVARIANT,
    )
    spec = harness.SymmetrySpec(family, 4, 3, roles=(POSITION,) * 3,
                                output_kind=harness.VECTOR_TRANSLATION_INVARIANT)
    report = harness.certify(lambda x: basis.evaluate(model, x), spec, 50, groups.make_rng(1))
    assert report.max_residual <= 1e-8 and not report.failures


def test_translation_family_requires_roles():
    model = basis.EquivariantModel("e", euclidean(2), basis.uniform_mixture())
    with pytest.raises(RoleError):
        basis.evaluate(model, VectorTuple(np.eye(2)))


def test_pure_cross_term_flips_under_reflection():
    fixture = basis.FixedClosure(
        lambda feats: np.zeros(feats.n), cross_fn=lambda feats: {(0, 1): 1.0}
    )
    model = basis.EquivariantModel("so", euclidean(3), fixture)
    rng = groups.make_rng(8)
    x = VectorTuple(rng.standard_normal((3, 3)))
    out = basis.evaluate(model, x)
    assert np.allclose(out, np.cross(x.vectors[0], x.vectors[1]), atol=1e-12)
    rot = groups.sample_rotation(rng, 3)
    assert np.allclose(
        basis.evaluate(model, groups.apply(rot, x)), rot.q @ out, atol=1e-9
    )
    refl = np.eye(3)
    refl[2, 2] = -1.0
    reflected = basis.evaluate(model, x.with_vectors(x.vectors @ refl))
    # Pseudo-vector law: h(Qx) = det(Q) Q h(x) = -Q h(x) here.
    assert np.allclose(reflected, -(refl @ out), atol=1e-9)


def test_cross_terms_rejected_outside_so():
    fixture = basis.FixedClosure(
        lambda feats: np.zeros(feats.n), cross_fn=lambda feats: {(0, 1): 1.0}
    )
    model = basis.EquivariantModel("o", euclidean(3), fixture)
    with pytest.raises(ShapeError):
        basis.evaluate(model, VectorTuple(np.random.default_rng(9).standard_normal((3, 3))))


# -- permutation symmetrization ----------------------------------------------


def test_symmetrize_idempotent_on_symmetric_fixture():
    rng = np.random.default_rng(10)
    x = VectorTuple(rng.standard_normal((4, 3)))
    model = basis.EquivariantModel("o", euclidean(3), basis.uniform_mixture())
    sym = basis.EquivariantModel(
        "o", euclidean(3), basis.uniform_mixture(), permutation_symmetric=True
    )
    assert np.max(np.abs(basis.evaluate(model, x) - basis.evaluate(sym, x))) <= 1e-12


def test_symmetrize_wrapper_idempotent():
    f = basis.symmetrize_permutation(basis.uniform_mixture(), 3)
    assert basis.symmetrize_permutation(f, 3) is f


def test_symmetrized_slot_constant_fixture_averages():
    # f_t = t per slot; the orbit average makes every coefficient (n-1)/2.
    n = 4
    fixture = basis.FixedClosure(lambda feats: np.arange(float(feats.n)))
    sym = basis.symmetrize_permutation(fixture, n)
    x = VectorTuple(np.random.default_rng(11).standard_normal((n, 3)))
    feats = ScalarFeatureSet(gram(euclidean(3), x), euclidean(3))
    coeffs, cross = sym.coefficients(feats)
    assert cross is None
    assert np.allclose(coeffs, (n - 1) / 2.0, atol=1e-12)


def test_symmetrized_model_is_permutation_equivariant():
    rng = groups.make_rng(12)
    fixture = basis.FixedClosure(lambda feats: np.tanh(feats.gram[0]))
    model = basis.EquivariantModel(
        "o", euclidean(3), fixture, permutation_symmetric=True
    )
    x = VectorTuple(rng.standard_normal((5, 3)))
    out = basis.evaluate(model, x)
    for _ in range(25):
        sigma = groups.sample_permutation(rng, 5)
        permuted = basis.evaluate(model, groups.apply(sigma, x))
        assert np.max(np.abs(permuted - out)) <= 1e-10


def test_symmetrize_large_n_rejected():
    with pytest.raises(ShapeError):
        basis.symmetrize_permutation(basis.uniform_mixture(), 9)


# -- span_check ---------------------------------------------------------------


def test_span_check_in_span():
    x = VectorTuple(np.random.default_rng(13).standard_normal((2, 3)))
    h = x.vectors[0] + 2.0 * x.vectors[1]
    assert basis.span_check(x, h) <= 1e-10


def test_span_check_cross_escape():
    x = VectorTuple([[1.0, 0, 0], [0, 1.0, 0]])
    assert basis.span_check(x, [0.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_span_check_empty_tuple():
    x = VectorTuple(np.zeros((0, 3)))
    assert basis.span_check(x, np.zeros(3)) == 0.0


# -- the sort-and-sign rule for pseudo-scalars and cross terms -----------------
#
# A per-subset oracle, one Python step per subset and sigma: a subset S moves
# under sigma to sorted(sigma(S)), times the sign of the sort, found by walking
# the cycles of the sorting permutation.


def _perm_sign(order) -> float:
    seen = [False] * len(order)
    sign = 1.0
    for i in range(len(order)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(order[j])
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _permute_subdets(subdets: dict, sigma) -> dict:
    out = {}
    for subset in subdets:
        mapped = [sigma[i] for i in subset]
        order = np.argsort(mapped)
        sign = _perm_sign(order)
        out[tuple(subset)] = sign * subdets[tuple(sorted(mapped))]
    return out


def _oracle_symmetrized(base, features, permuted_subdets):
    """The per-sigma orbit average, given the permuted subdets of each sigma."""
    n = features.n
    total = np.zeros(n)
    cross_total = {}
    for sigma, subdets in zip(itertools.permutations(range(n)), permuted_subdets):
        idx = np.array(sigma)
        pf = ScalarFeatureSet(features.gram[np.ix_(idx, idx)], features.metric, subdets=subdets)
        coeffs, cross = base.coefficients(pf)
        total[idx] += coeffs
        for subset, c in (cross or {}).items():
            mapped = [sigma[i] for i in subset]
            key = tuple(sorted(mapped))
            cross_total[key] = cross_total.get(key, 0.0) + _perm_sign(np.argsort(mapped)) * c
    count = math.factorial(n)
    total /= count
    return total, ({k: v / count for k, v in cross_total.items()} if cross_total else None)


def _bits(obj):
    """obj with every float replaced by its type and exact bit pattern."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return [(k, _bits(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return (type(obj).__name__, float(obj).hex())
    return (type(obj).__name__, obj)


def _pseudo_fixture(d):
    """Slot coefficients that read every subdeterminant, weighted by its
    key, and cross terms keyed both sorted and unsorted, with float, numpy
    and int values."""

    def fn(f):
        out = np.tanh(f.gram[0]).copy()
        for key, det in f.subdets.items():
            out[list(key)] += det * (key[0] + 1.0)
        return out

    def cross_fn(f):
        return {
            tuple(range(d - 1)): next(iter(f.subdets.values())),
            tuple(range(d - 1, 0, -1)): np.tanh(f.gram[0, -1]),
            (f.n - 1,) + tuple(range(d - 2)): 1,
        }

    return basis.FixedClosure(fn, cross_fn=cross_fn, name=f"pseudo-d{d}")


def _so_features(x):
    return ScalarFeatureSet(gram(euclidean(x.d), x), euclidean(x.d), subdets=subdeterminants(x))


@pytest.mark.parametrize("n, d", [(n, d) for d in (2, 3, 4) for n in range(max(3, d), 8)])
def test_symmetrized_so_matches_the_per_subset_oracle_bit_for_bit(n, d):
    feats = _so_features(VectorTuple(np.random.default_rng(100 * n + d).standard_normal((n, d))))
    want_subdets = [_permute_subdets(feats.subdets, s) for s in itertools.permutations(range(n))]
    got_subdets = [sd for idx, _ in basis._permuted_grams(feats.gram, n)
                   for sd in basis._permuted_subdets(feats.subdets, idx)]
    assert _bits(got_subdets) == _bits(want_subdets)
    fixture = _pseudo_fixture(d)
    got = basis.symmetrize_permutation(fixture, n).coefficients(feats)
    assert got[1]  # the cross terms survive the average
    assert _bits(got) == _bits(_oracle_symmetrized(fixture, feats, want_subdets))


def test_permuted_subdets_follow_the_keys_of_a_hand_built_dict():
    feats = _so_features(VectorTuple(np.random.default_rng(31).standard_normal((5, 3))))
    shuffled = dict(reversed(list(feats.subdets.items())))
    shuffled[(2, 0, 1)] = 7.0  # unsorted: never a sorted image, so never read
    idx = next(basis._permuted_grams(feats.gram, 5))[0]
    got = basis._permuted_subdets(shuffled, idx)
    want = [_permute_subdets(shuffled, tuple(sigma.tolist())) for sigma in idx]
    assert _bits(got) == _bits(want)
    assert list(got[0]) == list(shuffled)


def test_a_missing_subdeterminant_raises_the_oracles_key_error():
    feats = _so_features(VectorTuple(np.random.default_rng(32).standard_normal((4, 3))))
    subdets = dict(feats.subdets)
    del subdets[(1, 2, 3)]
    with pytest.raises(KeyError) as want:
        for sigma in itertools.permutations(range(4)):
            _permute_subdets(subdets, sigma)
    sym = basis.symmetrize_permutation(_pseudo_fixture(3), 4)
    with pytest.raises(KeyError) as got:
        sym.coefficients(ScalarFeatureSet(feats.gram, feats.metric, subdets=subdets))
    assert got.value.args == want.value.args


@pytest.mark.parametrize("subdets", [None, {}])
def test_absent_and_empty_subdets_reach_the_base_as_they_are(subdets):
    seen = []

    def fn(f):
        seen.append(f.subdets)
        return np.zeros(f.n)

    feats = _so_features(VectorTuple(np.random.default_rng(33).standard_normal((4, 3))))
    basis.symmetrize_permutation(basis.FixedClosure(fn), 4).coefficients(
        ScalarFeatureSet(feats.gram, feats.metric, subdets=subdets))
    assert len(seen) == 24 and all(s == subdets and type(s) is type(subdets) for s in seen)


def test_sort_sign_ties_add_no_inversion_like_the_oracle():
    # A stable argsort keeps equal entries in their order; numpy's default
    # need not (numpy 2.4 gives [2, 3, 4, 1, 0] for the third row below).
    rng = np.random.default_rng(34)
    rows = rng.integers(0, 3, size=(500, 5))
    rows[:3] = [[1, 1, 1, 1, 1], [1, 0, 1, 0, 0], [2, 2, 0, 1, 1]]
    images, signs = sort_sign(rows)
    assert np.array_equal(images, np.sort(rows, axis=1))
    assert signs.tolist() == [_perm_sign(np.argsort(row, kind="stable")) for row in rows]
    assert signs[:3].tolist() == [1.0, -1.0, 1.0]


def _pseudo_model(n):
    """A symmetrized SO(3) model: slot coefficients scaled by a subdeterminant
    (a pseudo-scalar) and true-scalar cross-term coefficients, so its output
    is a pseudo-vector, S_n-invariant once averaged."""
    fixture = basis.FixedClosure(
        lambda f: f.subdets[(0, 1, 2)] * np.tanh(f.gram[0]),
        cross_fn=lambda f: {(1, 0): np.tanh(f.gram[0, 2]), (2, n - 1): 0.5},
    )
    model = basis.EquivariantModel("so", euclidean(3), fixture, permutation_symmetric=True)
    return lambda x: basis.evaluate(model, x)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_symmetrized_pseudo_model_certifies_under_permutations_and_rotations(n):
    specs = [harness.SymmetrySpec(g, 3, n) for g in ("perm", "so")]
    report = harness.certify_joint(_pseudo_model(n), specs, 12, groups.make_rng(40 + n))
    assert report.max_residual <= 1e-9
    assert not report.failures


def test_symmetrized_pseudo_model_is_flagged_under_reflections():
    report = harness.certify(_pseudo_model(4), harness.SymmetrySpec("o", 3, 4), 40,
                             groups.make_rng(44))
    assert report.components["det=-1"]["max_residual"] >= 0.1
    assert report.components["det=+1"]["max_residual"] <= 1e-9


# -- cross-term subsets must index the tuple -----------------------------------


@pytest.mark.parametrize("subset", [(0, 7), (0, -1)])
@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetrized"])
def test_cross_subset_outside_the_tuple_is_rejected(subset, symmetric):
    fixture = basis.FixedClosure(lambda f: np.zeros(f.n), cross_fn=lambda f: {subset: 1.0})
    model = basis.EquivariantModel("so", euclidean(3), fixture, permutation_symmetric=symmetric)
    x = VectorTuple(np.random.default_rng(45).standard_normal((3, 3)))
    with pytest.raises(ShapeError, match=re.escape(f"cross-term subset {subset}")):
        basis.evaluate(model, x)


# -- one table of scalars, checked when a model is built -----------------------


def _ladder_evaluate(model, x):
    """``basis.evaluate`` as written before the family tables: an if-ladder
    for the features and one branch per mode for the position coefficients."""
    coeff_fn = model.coeffs
    if model.permutation_symmetric:
        coeff_fn = basis.symmetrize_permutation(coeff_fn, x.n)
    if model.family in ("o", "lorentz"):
        features = ScalarFeatureSet(gram(model.metric, x), model.metric)
    elif model.family == "so":
        features = ScalarFeatureSet(gram(model.metric, x), model.metric, subdets=subdeterminants(x))
    else:
        reduced = translation_reduce(x, CENTER_OF_POSITIONS)
        features = ScalarFeatureSet(gram(model.metric, reduced), model.metric)
    coeffs, cross = coeff_fn.coefficients(features)
    if model.family in ("e", "poincare"):
        pos = x.position_indices()
        coeffs = coeffs.copy()
        if model.mode == basis.MODE_INVARIANT:
            coeffs[pos] -= coeffs[pos].mean()
        else:
            coeffs[pos] += (1.0 - coeffs[pos].sum()) / pos.size
    h = coeffs @ x.vectors
    if model.family == "so" and cross:
        for subset, c in cross.items():
            h = h + c * basis.generalized_cross([x.vectors[i] for i in subset])
    return h


_ORACLE_FIXTURES = [
    basis.FixedClosure(_gram_closure, name="tanh-rowsum"),
    basis.FixedClosure(lambda f: np.tanh(f.gram[0]) - np.cos(f.gram[:, -1]), name="mixed"),
    basis.uniform_mixture(),
    basis.FixedClosure(lambda f: -np.zeros(f.n), name="negative-zeros"),
]


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetrized"])
@pytest.mark.parametrize("mode", [basis.MODE_EQUIVARIANT, basis.MODE_INVARIANT])
@pytest.mark.parametrize("family, metric", [
    ("o", euclidean(3)), ("so", euclidean(3)), ("e", euclidean(3)),
    ("lorentz", minkowski(4)), ("poincare", minkowski(4)),
])
def test_evaluate_matches_the_family_ladder_bit_for_bit(family, metric, mode, symmetric):
    rng = np.random.default_rng(len(family) * 10 + len(mode) + symmetric)
    fixtures = list(_ORACLE_FIXTURES)
    if family == "so":
        fixtures.append(basis.FixedClosure(
            lambda f: f.subdets[(0, 1, 2)] * np.tanh(f.gram[1]),
            cross_fn=lambda f: {(0, 1): np.tanh(f.gram[0, 2]), (3, 1): f.subdets[(1, 2, 3)]},
            name="pseudo"))
    roles = (POSITION, FREE, POSITION, POSITION)
    for fixture in fixtures:
        model = basis.EquivariantModel(family, metric, fixture, mode=mode,
                                       permutation_symmetric=symmetric)
        for _ in range(5 if symmetric else 20):
            x = VectorTuple(rng.standard_normal((4, metric.dim)), roles)
            got, want = basis.evaluate(model, x), _ladder_evaluate(model, x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), fixture.name


_FIXTURE = basis.uniform_mixture()
BAD_MODELS = {
    "unknown-family": (("u2", euclidean(3), _FIXTURE), {}, "model family"),
    "perm-is-no-model-family": (("perm", euclidean(3), _FIXTURE), {}, "model family"),
    "translation-is-no-model-family": (("translation", euclidean(3), _FIXTURE), {}, "model family"),
    "o-on-minkowski": (("o", minkowski(4), _FIXTURE), {}, "metric"),
    "so-on-minkowski": (("so", minkowski(3), _FIXTURE), {}, "metric"),
    "e-on-minkowski": (("e", minkowski(3), _FIXTURE), {}, "metric"),
    "lorentz-on-euclidean": (("lorentz", euclidean(4), _FIXTURE), {}, "metric"),
    "poincare-on-euclidean": (("poincare", euclidean(4), _FIXTURE), {}, "metric"),
    "metric-not-a-metric": (("o", "euclidean", _FIXTURE), {}, "metric"),
    "unknown-mode-e": (("e", euclidean(3), _FIXTURE), {"mode": "both"}, "mode"),
    "unknown-mode-o": (("o", euclidean(3), _FIXTURE), {"mode": "Invariant"}, "mode"),
}


@pytest.mark.parametrize("case", BAD_MODELS)
def test_a_model_that_is_not_in_the_family_tables_is_rejected_when_built(case):
    args, kwargs, field = BAD_MODELS[case]
    with pytest.raises(ShapeError, match=field):
        basis.EquivariantModel(*args, **kwargs)


def test_a_model_is_frozen():
    model = basis.EquivariantModel("e", euclidean(3), _FIXTURE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.mode = "both"


def test_model_families_are_the_families_with_a_metric():
    assert set(basis._SCALARS) == {f for f, record in groups.FAMILIES.items() if record.metric}
