import numpy as np
import pytest

from equiscalar import basis, groups
from equiscalar.core import (
    FREE,
    POSITION,
    VectorTuple,
    euclidean,
    minkowski,
)
from equiscalar.errors import EquiscalarError, RoleError, ShapeError


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
    from equiscalar.features import ScalarFeatureSet, gram

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
