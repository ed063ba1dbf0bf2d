import numpy as np
import pytest

from equiscalar import groups, harness
from equiscalar.core import FREE, POSITION, VectorTuple, minkowski
from equiscalar.errors import DimensionMismatchError, ShapeError

FAMILIES = ["o", "so", "lorentz", "e", "poincare", "perm", "translation"]


def test_sample_orthogonal_d1_is_sign():
    rng = groups.make_rng(3)
    seen = {float(groups.sample_orthogonal(rng, 1).q[0, 0]) for _ in range(20)}
    assert seen <= {1.0, -1.0}
    assert len(seen) == 2


def test_sampled_orthogonal_is_orthogonal():
    rng = groups.make_rng(0)
    for d in range(2, 7):
        q = groups.sample_orthogonal(rng, d).q
        assert np.max(np.abs(q.T @ q - np.eye(d))) <= 1e-12


def test_orthogonal_det_components_balanced():
    rng = groups.make_rng(1)
    dets = [np.linalg.det(groups.sample_orthogonal(rng, 3).q) for _ in range(10000)]
    assert -0.05 <= np.mean(dets) <= 0.05


def test_rotation_d2_form():
    rng = groups.make_rng(2)
    for _ in range(20):
        q = groups.sample_rotation(rng, 2).q
        c, s = q[0, 0], q[1, 0]
        assert np.max(np.abs(q - np.array([[c, -s], [s, c]]))) <= 1e-12


def test_rotation_determinant_one():
    rng = groups.make_rng(4)
    for d in range(2, 7):
        q = groups.sample_rotation(rng, d).q
        assert abs(np.linalg.det(q) - 1.0) <= 1e-9


def test_rotation_closure_under_composition():
    rng = groups.make_rng(5)
    g1 = groups.sample_rotation(rng, 4)
    g2 = groups.sample_rotation(rng, 4)
    groups.Rotation(groups.compose(g1, g2).q)  # validates in the constructor


def test_boost_top_left_block():
    phi = 1.0
    b = groups.boost(phi, [1.0, 0.0, 0.0], 4)
    expected = np.array([[np.cosh(phi), np.sinh(phi)], [np.sinh(phi), np.cosh(phi)]])
    assert np.allclose(b[:2, :2], expected, atol=1e-15)
    lam = minkowski(4).matrix
    assert np.max(np.abs(b.T @ lam @ b - lam)) <= 1e-12


def test_lorentz_preserves_lightlike():
    rng = groups.make_rng(6)
    lam = minkowski(4).matrix
    v = np.array([1.0, 1.0, 0.0, 0.0])
    for _ in range(50):
        q = groups.sample_lorentz(rng, 4).q
        qv = q @ v
        assert abs(qv @ lam @ qv) <= 1e-9


def test_lorentz_zero_rapidity_identity():
    b = groups.boost(0.0, [0.0, 1.0, 0.0], 4)
    assert np.array_equal(b, np.eye(4))


def test_translation_touches_positions_only():
    x = VectorTuple(np.arange(6.0).reshape(2, 3), (FREE, FREE))
    g = groups.Translation(np.ones(3))
    assert np.array_equal(groups.apply(g, x).vectors, x.vectors)
    y = VectorTuple(np.arange(6.0).reshape(2, 3), (POSITION, FREE))
    out = groups.apply(g, y).vectors
    assert np.array_equal(out[0], y.vectors[0] + 1.0)
    assert np.array_equal(out[1], y.vectors[1])


def test_identity_permutation():
    x = VectorTuple(np.arange(6.0).reshape(3, 2))
    g = groups.Permutation((0, 1, 2))
    assert np.array_equal(groups.apply(g, x).vectors, x.vectors)


def test_permutation_reorders_roles():
    x = VectorTuple(np.arange(4.0).reshape(2, 2), (POSITION, FREE))
    out = groups.apply(groups.Permutation((1, 0)), x)
    assert out.roles == (FREE, POSITION)
    assert np.array_equal(out.vectors, x.vectors[::-1])


def test_euclidean_action_on_mixed_roles():
    rng = groups.make_rng(7)
    g = groups.sample_euclidean(rng, 3)
    r = rng.standard_normal(3)
    v = rng.standard_normal(3)
    x = VectorTuple(np.stack([r, v]), (POSITION, FREE))
    out = groups.apply(g, x).vectors
    assert np.allclose(out[0], g.q @ r + g.w, atol=1e-12)
    assert np.allclose(out[1], g.q @ v, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_compose_matches_sequential_application(family):
    rng = groups.make_rng(8)
    d = 4 if family in ("lorentz", "poincare") else (4 if family == "perm" else 3)
    n = 4
    x = VectorTuple(rng.standard_normal((n, d)), (POSITION, POSITION, FREE, FREE))
    for _ in range(10):
        g1, g2 = groups.sample(family, rng, d), groups.sample(family, rng, d)
        a = groups.apply(groups.compose(g1, g2), x).vectors
        b = groups.apply(g1, groups.apply(g2, x)).vectors
        assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_inverse_round_trip(family):
    rng = groups.make_rng(9)
    d = 4 if family in ("lorentz", "poincare") else (5 if family == "perm" else 3)
    x = VectorTuple(rng.standard_normal((5, d)), (POSITION, POSITION, FREE, FREE, FREE))
    for _ in range(10):
        g = groups.sample(family, rng, d)
        back = groups.apply(groups.inverse(g), groups.apply(g, x)).vectors
        assert np.max(np.abs(back - x.vectors)) <= 1e-9


def test_lorentz_preserves_minkowski_inner_products():
    rng = groups.make_rng(10)
    lam = minkowski(4).matrix
    for _ in range(100):
        q = groups.sample_lorentz(rng, 4).q
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        before = a @ lam @ b
        after = (q @ a) @ lam @ (q @ b)
        assert abs(after - before) <= 1e-8 * (1.0 + abs(before))


def test_sampling_determinism():
    a = groups.sample_lorentz(groups.make_rng(123), 4).q
    b = groups.sample_lorentz(groups.make_rng(123), 4).q
    assert np.array_equal(a, b)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ShapeError):
        groups.Permutation((0, 0, 1))


def test_compose_family_mismatch():
    with pytest.raises(TypeError):
        groups.compose(groups.Translation(np.ones(3)), groups.Permutation((0, 1)))


@pytest.mark.parametrize("cls", [groups.Orthogonal, groups.Rotation, groups.Lorentz])
def test_non_square_matrix_raises_shape_error(cls):
    with pytest.raises(ShapeError):
        cls(np.ones((2, 3)))


@pytest.mark.parametrize("cls", [groups.Euclidean, groups.Poincare])
def test_semidirect_non_square_matrix_raises_shape_error(cls):
    with pytest.raises(ShapeError):
        cls(np.zeros(2), np.ones((2, 3)))


def test_semidirect_translation_length_must_match():
    with pytest.raises(DimensionMismatchError):
        groups.Euclidean(np.zeros(2), np.eye(3))


# -- one affine form, one family table ---------------------------------------------


def test_family_table_is_the_spec_groups():
    assert sorted(groups.FAMILIES) == sorted(FAMILIES)
    for family in groups.FAMILIES:
        harness.SymmetrySpec(family, 4, 4)
    for family in ["O", "euclidean", "lorentz ", "sample_orthogonal", "u2", ""]:
        with pytest.raises(ShapeError):
            harness.SymmetrySpec(family, 4, 4)
        with pytest.raises(ShapeError):
            groups.sample(family, groups.make_rng(0), 4)


@pytest.mark.parametrize(
    "family, sampler",
    [
        ("o", lambda rng: groups.sample_orthogonal(rng, 3)),
        ("so", lambda rng: groups.sample_rotation(rng, 3)),
        ("lorentz", lambda rng: groups.sample_lorentz(rng, 3, 0.7)),
        ("e", lambda rng: groups.sample_euclidean(rng, 3)),
        ("poincare", lambda rng: groups.sample_poincare(rng, 3, 0.7)),
        ("perm", lambda rng: groups.sample_permutation(rng, 3)),
        ("translation", lambda rng: groups.sample_translation(rng, 3)),
    ],
)
def test_sample_draws_what_the_family_sampler_draws(family, sampler):
    a = groups.sample(family, groups.make_rng(11), 3, 0.7)
    b = sampler(groups.make_rng(11))
    assert groups.element_to_dict(a) == groups.element_to_dict(b)


def test_sample_calls_samplers_through_module_globals(monkeypatch):
    calls = []
    original = groups.sample_rotation

    def counted(rng, d):
        calls.append(d)
        return original(rng, d)

    monkeypatch.setattr(groups, "sample_rotation", counted)
    groups.sample("so", groups.make_rng(0), 3)
    groups.sample("lorentz", groups.make_rng(0), 4)  # rotates its spatial block
    assert calls == [3, 3]


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "perm"])
def test_every_affine_element_exposes_q_and_w(family):
    d = 4
    g = groups.sample(family, groups.make_rng(12), d)
    assert g.q.shape == (d, d) and g.w.shape == (d,)
    if family == "translation":
        assert np.array_equal(g.q, np.eye(d))
    if family in ("o", "so", "lorentz"):
        assert np.array_equal(g.w, np.zeros(d))


def test_element_to_dict_names_family_and_fields():
    g = groups.Euclidean([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
    assert groups.element_to_dict(g) == {
        "family": "euclidean", "w": [1.0, 2.0], "q": [[0.0, 1.0], [1.0, 0.0]],
    }
    assert groups.element_to_dict(groups.Translation([3.0])) == {"family": "translation", "w": [3.0]}
    assert groups.element_to_dict(groups.Permutation((1, 0))) == {"family": "permutation", "sigma": [1, 0]}


@pytest.mark.parametrize("family", ["lorentz", "poincare"])
def test_minkowski_inverse_is_eta_q_transpose_eta(family):
    g = groups.sample(family, groups.make_rng(13), 4)
    lam = minkowski(4).matrix
    assert np.array_equal(groups.inverse(g).q, lam @ g.q.T @ lam)
