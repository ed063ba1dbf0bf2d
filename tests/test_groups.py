import numpy as np
import pytest

from equiscalar import groups, harness
from equiscalar.core import FREE, MINKOWSKI, POSITION, VectorTuple, minkowski
from equiscalar.errors import DegenerateInputError, DimensionMismatchError, NonFiniteError, ShapeError

FAMILIES = ["o", "so", "lorentz", "e", "poincare", "perm", "translation"]


def test_sample_orthogonal_d1_is_sign():
    rng = groups.make_rng(3)
    seen = {float(groups.sample("o", rng, 1).q[0, 0]) for _ in range(20)}
    assert seen <= {1.0, -1.0}
    assert len(seen) == 2


def test_sampled_orthogonal_is_orthogonal():
    rng = groups.make_rng(0)
    for d in range(2, 7):
        q = groups.sample("o", rng, d).q
        assert np.max(np.abs(q.T @ q - np.eye(d))) <= 1e-12


def test_orthogonal_det_components_balanced():
    rng = groups.make_rng(1)
    dets = [np.linalg.det(groups.sample("o", rng, 3).q) for _ in range(10000)]
    assert -0.05 <= np.mean(dets) <= 0.05


def test_rotation_d2_form():
    rng = groups.make_rng(2)
    for _ in range(20):
        q = groups.sample("so", rng, 2).q
        c, s = q[0, 0], q[1, 0]
        assert np.max(np.abs(q - np.array([[c, -s], [s, c]]))) <= 1e-12


def test_rotation_determinant_one():
    rng = groups.make_rng(4)
    for d in range(2, 7):
        q = groups.sample("so", rng, d).q
        assert abs(np.linalg.det(q) - 1.0) <= 1e-9


def test_rotation_closure_under_composition():
    rng = groups.make_rng(5)
    g1 = groups.sample("so", rng, 4)
    g2 = groups.sample("so", rng, 4)
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
        q = groups.sample("lorentz", rng, 4).q
        qv = q @ v
        assert abs(qv @ lam @ qv) <= 1e-9


def test_lorentz_zero_rapidity_identity():
    b = groups.boost(0.0, [0.0, 1.0, 0.0], 4)
    assert np.array_equal(b, np.eye(4))


def test_a_boost_along_a_zero_axis_is_refused():
    with pytest.raises(DegenerateInputError, match="^axis must be a nonzero vector"):
        groups.boost(0.5, [0.0, 0.0, 0.0], 4)


@pytest.mark.parametrize("phi", [1e6, -711.0])
def test_a_boost_whose_cosh_overflows_is_a_non_finite_error(phi):
    with pytest.raises(NonFiniteError, match="^phi must have a finite cosh"):
        groups.boost(phi, [1.0, 0.0, 0.0], 4)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_a_boost_axis_whose_norm_leaves_float64_is_rescaled(scale):
    want = groups.boost(0.7, [1.0, 2.0, 0.0], 4)
    assert np.max(np.abs(groups.boost(0.7, [scale, 2 * scale, 0.0], 4) - want)) <= 1e-15 * np.max(want)


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
    g = groups.sample("e", rng, 3)
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
        q = groups.sample("lorentz", rng, 4).q
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        before = a @ lam @ b
        after = (q @ a) @ lam @ (q @ b)
        assert abs(after - before) <= 1e-8 * (1.0 + abs(before))


def test_sampling_determinism():
    a = groups.sample("lorentz", groups.make_rng(123), 4).q
    b = groups.sample("lorentz", groups.make_rng(123), 4).q
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


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_record_states_its_metric_and_least_dim(family):
    record = groups.FAMILIES[family]
    assert record.least_dim == (2 if record.metric == MINKOWSKI else 1)
    g = groups.sample(family, groups.make_rng(0), record.least_dim + 1)
    assert type(g) is record.cls
    if record.metric is None:
        assert family in ("perm", "translation")
    else:
        assert g._metric == record.metric
    assert record.translates == (family in ("e", "poincare", "translation")) == getattr(g, "_translates", False)
    assert record.on_slots == (family == "perm")
    assert record.proper == (family in ("so", "translation"))
    if record.proper:
        assert np.linalg.det(g.q) == pytest.approx(1.0)
    with pytest.raises(ShapeError, match=f">= {record.least_dim}"):
        groups.draw(family, groups.make_rng(0), record.least_dim - 1)
    harness.SymmetrySpec(family, record.least_dim, 2)
    with pytest.raises(ShapeError, match="dim"):
        harness.SymmetrySpec(family, record.least_dim - 1, 2)


@pytest.mark.parametrize(
    "family, sampler",
    [
        ("o", lambda rng: groups.sample("o", rng, 3)),
        ("so", lambda rng: groups.sample("so", rng, 3)),
        ("lorentz", lambda rng: groups.sample("lorentz", rng, 3, 0.7)),
        ("e", lambda rng: groups.sample("e", rng, 3)),
        ("poincare", lambda rng: groups.sample("poincare", rng, 3, 0.7)),
        ("perm", lambda rng: groups.sample("perm", rng, 3)),
        ("translation", lambda rng: groups.sample("translation", rng, 3)),
    ],
)
def test_rapidity_max_changes_only_lorentz_and_poincare_elements(family, sampler):
    a = groups.sample(family, groups.make_rng(11), 3, 0.7)
    b = sampler(groups.make_rng(11))
    assert groups.element_to_dict(a) == groups.element_to_dict(b)
    default = groups.sample(family, groups.make_rng(11), 3)
    changed = groups.element_to_dict(a) != groups.element_to_dict(default)
    assert changed == (family in ("lorentz", "poincare"))


def _role_rngs(family, seed):
    return [groups.make_rng([seed, k]) for k in range(groups.FAMILIES[family].roles)]


def _stack_and_singles(family, dim, trials, seed, rapidity_max=groups.DEFAULT_RAPIDITY_MAX):
    """A stack of ``trials`` elements, each kind of number drawn for the
    whole stack in one call on its own stream, and the elements built one by
    one from fresh copies of those streams, each drawn alone."""
    record = groups.draw_record(family, dim, rapidity_max)
    rngs = _role_rngs(family, seed)
    stack = groups.sample_stack(family, record.draw(iter(rngs), trials, dim, rapidity_max))
    fresh = _role_rngs(family, seed)
    singles = [record.cls(*(f[0] for f in record.build(*record.draw(iter(fresh), 1, dim, rapidity_max))))
               for _ in range(trials)]
    assert [r.standard_normal() for r in rngs] == [r.standard_normal() for r in fresh]
    return stack, singles


def _stacked(draws):
    """The per-element ``groups.draw`` results ``draws`` stacked, kind by kind."""
    return [np.concatenate(column) for column in zip(*draws)]


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_draws_from_as_many_streams_as_its_record_counts(family):
    record = groups.FAMILIES[family]
    rngs = iter(_role_rngs(family, 0))
    record.draw(rngs, 5, 4, 2.0)
    assert next(rngs, None) is None
    # Each stream gives one kind of number: one call per stream, whatever the stack size.
    calls = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.rng, name)

    record.draw(iter([Counted(r) for r in _role_rngs(family, 0)]), 64, 4, 2.0)
    assert len(calls) == record.roles - (family in ("lorentz", "poincare"))  # no axis is redrawn


@pytest.mark.parametrize(
    "family, dims",
    [("o", (1, 2, 3, 4)), ("so", (1, 2, 3, 4)), ("lorentz", (2, 3, 4, 5)),
     ("poincare", (2, 3, 4, 5)), ("e", (1, 3)), ("translation", (1, 3)), ("perm", (1, 4))],
)
def test_stacked_element_equals_the_single_draw_bit_for_bit(family, dims):
    for dim in dims:
        for seed in range(5):
            stack, singles = _stack_and_singles(family, dim, 40, seed, rapidity_max=2.5)
            assert type(stack) is type(singles[0])
            for name in ("q", "w", "sigma"):
                if hasattr(stack, name):
                    want = np.stack([getattr(g, name) for g in singles])
                    assert np.array_equal(getattr(stack, name), want), (dim, seed, name)


@pytest.mark.parametrize("count", [1, 24, 80])
def test_qr_signs_are_numpy_qr_bit_for_bit(count):
    rng = groups.make_rng(count)
    for d in range(1, 7):
        a = rng.standard_normal((count, d, d))
        q, r = np.linalg.qr(a)
        got_q, got_signs = groups._qr_signs(a)
        assert got_q.tobytes() == q.tobytes()
        assert np.array_equal(got_signs, np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0))


def test_harness_builds_each_spec_with_one_sample_stack_per_chunk(monkeypatch):
    calls = []
    original = groups.sample_stack

    def counted(family, draws):
        calls.append((family, len(draws[0])))
        return original(family, draws)

    monkeypatch.setattr(groups, "sample_stack", counted)
    rng = groups.make_rng(0)
    specs = [harness.SymmetrySpec("so", 3, 2), harness.SymmetrySpec("perm", 3, 2)]
    harness.certify_joint(lambda x: x.vectors, specs, harness.CHUNK_TRIALS + 5, rng)
    assert calls == [("so", harness.CHUNK_TRIALS), ("perm", harness.CHUNK_TRIALS),
                     ("so", 5), ("perm", 5)]


@pytest.mark.parametrize("cls, sampler", [
    (groups.Orthogonal, lambda rng, d: groups.sample("o", rng, d)),
    (groups.Rotation, lambda rng, d: groups.sample("so", rng, d)),
    (groups.Lorentz, lambda rng, d: groups.sample("lorentz", rng, d)),
], ids=["Orthogonal-sample_orthogonal", "Rotation-sample_rotation", "Lorentz-sample_lorentz"])
def test_stack_with_one_bad_matrix_raises_shape_error(cls, sampler):
    rng = groups.make_rng(14)
    q = np.stack([sampler(rng, 3).q for _ in range(6)])
    cls(q)
    broken = q.copy()
    broken[2] *= 1.001
    with pytest.raises(ShapeError):
        cls(broken)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim, rapidity_max", [
    (0, 2.0), (-1, 2.0), (3, np.nan), (3, np.inf), (3, 0.0), (3, -1.0), (3, np.finfo(float).max),
])
def test_every_family_checks_dim_and_rapidity_before_drawing(family, dim, rapidity_max):
    rng = groups.make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ShapeError):
        groups.draw(family, rng, dim, rapidity_max)
    with pytest.raises(ShapeError):
        groups.sample(family, rng, dim, rapidity_max)
    assert rng.bit_generator.state == state
    if dim > 0:  # a spec checks its rapidity_max when built
        with pytest.raises(ShapeError, match="rapidity_max"):
            harness.SymmetrySpec(family, dim, 2, roles=(POSITION, FREE), rapidity_max=rapidity_max)


@pytest.mark.parametrize("sampler, dim", [
    ("orthogonal", 0), ("rotation", 0), ("translation", 0), ("permutation", 0), ("euclidean", 0),
    ("lorentz", 1), ("poincare", 1),
])
def test_every_sampler_rejects_a_dimension_below_its_floor(sampler, dim):
    family = {"orthogonal": "o", "rotation": "so", "permutation": "perm", "euclidean": "e"}.get(sampler, sampler)
    with pytest.raises(ShapeError, match=f">= {dim + 1}"):
        groups.sample(family, groups.make_rng(0), dim)


def test_a_sampled_boost_whose_bound_overflows_is_rejected():
    rejected = 0
    for seed in range(20):
        try:
            g = groups.sample("lorentz", groups.make_rng(seed), 4, 500.0)
        except ShapeError:
            rejected += 1
        else:
            assert g._scale < 1e154
    assert rejected > 0


@pytest.mark.parametrize("family", ["lorentz", "poincare"])
def test_a_boost_that_overflows_float64_is_a_non_finite_error(family):
    with pytest.raises(NonFiniteError):
        groups.sample(family, groups.make_rng(3), 4, 1e300)


@pytest.mark.parametrize("rapidity_max", [9.0, 12.0])
def test_lorentz_accepts_its_own_large_boosts(rapidity_max):
    for seed in range(1, 11):
        groups.sample("lorentz", groups.make_rng(seed), 4, rapidity_max)
        groups.sample("poincare", groups.make_rng(seed), 4, rapidity_max)


@pytest.mark.parametrize("rapidity_max", [3.0, 6.0, 9.0, 12.0])
@pytest.mark.parametrize("family", ["lorentz", "poincare"])
def test_products_of_large_boosts_with_their_inverses_validate(family, rapidity_max):
    # g inverse(g) cancels to entries near 1 while its rounding is that of
    # entries near cosh(rapidity)^2; chaining on it must validate too.
    for seed in range(1, 101):
        g = groups.sample(family, groups.make_rng(seed), 4, rapidity_max)
        identity = groups.compose(g, groups.inverse(g))
        groups.inverse(identity)
        groups.compose(identity, g)


def test_a_product_keeps_the_scale_of_its_factors():
    g = groups.Lorentz(_lorentz_at(9.0))
    product = groups.compose(g, groups.inverse(g))
    assert product._scale == g._scale**2
    assert groups.inverse(product)._scale == product._scale
    with pytest.raises(ShapeError, match="within 1e-13"):
        groups.Lorentz(product.q)  # given directly, its scale is max(1, max|q|)


def _lorentz_at(phi):
    rotation = np.eye(4)
    rotation[1:, 1:] = groups.sample("so", groups.make_rng(5), 3).q
    return groups.boost(phi, [1.0, 1.0, 1.0], 4) @ rotation


@pytest.mark.parametrize("phi, axis, factor", [
    (0.0, [1.0, 1.0, 1.0], 1 + 1e-6),
    (9.0, [1.0, 1.0, 1.0], 1 + 1e-6),
    # cosh(400) ~ 2.6e173: the defect and its bound both overflow to inf.
    (400.0, [1.0, 0.0, 0.0], 1 + 1e-3),
], ids=["0.0", "9.0", "400.0-overflowing"])
def test_lorentz_rejects_a_boost_scaled_by_1_plus_1e_6(phi, axis, factor):
    q = groups.boost(phi, axis, 4)
    with pytest.raises(ShapeError, match="within 1e-13"):
        groups.Lorentz(q * factor)
    if phi < 400:  # at 400 the unscaled boost's bound overflows as well
        groups.Lorentz(q)


@pytest.mark.parametrize("phi", [0.0, 9.0])
def test_lorentz_rejects_an_entry_off_by_a_relative_1e_6(phi):
    q = _lorentz_at(phi)
    groups.Lorentz(q)
    for i in range(4):
        for j in range(4):
            broken = q.copy()
            broken[i, j] += 1e-6 * np.abs(q).max()
            with pytest.raises(ShapeError):
                groups.Lorentz(broken)


def test_lorentz_bound_is_scaled_per_stacked_element():
    small = _lorentz_at(0.0)
    small[1, 2] += 1e-6
    groups.Lorentz(np.stack([_lorentz_at(12.0), _lorentz_at(0.0)]))
    with pytest.raises(ShapeError):
        groups.Lorentz(np.stack([_lorentz_at(12.0), small]))


def test_rotation_stack_with_one_reflection_raises_shape_error():
    q = np.stack([groups.sample("so", groups.make_rng(s), 3).q for s in range(4)])
    q[3, :, 0] *= -1.0
    with pytest.raises(ShapeError):
        groups.Rotation(q)


def test_stack_with_one_non_bijection_raises_shape_error():
    sigma = np.array([[1, 0, 2], [2, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeError):
        groups.Permutation(sigma)
    groups.Permutation(sigma[:2])


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_apply_equals_per_element_apply(family):
    rng = groups.make_rng(15)
    d, n, trials = (4 if family in ("lorentz", "poincare") else 3), 4, 7
    roles = (POSITION, FREE, POSITION, FREE)
    xs = [VectorTuple(rng.standard_normal((n, d)), roles) for _ in range(trials)]
    draws = [groups.draw(family, rng, n if family == "perm" else d) for _ in range(trials)]
    stack = groups.sample_stack(family, _stacked(draws))
    moved = groups.apply(stack, VectorTuple(np.concatenate([x.vectors for x in xs]), roles * trials))
    singles = [groups.apply(groups.sample_stack(family, dr), x) for dr, x in zip(draws, xs)]
    assert np.array_equal(moved.vectors, np.concatenate([y.vectors for y in singles]))
    assert moved.roles == sum((y.roles for y in singles), ())


def test_stacked_apply_rejects_rows_that_do_not_split_into_the_stack():
    rng = groups.make_rng(16)
    stack = groups.sample_stack("o", _stacked([groups.draw("o", rng, 3) for _ in range(4)]))
    with pytest.raises(ShapeError):
        groups.apply(stack, VectorTuple(rng.standard_normal((10, 3))))


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
