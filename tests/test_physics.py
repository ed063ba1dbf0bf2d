import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiscalar import groups, physics
from equiscalar.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteError,
    ShapeError,
)


def _particle(rng, charge=1.0):
    return physics.Particle(
        rng.standard_normal(3), rng.standard_normal(3), mass=1.0, charge=charge
    )


# -- loop oracles ----------------------------------------------------------------
# The laws as written, one source or one ordered pair at a time. Each returns
# the value and the sum of the absolute values of its terms, the scale that
# rounding error is relative to.


def _energy_loop(particles, G):
    t, scale = 0.0, 0.0
    for p in particles:
        t += 0.5 * p.mass * float(np.dot(p.v, p.v))
        scale += abs(0.5 * p.mass * float(np.dot(p.v, p.v)))
    for i, pi in enumerate(particles):
        for j, pj in enumerate(particles):
            if i == j:
                continue
            sep = float(np.linalg.norm(pi.r - pj.r))
            if sep == 0.0:
                raise DegenerateInputError(f"particles {i} and {j} have coincident positions")
            t -= G * pi.mass * pj.mass / sep
            scale += abs(G * pi.mass * pj.mass / sep)
    return t, scale


def _em_force_loop(test, sources, k, c):
    f, scale = np.zeros(3), 0.0
    for i, s in enumerate(sources):
        if np.array_equal(s.r, test.r):
            raise DegenerateInputError(f"source {i} coincides with the test particle position")
        delta = test.r - s.r
        dist3 = float(np.linalg.norm(delta)) ** 3
        vv = float(np.dot(test.v, s.v))
        vd = float(np.dot(test.v, delta))
        term = k * test.charge * s.charge * (1.0 - vv / c**2) * delta / dist3
        term += k * test.charge * s.charge * vd * s.v / (c**2 * dist3)
        f += term
        scale += float(np.max(np.abs(term)))
    return f, scale


def _mixed_particles(rng, n):
    return [
        physics.Particle(
            rng.standard_normal(3), rng.standard_normal(3),
            mass=float(rng.uniform(0.1, 5.0)), charge=float(rng.standard_normal()),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("n_sources", [0, 1, 3, 11])
@pytest.mark.parametrize("k, c", [(1.0, 1.0), (1.3, 2.0), (0.4, 0.7)])
def test_em_force_scalar_matches_loop(n_sources, k, c):
    rng = np.random.default_rng(100 + n_sources)
    for _ in range(20):
        test, *sources = _mixed_particles(rng, n_sources + 1)
        want, scale = _em_force_loop(test, sources, k, c)
        got = physics.em_force_scalar(test, sources, k, c)
        assert got.shape == (3,) and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [0, 1, 3, 11])
@pytest.mark.parametrize("G", [1.0, 0.7, 6.5])
def test_energy_matches_loop(n, G):
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        parts = _mixed_particles(rng, n)
        want, scale = _energy_loop(parts, G)
        got = physics.total_energy(parts, G)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-13 * scale


def test_energy_empty_and_single():
    assert physics.total_energy([], G=1.0) == 0.0
    p = physics.Particle([0.5, 0, 0], [1.0, 2.0, 2.0], mass=2.0)
    assert physics.total_energy([p], G=3.0) == 9.0


def test_em_forces_others_indices_are_kept_read_only():
    for n in range(2, 14):
        others = physics._others(n)
        assert others is physics._others(n)
        assert others.tolist() == [[j for j in range(n) if j != i] for i in range(n)]
        with pytest.raises(ValueError):
            others[0, 0] = 0
    assert physics._others(40) is not physics._others(40)


@pytest.mark.parametrize("lead", [(), (4,)], ids=["one-set", "stack"])
def test_em_forces_of_no_particles_is_empty(lead):
    r = np.zeros((*lead, 0, 3))
    f = physics.em_forces(r, r.copy(), np.zeros((*lead, 0)), 1.0, 1.0)
    assert f.shape == (*lead, 0, 3) and f.dtype == np.float64


def test_em_coincidence_names_the_loops_source():
    rng = np.random.default_rng(5)
    test, *sources = _mixed_particles(rng, 8)
    for i in (5, 2):
        sources[i] = physics.Particle(test.r, sources[i].v, charge=1.0)
    with pytest.raises(DegenerateInputError) as loop:
        _em_force_loop(test, sources, 1.0, 1.0)
    with pytest.raises(DegenerateInputError) as got:
        physics.em_force_scalar(test, sources, 1.0, 1.0)
    assert str(got.value) == str(loop.value) == (
        "source 2 coincides with the test particle position"
    )


def test_energy_coincidence_names_the_loops_pair():
    rng = np.random.default_rng(6)
    parts = _mixed_particles(rng, 7)
    parts[6] = physics.Particle(parts[1].r, parts[6].v)
    parts[4] = physics.Particle(parts[2].r, parts[4].v)
    parts[5] = physics.Particle(parts[2].r, parts[5].v)
    with pytest.raises(DegenerateInputError) as loop:
        _energy_loop(parts, 1.0)
    with pytest.raises(DegenerateInputError) as got:
        physics.total_energy(parts, 1.0)
    assert str(got.value) == str(loop.value) == "particles 1 and 6 have coincident positions"


def test_energy_mixed_dimensions_raise():
    p = [
        physics.Particle([0.0, 0, 0], [0.0, 0, 0]),
        physics.Particle([1.0, 0], [0.0, 0]),
    ]
    with pytest.raises(DimensionMismatchError):
        physics.total_energy(p, G=1.0)


# -- Particle --------------------------------------------------------------------


def test_particle_stores_mass_and_charge_as_floats():
    p = physics.Particle([0.0, 0, 0], [0.0, 0, 0], mass=2, charge=np.float64(-0.5))
    assert type(p.mass) is float and p.mass == 2.0
    assert type(p.charge) is float and p.charge == -0.5


@pytest.mark.parametrize("field", ["mass", "charge"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_particle_rejects_non_finite_mass_or_charge(field, value):
    with pytest.raises(NonFiniteError):
        physics.Particle([0.0, 0, 0], [0.0, 0, 0], **{field: value})


@pytest.mark.parametrize("field", ["mass", "charge"])
@pytest.mark.parametrize("value", ["x", "1.0", None, [1.0], {"a": 1}])
def test_particle_rejects_non_numeric_mass_or_charge(field, value):
    with pytest.raises(ShapeError):
        physics.Particle([0.0, 0, 0], [0.0, 0, 0], **{field: value})


# -- total_energy --------------------------------------------------------------


def test_energy_two_rest_particles():
    p = [
        physics.Particle([0.0, 0, 0], [0.0, 0, 0]),
        physics.Particle([1.0, 0, 0], [0.0, 0, 0]),
    ]
    # The ordered double sum visits the pair twice: -2 G m^2 / r.
    assert physics.total_energy(p, G=1.0) == pytest.approx(-2.0)


def test_energy_kinetic_term():
    p = [physics.Particle([0.0, 0, 0], [1.0, 2.0, 2.0], mass=2.0)]
    assert physics.total_energy(p, G=1.0) == pytest.approx(9.0)


def test_energy_euclidean_invariance():
    rng = groups.make_rng(0)
    parts = [_particle(rng) for _ in range(4)]
    e0 = physics.total_energy(parts, G=0.7)
    q = groups.sample("o", rng, 3)
    w = rng.standard_normal(3)
    moved = [
        physics.Particle(q.q @ p.r + w, q.q @ p.v, p.mass, p.charge) for p in parts
    ]
    assert physics.total_energy(moved, G=0.7) == pytest.approx(e0, rel=1e-12)


def test_energy_coincident_positions_raise():
    p = [
        physics.Particle([1.0, 0, 0], [0.0, 0, 0]),
        physics.Particle([1.0, 0, 0], [0.0, 0, 0]),
    ]
    with pytest.raises(DegenerateInputError):
        physics.total_energy(p, G=1.0)


# -- electromagnetic force ------------------------------------------------------


def test_em_static_coulomb_hand_value():
    test = physics.Particle([0.0, 0, 0], [0.0, 0, 0], charge=1.0)
    src = physics.Particle([-1.0, 0, 0], [0.0, 0, 0], charge=1.0)
    f = physics.em_force_cross(test, [src], k=1.0, c=1.0)
    assert np.allclose(f, [1.0, 0.0, 0.0], atol=1e-14)


def test_em_cross_and_scalar_forms_agree():
    rng = np.random.default_rng(1)
    for _ in range(100):
        test = _particle(rng, charge=float(rng.standard_normal()))
        sources = [_particle(rng, charge=float(rng.standard_normal())) for _ in range(3)]
        a = physics.em_force_cross(test, sources, k=1.3, c=2.0)
        b = physics.em_force_scalar(test, sources, k=1.3, c=2.0)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("c", [1e200, -1e200])
def test_a_c_whose_square_overflows_gives_the_force_at_infinite_c(c):
    # Run under the suite's error::RuntimeWarning filter: c^2 reaches inf
    # without numpy's overflow warning, and the magnetic term vanishes.
    rng = np.random.default_rng(5)
    parts = [_particle(rng, charge=float(rng.standard_normal())) for _ in range(4)]
    r, v = np.array([p.r for p in parts]), np.array([p.v for p in parts])
    q = np.array([p.charge for p in parts])
    for force in (lambda c: physics.em_force_scalar(parts[0], parts[1:], 1.3, c),
                  lambda c: physics.em_force_cross(parts[0], parts[1:], 1.3, c),
                  lambda c: physics.em_forces(r, v, q, 1.3, c)):
        assert force(c).tobytes() == force(np.inf).tobytes()


def test_em_force_rotation_equivariance():
    rng = groups.make_rng(2)
    test = _particle(rng)
    sources = [_particle(rng, charge=-1.0) for _ in range(2)]
    f = physics.em_force_scalar(test, sources, k=1.0, c=3.0)
    for _ in range(20):
        q = groups.sample("o", rng, 3).q
        rot_test = physics.Particle(q @ test.r, q @ test.v, test.mass, test.charge)
        rot_sources = [
            physics.Particle(q @ s.r, q @ s.v, s.mass, s.charge) for s in sources
        ]
        g = physics.em_force_scalar(rot_test, rot_sources, k=1.0, c=3.0)
        assert np.max(np.abs(g - q @ f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))


def test_em_force_translation_invariance():
    rng = np.random.default_rng(3)
    test = _particle(rng)
    sources = [_particle(rng) for _ in range(2)]
    f = physics.em_force_cross(test, sources, k=1.0, c=1.0)
    w = rng.standard_normal(3)
    shifted_test = physics.Particle(test.r + w, test.v, charge=test.charge)
    shifted_sources = [
        physics.Particle(s.r + w, s.v, charge=s.charge) for s in sources
    ]
    g = physics.em_force_cross(shifted_test, shifted_sources, k=1.0, c=1.0)
    assert np.max(np.abs(g - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))


def test_em_requires_d3():
    test = physics.Particle([0.0, 0], [0.0, 0])
    src = physics.Particle([1.0, 0], [0.0, 0])
    with pytest.raises(ShapeError):
        physics.em_force_cross(test, [src], k=1.0, c=1.0)


def test_em_coincident_source_raises():
    test = physics.Particle([1.0, 2, 3], [0.0, 0, 0])
    src = physics.Particle([1.0, 2, 3], [1.0, 0, 0])
    with pytest.raises(DegenerateInputError):
        physics.em_force_scalar(test, [src], k=1.0, c=1.0)


# -- triple product identity ----------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=9, max_size=9
    )
)
def test_triple_product_identity(flat):
    a, b, c = np.array(flat).reshape(3, 3)
    scale = max(1.0, np.max(np.abs(flat)) ** 3)
    assert physics.triple_product_check(a, b, c) <= 1e-12 * scale
