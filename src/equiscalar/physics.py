"""Reference physics expressions built purely from invariant scalars.

Newtonian total mechanical energy (verbatim ordered double sum), the
electromagnetic force on a test particle in both the double-cross-product
form (a per-source loop, kept as the reference) and the expanded scalar
form, and the vector triple-product identity connecting them. The energy
and the scalar-form force are each one array expression over the
particles, written once for one set and for stacks of sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _cross, generalized_cross
from .core import _kept, array, as_scalar, as_vector
from .errors import DegenerateInputError, DimensionMismatchError, ShapeError


@dataclass(frozen=True)
class Particle:
    r: np.ndarray
    v: np.ndarray
    mass: float = 1.0
    charge: float = 0.0

    def __post_init__(self):
        r = as_vector(self.r, None, "particle r")
        # The fields of a frozen instance, set in one step.
        self.__dict__.update(r=r, v=as_vector(self.v, r.size, "particle v"), mass=as_scalar(self.mass, "particle mass"),
                             charge=as_scalar(self.charge, "particle charge"))


def total_energy(particles, G: float) -> float:
    """Kinetic plus pairwise gravitational potential energy.

    The ordered double sum counts each unordered pair twice; implemented
    exactly as written, without a 1/2 pair correction.
    """
    if not particles:
        return 0.0
    d = particles[0].r.size
    for p in particles:
        if p.r.size != d:
            raise DimensionMismatchError(d, p.r.size, "particle")
    r = np.array([p.r for p in particles])
    v = np.array([p.v for p in particles])
    m = np.array([p.mass for p in particles], dtype=np.float64)
    return float(_energies(r, v, m, G))


_SETS = array("a finite (..., n, d) array of numbers", lambda s: len(s) >= 2)


def _particle_arrays(r, v, values, field):
    """Positions r (..., n, d), velocities v of r's shape and per-particle
    ``values`` of shape r.shape[:-1] or its last axes (one set's values for
    a stack of sets), as float64 arrays, each checked by the array rule."""
    r = _SETS(r, "r")
    v = array(f"a finite array of shape {r.shape}", r.shape.__eq__)(v, "v")
    lead = r.shape[:-1]
    per_particle = array(f"a finite array of shape {lead} or of its last axes",
                         lambda s: len(s) >= 1 and lead[len(lead) - len(s):] == s)
    return r, v, per_particle(values, field)


def total_energies(r, v, m, G: float) -> np.ndarray:
    """``total_energy`` of the particles at positions r (n, d), velocities v
    (n, d) and masses m (n,), or of each set in stacks (T, n, d), (T, n, d),
    (T, n) of them, bit for bit as on one set."""
    return _energies(*_particle_arrays(r, v, m, "m"), G)


def _energies(r, v, m, G):
    sep = _norms(r[..., :, None, :] - r[..., None, :, :])
    sep.reshape(*sep.shape[:-2], -1)[..., :: sep.shape[-1] + 1] = np.inf  # the diagonals
    if not sep.all():
        hit = np.argwhere(sep == 0.0)
        raise DegenerateInputError("particles %d and %d have coincident positions" % tuple(hit[0][-2:]))
    kinetic = (m[..., None, :] @ (v * v).sum(axis=-1)[..., None])[..., 0, 0]
    pairs = m[..., :, None] * m[..., None, :] / sep
    return 0.5 * kinetic - G * pairs.reshape(*pairs.shape[:-2], -1).sum(axis=-1)


def _check_em_inputs(test, sources):
    """Stacked source positions (m, 3), velocities (m, 3) and charges (m,)."""
    if test.r.size != 3 or any(s.r.size != 3 for s in sources):
        raise ShapeError("electromagnetic force is defined for d=3")
    # A few sources: comparing their positions as lists costs less than as arrays.
    at = test.r.tolist()
    for i, s in enumerate(sources):
        if s.r.tolist() == at:
            raise DegenerateInputError(f"source {i} coincides with the test particle position")
    r = np.array([s.r for s in sources]).reshape(-1, 3)
    q = np.array([s.charge for s in sources], dtype=np.float64)
    return r, np.array([s.v for s in sources]).reshape(-1, 3), q


def em_force_cross(test: Particle, sources, k: float, c: float) -> np.ndarray:
    """Coulomb plus magnetic force, magnetic term as v x (v_i x (r - r_i))."""
    _check_em_inputs(test, sources)
    c2 = _c_squared(c)
    f = np.zeros(3)
    for s in sources:
        delta = test.r - s.r
        dist3 = np.linalg.norm(delta) ** 3
        f += k * test.charge * s.charge * delta / dist3
        # generalized_cross's kernel without its input check: an inner cross
        # product that overflows gives a force that is not finite, which the
        # caller checks, not an error that names generalized_cross's input.
        f += k * test.charge * s.charge * _cross(np.array([test.v, _cross(np.array([s.v, delta]))])) / (c2 * dist3)
    return f


def _c_squared(c):
    """c squared, inf past float64's range (c beyond about 1.3e154): the
    force then has no magnetic term. Python's float power raises there
    instead of warning as numpy's does."""
    c = float(c)
    try:
        return c ** 2
    except OverflowError:
        return math.inf


def _em_force(r, v, q, rs, vs, qs, k: float, c: float) -> np.ndarray:
    """The expanded-scalar force on test particles at r (..., 3) with
    velocities v (..., 3) and charges q (...) from sources at rs (..., m, 3)
    with velocities vs (..., m, 3) and charges qs (..., m); any leading axes.
    q is an array, also for one test particle."""
    delta = r[..., None, :] - rs
    coef = (k * q)[..., None] * qs / _norms(delta) ** 3
    test_v = v[..., None]
    vv, vd = vs @ test_v, delta @ test_v
    c2 = _c_squared(c)
    return (coef[..., None, :] @ ((1.0 - vv / c2) * delta + (vd / c2) * vs))[..., 0, :]


def em_force_scalar(test: Particle, sources, k: float, c: float) -> np.ndarray:
    """Same force with the triple product expanded: no cross products anywhere."""
    return _em_force(test.r, test.v, np.float64(test.charge), *_check_em_inputs(test, sources), k, c)


def em_forces(r, v, q, k: float, c: float) -> np.ndarray:
    """``em_force_scalar`` on each of n particles from the other n - 1, for
    positions r (n, 3), velocities v (n, 3) and charges q (n,), or for each
    set in stacks (T, n, 3), (T, n, 3), (T, n) of them, bit for bit."""
    r, v, q = _particle_arrays(r, v, q, "q")
    n, d = r.shape[-2:]
    if d != 3:
        raise ShapeError("electromagnetic force is defined for d=3")
    others = _others(n)
    rs, vs = r[..., others, :], v[..., others, :]  # (..., n, n - 1, 3): particle i's sources
    _check_sources(r, rs)
    return _em_force(r, v, q, rs, vs, q[..., others], k, c)


def _norms(a):
    """``np.linalg.norm(a, axis=-1)`` bit for bit, without its argument handling."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _check_sources(r, rs):
    """Raise DegenerateInputError if a source at rs (..., m, 3) is at its test particle's r (..., 3)."""
    hit = np.flatnonzero((rs == r[..., None, :]).all(axis=-1))
    if hit.size:
        raise DegenerateInputError(f"source {hit[0] % rs.shape[-2]} coincides with the test particle position")


# (n, n - 1): the others of particle i, ascending: each j < i as j, each j >= i as j + 1.
_others = _kept(lambda n: np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None]), lambda n: n <= 32)


def triple_product_check(a, b, c) -> float:
    """Max-norm of a x (b x c) - [(a.c) b - (a.b) c]; identically zero in exact arithmetic."""
    a = as_vector(a, 3, "a")
    b = as_vector(b, 3, "b")
    c = as_vector(c, 3, "c")
    lhs = generalized_cross([a, generalized_cross([b, c])])
    rhs = float(np.dot(a, c)) * b - float(np.dot(a, b)) * c
    return float(np.max(np.abs(lhs - rhs)))
