"""Reference physics expressions built purely from invariant scalars.

Newtonian total mechanical energy (verbatim ordered double sum), the
electromagnetic force on a test particle in both the double-cross-product
form (a per-source loop, kept as the reference) and the expanded scalar
form, and the vector triple-product identity connecting them. The energy
and the scalar-form force are each one array expression over the
particles, written once for one set and for stacks of sets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import generalized_cross
from .core import _read_only, as_scalar, as_vector
from .errors import DegenerateInputError, DimensionMismatchError, ShapeError


@dataclass(frozen=True)
class Particle:
    r: np.ndarray
    v: np.ndarray
    mass: float = 1.0
    charge: float = 0.0

    def __post_init__(self):
        r = as_vector(self.r)
        v = as_vector(self.v, r.size)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mass", as_scalar(self.mass, "particle mass"))
        object.__setattr__(self, "charge", as_scalar(self.charge, "particle charge"))


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
    return float(total_energies(r, v, m, G))


def total_energies(r, v, m, G: float) -> np.ndarray:
    """``total_energy`` of the particles at positions r (n, d), velocities v
    (n, d) and masses m (n,), or of each set in stacks (T, n, d), (T, n, d),
    (T, n) of them, bit for bit as on one set."""
    sep = np.linalg.norm(r[..., :, None, :] - r[..., None, :, :], axis=-1)
    sep.reshape(*sep.shape[:-2], -1)[..., :: sep.shape[-1] + 1] = np.inf  # the diagonals
    hit = np.argwhere(sep == 0.0)
    if hit.size:
        raise DegenerateInputError("particles %d and %d have coincident positions" % tuple(hit[0][-2:]))
    kinetic = (m[..., None, :] @ (v * v).sum(axis=-1)[..., None])[..., 0, 0]
    pairs = m[..., :, None] * m[..., None, :] / sep
    return 0.5 * kinetic - G * pairs.reshape(*pairs.shape[:-2], -1).sum(axis=-1)


def _check_em_inputs(test, sources):
    """Stacked source positions (m, 3), velocities (m, 3) and charges (m,)."""
    if test.r.size != 3 or any(s.r.size != 3 for s in sources):
        raise ShapeError("electromagnetic force is defined for d=3")
    r = np.array([s.r for s in sources]).reshape(-1, 3)
    hit = np.flatnonzero((r == test.r).all(axis=1))
    if hit.size:
        raise DegenerateInputError(f"source {hit[0]} coincides with the test particle position")
    q = np.array([s.charge for s in sources], dtype=np.float64)
    return r, np.array([s.v for s in sources]).reshape(-1, 3), q


def em_force_cross(test: Particle, sources, k: float, c: float) -> np.ndarray:
    """Coulomb plus magnetic force, magnetic term as v x (v_i x (r - r_i))."""
    _check_em_inputs(test, sources)
    f = np.zeros(3)
    for s in sources:
        delta = test.r - s.r
        dist3 = float(np.linalg.norm(delta)) ** 3
        f += k * test.charge * s.charge * delta / dist3
        f += (
            k
            * test.charge
            * s.charge
            * generalized_cross([test.v, generalized_cross([s.v, delta])])
            / (c**2 * dist3)
        )
    return f


def _em_force(r, v, q, rs, vs, qs, k: float, c: float) -> np.ndarray:
    """The expanded-scalar force on test particles at r (..., 3) with
    velocities v (..., 3) and charges q (...) from sources at rs (..., m, 3)
    with velocities vs (..., m, 3) and charges qs (..., m); any leading axes.
    q is an array, also for one test particle."""
    delta = r[..., None, :] - rs
    coef = (k * q)[..., None] * qs / np.linalg.norm(delta, axis=-1) ** 3
    test_v = v[..., None]
    vv, vd = vs @ test_v, delta @ test_v
    return (coef[..., None, :] @ ((1.0 - vv / c**2) * delta + (vd / c**2) * vs))[..., 0, :]


def em_force_scalar(test: Particle, sources, k: float, c: float) -> np.ndarray:
    """Same force with the triple product expanded: no cross products anywhere."""
    return _em_force(test.r, test.v, np.float64(test.charge), *_check_em_inputs(test, sources), k, c)


def em_forces(r, v, q, k: float, c: float) -> np.ndarray:
    """``em_force_scalar`` on each of n particles from the other n - 1, for
    positions r (n, 3), velocities v (n, 3) and charges q (n,), or for each
    set in stacks (T, n, 3), (T, n, 3), (T, n) of them, bit for bit."""
    n, d = r.shape[-2:]
    if d != 3:
        raise ShapeError("electromagnetic force is defined for d=3")
    others = _OTHERS[n] if n in _OTHERS else _others(n)
    rs, vs = r[..., others, :], v[..., others, :]  # (..., n, n - 1, 3): particle i's sources
    hit = np.argwhere((rs == r[..., None, :]).all(axis=-1))
    if hit.size:
        raise DegenerateInputError(f"source {hit[0][-1]} coincides with the test particle position")
    return _em_force(r, v, q, rs, vs, q[..., others], k, c)


def _others(n):
    """(n, n - 1) read-only indices of each particle's n - 1 others, ascending."""
    return _read_only(np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1))


# Kept for 1 <= n <= 32, about 90 KB; n = 0 goes through _others, which rejects it.
_OTHERS = {n: _others(n) for n in range(1, 33)}


def triple_product_check(a, b, c) -> float:
    """Max-norm of a x (b x c) - [(a.c) b - (a.b) c]; identically zero in exact arithmetic."""
    a = as_vector(a, 3)
    b = as_vector(b, 3)
    c = as_vector(c, 3)
    lhs = generalized_cross([a, generalized_cross([b, c])])
    rhs = float(np.dot(a, c)) * b - float(np.dot(a, b)) * c
    return float(np.max(np.abs(lhs - rhs)))
