"""Reference physics expressions built purely from invariant scalars.

Newtonian total mechanical energy (verbatim ordered double sum), the
electromagnetic force on a test particle in both the double-cross-product
form (a per-source loop, kept as the reference) and the expanded scalar
form, and the vector triple-product identity connecting them. The energy
and the scalar-form force are each one array expression over the particles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import generalized_cross
from .core import as_scalar, as_vector
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
    sep = np.linalg.norm(r[:, None] - r[None, :], axis=-1)
    np.fill_diagonal(sep, np.inf)
    hit = np.argwhere(sep == 0.0)
    if hit.size:
        raise DegenerateInputError("particles %d and %d have coincident positions" % tuple(hit[0]))
    return 0.5 * float(m @ (v * v).sum(axis=1)) - G * float(np.sum(np.outer(m, m) / sep))


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


def em_force_scalar(test: Particle, sources, k: float, c: float) -> np.ndarray:
    """Same force with the triple product expanded: no cross products anywhere."""
    r, v, q = _check_em_inputs(test, sources)
    delta = test.r - r
    coef = k * test.charge * q / np.linalg.norm(delta, axis=1) ** 3
    vv, vd = v @ test.v, delta @ test.v
    return coef @ ((1.0 - vv / c**2)[:, None] * delta + (vd / c**2)[:, None] * v)


def triple_product_check(a, b, c) -> float:
    """Max-norm of a x (b x c) - [(a.c) b - (a.b) c]; identically zero in exact arithmetic."""
    a = as_vector(a, 3)
    b = as_vector(b, 3)
    c = as_vector(c, 3)
    lhs = generalized_cross([a, generalized_cross([b, c])])
    rhs = float(np.dot(a, c)) * b - float(np.dot(a, b)) * c
    return float(np.max(np.abs(lhs - rhs)))
