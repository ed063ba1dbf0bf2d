"""Sampling and application of group elements.

Covers O(d), SO(d), the Lorentz group O(1,d), translations, permutations,
and the semidirect families E(d) and Poincare. Every element but a
permutation is affine: it carries a d x d matrix ``q`` and a length-d
shift ``w`` and maps a tuple to ``x q^T``, plus ``w`` on its position
vectors, so one formula applies, composes and inverts all of them.
``FAMILIES`` maps each ``SymmetrySpec.group`` name to its sampler, and
``sample`` draws from it. Sampling is uniform (Haar) for the compact
groups; Lorentz elements come from a boost-times-rotation family with
bounded rapidity (the group is non-compact, so no Haar measure exists
there).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import EUCLIDEAN, MINKOWSKI, POSITION, Metric, VectorTuple, as_matrix, as_vector, minkowski
from .errors import DimensionMismatchError, ShapeError

ORTHO_TOL = 1e-12
LORENTZ_TOL = 1e-9
DEFAULT_RAPIDITY_MAX = 2.0


def make_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; same seed gives bit-identical samples."""
    return np.random.default_rng(seed)


# -- element types ---------------------------------------------------------
# Each affine constructor validates its fields, then stores (q, w) once, with
# the metric eta that q preserves, so that q^-1 = eta q^T eta.


def _square(m) -> np.ndarray:
    q = as_matrix(m)
    if q.shape[0] != q.shape[1]:
        raise ShapeError(f"group matrix must be square, got shape {q.shape}")
    return q


def _orthogonal(m) -> np.ndarray:
    q = _square(m)
    if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > ORTHO_TOL:
        raise ShapeError("matrix is not orthogonal within 1e-12")
    return q


def _lorentz(m) -> np.ndarray:
    q = _square(m)
    lam = minkowski(q.shape[0]).matrix
    if np.max(np.abs(q.T @ lam @ q - lam)) > LORENTZ_TOL:
        raise ShapeError("matrix does not preserve the Minkowski metric within 1e-9")
    return q


def _set_affine(g, q, w=None, metric=EUCLIDEAN):
    """Store q, w and eta's kind; ``_translates`` is False where w is 0 by
    construction, so the actions skip adding it."""
    object.__setattr__(g, "_translates", w is not None)
    w = np.zeros(q.shape[0]) if w is None else w
    if w.size != q.shape[0]:
        raise DimensionMismatchError(q.shape[0], w.size, "translation")
    object.__setattr__(g, "q", q)
    object.__setattr__(g, "w", w)
    object.__setattr__(g, "_metric", metric)


@dataclass(frozen=True)
class Orthogonal:
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _orthogonal(self.q))


@dataclass(frozen=True)
class Rotation:
    q: np.ndarray

    def __post_init__(self):
        q = _orthogonal(self.q)
        if abs(np.linalg.det(q) - 1.0) > 1e-9:
            raise ShapeError("rotation must have determinant 1")
        _set_affine(self, q)


@dataclass(frozen=True)
class Lorentz:
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _lorentz(self.q), metric=MINKOWSKI)


@dataclass(frozen=True)
class Translation:
    w: np.ndarray

    def __post_init__(self):
        w = as_vector(self.w)
        _set_affine(self, np.eye(w.size), w)


@dataclass(frozen=True)
class Permutation:
    sigma: tuple  # sigma[i] = source index of output slot i

    def __post_init__(self):
        sigma = tuple(int(s) for s in self.sigma)
        if sorted(sigma) != list(range(len(sigma))):
            raise ShapeError("permutation is not a bijection on 0..n-1")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class Euclidean:
    w: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _orthogonal(self.q), as_vector(self.w))


@dataclass(frozen=True)
class Poincare:
    w: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _lorentz(self.q), as_vector(self.w), MINKOWSKI)


GroupElement = Orthogonal | Rotation | Lorentz | Translation | Permutation | Euclidean | Poincare


# -- sampling --------------------------------------------------------------


def _haar_orthogonal(rng, d):
    """Sign-corrected QR of a Gaussian matrix: Haar measure on O(d)."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def sample_orthogonal(rng, d: int) -> Orthogonal:
    if d < 1:
        raise ShapeError("d must be >= 1")
    q = _haar_orthogonal(rng, d)
    # Explicit sign flip of a random column so both components of O(d) are
    # covered regardless of the QR convention.
    col = int(rng.integers(d))
    sign = 1.0 if rng.integers(2) == 0 else -1.0
    q = q.copy()
    q[:, col] *= sign
    return Orthogonal(q)


def sample_rotation(rng, d: int) -> Rotation:
    if d < 1:
        raise ShapeError("d must be >= 1")
    q = _haar_orthogonal(rng, d).copy()
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return Rotation(q)


def boost(phi: float, axis, d_plus_1: int) -> np.ndarray:
    """Lorentz boost of rapidity phi along the spatial unit direction `axis`."""
    u = as_vector(axis, d_plus_1 - 1)
    u = u / np.linalg.norm(u)
    b = np.eye(d_plus_1)
    b[0, 0] = np.cosh(phi)
    b[0, 1:] = np.sinh(phi) * u
    b[1:, 0] = np.sinh(phi) * u
    b[1:, 1:] = np.eye(d_plus_1 - 1) + (np.cosh(phi) - 1.0) * np.outer(u, u)
    return b


def sample_lorentz(rng, d_plus_1: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> Lorentz:
    """Boost times embedded spatial rotation; preserves the metric to rounding."""
    if d_plus_1 < 2:
        raise ShapeError("d+1 must be >= 2")
    if rapidity_max <= 0:
        raise ShapeError("rapidity_max must be > 0")
    d = d_plus_1 - 1
    r = np.eye(d_plus_1)
    if d >= 2:
        r[1:, 1:] = sample_rotation(rng, d).q
    phi = rng.uniform(-rapidity_max, rapidity_max)
    axis = rng.standard_normal(d)
    while np.linalg.norm(axis) < 1e-8:
        axis = rng.standard_normal(d)
    return Lorentz(boost(phi, axis, d_plus_1) @ r)


def sample_translation(rng, d: int) -> Translation:
    return Translation(rng.standard_normal(d))


def sample_permutation(rng, n: int) -> Permutation:
    return Permutation(tuple(rng.permutation(n)))


def sample_euclidean(rng, d: int) -> Euclidean:
    return Euclidean(rng.standard_normal(d), sample_orthogonal(rng, d).q)


def sample_poincare(rng, d_plus_1: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> Poincare:
    return Poincare(rng.standard_normal(d_plus_1), sample_lorentz(rng, d_plus_1, rapidity_max).q)


# The families by their SymmetrySpec.group names. Each entry calls its
# sampler by its global name, so a rebinding of ``sample_*`` is seen here.
FAMILIES = {
    "o": lambda rng, dim, rapidity_max: sample_orthogonal(rng, dim),
    "so": lambda rng, dim, rapidity_max: sample_rotation(rng, dim),
    "lorentz": lambda rng, dim, rapidity_max: sample_lorentz(rng, dim, rapidity_max),
    "e": lambda rng, dim, rapidity_max: sample_euclidean(rng, dim),
    "poincare": lambda rng, dim, rapidity_max: sample_poincare(rng, dim, rapidity_max),
    "perm": lambda rng, dim, rapidity_max: sample_permutation(rng, dim),
    "translation": lambda rng, dim, rapidity_max: sample_translation(rng, dim),
}


def sample(family: str, rng, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> GroupElement:
    """One element of ``family``; ``dim`` is the slot count for "perm"."""
    if family not in FAMILIES:
        raise ShapeError(f"unknown group {family!r}")
    return FAMILIES[family](rng, dim, rapidity_max)


# -- actions ---------------------------------------------------------------


def _affine(family, q, w) -> GroupElement:
    """The element of ``family`` whose action is x -> q x (+ w on positions)."""
    parts = {"q": q, "w": w}
    return family(*(parts[f.name] for f in fields(family)))


def apply(g: GroupElement, x: VectorTuple) -> VectorTuple:
    """Group action on role-tagged tuples; translations touch positions only."""
    v = x.vectors
    if isinstance(g, Permutation):
        if len(g.sigma) != x.n:
            raise ShapeError(f"permutation on {len(g.sigma)} slots applied to {x.n} vectors")
        idx = list(g.sigma)
        return VectorTuple(v[idx], tuple(x.roles[i] for i in idx))
    if g.q.shape[0] != x.d:
        raise DimensionMismatchError(g.q.shape[0], x.d)
    out = v @ g.q.T
    if g._translates and POSITION in x.roles:
        out[x.position_indices()] += g.w
    return x.with_vectors(out)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Composition: apply(compose(g1, g2), x) == apply(g1, apply(g2, x))."""
    if type(g1) is not type(g2):
        raise TypeError(f"cannot compose {type(g1).__name__} with {type(g2).__name__}")
    if isinstance(g1, Permutation):
        # apply(g2) then apply(g1) selects x[sigma2[sigma1[i]]].
        return Permutation(tuple(g2.sigma[i] for i in g1.sigma))
    return _affine(type(g1), g1.q @ g2.q, g1.w + g1.q @ g2.w)


def inverse(g: GroupElement) -> GroupElement:
    if isinstance(g, Permutation):
        return Permutation(tuple(np.argsort(g.sigma)))
    eta = Metric(g._metric, g.q.shape[0]).signature
    qinv = eta[:, None] * g.q.T * eta  # eta q^T eta, eta diagonal
    return _affine(type(g), qinv, -(qinv @ g.w))


def element_to_dict(g: GroupElement) -> dict:
    out = {"family": type(g).__name__.lower()}
    out.update((f.name, np.asarray(getattr(g, f.name)).tolist()) for f in fields(g))
    return out
