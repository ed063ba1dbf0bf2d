"""Sampling and application of group elements.

Covers O(d), SO(d), the Lorentz group O(1,d), translations, permutations,
and the semidirect families E(d) and Poincare. Sampling is uniform (Haar)
for the compact groups; Lorentz elements come from a boost-times-rotation
family with bounded rapidity (the group is non-compact, so no Haar measure
exists there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VectorTuple, as_matrix, as_vector, minkowski
from .errors import DimensionMismatchError, ShapeError

ORTHO_TOL = 1e-12
LORENTZ_TOL = 1e-9
DEFAULT_RAPIDITY_MAX = 2.0


def make_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; same seed gives bit-identical samples."""
    return np.random.default_rng(seed)


# -- element types ---------------------------------------------------------


@dataclass(frozen=True)
class Orthogonal:
    q: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q)
        if q.shape[0] != q.shape[1]:
            raise ShapeError("orthogonal matrix must be square")
        if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > ORTHO_TOL:
            raise ShapeError("matrix is not orthogonal within 1e-12")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Rotation:
    q: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q)
        if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > ORTHO_TOL:
            raise ShapeError("matrix is not orthogonal within 1e-12")
        if abs(np.linalg.det(q) - 1.0) > 1e-9:
            raise ShapeError("rotation must have determinant 1")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Lorentz:
    q: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q)
        lam = minkowski(q.shape[0]).matrix
        if np.max(np.abs(q.T @ lam @ q - lam)) > LORENTZ_TOL:
            raise ShapeError("matrix does not preserve the Minkowski metric within 1e-9")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Translation:
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))


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
        w = as_vector(self.w)
        q = Orthogonal(self.q).q
        if w.size != q.shape[0]:
            raise DimensionMismatchError(q.shape[0], w.size, "translation")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Poincare:
    w: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        w = as_vector(self.w)
        q = Lorentz(self.q).q
        if w.size != q.shape[0]:
            raise DimensionMismatchError(q.shape[0], w.size, "translation")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q", q)


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


# -- actions ---------------------------------------------------------------


def apply(g: GroupElement, x: VectorTuple) -> VectorTuple:
    """Group action on role-tagged tuples; translations touch positions only."""
    v = x.vectors
    if isinstance(g, (Orthogonal, Rotation, Lorentz)):
        if g.q.shape[0] != x.d:
            raise DimensionMismatchError(g.q.shape[0], x.d)
        return x.with_vectors(v @ g.q.T)
    if isinstance(g, Translation):
        if g.w.size != x.d:
            raise DimensionMismatchError(x.d, g.w.size, "translation")
        out = v.copy()
        out[x.position_indices()] += g.w
        return x.with_vectors(out)
    if isinstance(g, (Euclidean, Poincare)):
        if g.q.shape[0] != x.d:
            raise DimensionMismatchError(g.q.shape[0], x.d)
        out = v @ g.q.T
        out[x.position_indices()] += g.w
        return x.with_vectors(out)
    if isinstance(g, Permutation):
        if len(g.sigma) != x.n:
            raise ShapeError(f"permutation on {len(g.sigma)} slots applied to {x.n} vectors")
        idx = list(g.sigma)
        return VectorTuple(v[idx], tuple(x.roles[i] for i in idx))
    raise TypeError(f"unknown group element {type(g).__name__}")


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Composition: apply(compose(g1, g2), x) == apply(g1, apply(g2, x))."""
    if type(g1) is not type(g2):
        raise TypeError(f"cannot compose {type(g1).__name__} with {type(g2).__name__}")
    if isinstance(g1, (Orthogonal, Rotation, Lorentz)):
        return type(g1)(g1.q @ g2.q)
    if isinstance(g1, Translation):
        return Translation(g1.w + g2.w)
    if isinstance(g1, (Euclidean, Poincare)):
        return type(g1)(g1.w + g1.q @ g2.w, g1.q @ g2.q)
    if isinstance(g1, Permutation):
        # apply(g2) then apply(g1) selects x[sigma2[sigma1[i]]].
        return Permutation(tuple(g2.sigma[i] for i in g1.sigma))
    raise TypeError(f"unknown group element {type(g1).__name__}")


def inverse(g: GroupElement) -> GroupElement:
    if isinstance(g, (Orthogonal, Rotation)):
        return type(g)(g.q.T)
    if isinstance(g, Lorentz):
        lam = minkowski(g.q.shape[0]).matrix
        return Lorentz(lam @ g.q.T @ lam)
    if isinstance(g, Translation):
        return Translation(-g.w)
    if isinstance(g, Permutation):
        return Permutation(tuple(np.argsort(g.sigma)))
    if isinstance(g, (Euclidean, Poincare)):
        if isinstance(g, Euclidean):
            qinv = g.q.T
        else:
            lam = minkowski(g.q.shape[0]).matrix
            qinv = lam @ g.q.T @ lam
        return type(g)(-(qinv @ g.w), qinv)
    raise TypeError(f"unknown group element {type(g).__name__}")


def element_to_dict(g: GroupElement) -> dict:
    if isinstance(g, (Orthogonal, Rotation, Lorentz)):
        return {"family": type(g).__name__.lower(), "q": g.q.tolist()}
    if isinstance(g, Translation):
        return {"family": "translation", "w": g.w.tolist()}
    if isinstance(g, Permutation):
        return {"family": "permutation", "sigma": list(g.sigma)}
    if isinstance(g, (Euclidean, Poincare)):
        return {"family": type(g).__name__.lower(), "w": g.w.tolist(), "q": g.q.tolist()}
    raise TypeError(f"unknown group element {type(g).__name__}")
