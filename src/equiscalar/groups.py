"""Sampling and application of group elements.

Covers O(d), SO(d), the Lorentz group O(1,d), translations, permutations,
and the semidirect families E(d) and Poincare. Every element but a
permutation is affine: it carries a d x d matrix ``q`` and a length-d
shift ``w`` and maps a tuple to ``x q^T``, plus ``w`` on its position
vectors, so one formula applies, composes and inverts all of them.

An element may also be a stack of T elements of one family (``q`` of shape
(T, d, d), ``w`` of shape (T, d), ``sigma`` of shape (T, n)); a stack acts
blockwise on a tuple of T*n rows, element t on rows t*n ... t*n + n - 1.

Sampling takes two steps. ``draw`` takes one element's raw numbers from
the generator; ``sample_stack`` builds T draws at once, with one batched
QR, determinant and boost. ``sample`` and every ``sample_*`` are that build
at T = 1, so an element has the same bits whether it is sampled alone or
as element t of a stack drawn at the same point of the stream.
``FAMILIES`` maps each ``SymmetrySpec.group`` name to its record: its draw,
its build, its element class and the metric kind its matrices preserve.
Sampling is uniform (Haar) for the compact groups; Lorentz elements come
from a boost-times-rotation family with bounded rapidity (the group is
non-compact, so no Haar measure exists there).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .core import EUCLIDEAN, MINKOWSKI, POSITION, Metric, VectorTuple, as_vector, minkowski
from .errors import DimensionMismatchError, NonFiniteError, ShapeError

ORTHO_TOL = 1e-12
LORENTZ_TOL = 1e-13
DEFAULT_RAPIDITY_MAX = 2.0
_MAX_RAPIDITY = np.finfo(np.float64).max / 2


def make_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; same seed gives bit-identical samples."""
    return np.random.default_rng(seed)


# -- element types ---------------------------------------------------------
# Each affine constructor validates its fields, then stores (q, w) once, with
# the metric eta that q preserves, so that q^-1 = eta q^T eta. Every check
# runs over a whole stack at once.


def _square(m) -> np.ndarray:
    q = np.asarray(m, dtype=np.float64)
    if q.ndim not in (2, 3) or q.shape[-1] != q.shape[-2]:
        raise ShapeError(f"group matrix must be square (d, d) or a (T, d, d) stack, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise NonFiniteError("matrix contains NaN or Inf")
    return q


def _shift(v) -> np.ndarray:
    w = np.asarray(v, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] < 1:
        raise ShapeError(f"expected a 1-d vector or a (T, d) stack, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteError("vector contains NaN or Inf")
    return w


def _orthogonal(m) -> np.ndarray:
    q = _square(m)
    if np.abs(q.mT @ q - np.eye(q.shape[-1])).max() > ORTHO_TOL:
        raise ShapeError("matrix is not orthogonal within 1e-12")
    return q


def _lorentz(g, m, scale=None) -> np.ndarray:
    """Each element must give |q^T eta q - eta| <= LORENTZ_TOL * scale^2 and
    keeps its scale as ``g._scale``. The rounding error of q^T eta q grows
    with the square of the entries that q was computed from, which reach
    cosh(rapidity): scale is max(1, max|q|) for a matrix given directly,
    and ``compose`` passes the product of its factors' scales, since q1 q2
    can cancel to entries near 1 while its rounding stays that of q1 and
    q2. Sampled elements stay below 1e-15 of their scale squared at
    rapidity 12, and g composed with inverse(g) below 2e-15; a boost
    scaled by 1 + 1e-6 at rapidity 9 is at 1.2e-13."""
    q = _square(m)
    lam = minkowski(q.shape[-1]).matrix
    if scale is None:
        scale = np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))
    # Past max|q| ~ 1e154 both overflow: an infinite bound rejects, as does a NaN defect.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(q.mT @ lam @ q - lam).max(axis=(-2, -1))
        bound = LORENTZ_TOL * scale**2
    if not np.all((defect <= bound) & (bound < np.inf)):
        raise ShapeError("matrix does not preserve the Minkowski metric within 1e-13 * scale^2, "
                         "scale = max(1, max|q|), or for a product the product of its factors' scales")
    object.__setattr__(g, "_scale", scale)
    return q


def _set_affine(g, q, w=None, metric=EUCLIDEAN):
    """Store q, w and eta's kind; ``_translates`` is False where w is 0 by
    construction, so the actions skip adding it."""
    object.__setattr__(g, "_translates", w is not None)
    w = np.zeros(q.shape[:-1]) if w is None else w
    if w.shape != q.shape[:-1]:
        raise DimensionMismatchError(q.shape[-1], w.shape[-1], "translation")
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
        if np.any(np.abs(np.linalg.det(q) - 1.0) > 1e-9):
            raise ShapeError("rotation must have determinant 1")
        _set_affine(self, q)


@dataclass(frozen=True)
class Lorentz:
    q: np.ndarray
    scale: InitVar[np.ndarray | None] = None  # see _lorentz

    def __post_init__(self, scale):
        _set_affine(self, _lorentz(self, self.q, scale), metric=MINKOWSKI)


@dataclass(frozen=True)
class Translation:
    w: np.ndarray

    def __post_init__(self):
        w = _shift(self.w)
        d = w.shape[-1]
        _set_affine(self, np.broadcast_to(np.eye(d), w.shape + (d,)), w)


@dataclass(frozen=True)
class Permutation:
    sigma: np.ndarray  # sigma[i] = source index of output slot i

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.intp)
        if sigma.ndim not in (1, 2) or not np.array_equal(
                np.sort(sigma, axis=-1), np.broadcast_to(np.arange(sigma.shape[-1]), sigma.shape)):
            raise ShapeError("permutation is not a bijection on 0..n-1")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class Euclidean:
    w: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _orthogonal(self.q), _shift(self.w))


@dataclass(frozen=True)
class Poincare:
    w: np.ndarray
    q: np.ndarray
    scale: InitVar[np.ndarray | None] = None  # see _lorentz

    def __post_init__(self, scale):
        _set_affine(self, _lorentz(self, self.q, scale), _shift(self.w), MINKOWSKI)


GroupElement = Orthogonal | Rotation | Lorentz | Translation | Permutation | Euclidean | Poincare


# -- sampling --------------------------------------------------------------
# ``_draw_*`` takes one element's raw numbers in the order the family has
# always drawn them; ``_build_*`` turns those numbers, each stacked over T
# draws, into the element's fields.


def _draw_orthogonal(rng, d, rapidity_max):
    a = rng.standard_normal((d, d))
    col = int(rng.integers(d))
    sign = 1.0 if rng.integers(2) == 0 else -1.0
    return a, col, sign


def _draw_rotation(rng, d, rapidity_max):
    return (rng.standard_normal((d, d)),)


def _draw_lorentz(rng, d_plus_1, rapidity_max):
    d = d_plus_1 - 1
    a = rng.standard_normal((d, d)) if d >= 2 else np.empty((0, 0))
    phi = rng.uniform(-rapidity_max, rapidity_max)
    axis = rng.standard_normal(d)
    norm = np.linalg.norm(axis)
    while norm < 1e-8:
        axis = rng.standard_normal(d)
        norm = np.linalg.norm(axis)
    # Each axis is normalised on its own: a norm over a stack of axes
    # differs from the per-vector norm in the last bit.
    return a, phi, axis / norm


def _qr_signs(a):
    """Q of the QR of Gaussian matrices and the signs of R's diagonal: Q
    times those signs is Haar-distributed on O(d)."""
    q, r = np.linalg.qr(a)
    return q, np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)


def _build_orthogonal(a, col, sign):
    q, signs = _qr_signs(a)
    # Explicit sign flip of a random column so both components of O(d) are
    # covered regardless of the QR convention.
    signs[np.arange(len(a)), col] *= sign
    return (q * signs[:, None, :],)


def _build_rotation(a):
    q, signs = _qr_signs(a)
    q = q * signs[:, None, :]
    q[:, :, 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[:, None]
    return (q,)


def _boosts(phi, u):
    """Lorentz boosts of rapidities phi (T,) along spatial unit directions u (T, d)."""
    t, d = u.shape
    cosh, sinh = np.cosh(phi), np.sinh(phi)
    b = np.empty((t, d + 1, d + 1))
    b[:, 0, 0] = cosh
    b[:, 0, 1:] = b[:, 1:, 0] = sinh[:, None] * u
    b[:, 1:, 1:] = np.eye(d) + (cosh - 1.0)[:, None, None] * (u[:, :, None] * u[:, None, :])
    return b


def boost(phi: float, axis, d_plus_1: int) -> np.ndarray:
    """Lorentz boost of rapidity phi along the spatial unit direction `axis`."""
    u = as_vector(axis, d_plus_1 - 1)
    return _boosts(np.array([phi], dtype=np.float64), (u / np.linalg.norm(u))[None])[0]


def _build_lorentz(a, phi, u):
    """Boost times embedded spatial rotation; preserves the metric to rounding."""
    t, d = u.shape
    r = np.zeros((t, d + 1, d + 1))
    r[:, 0, 0] = 1.0
    r[:, 1:, 1:] = _build_rotation(a)[0] if d >= 2 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # |phi| > ~710: the check rejects inf
        return (_boosts(phi, u) @ r,)


def _translated(draw, build):
    """Draw and build of a semidirect family: its shift first, then its linear part."""
    return (lambda rng, d, rapidity_max: (rng.standard_normal(d), *draw(rng, d, rapidity_max)),
            lambda w, *linear: (w, *build(*linear)))


class _Family(NamedTuple):
    draw: Callable  # (rng, dim, rapidity_max) -> raw numbers of one element; dim is n for "perm"
    build: Callable  # (*raw numbers stacked over T draws) -> the fields of cls
    cls: type
    metric: str | None  # the kind its matrices preserve; None: acts under either

    @property
    def least_dim(self) -> int:
        return 2 if self.metric == MINKOWSKI else 1  # Minkowski needs time and one space axis


FAMILIES = {
    "o": _Family(_draw_orthogonal, _build_orthogonal, Orthogonal, EUCLIDEAN),
    "so": _Family(_draw_rotation, _build_rotation, Rotation, EUCLIDEAN),
    "lorentz": _Family(_draw_lorentz, _build_lorentz, Lorentz, MINKOWSKI),
    "e": _Family(*_translated(_draw_orthogonal, _build_orthogonal), Euclidean, EUCLIDEAN),
    "poincare": _Family(*_translated(_draw_lorentz, _build_lorentz), Poincare, MINKOWSKI),
    "perm": _Family(lambda rng, n, rapidity_max: (rng.permutation(n),), lambda sigma: (sigma,),
                    Permutation, None),
    "translation": _Family(lambda rng, d, rapidity_max: (rng.standard_normal(d),), lambda w: (w,),
                           Translation, None),
}


def _family(family: str) -> _Family:
    if family not in FAMILIES:
        raise ShapeError(f"unknown group {family!r}")
    return FAMILIES[family]


def draw(family: str, rng, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> tuple:
    """The raw numbers of one element of ``family``, from ``rng``, after the one check of every
    sampling path (past finfo.max / 2, rng.uniform(-rapidity_max, rapidity_max) overflows)."""
    record = _family(family)
    if dim < record.least_dim:
        raise ShapeError(f"dim must be >= {record.least_dim} for group {family!r}, got {dim}")
    if not 0 < rapidity_max <= _MAX_RAPIDITY:
        raise ShapeError(f"rapidity_max must be finite and in (0, {_MAX_RAPIDITY:.6g}], got {rapidity_max}")
    return record.draw(rng, dim, rapidity_max)


def sample_stack(family: str, draws) -> GroupElement:
    """The elements of ``draws`` (a list of ``draw`` results) as one stack."""
    record = _family(family)
    return record.cls(*record.build(*(np.array(column) for column in zip(*draws))))


def sample(family: str, rng, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> GroupElement:
    """One element of ``family``: the stacked build of a single draw."""
    record = _family(family)
    stacked = record.build(*(np.array([r]) for r in draw(family, rng, dim, rapidity_max)))
    return record.cls(*(f[0] for f in stacked))


def sample_orthogonal(rng, d: int) -> Orthogonal:
    return sample("o", rng, d)


def sample_rotation(rng, d: int) -> Rotation:
    return sample("so", rng, d)


def sample_lorentz(rng, d_plus_1: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> Lorentz:
    return sample("lorentz", rng, d_plus_1, rapidity_max)


def sample_translation(rng, d: int) -> Translation:
    return sample("translation", rng, d)


def sample_permutation(rng, n: int) -> Permutation:
    return sample("perm", rng, n)


def sample_euclidean(rng, d: int) -> Euclidean:
    return sample("e", rng, d)


def sample_poincare(rng, d_plus_1: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> Poincare:
    return sample("poincare", rng, d_plus_1, rapidity_max)


# -- actions ---------------------------------------------------------------


def _affine(family, q, w, scale=None) -> GroupElement:
    """The element of ``family`` whose action is x -> q x (+ w on positions);
    ``scale`` is passed on to the Lorentz families only."""
    parts = {"q": q, "w": w}
    extra = {} if scale is None else {"scale": scale}
    return family(*(parts[f.name] for f in fields(family)), **extra)


def apply(g: GroupElement, x: VectorTuple) -> VectorTuple:
    """Group action on role-tagged tuples; translations touch positions only.
    A stack of T elements moves T consecutive blocks of x.n / T vectors."""
    v = x.vectors
    stack = (g.sigma if isinstance(g, Permutation) else g.w).shape[:-1]
    count = stack[0] if stack else 1
    n = x.n // count
    if n * count != x.n:
        raise ShapeError(f"a stack of {count} elements cannot act on {x.n} vectors")
    if isinstance(g, Permutation):
        slots = g.sigma.shape[-1]
        if slots != n:
            raise ShapeError(f"permutation on {slots} slots applied to {n} vectors")
        idx = (g.sigma + n * np.arange(count)[:, None]).ravel() if stack else g.sigma
        return VectorTuple(v[idx], tuple(x.roles[i] for i in idx))
    d = g.q.shape[-1]
    if d != x.d:
        raise DimensionMismatchError(d, x.d)
    out = (v.reshape(count, n, d) @ g.q.mT).reshape(x.n, d)
    if g._translates and POSITION in x.roles:
        rows = x.position_indices()
        out[rows] += g.w.reshape(count, d)[rows // n]
    return x.with_vectors(out)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Composition of single elements: apply(compose(g1, g2), x) == apply(g1, apply(g2, x))."""
    if type(g1) is not type(g2):
        raise TypeError(f"cannot compose {type(g1).__name__} with {type(g2).__name__}")
    if isinstance(g1, Permutation):
        # apply(g2) then apply(g1) selects x[sigma2[sigma1[i]]].
        return Permutation(g2.sigma[g1.sigma])
    scale = g1._scale * g2._scale if g1._metric == MINKOWSKI else None
    return _affine(type(g1), g1.q @ g2.q, g1.w + g1.q @ g2.w, scale)


def inverse(g: GroupElement) -> GroupElement:
    """Inverse of a single element."""
    if isinstance(g, Permutation):
        return Permutation(np.argsort(g.sigma))
    eta = Metric(g._metric, g.q.shape[0]).signature
    qinv = eta[:, None] * g.q.T * eta  # eta q^T eta, eta diagonal
    return _affine(type(g), qinv, -(qinv @ g.w), g._scale if g._metric == MINKOWSKI else None)


def element_to_dict(g: GroupElement) -> dict:
    out = {"family": type(g).__name__.lower()}
    out.update((f.name, np.asarray(getattr(g, f.name)).tolist()) for f in fields(g))
    return out
