"""Sampling and application of group elements.

Covers O(d), SO(d), the Lorentz group O(1,d), translations, permutations,
and the semidirect families E(d) and Poincare. Every element but a
permutation is affine: it carries a d x d matrix ``q`` and a length-d
shift ``w`` and maps a tuple to ``x q^T``, plus ``w`` on its position
vectors, so one formula applies, composes and inverts all of them.

An element may also be a stack of T elements of one family (``q`` of shape
(T, d, d), ``w`` of shape (T, d), ``sigma`` of shape (T, n)); a stack acts
blockwise on a tuple of T*n rows, element t on rows t*n ... t*n + n - 1.

``FAMILIES`` is the one place that says what a family is. It maps each
``SymmetrySpec.group`` name to its record: its draw, its build, the number
of generators its draw reads, its element class, the metric kind its
matrices preserve, whether its elements shift positions and whether its
matrices all have determinant +1; from these follow its least dim and
whether it acts on slots. Code elsewhere reads the record and never tests a
family's name.

Sampling takes two steps, both by family name. A family's draw takes the
raw numbers of a stack of T elements: each kind of number (a Gaussian
matrix, a column, a sign, a rapidity, an axis, a shift, a permutation) for
the whole stack in one call, on the next generator of an iterator, in the
family's fixed order. Within one generator, T stacked draws of one kind
equal T single draws bit for bit; so a caller that gives each kind a
stream of its own, as the harness does, gets the same numbers however many
elements it draws at a time. A Lorentz axis of norm below 1e-8 (about
1e-24 per draw) is replaced from the family's last generator, its redraw
stream, axis by axis in stack order. ``sample_stack`` builds a stack from
the stacked arrays with one batched QR, determinant and boost. ``draw`` is
the draw at T = 1 with every kind taken from the one generator, which
reads that stream in the family's order; ``sample``, the one sampler of
single elements, is the stacked build of that draw. Sampling is uniform
(Haar) for the compact groups; Lorentz elements come from a
boost-times-rotation family with bounded rapidity (the group is
non-compact, so no Haar measure exists there).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from numpy.linalg import _umath_linalg

from .core import (EUCLIDEAN, MINKOWSKI, POSITION, Metric, VectorTuple, array, as_scalar, as_vector, choice, det,
                   integer, minkowski, real)
from .errors import ChoiceTypeError, DegenerateInputError, DimensionMismatchError, NonFiniteError, ShapeError

ORTHO_TOL = 1e-12
LORENTZ_TOL = 1e-13
DEFAULT_RAPIDITY_MAX = 2.0
_MAX_RAPIDITY = np.finfo(np.float64).max / 2
# Past finfo.max / 2, rng.uniform(-rapidity_max, rapidity_max) overflows.
_RAPIDITY = real(lambda r: 0 < r <= _MAX_RAPIDITY, f" in (0, {_MAX_RAPIDITY:g}]")


def make_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; same seed gives bit-identical samples."""
    return np.random.default_rng(seed)


# -- element types ---------------------------------------------------------
# Each affine constructor validates its fields, then stores (q, w) once, with
# the metric eta that q preserves, so that q^-1 = eta q^T eta. Every check
# runs over a whole stack at once.


_SQUARE = array("a finite square (d, d) matrix or (T, d, d) stack of them, T, d >= 1",
                lambda s: len(s) in (2, 3) and s[-1] == s[-2] and min(s) >= 1)
_SHIFT = array("a finite 1-d vector or (T, d) stack of them, d >= 1", lambda s: len(s) in (1, 2) and s[-1] >= 1)
_SIGMA = array("a permutation of 0..n-1 or a (T, n) stack of them", lambda s: len(s) in (1, 2), np.intp)


def _orthogonal(m) -> np.ndarray:
    q = _SQUARE(m, "q")
    with np.errstate(over="ignore", invalid="ignore"):  # past max|q| ~ 1e154 the defect overflows: it rejects
        if not np.abs(q.mT @ q - np.eye(q.shape[-1])).max() <= ORTHO_TOL:
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
    q = _SQUARE(m, "q")
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
        w = _SHIFT(self.w, "w")
        d = w.shape[-1]
        _set_affine(self, np.broadcast_to(np.eye(d), w.shape + (d,)), w)


@dataclass(frozen=True)
class Permutation:
    sigma: np.ndarray  # sigma[i] = source index of output slot i

    def __post_init__(self):
        sigma = _SIGMA(self.sigma, "sigma")
        if not np.array_equal(np.sort(sigma, axis=-1), np.broadcast_to(np.arange(sigma.shape[-1]), sigma.shape)):
            raise ShapeError(f"sigma must be {_SIGMA.kind}, got a repeated or out-of-range index")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class Euclidean:
    w: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _set_affine(self, _orthogonal(self.q), _SHIFT(self.w, "w"))


@dataclass(frozen=True)
class Poincare:
    w: np.ndarray
    q: np.ndarray
    scale: InitVar[np.ndarray | None] = None  # see _lorentz

    def __post_init__(self, scale):
        _set_affine(self, _lorentz(self, self.q, scale), _SHIFT(self.w, "w"), MINKOWSKI)


GroupElement = Orthogonal | Rotation | Lorentz | Translation | Permutation | Euclidean | Poincare


# -- sampling --------------------------------------------------------------
# ``_draw_*`` takes the raw numbers of a stack of t elements, each kind of
# number for the whole stack in one call on the next generator of ``rngs``,
# in the family's fixed order; ``_build_*`` turns those stacked numbers into
# the element's fields.


def _draw_orthogonal(rngs, t, d, rapidity_max):
    a = next(rngs).standard_normal((t, d, d))
    col = next(rngs).integers(d, size=t)
    sign = np.where(next(rngs).integers(2, size=t) == 0, 1.0, -1.0)
    return a, col, sign


def _draw_rotation(rngs, t, d, rapidity_max):
    return (next(rngs).standard_normal((t, d, d)),)


def _draw_lorentz(rngs, t, d_plus_1, rapidity_max):
    d = d_plus_1 - 1
    a = next(rngs).standard_normal((t, d, d)) if d >= 2 else np.empty((t, 0, 0))
    phi = next(rngs).uniform(-rapidity_max, rapidity_max, t)
    axes = next(rngs).standard_normal((t, d))
    redraw = next(rngs)
    # Each axis is normalised by its own norm, the root of its own dot
    # product (np.linalg.norm(axis), bit for bit); a sum of squares over
    # the stack would differ in the last bit.
    norms = np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0, 0]
    for k in np.flatnonzero(norms < 1e-8).tolist():  # about 1e-24 per axis
        while norms[k] < 1e-8:
            axes[k] = redraw.standard_normal(d)
            norms[k] = math.sqrt(axes[k].dot(axes[k]))
    return a, phi, axes / norms[:, None]


def _draw_permutation(rngs, t, n, rapidity_max):
    return (next(rngs).permuted(np.tile(np.arange(n), (t, 1)), axis=1),)


# The gufunc that ``np.linalg.qr`` calls first on square matrices: numpy 2.0
# names it ``qr_r_raw_m`` (m <= n), later versions ``qr_r_raw``.
_QR_R_RAW = getattr(_umath_linalg, "qr_r_raw", None) or _umath_linalg.qr_r_raw_m


def _qr_signs(a):
    """Q of the QR of Gaussian matrices and the signs of R's diagonal: Q
    times those signs is Haar-distributed on O(d). Calls the LAPACK gufuncs
    of ``np.linalg.qr``, bit for bit, without its checks and dispatch; the
    first writes R over its (copied) input."""
    r = np.array(a, dtype=np.float64)
    tau = _QR_R_RAW(r, signature="d->d")
    q = _umath_linalg.qr_reduced(r, tau, signature="dd->d")
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
    q[:, :, 0] *= np.where(det(q) < 0, -1.0, 1.0)[:, None]
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
    """Lorentz boost of rapidity phi along the spatial direction `axis`, any
    nonzero vector. Raises DegenerateInputError for a zero axis and
    NonFiniteError for a rapidity whose cosh overflows (|phi| > ~710)."""
    u = as_vector(axis, d_plus_1 - 1, "axis")
    phi = as_scalar(phi, "phi")
    if not u.any():
        raise DegenerateInputError("axis must be a nonzero vector, got only zeros")
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(u)
    if not 0.0 < norm < np.inf:  # entries past ~1e154 or below ~1e-162: their squares leave float64
        u = u / np.abs(u).max()
        norm = np.linalg.norm(u)
    with np.errstate(over="ignore", invalid="ignore"):
        b = _boosts(np.array([phi]), (u / norm)[None])[0]
    if not np.isfinite(b).all():
        raise NonFiniteError(f"phi must have a finite cosh(phi), |phi| <= ~710, got {phi!r}")
    return b


def _build_lorentz(a, phi, u):
    """Boost times embedded spatial rotation; preserves the metric to rounding."""
    t, d = u.shape
    r = np.zeros((t, d + 1, d + 1))
    r[:, 0, 0] = 1.0
    r[:, 1:, 1:] = _build_rotation(a)[0] if d >= 2 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # |phi| > ~710: the check rejects inf
        return (_boosts(phi, u) @ r,)


def _translated(draw, build, roles):
    """Draw, build and role count of a semidirect family: its shift first,
    from a generator of its own, then its linear part."""
    def translated(rngs, t, d, rapidity_max):
        return (next(rngs).standard_normal((t, d)), *draw(rngs, t, d, rapidity_max))

    return translated, lambda w, *linear: (w, *build(*linear)), roles + 1


class _Family(NamedTuple):
    draw: Callable  # (rngs, t, dim, rapidity_max) -> raw numbers of t elements; dim is n on slots
    build: Callable  # (*raw numbers stacked over t draws) -> the fields of cls
    roles: int  # the generators its draw takes from ``rngs``, one per kind of number
    cls: type
    metric: str | None  # the kind its matrices preserve; None: acts under either
    translates: bool = False  # its elements shift positions, so a model centres them before the Gram
    proper: bool = False  # every matrix has determinant +1, so SO(d) pseudo-scalars are invariant

    @property
    def least_dim(self) -> int:
        return 2 if self.metric == MINKOWSKI else 1  # Minkowski needs time and one space axis

    @property
    def on_slots(self) -> bool:
        """Its elements reorder the tuple's slots, so its dim is a slot count."""
        return self.cls is Permutation


FAMILIES = {
    "o": _Family(_draw_orthogonal, _build_orthogonal, 3, Orthogonal, EUCLIDEAN),
    "so": _Family(_draw_rotation, _build_rotation, 1, Rotation, EUCLIDEAN, proper=True),
    "e": _Family(*_translated(_draw_orthogonal, _build_orthogonal, 3), Euclidean, EUCLIDEAN,
                 translates=True),
    "lorentz": _Family(_draw_lorentz, _build_lorentz, 4, Lorentz, MINKOWSKI),
    "poincare": _Family(*_translated(_draw_lorentz, _build_lorentz, 4), Poincare, MINKOWSKI,
                        translates=True),
    "perm": _Family(_draw_permutation, lambda sigma: (sigma,), 1, Permutation, None),
    "translation": _Family(lambda rngs, t, d, rapidity_max: (next(rngs).standard_normal((t, d)),),
                           lambda w: (w,), 1, Translation, None, translates=True, proper=True),
}


_GROUPS = choice(FAMILIES)


def _family(family: str) -> _Family:
    return FAMILIES[_GROUPS(family, "group")]


def draw_record(family: str, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> _Family:
    """The record of ``family`` after the one check of every sampling path; its
    ``draw(rng, dim, rapidity_max)`` then takes elements' raw numbers with
    these arguments, unchecked."""
    record = _family(family)
    integer(record.least_dim)(dim, "dim")
    _RAPIDITY(rapidity_max, "rapidity_max")
    return record


def draw(family: str, rng, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> tuple:
    """The raw numbers of one element of ``family``, checked by ``draw_record``:
    its draw at t = 1, every kind of number from ``rng``, so the stream is
    read in the order of the per-element draw."""
    return draw_record(family, dim, rapidity_max).draw(itertools.repeat(rng), 1, dim, rapidity_max)


def sample_stack(family: str, draws) -> GroupElement:
    """The elements of ``draws``, the raw numbers of a family's draw stacked
    over t elements, as one stack."""
    record = _family(family)
    return record.cls(*record.build(*draws))


def sample(family: str, rng, dim: int, rapidity_max: float = DEFAULT_RAPIDITY_MAX) -> GroupElement:
    """One element of ``family``: the stacked build of ``draw``."""
    record = _family(family)
    return record.cls(*(f[0] for f in record.build(*draw(family, rng, dim, rapidity_max))))


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
        roles = x.roles
        # A permutation of a valid tuple's rows and roles is valid: nothing to check again.
        return VectorTuple._trusted(v[idx], tuple([roles[i] for i in idx.tolist()]))
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
    family = type(g1).__name__
    choice((family,), f"a {family}, as g1 is", ChoiceTypeError)(type(g2).__name__, "g2")
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
