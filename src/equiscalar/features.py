"""Invariant scalar features of vector tuples.

Gram matrices under either metric, SO(d) subdeterminants, translation
quotients, the wrap-around band sampling of a low-rank Gram matrix and its
completion, Gram reconstruction, and Minkowski Gram-Schmidt with lightlike
restarts.

Completion factors all (d+1)-windows of the band in one batched eigh, fits
every pair of adjacent windows in one batched step (orthogonal Procrustes
for PSD windows, least squares for indefinite ones), composes the fits by
log-depth prefix products and polishes this one start by vectorised ALS;
it flags failure instead of raising; malformed samples fail when built.

Cached, read-only: the strict lower-triangle masks of ``gram`` for n <= 32
(33 masks, 11 KB), and for ``subdeterminants`` the key tuple and (C, d)
index array of each (n, d) with n <= 32 and C = C(n, d) <= 1024: at most
229 pairs, 6.0 MB if every one is used. Larger subset lists are built per
call.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FREE, MINKOWSKI, Metric, VectorTuple, _read_only, as_matrix
from .errors import DegenerateInputError, IndefiniteMatrixError, NonFiniteError, RoleError, ShapeError

FIRST_POSITION = "first-position"
CENTER_OF_POSITIONS = "center-of-positions"

LIGHTLIKE_REL_TOL = 1e-10
MAX_GS_RESTARTS = 50
MAX_SUBDET_ENTRIES = 2**24  # float64 entries of stacked minors (128 MiB)
OMEGA_TOL = 1e-12  # relative objective decrease below which ALS stops


@dataclass(frozen=True)
class ScalarFeatureSet:
    """Gram matrix plus optional subdeterminant features of one tuple."""

    gram: np.ndarray
    metric: Metric
    subdets: dict | None = None

    @property
    def n(self) -> int:
        return self.gram.shape[0]


# Strict lower-triangle masks for small n, where building one costs more
# than the Gram itself; larger masks are built per call, not kept.
_LOWER = [_read_only(np.tri(n, k=-1, dtype=bool)) for n in range(33)]


def gram(metric: Metric, x: VectorTuple) -> np.ndarray:
    """Pairwise invariant scalar products; exactly symmetric, the lower
    triangle being a copy of the upper one."""
    return gram_stack(metric, x.vectors)


def gram_stack(metric: Metric, vectors: np.ndarray) -> np.ndarray:
    """``gram`` of the (n, d) float64 array ``vectors``, or of each tuple in
    a (T, n, d) stack of them, bit for bit as on one tuple."""
    n, d = vectors.shape[-2:]
    if d != metric.dim:
        raise ShapeError(f"tuple dimension {d} does not match metric dimension {metric.dim}")
    m = (vectors * metric.signature) @ vectors.mT
    lower = _LOWER[n] if n < len(_LOWER) else np.tri(n, k=-1, dtype=bool)
    if m.ndim == 2:  # the 2-d mask index is ~5x faster at n = 1000
        m[lower] = m.T[lower]
    else:
        m[:, lower] = m.mT[:, lower]
    return m


def subdeterminants(x: VectorTuple) -> dict:
    """All d x d column subdeterminants of the d x n matrix of vectors.

    Keys are ascending index d-subsets (0-based), in itertools.combinations
    order; columns are taken in ascending index order. Raises ShapeError
    when the C(n, d) stacked minors would exceed MAX_SUBDET_ENTRIES floats.
    """
    n, d = x.n, x.d
    if n < d:
        raise ShapeError(f"need at least d={d} vectors for subdeterminants, got n={n}")
    if math.comb(n, d) * d * d > MAX_SUBDET_ENTRIES:
        raise ShapeError(
            f"C({n}, {d}) = {math.comb(n, d)} subdeterminants exceed the limit of "
            f"{MAX_SUBDET_ENTRIES} stacked minor entries"
        )
    subsets, index = _SUBSETS.get((n, d)) or _subsets(n, d)
    minors = x.vectors[index].transpose(0, 2, 1)  # (C, d, d)
    return dict(zip(subsets, np.linalg.det(minors).tolist()))


# (n, d) -> the d-subsets of range(n) in combinations order and their (C, d)
# index array, kept for n <= 32 and C <= 1024 (see the module docstring).
_SUBSETS = {}


def _subsets(n: int, d: int) -> tuple:
    subsets = tuple(itertools.combinations(range(n), d))
    index = np.fromiter(itertools.chain.from_iterable(subsets), np.intp, len(subsets) * d)
    index = _read_only(index.reshape(len(subsets), d))
    if n <= 32 and len(subsets) <= 1024:
        _SUBSETS[n, d] = subsets, index
    return subsets, index


def translation_reduce(x: VectorTuple, pivot: str = FIRST_POSITION) -> VectorTuple:
    """Quotient by translations: difference positions against a pivot.

    FIRST_POSITION drops the pivot vector; CENTER_OF_POSITIONS keeps all
    positions as a zero-sum set. Free vectors pass through untouched and the
    output carries only free tags.
    """
    pos = x.position_indices()
    if pos.size == 0:
        raise RoleError("translation_reduce requires at least one position vector")
    positions = x.vectors[pos]
    # Differencing huge positions can overflow; the finite check reports it.
    with np.errstate(over="ignore"):
        if pivot == FIRST_POSITION:
            positions -= x.vectors[pos[0]]
        elif pivot == CENTER_OF_POSITIONS:
            positions -= positions.sum(axis=0) / pos.size  # numpy's mean, bit for bit
        else:
            raise ValueError(f"unknown pivot rule {pivot!r}")
    if not np.isfinite(positions).all():  # the free vectors are finite already
        raise NonFiniteError("translation-reduced positions overflow to Inf")
    out = x.vectors.copy()
    out[pos] = positions
    if pivot == FIRST_POSITION:
        out = np.delete(out, pos[0], axis=0)
    return VectorTuple._trusted(out, (FREE,) * len(out))


def _band_keys(n: int, d: int) -> list:
    """Keys (i, (i+s) mod n) of the wrap-around band, in (i, s) order."""
    return [(i, (i + s) % n) for i in range(n) for s in range(d + 1)]


@dataclass(frozen=True)
class OmegaSample:
    """Wrap-around band of a square matrix: entries (i, (i+s) mod n), s = 0..d.

    Raises ShapeError unless the keys are exactly that band (so n >= d+1) and
    NonFiniteError unless every value is finite.
    """

    n: int
    d: int
    entries: dict  # (i, j) -> value

    def __post_init__(self):
        if not 0 <= self.d < self.n:
            raise ShapeError(f"band width d+1={self.d + 1} must lie in 1..n={self.n}")
        if self.entries.keys() != set(_band_keys(self.n, self.d)):
            raise ShapeError(
                f"omega sample must hold exactly the n(d+1)={self.n * (self.d + 1)} band "
                f"entries (i, (i+s) mod n), s = 0..{self.d}"
            )
        if not np.all(np.isfinite(np.fromiter(self.entries.values(), float))):
            raise NonFiniteError("omega sample contains NaN or Inf")


def omega_sample(m, d: int) -> OmegaSample:
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ShapeError("omega_sample requires a square matrix")
    rows = np.arange(n)[:, None]
    band = m[rows, (rows + np.arange(d + 1)) % n]
    return OmegaSample(n, d, dict(zip(_band_keys(n, d), band.ravel().tolist())))


@dataclass(frozen=True)
class CompletionResult:
    matrix: np.ndarray
    converged: bool
    residual: float  # RMS misfit on the sampled entries
    iterations: int


def _stitched_factor(band: np.ndarray) -> np.ndarray:
    """Rank-d factor X (n, d) of the band's source M = X diag(s) X^T, s = +-1.

    Each (d+1)-window k..k+d (mod n) has its whole Gram sampled; one batched
    eigh factors them all. Adjacent windows k and k+1 share d vectors, so one
    batched fit gives every map R_k of window k+1 onto window k, and
    ceil(log2(n-d)) batched matmuls compose them into the prefix products
    Q_k = R_{k-1}...R_0 that carry each window into window 0's frame; one
    matmul then places every window's last vector. The wrap-around windows
    place nothing; the completion residual checks them. PSD windows keep
    their top d eigenpairs and R_k is the orthogonal Procrustes fit (one
    batched SVD, reflections allowed), so errors add along the chain.
    Otherwise each window keeps its d eigenpairs of largest |lambda| as
    vecs sqrt(|lambda|) and R_k is the least-squares fit (one batched pinv):
    exact for a rank-d source of either signature, but not constrained to
    O(p, q), so errors can multiply along the chain.
    """
    n, d = band.shape[0], band.shape[1] - 1
    p = np.arange(d + 1)
    grams = band[(np.arange(n)[:, None, None] + np.minimum.outer(p, p)) % n, np.abs(p[:, None] - p)]
    eigvals, eigvecs = np.linalg.eigh(grams)
    m = n - d  # windows that place a vector
    if eigvals.min() >= -1e-8 * max(1.0, float(np.abs(eigvals).max())):
        top = eigvals[:m, 1:]  # ascending order: drop the smallest of d+1
        factors = eigvecs[:m, :, 1:] * np.sqrt(np.clip(top, 0.0, None))[:, None, :]  # (m, d+1, d)
        u, _, vt = np.linalg.svd(factors[1:, :d].mT @ factors[:-1, 1:])
        fits = u @ vt
    else:
        keep = np.sort(np.argsort(np.abs(eigvals[:m]), axis=1)[:, 1:], axis=1)
        top = np.take_along_axis(eigvals[:m], keep, axis=1)
        factors = np.take_along_axis(eigvecs[:m], keep[:, None, :], axis=2) * np.sqrt(np.abs(top))[:, None, :]
        # rtol drops the roundoff-level pairs of a rank-deficient window (their
        # factors are ~1e-8), whose inverses would multiply along the chain.
        fits = np.linalg.pinv(factors[1:, :d], rtol=1e-6) @ factors[:-1, 1:]
    q = np.concatenate([np.eye(d)[None], fits])  # q[k] = R_{k-1}, q[0] = I
    s = 1
    while s < m:  # Hillis-Steele doubling: q[k] becomes R_{k-1}...R_0
        q[s:] = q[s:] @ q[:-s]
        s *= 2
    x = np.empty((n, d))
    x[: d + 1] = factors[0]
    x[d + 1 :] = (factors[1:, d, None] @ q[1:])[:, 0]
    return x


def _fit_rows(fixed: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Row i of the free factor: least squares of fixed[cols[i]] @ a = vals[i],
    all rows in one batched (n, d, d) solve."""
    b = fixed[cols]  # (n, K, d)
    bt = b.transpose(0, 2, 1)
    normal = bt @ b + 1e-12 * np.eye(fixed.shape[1])  # ridge at unit band scale
    return np.linalg.solve(normal, bt @ vals[..., None])[..., 0]


def omega_complete(sample: OmegaSample, seed: int = 0, max_iter: int = 500) -> CompletionResult:
    """Complete a rank-<=d symmetric matrix from its wrap-around band.

    The one start is the stitched factor X of the (d+1)-windows (see
    ``_stitched_factor``), exact for a rank-d source of either signature
    whose windows have full rank. Alternating least squares on M = W H^T,
    with W, H of shape (n, d), then polishes it from H = X against the
    sampled entries and their transposes (the band comes from a symmetric
    matrix); each sweep fits all rows of W (the first gives W = X diag(s)),
    then all rows of H, in one batched solve each. ``iterations`` counts
    the sweeps, at least one. ``seed`` is unread: the result does not
    depend on it. The output is symmetrized.
    Non-convergence, including a LinAlgError in a solve, is reported through
    ``converged``, never raised: the result is finite unless ``converged``
    is False.

    ``converged`` certifies the fit on the band only (RMS misfit at most
    1e-8 x max |entry|), not the unsampled entries. The completion is then
    the source for a rank-d source whose windows have full rank; for a
    source of rank above d a rank-d W H^T can fit the band and still be
    wrong off it.
    """
    n, d = sample.n, sample.d
    band = np.array([sample.entries[k] for k in _band_keys(n, d)]).reshape(n, d + 1)
    scale = float(np.abs(band).max()) or 1.0
    band = band / scale  # the ridge and the convergence tests act at unit scale
    # Known entries of row i: columns i+o (mod n) for o = 0..d and -1..-d,
    # dropping -s when it wraps onto n-s <= d, which the band already holds.
    offsets = np.array([o for o in range(-d, d + 1) if o >= 0 or n + o > d])
    rows = np.arange(n)[:, None]
    cols = (rows + offsets) % n  # (n, K)
    vals = np.where(offsets >= 0, band[rows, np.abs(offsets)], band[cols, np.abs(offsets)])
    # Entry (cols[i, t], i) sits in row cols[i, t] at the offset -offsets[t].
    mirror = np.argmax((offsets[:, None] + offsets) % n == 0, axis=1)
    vals_t = vals[cols, mirror]

    # Off the model (an indefinite band of rank above d) the unconstrained
    # stitch can overflow along the chain; that ends unconverged, not raised.
    with np.errstate(over="ignore"):
        h = _stitched_factor(band)
        prev_obj = np.inf
        try:
            for iterations in range(1, max(1, max_iter) + 1):
                w = _fit_rows(h, cols, vals)
                h = _fit_rows(w, cols, vals_t)
                obj = float(np.sum((np.einsum("ikd,id->ik", h[cols], w) - vals) ** 2))
                if obj <= 1e-20 * vals.size:
                    break
                # Relative decrease test: an absolute test would stall runs that
                # are still converging geometrically toward a tiny objective.
                if prev_obj - obj < OMEGA_TOL * max(obj, 1e-30):
                    break
                prev_obj = obj
        except np.linalg.LinAlgError:  # a singular solve ends the fit unconverged
            return CompletionResult(np.full((n, n), np.nan), False, np.inf, iterations)
        m_hat = w @ h.T
        matrix = 0.5 * (m_hat + m_hat.T)
        residual = float(np.sqrt(np.mean((matrix[rows, cols] - vals) ** 2)))
    matrix *= scale
    converged = residual <= 1e-8 and bool(np.all(np.isfinite(matrix)))
    return CompletionResult(matrix, converged, residual * scale, iterations)


def cholesky_reconstruct(m) -> VectorTuple:
    """Vectors whose Euclidean Gram equals m, canonical up to O(n).

    Uses the symmetric eigendecomposition (a Cholesky-style square root that
    tolerates rank deficiency): eigenvalues sorted descending, so a rank-r
    input yields vectors supported on the first r ambient coordinates.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ShapeError("gram matrix must be square")
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    floor = -1e-9 * max(1.0, float(np.max(np.abs(eigvals))))
    if eigvals.min() < floor:
        raise IndefiniteMatrixError(float(eigvals.min()))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    factor = eigvecs * np.sqrt(eigvals)  # (n, n); row i is vector v_i
    return VectorTuple(factor)


@dataclass(frozen=True)
class OrthogonalizationResult:
    tuple: VectorTuple
    restarts: int


def lorentz_orthogonalize(x: VectorTuple, rng) -> OrthogonalizationResult:
    """Gram-Schmidt under the Minkowski inner product.

    If an intermediate vector comes out lightlike, the not-yet-processed
    inputs are re-mixed with random coefficients and that block restarts;
    persistent degeneracy (measure zero for independent inputs) raises.
    """
    n, d = x.n, x.d
    if n > d:
        raise DegenerateInputError(f"{n} vectors in dimension {d} cannot be independent")
    sig = Metric(MINKOWSKI, d).signature
    if np.linalg.matrix_rank(x.vectors, tol=1e-10) < n:
        raise DegenerateInputError("input vectors are linearly dependent")

    def mink(a, b):
        return float(np.dot(a * sig, b))

    w = x.vectors.copy()
    u = np.zeros_like(w)
    restarts = 0
    j = 0
    while j < n:
        uj = w[j].copy()
        for k in range(j):
            uj -= (mink(w[j], u[k]) / mink(u[k], u[k])) * u[k]
        if abs(mink(uj, uj)) < LIGHTLIKE_REL_TOL * float(np.dot(uj, uj)):
            restarts += 1
            if restarts > MAX_GS_RESTARTS:
                raise DegenerateInputError(
                    f"lightlike degeneracy persisted through {MAX_GS_RESTARTS} restarts"
                )
            # Random full-rank re-mix of the remaining inputs; retry until the
            # mixing matrix is comfortably invertible.
            block = n - j
            mix = rng.standard_normal((block, block))
            while abs(np.linalg.det(mix)) < 1e-6:
                mix = rng.standard_normal((block, block))
            w[j:] = mix @ w[j:]
            continue
        u[j] = uj
        j += 1
    return OrthogonalizationResult(VectorTuple(u, x.roles), restarts)
