"""Equivariant vector functions as scalar-coefficient combinations of inputs.

Every model here evaluates h = sum_t f_t(features) v_t, optionally plus
generalized cross-product terms for SO(d), where the coefficient functions
see only invariant scalar features, never raw vectors. Equivariance is
therefore structural, not audited.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Metric, VectorTuple, as_vector, sort_sign
from .errors import RoleError, ShapeError
from .features import (
    CENTER_OF_POSITIONS,
    ScalarFeatureSet,
    gram,
    subdeterminants,
    translation_reduce,
)

O_FAMILY = "o"
SO_FAMILY = "so"
E_FAMILY = "e"
LORENTZ_FAMILY = "lorentz"
POINCARE_FAMILY = "poincare"

MODE_INVARIANT = "invariant"
MODE_EQUIVARIANT = "equivariant"

MAX_EXPLICIT_SYMMETRIZE = 8
# Permutations gathered and sign-mapped as one array at a time.
SYMMETRIZE_CHUNK = 720


def generalized_cross(vs) -> np.ndarray:
    """Cross product of d-1 vectors in R^d: the unique x with
    <x, y> = det(v_1, ..., v_{d-1}, y) for all y."""
    vs = [np.asarray(v, dtype=np.float64) for v in vs]
    if not vs:
        raise ShapeError("generalized cross product needs at least one vector")
    d = len(vs) + 1
    for v in vs:
        as_vector(v, d)
    # x_k = <x, e_k> = det(v_1, ..., v_{d-1}, e_k): one batched det over k.
    mats = np.empty((d, d, d))
    mats[:, :, :-1] = np.column_stack(vs)
    mats[:, :, -1] = np.eye(d)
    return np.linalg.det(mats)


class FixedClosure:
    """Coefficient fixture wrapping plain callables of the feature set.

    ``fn(features) -> array of n coefficients``; ``cross_fn(features) ->
    {subset: coefficient}`` for the SO(d) cross terms.
    """

    def __init__(self, fn, cross_fn=None, name=None):
        self.fn = fn
        self.cross_fn = cross_fn
        self.name = name

    def coefficients(self, features: ScalarFeatureSet):
        coeffs = np.asarray(self.fn(features), dtype=np.float64)
        if coeffs.shape != (features.n,):
            raise ShapeError(
                f"coefficient function returned shape {coeffs.shape}, expected ({features.n},)"
            )
        cross = self.cross_fn(features) if self.cross_fn is not None else None
        return coeffs, cross


def select_vector(t: int, name=None):
    """The projection fixture f_s = delta_{s,t}; equivariant for every family."""
    return FixedClosure(
        lambda feats: np.eye(feats.n)[t], name=name or f"select-{t}"
    )


def uniform_mixture(name="uniform"):
    return FixedClosure(lambda feats: np.full(feats.n, 1.0 / feats.n), name=name)


@dataclass
class EquivariantModel:
    family: str
    metric: Metric
    coeffs: object  # anything with .coefficients(ScalarFeatureSet)
    mode: str = MODE_EQUIVARIANT  # E(d)/Poincare translation behaviour
    permutation_symmetric: bool = False


def _features_for(model: EquivariantModel, x: VectorTuple) -> ScalarFeatureSet:
    if model.family in (O_FAMILY, LORENTZ_FAMILY):
        return ScalarFeatureSet(gram(model.metric, x), model.metric)
    if model.family == SO_FAMILY:
        return ScalarFeatureSet(gram(model.metric, x), model.metric, subdets=subdeterminants(x))
    if model.family in (E_FAMILY, POINCARE_FAMILY):
        if not any(r == "position" for r in x.roles):
            raise RoleError(f"{model.family} family requires position role tags")
        # Center-of-positions reduction keeps slot count aligned with the
        # original tuple, so coefficient vectors stay length n.
        reduced = translation_reduce(x, CENTER_OF_POSITIONS)
        return ScalarFeatureSet(gram(model.metric, reduced), model.metric)
    raise ValueError(f"unknown family {model.family!r}")


def _renormalize_translation(coeffs, x: VectorTuple, mode: str) -> np.ndarray:
    """Affine constraint on the position coefficients: sum 0 (invariant
    output) or sum 1 (equivariant output); free coefficients untouched."""
    pos = x.position_indices()
    out = coeffs.copy()
    if mode == MODE_INVARIANT:
        out[pos] -= out[pos].mean()
    elif mode == MODE_EQUIVARIANT:
        out[pos] += (1.0 - out[pos].sum()) / pos.size
    else:
        raise ValueError(f"unknown translation mode {mode!r}")
    return out


def evaluate(model: EquivariantModel, x: VectorTuple) -> np.ndarray:
    if x.d != model.metric.dim:
        raise ShapeError(f"tuple dimension {x.d} does not match metric dimension {model.metric.dim}")
    coeff_fn = model.coeffs
    if model.permutation_symmetric:
        coeff_fn = symmetrize_permutation(coeff_fn, x.n)
    features = _features_for(model, x)
    coeffs, cross_coeffs = coeff_fn.coefficients(features)
    if model.family in (E_FAMILY, POINCARE_FAMILY):
        coeffs = _renormalize_translation(coeffs, x, model.mode)
    h = coeffs @ x.vectors
    if model.family == SO_FAMILY and cross_coeffs:
        for subset, c in cross_coeffs.items():
            _check_cross_subset(subset, x.n, x.d)
            h = h + c * generalized_cross([x.vectors[i] for i in subset])
    elif cross_coeffs:
        raise ShapeError("cross-term coefficients are only valid for the SO family")
    return h


def _check_cross_subset(subset, n: int, d: int) -> None:
    """A cross-term key must name d-1 vectors by indices in 0..n-1."""
    if len(subset) != d - 1 or not all(i in range(n) for i in subset):
        raise ShapeError(f"cross-term subset {tuple(subset)} is not {d - 1} indices in 0..{n - 1}")


class _SymmetrizedCoefficients:
    """Explicit S_n orbit average of a coefficient function.

    The slot coefficient becomes (1/n!) sum_sigma f_{sigma^{-1}(t)} evaluated
    on sigma-permuted features. The sign rule: a subdeterminant or cross term
    on index subset S moves to sorted(sigma(S)), times the sign of that sort.
    """

    def __init__(self, base, n: int):
        if n > MAX_EXPLICIT_SYMMETRIZE:
            raise ShapeError(
                f"explicit symmetrization is limited to n <= {MAX_EXPLICIT_SYMMETRIZE} "
                f"(got n={n}); use a pooled slot-symmetric coefficient function instead"
            )
        self.base = base
        self.n = n
        self.name = f"symmetrized({getattr(base, 'name', base)!r})"

    def coefficients(self, features: ScalarFeatureSet):
        n = features.n
        if n != self.n:
            raise ShapeError(f"symmetrized for n={self.n}, features have n={n}")
        total = np.zeros(n)
        cross_total = {}
        count = math.factorial(n)
        for idx, grams in _permuted_grams(features.gram, n):
            subdets = _permuted_subdets(features.subdets, idx)
            mapped, values = [], []
            for sigma, g, sd in zip(idx, grams, subdets):
                coeffs, cross = self.base.coefficients(ScalarFeatureSet(g, features.metric, sd))
                total[sigma] += coeffs
                if cross:
                    for subset in cross:
                        _check_cross_subset(subset, n, features.metric.dim)
                    mapped.append(sigma[np.array(list(cross), dtype=np.intp)])
                    values += cross.values()
            if values:
                images, signs = sort_sign(np.concatenate(mapped))
                for key, sign, c in zip(map(tuple, images.tolist()), signs.tolist(), values):
                    cross_total[key] = cross_total.get(key, 0.0) + sign * c
        total /= count
        cross_out = {k: v / count for k, v in cross_total.items()} if cross_total else None
        return total, cross_out


def _permuted_grams(gram, n: int):
    """S_n in (P, n) index arrays of at most SYMMETRIZE_CHUNK permutations,
    each with its P permuted grams, so memory stays bounded."""
    perms = itertools.permutations(range(n))
    while sigmas := list(itertools.islice(perms, SYMMETRIZE_CHUNK)):
        idx = np.array(sigmas, dtype=np.intp)
        yield idx, gram[idx[:, :, None], idx[:, None, :]]


def _permuted_subdets(subdets: dict | None, idx: np.ndarray) -> list:
    """Subdeterminants of each sigma-permuted tuple, sigma a row of idx, by
    the sort-and-sign rule; KeyError for a sorted image that is not stored."""
    if not subdets:
        return [None if subdets is None else {} for _ in idx]
    keys = list(subdets)
    stored = np.array(keys, dtype=np.intp)
    images, signs = sort_sign(idx[:, stored])
    # Keys as base-n codes; a key with an entry outside 0..n-1 matches no image.
    n = idx.shape[1]
    place = n ** np.arange(stored.shape[1])[::-1]
    codes = np.where(((stored >= 0) & (stored < n)).all(axis=1), stored @ place, -1)
    wanted = images @ place
    order = np.argsort(codes)
    at = order[np.searchsorted(codes, wanted, sorter=order).clip(max=len(keys) - 1)]
    missing = codes[at] != wanted
    if missing.any():
        raise KeyError(tuple(images[missing][0].tolist()))
    values = np.array(list(subdets.values()))
    return [dict(zip(keys, row)) for row in (signs * values[at]).tolist()]


def symmetrize_permutation(coeffs, n: int):
    """Wrap a coefficient function so the resulting model is S_n-invariant."""
    if isinstance(coeffs, _SymmetrizedCoefficients):
        return coeffs
    return _SymmetrizedCoefficients(coeffs, n)


def span_check(x: VectorTuple, h_out) -> float:
    """Euclidean norm of h_out's residual off span(v_1..v_n)."""
    h = np.asarray(h_out, dtype=np.float64)
    if x.n == 0:
        return float(np.linalg.norm(h))
    basis = x.vectors.T  # (d, n)
    coef, *_ = np.linalg.lstsq(basis, h, rcond=None)
    return float(np.linalg.norm(basis @ coef - h))
