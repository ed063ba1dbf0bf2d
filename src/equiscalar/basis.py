"""Equivariant vector functions as scalar-coefficient combinations of inputs.

Every model here evaluates h = sum_t f_t(features) v_t, optionally plus
generalized cross-product terms for SO(d), where the coefficient functions
see only invariant scalar features, never raw vectors. Equivariance is
therefore structural, not audited.

A model family is a family of ``groups.FAMILIES`` with a metric; its record
gives the Gram's metric, whether positions are centred first (the family
translates) and whether SO(d) subdeterminants join the scalars (its matrices
are proper). A model is checked against the record when built.

``evaluate`` hands the coefficient function a ``ScalarFeatureSet`` of the
(centred) tuple that computes each scalar on first read, so a model pays
only for what it reads: the Gram in O(n^2 d), the channels ``diag``,
``row_sums`` and ``total`` in O(nd). Two steps stay eager. The centring
runs first, so that a tuple without positions or one whose centre
overflows is refused even when no scalar is read. SO(d) subdeterminants
are computed whole for every SO model, read or not.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import groups
from .core import _FINITE, Metric, VectorTuple, _identity, array, as_vector, choice, det, integer, sort_sign
from .errors import ShapeError
from .features import (
    CENTER_OF_POSITIONS,
    ScalarFeatureSet,
    subdeterminants,
    translation_reduce,
)

MODE_INVARIANT = "invariant"
MODE_EQUIVARIANT = "equivariant"
# What the position coefficients of a translation family sum to in each
# mode: 0 gives a translation-invariant output, 1 one that moves with them.
# The 0 is -0.0 so that shifting by (-0.0 - sum) / n leaves a -0.0
# coefficient as subtracting the mean does when the sum is +0.0.
_POSITION_SUMS = {MODE_INVARIANT: -0.0, MODE_EQUIVARIANT: 1.0}
_MODES = choice(_POSITION_SUMS)
_MODEL_FAMILIES = [name for name, record in groups.FAMILIES.items() if record.metric]
_FAMILY = choice(_MODEL_FAMILIES, "a model family, one of " + ", ".join(map(repr, _MODEL_FAMILIES)))
_SLOTS = integer(0)

MAX_EXPLICIT_SYMMETRIZE = 8
# Permutations gathered and sign-mapped as one array at a time.
SYMMETRIZE_CHUNK = 720


_CROSS_FACTORS = array("d - 1 finite vectors of length d, d >= 2", lambda s: len(s) == 2 and s[1] == s[0] + 1 >= 2)


def generalized_cross(vs) -> np.ndarray:
    """Cross product of d-1 vectors in R^d, given as a sequence of vectors or
    a (d-1, d) array: the unique x with <x, y> = det(v_1, ..., v_{d-1}, y)
    for all y."""
    return _cross(_CROSS_FACTORS(vs, "vs"))


def _cross(a) -> np.ndarray:
    """`generalized_cross` of the float64 (d - 1, d) array ``a``, unchecked."""
    d = a.shape[1]
    # x_k = <x, e_k> = det(v_1, ..., v_{d-1}, e_k): one batched det over k.
    mats = np.empty((d, d, d))
    mats[:, :, :-1] = a.T
    mats[:, :, -1] = _identity(d)
    return det(mats)


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
        out = self.fn(features)
        try:
            coeffs = np.asarray(out, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"coefficient function of {self._label()} returned non-numbers: {exc}") from None
        if coeffs.shape != (features.n,):
            raise ShapeError(
                f"coefficient function returned shape {coeffs.shape}, expected ({features.n},)"
            )
        if self.cross_fn is None:
            return coeffs, None
        cross = self.cross_fn(features)
        if cross is not None and not (
                (type(cross) is dict or isinstance(cross, Mapping)) and all(map(_FINITE.takes, cross.values()))):
            raise ShapeError(f"cross function of {self._label()} must return a mapping of index "
                             f"subsets to finite numbers or None, got {cross!r}")
        return coeffs, cross

    def _label(self) -> str:
        return repr(self.name if self.name is not None else getattr(self.fn, "__qualname__", self.fn))


def select_vector(t: int, name=None):
    """The projection fixture f_s = delta_{s,t}; equivariant for every family."""
    return FixedClosure(lambda feats: _one_hot(feats.n, t), name=name or f"select-{t}")


def _one_hot(n: int, t: int) -> np.ndarray:
    """``np.eye(n)[t]`` in O(n), with its IndexError for a t outside -n..n-1."""
    out = np.zeros(n)
    out[t] = 1.0
    return out


def uniform_mixture(name="uniform"):
    return FixedClosure(lambda feats: np.full(feats.n, 1.0 / feats.n), name=name)


@dataclass(frozen=True)
class EquivariantModel:
    family: str
    metric: Metric
    coeffs: object  # anything with .coefficients(ScalarFeatureSet)
    mode: str = MODE_EQUIVARIANT  # E(d)/Poincare translation behaviour
    permutation_symmetric: bool = False

    def __post_init__(self):
        kind = groups.FAMILIES[_FAMILY(self.family, "family")].metric
        if getattr(self.metric, "kind", None) != kind:
            raise ShapeError(f"family {self.family!r} needs a {kind} metric, got {self.metric!r}")
        _MODES(self.mode, "mode")


def evaluate(model: EquivariantModel, x: VectorTuple) -> np.ndarray:
    if x.d != model.metric.dim:
        raise ShapeError(f"tuple dimension {x.d} does not match metric dimension {model.metric.dim}")
    coeff_fn = model.coeffs
    if model.permutation_symmetric:
        coeff_fn = symmetrize_permutation(coeff_fn, x.n)
    record = groups.FAMILIES[model.family]
    centred, pseudo = record.translates, record.proper
    # Centring keeps every slot, so coefficient vectors stay length n. With
    # n < d vectors no d-subset exists, so an SO(d) model sees no subdeterminant.
    reduced = translation_reduce(x, CENTER_OF_POSITIONS) if centred else x
    subdets = (subdeterminants(x) if x.n >= x.d else {}) if pseudo else None
    features = ScalarFeatureSet.from_tuple(model.metric, reduced, subdets)
    coeffs, cross_coeffs = coeff_fn.coefficients(features)
    if centred:
        coeffs = _centred(coeffs, x.position_indices(), _POSITION_SUMS[model.mode])
    h = coeffs @ x.vectors
    if cross_coeffs:
        if not pseudo:
            raise ShapeError("cross-term coefficients are only valid for the SO family")
        for subset, c in cross_coeffs.items():
            _check_cross_subset(subset, x.n, x.d)
            h = h + c * generalized_cross([x.vectors[i] for i in subset])
    return h


def _centred(coeffs, pos, total) -> np.ndarray:
    """A copy of ``coeffs`` whose entries at the positions ``pos`` are shifted
    by one amount so that they sum to ``total``."""
    if pos.size == coeffs.size:  # every vector a position: no gather or scatter
        return coeffs + (total - coeffs.sum()) / pos.size
    coeffs = coeffs.copy()
    coeffs[pos] += (total - coeffs[pos].sum()) / pos.size
    return coeffs


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
                f"(got n={n}); a coefficient function that computes slot t's coefficient "
                f"by one rule from the channels diag[t], row_sums[t] and total of its "
                f"ScalarFeatureSet is permutation-equivariant without it"
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
        for idx in _permutation_chunks(n):
            subdets = _permuted_subdets(features.subdets, idx)
            mapped, values, chunk = [], [], []
            for sigma, permuted in zip(idx, features.permuted(idx, subdets)):
                coeffs, cross = self.base.coefficients(permuted)
                chunk.append(coeffs)
                if cross:
                    for subset in cross:
                        _check_cross_subset(subset, n, features.metric.dim)
                    mapped.append(sigma[np.array(list(cross), dtype=np.intp)])
                    values += cross.values()
            # Slot sigma[t] gains coefficient t of each sigma, sigma by sigma,
            # in one unbuffered scatter: the additions of a loop over sigma.
            np.add.at(total, idx, np.array(chunk))
            if values:
                images, signs = sort_sign(np.concatenate(mapped))
                for key, sign, c in zip(map(tuple, images.tolist()), signs.tolist(), values):
                    cross_total[key] = cross_total.get(key, 0.0) + sign * c
        total /= count
        cross_out = {k: v / count for k, v in cross_total.items()} if cross_total else None
        return total, cross_out


def _permutation_chunks(n: int):
    """S_n in (P, n) index arrays of at most SYMMETRIZE_CHUNK permutations,
    so memory stays bounded."""
    perms = itertools.permutations(range(n))
    while sigmas := list(itertools.islice(perms, SYMMETRIZE_CHUNK)):
        yield np.array(sigmas, dtype=np.intp)


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
    _SLOTS(n, "n")
    if isinstance(coeffs, _SymmetrizedCoefficients):
        return coeffs
    return _SymmetrizedCoefficients(coeffs, n)


def span_check(x: VectorTuple, h_out) -> float:
    """Euclidean norm of h_out's residual off span(v_1..v_n)."""
    h = as_vector(h_out, x.d, "h_out")
    if x.n == 0:
        return float(np.linalg.norm(h))
    basis = x.vectors.T  # (d, n)
    coef, *_ = np.linalg.lstsq(basis, h, rcond=None)
    return float(np.linalg.norm(basis @ coef - h))
