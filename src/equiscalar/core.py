"""Shared geometric data model: metrics, role-tagged vector tuples, inner products.

All numerics are IEEE-754 doubles. Vectors and matrices are plain numpy
arrays; the constructors here validate finiteness and shape once so that
downstream code can assume well-formed inputs.

Cached: the position indices of a roles tuple of at most 32 entries
(``VectorTuple.position_indices``), as a read-only array, for the 256 such
tuples last used; at most 1.4 MB with those tuples, measured with every
role a distinct string. Longer roles tuples are scanned per call.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, RoleError, ShapeError

POSITION = "position"
FREE = "free"
ROLES = (POSITION, FREE)

EUCLIDEAN = "euclidean"
MINKOWSKI = "minkowski"


def as_scalar(value, what) -> float:
    """Validate and return a finite real number; ``what`` names it in errors."""
    if not isinstance(value, (float, Real)):  # float first: the common case, and fast
        raise ShapeError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is NaN or Inf")
    return float(value)


def as_vector(v, d=None) -> np.ndarray:
    """Validate and return a finite 1-d float64 array of length >= 1."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ShapeError(f"expected a 1-d vector, got shape {a.shape}")
    # The d entries as Python floats: at the dimensions of a vector here
    # this is several times faster than a numpy reduction.
    if not all(map(math.isfinite, a.tolist())):
        raise NonFiniteError("vector contains NaN or Inf")
    if d is not None and a.size != d:
        raise DimensionMismatchError(d, a.size)
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, its buffer made read-only: for arrays kept and shared between calls."""
    a.setflags(write=False)
    return a


def sort_sign(a) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the integer array ``a`` (..., k) sorted ascending, and
    the sign (+1.0 or -1.0) of that sort: the parity of the row's inversions,
    pairs i < j with a[i] > a[j]. Equal entries add no inversion."""
    a = np.asarray(a)
    i, j = np.triu_indices(a.shape[-1], 1)
    inversions = np.count_nonzero(a[..., i] > a[..., j], axis=-1)
    return np.sort(a, axis=-1), 1.0 - 2.0 * (inversions % 2)


def as_matrix(m, rows=None, cols=None) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf")
    if rows is not None and a.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {a.shape[1]}")
    return a


@dataclass(frozen=True)
class Metric:
    """Euclidean or Minkowski signature descriptor.

    For the Minkowski kind, ``dim`` is the full spacetime dimension d+1 and
    the signature is (+, -, ..., -) with the timelike axis first.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, MINKOWSKI):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("metric dimension must be >= 1")

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == EUCLIDEAN:
            return np.eye(self.dim)
        lam = -np.eye(self.dim)
        lam[0, 0] = 1.0
        return lam

    @cached_property
    def signature(self) -> np.ndarray:
        """Diagonal of the metric matrix (both metrics here are diagonal),
        built once per metric and read-only, since every Gram reuses it."""
        s = np.ones(self.dim) if self.kind == EUCLIDEAN else -np.ones(self.dim)
        if self.kind == MINKOWSKI:
            s[0] = 1.0
        return _read_only(s)


def euclidean(d: int) -> Metric:
    return Metric(EUCLIDEAN, d)


def minkowski(d_plus_1: int) -> Metric:
    return Metric(MINKOWSKI, d_plus_1)


def inner(metric: Metric, a, b) -> float:
    """Invariant scalar product: a^T b or a^T diag(1,-1,...,-1) b."""
    a = as_vector(a, metric.dim)
    b = as_vector(b, metric.dim)
    return float(np.dot(a * metric.signature, b))


def _positions(roles: tuple) -> np.ndarray:
    return _read_only(np.array([i for i, r in enumerate(roles) if r == POSITION], dtype=int))


# Position indices of the roles tuples of at most 32 entries last used.
_kept_positions = functools.lru_cache(maxsize=256)(_positions)


@dataclass(frozen=True)
class VectorTuple:
    """An ordered list of n same-dimension vectors, each tagged position/free."""

    vectors: np.ndarray  # (n, d)
    roles: tuple = field(default=None)

    def __post_init__(self):
        a = np.asarray(self.vectors, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"expected an (n, d) array of vectors, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteError("vector tuple contains NaN or Inf")
        object.__setattr__(self, "vectors", a)
        roles = self.roles
        if roles is None:
            roles = (FREE,) * a.shape[0]
        roles = tuple(roles)
        if len(roles) != a.shape[0]:
            raise RoleError(f"{len(roles)} roles for {a.shape[0]} vectors")
        for r in roles:
            if r not in ROLES:
                raise RoleError(f"unknown role {r!r}")
        object.__setattr__(self, "roles", roles)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def position_indices(self) -> np.ndarray:
        """Ascending indices of the position vectors, as a read-only array."""
        roles = self.roles
        return _kept_positions(roles) if len(roles) <= 32 else _positions(roles)

    def with_vectors(self, vectors) -> "VectorTuple":
        return VectorTuple(vectors, self.roles)

    def rows(self, start: int, stop: int) -> "VectorTuple":
        """Vectors start:stop and their roles as a tuple that shares this
        one's array; rows of a valid tuple need no validation again."""
        return VectorTuple._trusted(self.vectors[start:stop], self.roles[start:stop])

    @classmethod
    def _trusted(cls, vectors: np.ndarray, roles: tuple) -> "VectorTuple":
        """A tuple of values that are valid already: a finite (n, d) float64
        array and a tuple of n roles. Nothing is checked or copied."""
        x = object.__new__(cls)
        object.__setattr__(x, "vectors", vectors)
        object.__setattr__(x, "roles", roles)
        return x

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "vectors": self.vectors.tolist(),
                "roles": list(self.roles),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "VectorTuple":
        obj = json.loads(text)
        if not (isinstance(obj, dict) and {"d", "vectors"} <= obj.keys()
                and isinstance(obj.get("roles"), list)):
            raise ShapeError("a JSON vector tuple must be an object with 'd', 'vectors' and a 'roles' list")
        try:
            vecs = np.asarray(obj["vectors"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"JSON vectors are not a numeric array: {exc}") from None
        if vecs.ndim != 2 or vecs.shape[1] != obj["d"]:
            raise ShapeError("JSON vectors inconsistent with declared dimension d")
        return cls(vecs, tuple(obj["roles"]))

    def to_csv(self) -> str:
        tags = {POSITION: "p", FREE: "f"}
        lines = ["#roles: " + ",".join(tags[r] for r in self.roles)]
        lines += [",".join(repr(float(x)) for x in v) for v in self.vectors]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "VectorTuple":
        roles = None
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#roles:"):
                tags = {"p": POSITION, "f": FREE}
                try:
                    roles = tuple(tags[t.strip()] for t in line[len("#roles:"):].split(","))
                except KeyError as exc:
                    raise RoleError(f"unknown role tag {exc.args[0]!r} in CSV header")
                continue
            if line.startswith("#"):
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ShapeError(f"CSV line {lineno} is not numeric: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ShapeError(f"CSV line {lineno} has {len(row)} fields, the first row {len(rows[0])}")
            rows.append(row)
        vecs = np.asarray(rows, dtype=np.float64)
        return cls(vecs, roles)
