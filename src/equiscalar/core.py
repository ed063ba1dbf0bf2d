"""Shared geometric data model: metrics, role-tagged vector tuples, inner products.

All numerics are IEEE-754 doubles. Vectors and matrices are plain numpy
arrays; the constructors here validate finiteness and shape once so that
downstream code can assume well-formed inputs.

Shape-only structure (position indices, masks, index arrays, identities and
the Levi-Civita tensor) comes from ``_kept``, read-only and kept for small
keys. With every table full it holds 7.0 MB (tracemalloc): 6.1 MB of
d-subsets, 0.7 MB for 256 roles tuples of 32 distinct strings, 0.2 MB more.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (ChoiceError, DimensionMismatchError, NonFiniteError, NonFiniteValueError, RoleError,
                     ShapeError)

POSITION = "position"
FREE = "free"
ROLES = (POSITION, FREE)

EUCLIDEAN = "euclidean"
MINKOWSKI = "minkowski"


# -- field rules ---------------------------------------------------------------
# Every public object checks its fields by these rules when it is built, and
# the CLI's config keys and a saved model's fields borrow the rule of the
# field they set. One rule decides what a number is: a bool never is, numpy
# integers and floats are, and a real must be finite.


class Rule:
    """The values of a field: ``rule(value, field)`` returns ``value`` if
    ``takes(value)`` (or it is None and ``or_none``), else raises ``error``
    (for a NaN or infinite number, NonFiniteValueError) in one form,
    ``<field> must be <kind>, got <value!r>``. ``plural`` names a list of them."""

    def __init__(self, takes, kind, plural=None, or_none=False, error=ShapeError):
        self.takes, self.plural, self.or_none, self.error = takes, plural, or_none, error
        self.kind = "None or " + kind if or_none else kind

    def __call__(self, value, field):
        if self.takes(value) or (value is None and self.or_none):
            return value
        error = self.error
        if error is ShapeError and _is_number(value) and not _finite(value):
            error = NonFiniteValueError
        raise error(f"{field} must be {self.kind}, got {value!r}")


def _is_number(value) -> bool:
    """An int or a float, a numpy one or a 0-d numpy array of one; not a bool."""
    if isinstance(value, np.ndarray):
        return value.shape == () and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float64's range
        return False


def integer(least, or_none=False) -> Rule:
    """An int or a numpy integer (not a bool) of at least ``least``."""
    return Rule(lambda v: (type(v) is int or isinstance(v, np.integer)) and v >= least,
                f"an integer >= {least}", f"integers >= {least}", or_none)


def real(within=None, bounds="", or_none=False) -> Rule:
    """A finite number for which ``within``, if given, holds: the interval
    that ``bounds`` spells (``" in [0, 1)"``)."""
    def takes(v):
        if isinstance(v, float):  # float first: the common case, and fast
            return math.isfinite(v) and (within is None or within(v))
        return _is_number(v) and _finite(v) and (within is None or within(v))
    return Rule(takes, "a finite number" + bounds, "finite numbers" + bounds, or_none)


def choice(options, kind=None, error=ChoiceError) -> Rule:
    """One of ``options``, matched by type and value, so 1 is not True."""
    options = tuple(options)
    types = frozenset(map(type, options))
    return Rule(lambda v: type(v) in types and v in options,
                kind or "one of " + ", ".join(map(repr, options)), error=error)


def list_of(item: Rule) -> Rule:
    """A list or tuple of values that ``item`` takes."""
    return Rule(lambda v: isinstance(v, (list, tuple)) and all(map(item.takes, v)), "a list of " + item.plural)


def check_fields(values, rules) -> None:
    """Check each value of the mapping ``values`` by its field's rule in ``rules``."""
    for name, rule in rules.items():
        rule(values[name], name)


_FINITE = real()


def as_scalar(value, what) -> float:
    """``value`` as a float, if it is a finite number; ``what`` names it in errors."""
    if isinstance(value, float) and math.isfinite(value):  # float first: the common case, and fast
        return float(value)
    return float(_FINITE(value, what))


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


class _Unkept(Exception):
    """A structure built past its bound: ``lru_cache`` keeps no call that raises."""


def _kept(build, small):
    """``build(*key)``, every array in it (or in its tuple) made read-only, kept
    for the 256 keys last used that ``small(*key)`` accepts and built per call
    for the rest. A hit is one table lookup; the bound is evaluated on a miss."""
    def keep(*key):
        value = build(*key)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        if small(*key):
            return value
        raise _Unkept(value)
    table = functools.lru_cache(maxsize=256)(keep)

    def kept(*key):
        try:
            return table(*key)
        except _Unkept as unkept:
            return unkept.args[0]
    return kept


def det(a) -> np.ndarray:
    """``np.linalg.det`` of a float64 (..., d, d) stack, bit for bit: the
    LAPACK gufunc that it calls, without its argument checks and dtype
    dispatch (3.4 of the 5.3 us of one call on a 3 x 3 matrix, timeit on a
    2-core host)."""
    return _umath_linalg.det(a, signature="d->d")


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


_METRIC_KINDS = choice((EUCLIDEAN, MINKOWSKI))
_AT_LEAST_1 = integer(1)


@dataclass(frozen=True)
class Metric:
    """Euclidean or Minkowski signature descriptor.

    For the Minkowski kind, ``dim`` is the full spacetime dimension d+1 and
    the signature is (+, -, ..., -) with the timelike axis first.
    """

    kind: str
    dim: int

    def __post_init__(self):
        _METRIC_KINDS(self.kind, "metric kind")
        _AT_LEAST_1(self.dim, "metric dimension")

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
        s.setflags(write=False)
        return s


def euclidean(d: int) -> Metric:
    return Metric(EUCLIDEAN, d)


def minkowski(d_plus_1: int) -> Metric:
    return Metric(MINKOWSKI, d_plus_1)


def inner(metric: Metric, a, b) -> float:
    """Invariant scalar product: a^T b or a^T diag(1,-1,...,-1) b."""
    a = as_vector(a, metric.dim)
    b = as_vector(b, metric.dim)
    return float(np.dot(a * metric.signature, b))


_positions = _kept(lambda roles: np.flatnonzero([r == POSITION for r in roles]), lambda roles: len(roles) <= 32)
_identity = _kept(np.eye, lambda d: d <= 32)


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
        """Ascending indices of the position vectors, as a read-only array,
        found on the first call and kept: at large n finding them is a
        Python pass over the roles, and a translation-family model reads
        them twice per evaluation."""
        pos = self.__dict__.get("_positions")
        if pos is None:
            pos = self.__dict__["_positions"] = _positions(self.roles)
        return pos

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
