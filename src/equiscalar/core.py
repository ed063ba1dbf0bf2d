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

from .errors import ChoiceError, DimensionMismatchError, NonFiniteError, NonFiniteValueError, RoleError, ShapeError

POSITION = "position"
FREE = "free"
ROLES = (POSITION, FREE)
_ROLE_SET = frozenset(ROLES)

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


def integer(least=None, or_none=False) -> Rule:
    """An int or a numpy integer (not a bool), of at least ``least`` if given."""
    bound = "" if least is None else f" >= {least}"
    return Rule(lambda v: (type(v) is int or isinstance(v, np.integer)) and (least is None or v >= least),
                "an integer" + bound, "integers" + bound, or_none)


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


class array:
    """The arrays of a field: ``rule(value, field)`` returns ``np.asarray(value)`` as
    ``dtype`` if it holds finite numbers (not bools, complex numbers, strings or None;
    integral ones for an integer dtype) in a shape that ``shape(a.shape)`` takes. Else
    it raises as every rule does, naming the array by its dtype, shape or first bad entry."""

    def __init__(self, kind, shape, dtype=np.float64):
        self.kind, self.shape, self.dtype = kind, shape, np.dtype(dtype)

    def __call__(self, value, field):
        a = self.unscanned(value, field)
        if a.dtype.kind == "f":
            self.scan(a, field)
            if a.dtype is not self.dtype:  # integers, each within the dtype's range
                self._refuse((a % 1 != 0) | (abs(a) >= -float(np.iinfo(self.dtype).min)), a, field, ShapeError)
        return a if a.dtype is self.dtype else a.astype(self.dtype)

    def unscanned(self, value, field):
        """``np.asarray(value)``, refused for its dtype or shape as the rule
        refuses it and, for a float dtype, converted to it; its entries not
        yet scanned, which `scan` does for a float array."""
        try:
            a = np.asarray(value)
        except (TypeError, ValueError):  # ragged rows
            raise ShapeError(f"{field} must be {self.kind}, got a ragged {type(value).__name__}") from None
        if a.dtype.kind not in "iuf":
            raise ShapeError(f"{field} must be {self.kind}, got dtype {a.dtype}")
        if not self.shape(a.shape):
            raise ShapeError(f"{field} must be {self.kind}, got shape {a.shape}")
        if self.dtype.kind == "f" and a.dtype is not self.dtype:
            a = a.astype(self.dtype)  # rounds first: a longdouble can overflow float64
        return a

    def scan(self, a, field):
        """Refuse the float array ``a`` as the rule does if it holds a NaN or
        an infinity, naming the first."""
        # Up to 64 entries test faster as Python floats than by a numpy reduction.
        if not (all(map(math.isfinite, a.ravel().tolist())) if a.size <= 64 else np.isfinite(a).all()):
            self._refuse(~np.isfinite(a), a, field, NonFiniteValueError)

    def _refuse(self, bad, a, field, error):
        """Raise ``error`` naming the first entry of ``a`` that ``bad`` marks, if any."""
        if bad.any():
            at = np.argwhere(bad)[0]
            raise error(f"{field} must be {self.kind}, got {float(a[tuple(at)])!r} at index {at.tolist()}")


def check_roles(roles, n) -> tuple:
    """``roles`` as a tuple of ``n`` roles (None: n FREE ones), else RoleError naming
    their count or the first that is not a role; one set test passes them all."""
    roles = (FREE,) * n if roles is None else tuple(roles)
    if len(roles) != n:
        raise RoleError(f"roles must be one role for each of {n} vectors, got {len(roles)}")
    try:
        if _ROLE_SET.issuperset(roles):
            return roles
    except TypeError:  # an unhashable role
        pass
    bad = next(r for r in roles if not (isinstance(r, str) and r in _ROLE_SET))
    raise RoleError(f"roles must each be one of {ROLES}, got {bad!r}")


_VECTOR = array("a finite 1-d array of numbers, of length >= 1", lambda s: len(s) == 1 and s[0] >= 1)
_MATRIX = array("a finite 2-d array of numbers", lambda s: len(s) == 2)


def as_vector(v, d=None, field="vector") -> np.ndarray:
    """``v`` as a finite 1-d float64 array of length >= 1 (and d, if given)."""
    try:
        a = np.asarray(v)
    except (TypeError, ValueError):  # ragged rows: the rule names them
        a = None
    # A list of floats, the common case, skips the rule: a few Python floats test faster than numpy.
    if not (a is not None and a.dtype is _VECTOR.dtype and a.ndim == 1 and a.size
            and all(map(math.isfinite, a.tolist()))):
        a = _VECTOR(v, field)
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


def as_matrix(m, field="matrix") -> np.ndarray:
    """``m`` as a finite 2-d float64 array."""
    return _MATRIX(m, field)


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
    """Invariant scalar product: a^T b or a^T diag(1,-1,...,-1) b. Raises
    NonFiniteError when it overflows float64."""
    a = as_vector(a, metric.dim, "a")
    b = as_vector(b, metric.dim, "b")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.dot(a * metric.signature, b))
    if not math.isfinite(value):
        raise NonFiniteError("the inner product of a and b overflows float64")
    return value


_positions = _kept(lambda roles: np.flatnonzero(np.array(roles, dtype=object) == POSITION),
                   lambda roles: len(roles) <= 32)
_identity = _kept(np.eye, lambda d: d <= 32)


@dataclass(frozen=True)
class VectorTuple:
    """An ordered list of n same-dimension vectors, each tagged position/free."""

    vectors: np.ndarray  # (n, d)
    roles: tuple = field(default=None)

    def __post_init__(self):
        a = _MATRIX(self.vectors, "vectors")
        self.__dict__.update(vectors=a, roles=check_roles(self.roles, len(a)))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def position_indices(self) -> np.ndarray:
        """Ascending indices of the position vectors, as a read-only array,
        found on the first call and kept: at large n finding them is a
        pass over the roles, and a translation-family model reads them
        twice per evaluation."""
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
        x = cls(obj["vectors"], tuple(obj["roles"]))
        if x.d != obj["d"]:
            raise ShapeError("JSON vectors inconsistent with declared dimension d")
        return x

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
        return cls(rows, roles)
