"""Index-notation expressions: parsing, rule validation, evaluation by np.einsum.

The concrete grammar is underscore/caret with single-letter index labels:

    expression := ['-'] term (('+' | '-') term)*
    term       := factor+
    factor     := NAME '_' INDICES | NAME '^' INDICES
    INDICES    := [a-z]+

``eps`` and ``delta`` are reserved factor names for the Levi-Civita symbol
(exactly d indices) and the Kronecker delta (exactly 2 indices). '_' marks
covariant (lower) indices, '^' contravariant (upper) ones. Whitespace (what
``str.isspace`` accepts) may stand before and after a sign or a factor and
between a name and its marker; the labels follow the marker directly, so
``u_ i`` is a ParseError. Factors need no space between them, but labels run
on into a lowercase name: ``u_iV_j`` is two factors, ``u_iv_j`` an error.
Validation enforces the once-or-twice rule per additive term, matching
free-index sets across terms, and (in metric-aware mode) that each summed
pair is one lower and one upper occurrence.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .core import EUCLIDEAN, Metric, _kept, array, choice, integer, sort_sign
from .errors import ParseError, PatternError, ShapeError

LOWER = "lower"
UPPER = "upper"

RULE_ONCE_OR_TWICE = "once-or-twice"
RULE_VARIANCE_PAIRING = "variance-pairing"
RULE_EPSILON_ARITY = "epsilon-arity"
RULE_DELTA_ARITY = "delta-arity"
RULE_FREE_MISMATCH = "free-mismatch"

MAX_EVAL_DIM = 4
MAX_EVAL_INDICES = 8


@dataclass(frozen=True)
class Factor:
    name: str
    indices: tuple  # of (label, variance)
    offset: int = field(default=-1, compare=False)

    @property
    def is_epsilon(self):
        return self.name == "eps"

    @property
    def is_delta(self):
        return self.name == "delta"


@dataclass(frozen=True)
class Term:
    sign: int
    factors: tuple


@dataclass(frozen=True)
class IndexExpr:
    terms: tuple


# One factor and what may follow it: the name and the marker may have
# whitespace between them, the labels follow the marker directly, and a
# '+' or '-' after the labels starts the next term.
_FACTOR = re.compile(r"\s*([a-zA-Z]*)\s*([_^]?)([a-z]*)\s*([-+]?)")


def parse(src: str) -> IndexExpr:
    rest = src.lstrip()
    p = len(src) - len(rest)
    if not rest:
        raise ParseError("empty expression", p, ("NAME",))
    sign = 1
    if rest[0] == "-":
        sign, p = -1, p + 1
    terms, factors = [], []
    while True:
        m = _FACTOR.match(src, p)
        name, marker, labels, op = m.groups()
        if not name:
            raise ParseError("expected a tensor name", m.start(1), ("NAME",))
        if not marker:
            raise ParseError("expected an index marker", m.start(2), ("'_'", "'^'"))
        if not labels:
            raise ParseError("expected index labels", m.start(3), ("[a-z]+",))
        variance = LOWER if marker == "_" else UPPER
        factors.append(Factor(name, tuple((c, variance) for c in labels), m.start(1)))
        p = m.end()
        if op or p == len(src):
            terms.append(Term(sign, tuple(factors)))
            if not op:
                return IndexExpr(tuple(terms))
            sign, factors = (1 if op == "+" else -1), []


def _print_factor(f: Factor) -> str:
    variance = f.indices[0][1]
    marker = "_" if variance == LOWER else "^"
    return f.name + marker + "".join(lbl for lbl, _ in f.indices)


def print_expr(expr: IndexExpr) -> str:
    parts = []
    for i, term in enumerate(expr.terms):
        factors = " ".join(_print_factor(f) for f in term.factors)
        if i == 0:
            parts.append(("-" if term.sign < 0 else "") + factors)
        else:
            parts.append(("- " if term.sign < 0 else "+ ") + factors)
    return " ".join(parts)


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    positions: tuple


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    free_indices: tuple
    output_order: int
    violations: tuple

    def to_dict(self):
        return {
            "valid": self.valid,
            "free_indices": list(self.free_indices),
            "output_order": self.output_order,
            "violations": [
                {"rule": v.rule, "message": v.message, "positions": list(v.positions)}
                for v in self.violations
            ],
        }


MODE_PLAIN = "plain"
MODE_METRIC_AWARE = "metric-aware"
_MODES = choice((MODE_PLAIN, MODE_METRIC_AWARE))
_DIM = integer(1)


def validate(expr: IndexExpr, metric: Metric, mode: str = MODE_PLAIN) -> ValidationReport:
    """Check each term against the index rules; the free indices follow their
    first appearance in term 0. An expression with no terms, or a term with
    no factors, is a ShapeError."""
    _MODES(mode, "mode")
    if not expr.terms:
        raise ShapeError("an index expression needs at least one term")
    d = metric.dim
    violations, mismatches = [], []
    for ti, term in enumerate(expr.terms):
        if not term.factors:
            raise ShapeError(f"term {ti} has no factors")
        occurrences = {}  # label -> [(variance, factor offset)], in first-appearance order
        for factor in term.factors:
            if factor.is_epsilon and len({lbl for lbl, _ in factor.indices}) != d:
                labels = "".join(lbl for lbl, _ in factor.indices)
                violations.append(Violation(
                    RULE_EPSILON_ARITY, f"eps must carry exactly {d} distinct labels, got {labels!r}", (factor.offset,)))
            if factor.is_delta and len(factor.indices) != 2:
                violations.append(Violation(
                    RULE_DELTA_ARITY, f"delta must carry exactly 2 labels, got {len(factor.indices)}", (factor.offset,)))
            for lbl, var in factor.indices:
                occurrences.setdefault(lbl, []).append((var, factor.offset))
        for lbl, occ in occurrences.items():
            if len(occ) > 2:
                violations.append(Violation(
                    RULE_ONCE_OR_TWICE, f"index {lbl!r} appears {len(occ)} times in term {ti}; "
                    "indices may appear once or twice only", tuple(o for _, o in occ)))
            elif len(occ) == 2 and mode == MODE_METRIC_AWARE and {v for v, _ in occ} != {LOWER, UPPER}:
                violations.append(Violation(
                    RULE_VARIANCE_PAIRING, f"summed index {lbl!r} in term {ti} must pair one lower "
                    "with one upper occurrence", tuple(o for _, o in occ)))
        free = [lbl for lbl, occ in occurrences.items() if len(occ) == 1]
        if ti == 0:
            free_indices = tuple(free)
        elif set(free) != set(free_indices):
            mismatches.append(Violation(
                RULE_FREE_MISMATCH, f"term {ti} has free indices {sorted(free)} but term 0 has "
                f"{sorted(free_indices)}", ()))
    violations += mismatches
    return ValidationReport(not violations, free_indices, len(free_indices), tuple(violations))


def _build_levi_civita(d: int) -> np.ndarray:
    """Dense Levi-Civita tensor of order d: the sign of each permutation of
    range(d) at that index, 0 wherever an index repeats."""
    perms = np.array(list(itertools.permutations(range(d))))
    eps = np.zeros((d,) * d)
    eps[tuple(perms.T)] = sort_sign(perms)[1]
    return eps


_levi_civita = _kept(_build_levi_civita, lambda d: d <= MAX_EVAL_DIM)


def _bound_tensor(factor: Factor, bindings: dict, d: int, lam: np.ndarray) -> np.ndarray:
    """The bound array of a named factor, its upper indices raised through lam."""
    if factor.name not in bindings:
        raise ShapeError(f"no binding for tensor {factor.name!r}")
    axes = (d,) * len(factor.indices)
    a = array(f"a finite array of shape {axes}", axes.__eq__)(bindings[factor.name], f"tensor {factor.name!r}")
    for axis, (_, var) in enumerate(factor.indices):
        if var == UPPER:
            a = np.tensordot(lam, a, axes=([1], [axis]))
            a = np.moveaxis(a, 0, axis)
    return a


def evaluate(expr: IndexExpr, bindings: dict, d: int, metric: Metric | None = None):
    """Contract each term with one np.einsum; upper indices are raised
    through the metric.

    eps is the dense d^d Levi-Civita tensor and delta the d x d identity.
    Returns a float for scalar output, otherwise an array whose axes follow
    the first appearance of each free label.
    """
    _DIM(d, "d")
    if d > MAX_EVAL_DIM:
        raise ShapeError(f"evaluation supports d <= {MAX_EVAL_DIM}, got {d}")
    metric = Metric(EUCLIDEAN if metric is None else metric.kind, d)
    report = validate(expr, metric)
    if not report.valid:
        raise ShapeError(
            "cannot evaluate an invalid expression: "
            + "; ".join(v.message for v in report.violations)
        )
    lam = metric.matrix
    free = "".join(report.free_indices)
    out = np.zeros((d,) * len(free))
    for term in expr.terms:
        labels = {lbl for factor in term.factors for lbl, _ in factor.indices}
        if len(labels) > MAX_EVAL_INDICES:
            raise ShapeError(
                f"term uses {len(labels)} distinct indices; limit is {MAX_EVAL_INDICES}"
            )
        operands = []
        for factor in term.factors:
            if factor.is_epsilon:
                # More than d slots means a repeated label, and the symbol vanishes.
                order = len(factor.indices)
                operands.append(_levi_civita(d) if order == d else np.zeros((d,) * order))
            elif factor.is_delta:
                operands.append(np.eye(d))
            else:
                operands.append(_bound_tensor(factor, bindings, d, lam))
        subscripts = ",".join("".join(lbl for lbl, _ in f.indices) for f in term.factors)
        out = out + term.sign * np.einsum(subscripts + "->" + free, *operands)
    return out if free else float(out)


def rewrite_epsilon_pair(expr: IndexExpr) -> IndexExpr:
    """Expand a d=3 epsilon pair sharing exactly one label into Kronecker deltas.

    eps_{sab} eps_{scd} -> delta_{ac} delta_{bd} - delta_{ad} delta_{bc},
    after antisymmetric reordering to put the shared label first.
    """
    if len(expr.terms) != 1:
        raise PatternError("rewrite supports single-term expressions only")
    term = expr.terms[0]
    eps = [f for f in term.factors if f.is_epsilon]
    rest = [f for f in term.factors if not f.is_epsilon]
    if len(eps) != 2:
        raise PatternError(f"expected exactly two eps factors, found {len(eps)}")
    for f in eps:
        if len(f.indices) != 3:
            raise PatternError("rewrite supports d=3 eps factors only")
    labels0 = [lbl for lbl, _ in eps[0].indices]
    labels1 = [lbl for lbl, _ in eps[1].indices]
    shared = set(labels0) & set(labels1)
    if len(shared) != 1:
        raise PatternError(
            f"eps factors must share exactly one label, shared: {sorted(shared)}"
        )
    s = shared.pop()

    def pull_front(labels):
        # A cyclic rotation of the eps labels keeps the sign.
        i = labels.index(s)
        return labels[(i + 1) % 3], labels[(i + 2) % 3]

    a, b = pull_front(labels0)
    c, e = pull_front(labels1)
    sign = term.sign
    lower = lambda lbls: tuple((lbl, LOWER) for lbl in lbls)
    plus = Term(sign, tuple(rest) + (Factor("delta", lower((a, c))), Factor("delta", lower((b, e)))))
    minus = Term(-sign, tuple(rest) + (Factor("delta", lower((a, e))), Factor("delta", lower((b, c)))))
    return IndexExpr((plus, minus))
