"""Sweep ``einsum.parse``, ``print_expr`` and ``validate`` over random strings.

Each string is drawn from SEED over names (``eps`` and ``delta`` and their
fragments among them), markers, labels, signs, stray characters and
whitespace that ``str.isspace`` accepts (``'\\x0b'``, ``'\\x1c'`` and U+3000
among them); half are built along the grammar and may have one piece
replaced. Every string must either parse to an ``IndexExpr`` ``e`` with
``parse(print_expr(e)) == e``, on which ``validate`` returns a report in
both modes, or raise ``ParseError`` with ``0 <= offset <= len(src)`` and a
non-empty ``expected``. Any other exception is a failure.

    PYTHONPATH=src python tests/einsum_parse_sweep.py [COUNT] [SEED]

prints the failure count (and the first few) for COUNT strings (default
10**6) drawn from SEED (default 29) and exits 1 on any failure.
``tests/test_einsum.py`` runs the same sweep at 10**4 strings.
"""
import random
import sys

from equiscalar import einsum
from equiscalar.core import euclidean
from equiscalar.errors import ParseError

NAMES = ("u", "v", "w", "A", "Bq", "eps", "delta")
SPACES = (" ", "\t", "\n", "\x0b", "\x1c", "\u3000")
PIECES = NAMES + SPACES + ("e", "ps", "del", "ta", "_", "^", "i", "j", "k", "ij", "+", "-", "3", "*", "")
METRIC = euclidean(3)


def _space(rng):
    return "".join(rng.choices(SPACES, k=rng.choice((0, 1, 1, 2))))


def source(rng):
    """One random string: pieces at random, or an expression along the grammar
    with, at times, one piece replaced."""
    if rng.random() < 0.5:
        return "".join(rng.choices(PIECES, k=rng.randrange(12)))
    pieces = [_space(rng), rng.choice(("", "", "-"))]
    for t in range(rng.randint(1, 3)):
        if t:
            pieces += [_space(rng), rng.choice("+-")]
        for _ in range(rng.randint(1, 4)):
            labels = "".join(rng.choices("ijkmn", k=rng.randint(1, 4)))
            pieces += [_space(rng), rng.choice(NAMES), _space(rng), rng.choice("_^"), labels]
    pieces.append(_space(rng))
    if rng.random() < 0.3:
        pieces[rng.randrange(len(pieces))] = rng.choice(PIECES)
    return "".join(pieces)


def failure(src):
    """What is wrong with parsing and validating ``src``, or None."""
    try:
        expr = einsum.parse(src)
    except ParseError as exc:
        if not (0 <= exc.offset <= len(src) and exc.expected):
            return f"ParseError offset {exc.offset} or expected {exc.expected!r} out of range"
        return None
    except Exception as exc:
        return f"parse raised {exc!r}"
    try:
        if einsum.parse(einsum.print_expr(expr)) != expr:
            return f"print_expr gives {einsum.print_expr(expr)!r}, which parses to another expression"
        for mode in (einsum.MODE_PLAIN, einsum.MODE_METRIC_AWARE):
            einsum.validate(expr, METRIC, mode)
    except Exception as exc:
        return f"raised {exc!r}"
    return None


def sweep(count, seed):
    """(src, failure) for each of ``count`` strings from ``seed`` that fails."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        src = source(rng)
        why = failure(src)
        if why is not None:
            bad.append((src, why))
    return bad


if __name__ == "__main__":
    count = int(float(sys.argv[1])) if len(sys.argv) > 1 else 10 ** 6
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 29
    bad = sweep(count, seed)
    print(f"{len(bad)} failures over {count} random strings (seed {seed})")
    for src, why in bad[:10]:
        print(f"  {src!r}: {why}")
    sys.exit(1 if bad else 0)
