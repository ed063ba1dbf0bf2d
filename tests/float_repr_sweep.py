"""Sweep the features writer's float formatter against ``float.__repr__``.

``equiscalar.cli._float_reprs`` spells float64 arrays with numpy array
operations. This compares its text with ``float.__repr__`` on random bit
patterns over the whole uint64 range (every sign, exponent and significand,
NaNs and infinities included) and on the values where a shortest-digits
algorithm goes wrong first: every power of two and of ten with both
neighbours, 2**53 +- k, the edges 1e-4 and 1e16 of Python's positional
layout, the largest and smallest normal and subnormal, signed zeros,
infinities and NaN payloads, each with both signs.

    PYTHONPATH=src python tests/float_repr_sweep.py [COUNT] [SEED]

prints the mismatch count (and the first few) for COUNT random patterns
(default 10**7) drawn from SEED (default 23) and exits 1 on any mismatch.
``tests/test_float_reprs.py`` runs the same sweep at 10**6 patterns.
"""
import sys

import numpy as np

from equiscalar.cli import _float_reprs

BATCH = 1 << 18


def _from_bits(*patterns):
    return np.array(patterns, np.uint64).view(np.float64)


def edge_values():
    """The fixed part of the sweep, each value with both signs."""
    centres = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{e}") for e in range(-323, 309)],
        [1e-4, 1e16, 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 2.225073858507201e-308],
    ])
    with np.errstate(over="ignore"):  # above the largest double is inf
        neighbours = [np.nextafter(centres, np.inf), np.nextafter(centres, -np.inf)]
    values = np.concatenate([
        centres, *neighbours,
        2.0 ** 53 + np.arange(-64, 65),
        [0.0, np.inf],
        _from_bits(0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                   0x7FFFFFFFFFFFFFFF, 0x7FF4000000000000),
    ])
    return np.concatenate([values, -values])


def mismatches(values):
    """(value, got, want) for each entry of ``values`` whose text is not its repr."""
    got = _float_reprs(values).tolist()
    return [(v, a, b) for v, a, b in zip(values.tolist(), got, (repr(v).encode() for v in values.tolist()))
            if a != b]


def sweep(count, seed):
    """Mismatches over the edge values and ``count`` random bit patterns."""
    rng = np.random.default_rng(seed)
    bad = mismatches(edge_values())
    for start in range(0, count, BATCH):
        bits = rng.integers(0, 2 ** 64, min(BATCH, count - start), dtype=np.uint64, endpoint=False)
        bad += mismatches(bits.view(np.float64))
    return bad


if __name__ == "__main__":
    count = int(float(sys.argv[1])) if len(sys.argv) > 1 else 10 ** 7
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 23
    bad = sweep(count, seed)
    print(f"{len(bad)} mismatches against float.__repr__ over {count} random bit patterns "
          f"(seed {seed}) and {edge_values().size} edge values")
    for value, got, want in bad[:10]:
        print(f"  {want.decode()}: got {got.decode()}")
    sys.exit(1 if bad else 0)
