"""Command-line entry point.

Conventions: structured output is JSON on stdout, diagnostics go to stderr.
Exit codes: 0 success, 1 validation/certification failure, 2 usage or input
error, which ``_input_errors`` reports as ``<command>: <message>`` on stderr.
It is also the one place that sets numpy's floating-point state: commands
run with overflow, division by zero and invalid operations ignored, so none
writes a numpy warning, and ``features``, ``demo`` and ``einsum eval`` exit 2
by one check, ``_check_finite``, on a printed number that is NaN or Inf.
``features`` writes only what it has passed: a finite, exactly symmetric
Gram and Ω values read from it.
Every randomized subcommand requires an explicit --seed; there is no
wall-clock default, so identical invocations are byte-identical for the
same numpy build, BLAS kernel and CPU SIMD features. Across those the last
bits can differ: forcing OpenBLAS's AVX2 kernel (OPENBLAS_CORETYPE=Haswell)
failed 49 of 2024 tests on an AVX-512 host, and limiting numpy's dispatch to
AVX2 (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") failed 11,
all golden-file, oracle or report comparisons. CI logs that configuration first.
"""
from __future__ import annotations

import csv
import functools
import json
import sys

import click
import numpy as np

from . import einsum, features, groups, harness, mpnn, physics
from .core import EUCLIDEAN, MINKOWSKI, Metric, VectorTuple, as_scalar, choice, real
from .errors import EquiscalarError, NonFiniteError, ShapeError


def _emit(obj):
    click.echo(json.dumps(obj, indent=2))


def _check_finite(**results):
    """Raise NonFiniteError naming each of ``results`` that holds NaN or Inf."""
    bad = [name for name, value in results.items() if not np.isfinite(value).all()]
    if bad:
        raise NonFiniteError(f"{' and '.join(bad)} not finite: NaN or Inf")


def _input_errors(callback):
    """Exit 2 with ``<command>: <message>`` (``einsum check: ...``) on an input
    error in a command callback, run with numpy's floating-point warnings
    off; the callback's own ``sys.exit`` passes."""
    @functools.wraps(callback)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                return callback(*args, **kwargs)
        except (EquiscalarError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ctx = click.get_current_context()
            click.echo(f"{ctx.command_path[len(ctx.find_root().info_name) + 1:]}: {exc}", err=True)
            sys.exit(2)
    return run


_METRICS = {"euclid": EUCLIDEAN, "minkowski": MINKOWSKI}
_metric_option = click.option(
    "--metric", "metric_kind", type=click.Choice(list(_METRICS)), default="euclid",
    show_default=True, callback=lambda ctx, param, value: _METRICS[value])


@click.group()
def main():
    """Build, evaluate, and certify invariant/equivariant functions."""


# -- sample-group -----------------------------------------------------------


@main.command("sample-group")
@click.option("--group", type=click.Choice(["o", "so", "lorentz", "e", "poincare", "perm"]), required=True)
@click.option("--dim", type=int, required=True, help="Ambient dimension (slot count for perm).")
@click.option("--seed", type=int, required=True)
@click.option("--rapidity-max", type=float, default=groups.DEFAULT_RAPIDITY_MAX, show_default=True)
@_input_errors
def sample_group(group, dim, seed, rapidity_max):
    """Sample one group element and print it as JSON."""
    _emit(groups.element_to_dict(groups.sample(group, groups.make_rng(seed), dim, rapidity_max)))


# -- features ---------------------------------------------------------------


@main.command("features")
@_metric_option
@click.option("--subdets", is_flag=True, help="Include SO(d) subdeterminant features.")
@click.option("--omega", "omega_d", type=int, default=None, help="Also emit the wrap-around band for rank d.")
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--out", "outfile", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
@_input_errors
def features_cmd(metric_kind, subdets, omega_d, infile, outfile):
    """Compute invariant scalar features of a vector tuple."""
    with open(infile) as fh:
        text = fh.read()
    x = VectorTuple.from_csv(text) if infile.endswith(".csv") else VectorTuple.from_json(text)
    metric = Metric(metric_kind, x.d)
    g = features.gram(metric, x)
    dets = features.subdeterminants(x) if subdets else {}
    _check_finite(gram=g, subdets=list(dets.values()))
    out = {"n": x.n, "d": x.d, "metric": metric.kind, "gram": g}
    if subdets:
        out["subdets"] = [{"indices": list(k), "value": v} for k, v in dets.items()]
    if omega_d is not None:
        sample = features.omega_sample(g, omega_d)
        out["omega"] = [
            {"i": i, "j": j, "value": v} for (i, j), v in sorted(sample.entries.items())
        ]
    if outfile:
        with open(outfile, "w") as fh:
            _write_features(out, fh.write)
        click.echo(f"wrote {outfile}", err=True)
    else:
        _write_features(out, lambda text: click.echo(text, nl=False))
        click.echo()


_OMEGA_ENTRY = '{\n      "i": %d,\n      "j": %d,\n      "value": %r\n    }'


# float64 texts as float.__repr__ spells them, computed as array operations.
# Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
# 2020; the algorithm of Java 19's Double.toString) finds the shortest digits
# that read back as the same double, the closest to it on a tie of length.
# Only normal values take that path: Java gives a subnormal like 5e-324 two
# digits where Python gives one, so zeros, subnormals, infinities and NaNs
# are spelled by float.__repr__ one by one.

_REPR_CHUNK = 8192  # entries per kernel pass; its temporaries stay in cache


def _schubfach_table():
    """For k in [-324, 292], g = floor(10**-k * 2**(125 - r)) + 1 with
    r = floor(log2(10**-k)), as the rows g1 = g >> 63, the 32-bit halves of
    g1 and the 32-bit halves of g0 = g mod 2**63."""
    rows = []
    for k in range(-324, 293):
        r = (-k * 913124641741) >> 38
        if k > 0:
            g = (1 << (125 - r)) // 10 ** k + 1
        else:
            g = (10 ** -k << (125 - r) if r <= 125 else 10 ** -k >> (r - 125)) + 1
        g1, g0 = g >> 63, g & (1 << 63) - 1
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, np.uint64).T.copy()


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a * b from 32-bit halves, for a < 2**63 and b < 2**60
    (the sum of the cross products cannot carry out of 64 bits)."""
    mid = ((al * bl) >> 32) + al * bh + ah * bl
    return ah * bh + (mid >> 32)


def _rop(g, cp):
    """Schubfach's round-to-odd of g * cp / 2**127."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & 0xFFFFFFFF
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | ((z << 1) != 0)


def _shortest_digits(bits, table):
    """(f, k) with f * 10**k the shortest decimal, closest on a tie, that
    reads back as each normal double of ``bits``; f has 16 or 17 digits and
    may end in zeros. Other entries get values of no meaning. ``table`` is
    _schubfach_table()."""
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    t = bits & (1 << 52) - 1
    q = bq - 1075
    c = t | 1 << 52
    irregular = (t == 0) & (bq > 1)  # a power of two: the gap below it is half
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # 2 to 5: cp < 2**60
    g = table.take(k + 324, axis=1)
    odd = c & 1  # an odd significand excludes the ends of its interval
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
    s = vb >> 2
    sp = s // 10 * 10  # the one candidate with a digit fewer, and sp + 10
    upin, wpin = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    r = vb & 3
    up = np.where(uin != win, win, (r > 2) | ((r == 2) & (s & 1 == 1)))
    return np.where(upin != wpin, sp + np.uint64(10) * wpin, s + up), k


# An entry's source row: its 17 digits, its |decimal exponent| as "0ddd",
# then the fixed bytes ".e-+0" and NUL; a layout is the 24 source bytes of a
# text, NUL-padded.
_DOT, _E, _MINUS, _PLUS, _ZERO, _NUL = range(21, 27)
_SOURCE_TAIL = np.frombuffer(b".e-+0\0", np.uint8)
_LEADS = range(-309, 309)  # decimal exponents of a first digit: k + 15 or k + 16


def _layouts():
    """Python's layouts of a text as rows of source indices, the rows from
    ``len // 2`` on the same after a "-", and, for each first-digit exponent
    lead in _LEADS and count nd of significant digits, the row of the
    unsigned text at ``index[lead - _LEADS[0], nd]``: positional for
    -4 <= lead < 16, with ".0" on integers, else d.ddde±XX."""
    positional = []  # by lead from -4, then nd from 1
    for lead in range(-4, 16):
        for nd in range(1, 18):
            if lead >= 0:
                positional.append([*range(lead + 1), _DOT, *(range(lead + 1, nd) or [_ZERO])])
            else:
                positional.append([_ZERO, _DOT, *[_ZERO] * (-lead - 1), *range(nd)])
    scientific = []  # by nd from 1, the exponent's sign, then its width
    for nd in range(1, 18):
        mantissa = [0, _DOT, *range(1, nd)] if nd > 1 else [0]
        for sign in (_PLUS, _MINUS):
            scientific += [mantissa + [_E, sign, 19, 20], mantissa + [_E, sign, 18, 19, 20]]
    rows = np.full((len(positional) + len(scientific), 24), _NUL, np.uint8)
    for row, text in zip(rows, positional + scientific):
        row[:len(text)] = text
    signed = np.concatenate([np.full((len(rows), 1), _MINUS, np.uint8), rows[:, :23]], axis=1)
    lead, nd = np.array(_LEADS, np.int16)[:, None], np.arange(18, dtype=np.int16)
    index = np.where((lead >= -4) & (lead < 16), (lead + 4) * 17 + nd - 1,
                     len(positional) + 4 * (nd - 1) + 2 * (lead < 0) + (abs(lead) >= 100))
    return np.concatenate([rows, signed]), index


def _quad_tables():
    """0000-9999 as 4 ASCII bytes each (uint32), and, for quad j (digits
    4j+1 to 4j+4 of 17) at 10000 j + its value, the significant digits of
    a text whose last non-zero digit is in it, 1 if it is all zeros."""
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
              % 10 + 48).astype(np.uint8)
    last = np.where(digits[:, ::-1] != 48, np.arange(4, 0, -1, dtype=np.uint8), 0).max(axis=1)
    return digits.view(np.uint32)[:, 0], np.concatenate([np.where(last, 4 * j + 1 + last, 1) for j in range(4)])


@functools.cache
def _repr_tables():
    """The formatter's tables, built on its first array-path call, not when
    the CLI is imported."""
    return _schubfach_table(), *_layouts(), *_quad_tables()


def _float_reprs(x):
    """``float.__repr__`` of each entry of the float64 array ``x``, of any
    size, as a flat S24 array (24 bytes hold the longest repr), made in
    chunks of _REPR_CHUNK entries: Schubfach's digits, then each entry's 17
    digits and exponent laid out by one gather of its source row through its
    layout."""
    x = np.ascontiguousarray(x, np.float64).ravel()
    table, layouts, layout_index, quad_chars, quad_digits = _repr_tables()
    out = np.empty(x.size, "S24")
    sources = np.empty((min(x.size, _REPR_CHUNK), 32), np.uint8)
    sources[:, 21:27] = _SOURCE_TAIL
    for lo in range(0, x.size, _REPR_CHUNK):
        bits = x[lo:lo + _REPR_CHUNK].view(np.uint64)
        n = bits.size
        f, k = _shortest_digits(bits, table)
        long = f >= 10 ** 16
        f = np.where(long, f, f * 10)  # 17 digits
        lead = k + 15 + long  # decimal exponent of the first digit
        first = f // 10 ** 16
        f -= first * 10 ** 16
        high = f // 10 ** 8
        low = f - high * 10 ** 8
        quads = np.empty((4, n), np.uint64)
        quads[0] = high // 10000
        quads[1] = high - quads[0] * 10000
        quads[2] = low // 10000
        quads[3] = low - quads[2] * 10000
        source = sources[:n]
        source[:, 0] = first + 48
        source[:, 1:17].view(np.uint32)[:] = quad_chars.take(quads).T
        source[:, 17:21].view(np.uint32)[:, 0] = quad_chars.take(abs(lead))
        quads += np.arange(0, 40000, 10000, dtype=np.uint64)[:, None]
        nd = quad_digits.take(quads).max(axis=0)
        layout = (layout_index.take((lead - _LEADS[0]) * 18 + nd)
                  + (bits >> 63).astype(np.intp) * (len(layouts) // 2))
        index = layouts.take(layout, axis=0) + np.arange(0, 32 * n, 32)[:, None]
        texts = out[lo:lo + n]
        texts[:] = source.ravel().take(index).view("S24")[:, 0]
        bq = bits >> 52 & 0x7FF
        other = np.flatnonzero((bq == 0) | (bq == 0x7FF))
        if other.size:
            texts[other] = list(map(float.__repr__, x[lo + other].tolist()))
    return out


_ROWS_OF = 16384  # Gram entries per streamed block of rows
_ROW_OPEN = np.frombuffer(b",\n    [\n      ", np.uint8)
_ENTRY_END = np.frombuffer(b",\n      ", np.uint8)
_ROW_END = np.frombuffer(b"\n    ]\0\0", np.uint8)


def _write_features(out, write):
    """Write ``json.dumps(out, indent=2)`` through ``write`` for the payload
    of ``features_cmd``: ``out["gram"]`` a finite square float64 ndarray
    whose lower triangle is a bit copy of its upper one, as ``features.gram``
    makes it and ``_check_finite`` passes it, and ``out["omega"]``, if
    present, a list of ``{"i", "j", "value"}`` dicts of its entries. Other
    input gets wrong texts: ``inf`` and ``nan``, and mirror texts below the
    diagonal.

    json's pure-Python encoder (the one ``indent`` selects) spells a finite
    float as ``float.__repr__`` does; ``_float_reprs`` makes those texts for
    whole arrays at once. The Gram goes out in blocks of rows, and each
    entry on or above the diagonal is formatted once: the texts are kept in
    an S24 array (``S24`` holds the longest float64 repr) whose row k holds
    row k's entries from column k on, and whose column k, below row k, the
    same texts again, so that row k's part left of the diagonal is already
    there when its block comes. Each block is written as one text: its rows'
    texts and separators laid out in fixed-width slots and the NUL padding
    dropped. The Ω band goes through a template, the other keys through
    json."""
    g, omega = out["gram"], out.get("omega")
    rest = json.dumps({k: None if k in ("gram", "omega") else v for k, v in out.items()}, indent=2)
    head, _, tail = rest.partition('"gram": null')
    if omega is not None:
        entries = ",\n    ".join(_OMEGA_ENTRY % (e["i"], e["j"], e["value"]) for e in omega)
        tail = tail.replace('"omega": null', '"omega": ' + (
            "[\n    " + entries + "\n  ]" if omega else "[]"))
    n = len(g)
    texts = np.zeros(g.shape, "S24")
    step = max(1, min(n, _ROWS_OF // max(n, 1)))
    slots = np.zeros((step, n + 1, 32), np.uint8)  # a row's opening, then its entries
    slots[:, 0, :14] = _ROW_OPEN
    slots[:, 1:, 24:] = _ENTRY_END
    slots[:, -1, 24:] = _ROW_END
    write(head + '"gram": [')
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        block = texts[k0:k1]
        upper = np.arange(k0, n) >= np.arange(k0, k1)[:, None]
        block[:, k0:][upper] = _float_reprs(g[k0:k1, k0:][upper])
        texts[k1:, k0:k1] = block[:, k1:].T
        square, lower = block[:, k0:k1], ~upper[:, :k1 - k0]
        square[lower] = square.T[lower]
        slots[:k1 - k0, 1:, :24] = block.view(np.uint8).reshape(k1 - k0, n, 24)
        text = slots[:k1 - k0].tobytes().translate(None, b"\0").decode()
        write(text[1:] if k0 == 0 else text)  # no comma before the first row
    write(("\n  ]" if n else "]") + tail)


# -- demo -------------------------------------------------------------------


def _load_particles(path):
    with open(path) as fh:
        obj = json.load(fh)
    entries = obj.get("particles") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(isinstance(p, dict) for p in entries):
        raise ShapeError("particle file must be an object whose 'particles' is a list of objects")
    particles = [
        physics.Particle(
            p["r"], p["v"], mass=p.get("mass", 1.0), charge=p.get("charge", 0.0)
        )
        for p in entries
    ]
    return obj, particles


@main.command("demo")
@click.argument("which", type=click.Choice(["energy", "emforce"]))
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--check-equivariance", "trials", type=int, default=0)
@click.option("--seed", type=int, default=None)
@_input_errors
def demo(which, infile, trials, seed):
    """Evaluate the reference physics examples on a particle file."""
    if trials > 0 and seed is None:
        raise ShapeError("--check-equivariance requires an explicit --seed")
    obj, particles = _load_particles(infile)
    G, k, c = (as_scalar(obj.get(name, 1.0), name) for name in ("G", "k", "c"))
    out = {}
    if which == "energy":
        a = out["energy"] = physics.total_energy(particles, G)
    else:
        test, sources = particles[0], particles[1:]
        a = physics.em_force_scalar(test, sources, k, c)
        out["force_cross"] = physics.em_force_cross(test, sources, k, c).tolist()
        out["force_scalar"] = a.tolist()
    if trials > 0:
        rng = groups.make_rng(seed)
        d = particles[0].r.size
        draws = [(groups.sample("so", rng, d).q, rng.standard_normal(d)) for _ in range(trials)]
        q, w = (np.array(x) for x in zip(*draws))  # (T, d, d), (T, d)
        # Every trial's moved particles as one (T, n, d) stack of mat-vecs;
        # a moved vector that overflows makes the residual NaN or Inf.
        r = (q[:, None] @ np.array([p.r for p in particles])[..., None])[..., 0] + w[:, None]
        v = (q[:, None] @ np.array([p.v for p in particles])[..., None])[..., 0]
        if which == "energy":
            b = physics._energies(r, v, np.array([p.mass for p in particles]), G)
            residuals = abs(a - b) / (1.0 + abs(a))
        else:
            physics._check_sources(r[:, 0], r[:, 1:])
            charges = np.array([p.charge for p in particles])
            b = physics._em_force(r[:, 0], v[:, 0], charges[0], r[:, 1:], v[:, 1:], charges[1:], k, c)
            residuals = np.linalg.norm(b - q @ a, axis=-1) / (1.0 + np.linalg.norm(a))
        out["equivariance"] = {"trials": trials, "max_residual": float(residuals.max())}
    _check_finite(**{key: value for key, value in out.items() if key != "equivariance"},
                  **out.get("equivariance", {}))
    _emit(out)


# -- einsum -----------------------------------------------------------------


@main.group("einsum")
def einsum_group():
    """Parse, validate, and evaluate index-notation expressions."""


@einsum_group.command("check")
@click.argument("expr")
@_metric_option
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--mode", type=click.Choice([einsum.MODE_PLAIN, einsum.MODE_METRIC_AWARE]), default=einsum.MODE_PLAIN, show_default=True)
@_input_errors
def einsum_check(expr, metric_kind, dim, mode):
    """Validate EXPR; exit 0 if valid, 1 with a violation report otherwise."""
    report = einsum.validate(einsum.parse(expr), Metric(metric_kind, dim), mode)
    _emit(report.to_dict())
    sys.exit(0 if report.valid else 1)


@einsum_group.command("eval")
@click.argument("expr")
@click.option("--bind", "bindfile", type=click.Path(exists=True), required=True, help="JSON map of tensor name to nested array.")
@click.option("--dim", type=int, required=True)
@_metric_option
@_input_errors
def einsum_eval(expr, bindfile, dim, metric_kind):
    """Evaluate EXPR on the given bindings, one np.einsum contraction per term."""
    parsed = einsum.parse(expr)
    with open(bindfile) as fh:
        bindings = json.load(fh)
    value = einsum.evaluate(parsed, bindings, dim, Metric(metric_kind, dim))
    _check_finite(value=value)
    _emit({"value": value if np.isscalar(value) else np.asarray(value).tolist()})


# -- train ------------------------------------------------------------------


def _parse_kv_config(path):
    """Simple key = value config; values are ints, floats, strings, or [lists]."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ShapeError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = _parse_value(value)
    return out


def _parse_value(value):
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        return [_parse_value(v.strip()) for v in inner.split(",")] if inner else []
    if value.startswith(('"', "'")) and value.endswith(value[0]):
        return value[1:-1]
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


# The callables a train config sets keywords of, in the order of
# ``_train_kwargs``' result; each holds its keywords' rules as ``_rules``.
_TRAIN_OWNERS = (mpnn.generate_dataset, mpnn.EdgeConfig, mpnn.MpnnModel, mpnn.TrainConfig)
# Config key -> (the callable whose keyword it sets, that keyword). A key
# left out takes the callable's default; the ``_REQUIRED`` keys have none.
_TRAIN_KEYS = {
    "n_samples": (mpnn.generate_dataset, "n_samples"),
    "edge_inv_sqrt": (mpnn.EdgeConfig, "include_inv_sqrt"),
    "edge_rbf_centers": (mpnn.EdgeConfig, "rbf_centers"),
    "edge_rbf_width": (mpnn.EdgeConfig, "rbf_width"),
    "widths": (mpnn.MpnnModel, "hidden"),
    **{key: (mpnn.MpnnModel, key) for key in ("n_particles", "layers", "activation", "mode", "readout")},
    "batch": (mpnn.TrainConfig, "batch_size"),
    **{key: (mpnn.TrainConfig, key) for key in ("seed", "epochs", "lr")},
}
_REQUIRED = ("n_particles", "n_samples", "seed")
_CONFIG_KEYS = choice(_TRAIN_KEYS)
# The text of edge_inv_sqrt: true and false, or 1 and 0.
_BOOLS = {"true": True, "false": False, 1: True, 0: False}
_BOOL_TEXT = choice(_BOOLS, "true, false, 1 or 0")


def _train_kwargs(cfg):
    """The keyword arguments of each of ``_TRAIN_OWNERS`` from the parsed
    config, each value checked by its keyword's rule and named by its key."""
    kwargs = {owner: {} for owner in _TRAIN_OWNERS}
    for key, value in cfg.items():
        owner, name = _TRAIN_KEYS[_CONFIG_KEYS(key, "config key")]
        if key == "edge_inv_sqrt":
            value = _BOOLS[_BOOL_TEXT(value, key)]
        kwargs[owner][name] = owner._rules[name](value, key)
    for key in _REQUIRED:
        if key not in cfg:
            owner, name = _TRAIN_KEYS[key]
            raise ShapeError(f"config must set {key}, {owner._rules[name].kind}")
    return [kwargs[owner] for owner in _TRAIN_OWNERS]


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "model_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
@_input_errors
def train_cmd(config_path, model_path, report_path):
    """Train the scalar message-passing network on generated force data."""
    data, edges, net, fit = _train_kwargs(_parse_kv_config(config_path))
    n, seed = net["n_particles"], fit["seed"]
    model = mpnn.MpnnModel(edge_config=mpnn.EdgeConfig(**edges), seed=seed, **net)
    tcfg = mpnn.TrainConfig(**fit)
    dataset = mpnn.generate_dataset(groups.make_rng(seed), n, **data)
    spec_list = _mpnn_specs(n)
    residuals = []

    def certify_epoch(epoch, current):
        # The same 10 trials every epoch, so the column tracks the model alone.
        cert = harness.certify_joint(
            _block_target(current.forward), spec_list, trials=10, rng=groups.make_rng(seed + 1)
        )
        residuals.append(cert.max_residual)

    report = mpnn.train(model, dataset, tcfg, on_epoch=certify_epoch)
    model.save(model_path)
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse", "equivariance_residual"])
        for (epoch, train_mse, val_mse), residual in zip(report.epochs, residuals):
            writer.writerow([epoch, train_mse, val_mse, residual])
    _emit(
        {
            "initial_val_mse": report.initial_val,
            "final_val_mse": report.final_val,
            "epochs": len(report.epochs) - 1,
            "aborted": report.aborted,
            "equivariance_residual": residuals[-1],
            "model": model_path,
            "report": report_path,
        }
    )
    sys.exit(1 if report.aborted else 0)


def _mpnn_specs(n):
    common = dict(
        dim=3,
        n_vectors=2 * n,
        roles=("position", "free") * n,
        output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        blocks=n,
        scalars_per_block=1,
    )
    return [
        harness.SymmetrySpec(group="perm", **common),
        harness.SymmetrySpec(group="translation", **common),
        harness.SymmetrySpec(group="o", **common),
    ]


def _block_target(f):
    """Target on tuples of (position, velocity) blocks with one scalar per
    block: ``f(scalars, positions, velocities)``, on one tuple's (n,) and
    (n, 3) arrays or, as ``.batched``, on (T, n) and (T, n, 3) stacks."""
    def fn(x, scalars):
        return f(scalars[:, 0], x.vectors[0::2], x.vectors[1::2])

    fn.batched = lambda vectors, scalars: f(scalars[..., 0], vectors[:, 0::2], vectors[:, 1::2])
    return fn


# -- certify ----------------------------------------------------------------


_TARGETS = choice(("gram", "energy", "emforce"), "one of gram, energy, emforce, model:FILE or einsum:EXPR")


def _certify_target(target, spec_dicts):
    """Build (fn, specs) for a named certification target."""
    specs = [harness.SymmetrySpec(**d) for d in spec_dicts]
    if not target.startswith(("model:", "einsum:")):
        _TARGETS(target, "target")
    if target == "gram":
        # The first spec's family sets the metric (certify_joint rejects an empty list).
        metric = next((Metric(groups.FAMILIES[s.group].metric or EUCLIDEAN, s.dim) for s in specs), None)
        fn = lambda x: features.gram(metric, x)
        fn.batched = lambda vectors, scalars: features.gram_stack(metric, vectors)
        return fn, specs
    if target == "energy":
        return _block_target(lambda q, r, v: physics.total_energies(r, v, np.abs(q) + 0.1, 1.0)), specs
    if target == "emforce":
        return _block_target(lambda q, r, v: physics.em_forces(r, v, q, 1.0, 1.0)), specs
    if target.startswith("model:"):
        return _block_target(mpnn.MpnnModel.load(target[len("model:"):]).forward), specs
    parsed = einsum.parse(target[len("einsum:"):])  # the target left: einsum:EXPR
    names = []
    for term in parsed.terms:
        for f in term.factors:
            if not (f.is_epsilon or f.is_delta) and f.name not in names:
                names.append(f.name)

    def einsum_fn(x):
        bindings = {name: x.vectors[i] for i, name in enumerate(names)}
        return einsum.evaluate(parsed, bindings, x.d)

    return einsum_fn, specs


_TOLERANCE = real(lambda t: t >= 0, " >= 0")


@main.command("certify")
@click.option("--target", required=True, help="gram | energy | emforce | model:FILE | einsum:EXPR")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True, help="JSON SymmetrySpec (object or list for joint certification).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--tolerance", type=float, default=1e-8, show_default=True)
@click.option("--out", "outfile", type=click.Path(), default=None)
@_input_errors
def certify_cmd(target, spec_path, trials, seed, tolerance, outfile):
    """Run randomized equivariance certification on a named target."""
    _TOLERANCE(tolerance, "tolerance")
    with open(spec_path) as fh:
        spec_obj = json.load(fh)
    fn, specs = _certify_target(target, spec_obj if isinstance(spec_obj, list) else [spec_obj])
    report = harness.certify_joint(fn, specs, trials, groups.make_rng(seed))
    payload = report.to_dict()
    payload["tolerance"] = tolerance
    payload["passed"] = report.max_residual <= tolerance and not report.failures
    if outfile:
        with open(outfile, "w") as fh:
            json.dump(payload, fh, indent=2)
    _emit(payload)
    sys.exit(0 if payload["passed"] else 1)


if __name__ == "__main__":
    main()
