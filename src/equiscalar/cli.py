"""Command-line entry point.

Conventions: structured output is JSON on stdout, diagnostics go to stderr.
Exit codes: 0 success, 1 validation/certification failure, 2 usage or input
error, which ``_input_errors`` reports as ``<command>: <message>`` on stderr.
Every randomized subcommand requires an explicit --seed; there is no
wall-clock default, so identical invocations are byte-identical.
"""
from __future__ import annotations

import csv
import functools
import json
import sys

import click
import numpy as np

from . import einsum, features, groups, harness, mpnn, physics
from .core import EUCLIDEAN, MINKOWSKI, Metric, VectorTuple, as_scalar
from .errors import EquiscalarError, NonFiniteError, ShapeError


def _emit(obj):
    click.echo(json.dumps(obj, indent=2))


def _input_errors(callback):
    """Exit 2 with ``<command>: <message>`` (``einsum check: ...``) on an input
    error in a command callback; the callback's own ``sys.exit`` passes."""
    @functools.wraps(callback)
    def run(*args, **kwargs):
        try:
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
    # A finite input can overflow; that is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        g = features.gram(metric, x)
        dets = features.subdeterminants(x) if subdets else {}
    if not np.isfinite(g).all():
        raise NonFiniteError("gram matrix contains NaN or Inf")
    if not np.isfinite(list(dets.values())).all():
        raise NonFiniteError("subdeterminants contain NaN or Inf")
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


def _json_floats(text):
    """json's spelling of the non-finite floats in a text of float reprs."""
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _write_features(out, write):
    """Write ``json.dumps(out, indent=2)`` through ``write``, with ``out["gram"]``
    a square float64 ndarray and ``out["omega"]``, if present, a list of
    ``{"i", "j", "value"}`` dicts.

    json's pure-Python encoder (the one ``indent`` selects) spells a float as
    ``float.__repr__`` does, except ``Infinity``, ``-Infinity`` and ``NaN``.
    The Gram goes out one row at a time, and each entry on or above the
    diagonal is formatted once: row k's entries left of the diagonal reuse
    the texts of column k of the earlier rows, kept in a bytes array
    (``S24`` holds the longest float64 repr) that is filled column by column,
    so that row k's prefix is the contiguous ``mirror[k, :k]``. An entry
    whose bits differ from its mirror's is formatted on its own. The Ω band
    goes through a template, the other keys through json."""
    g, omega = out["gram"], out.get("omega")
    rest = json.dumps({k: None if k in ("gram", "omega") else v for k, v in out.items()}, indent=2)
    head, _, tail = rest.partition('"gram": null')
    if omega is not None:
        entries = ",\n    ".join(_OMEGA_ENTRY % (e["i"], e["j"], e["value"]) for e in omega)
        tail = tail.replace('"omega": null', '"omega": ' + (
            "[\n    " + _json_floats(entries) + "\n  ]" if omega else "[]"))
    bits = g.view(np.uint64)
    mirror = np.zeros(g.shape, "S24")
    finite = np.isfinite(g).all()
    write(head + '"gram": [')
    sep = "\n    [\n      "
    for k, row in enumerate(g):
        texts = list(map(float.__repr__, row[k:].tolist()))
        mirror[k + 1:, k] = texts[1:]
        prefix = mirror[k, :k]
        odd = np.flatnonzero(bits[k, :k] != bits[:k, k])
        if odd.size:
            prefix[odd] = list(map(float.__repr__, row[odd].tolist()))
        text = b",\n      ".join([*prefix.tolist(), b""]).decode() + ",\n      ".join(texts)
        write(sep + (text if finite else _json_floats(text)) + "\n    ]")
        sep = ",\n    [\n      "
    write(("\n  ]" if len(g) else "]") + tail)


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
        raise ValueError("--check-equivariance requires an explicit --seed")
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
        residuals = []
        for _ in range(trials):
            q = groups.sample_rotation(rng, particles[0].r.size).q
            w = rng.standard_normal(particles[0].r.size)
            moved = [
                physics.Particle(q @ p.r + w, q @ p.v, mass=p.mass, charge=p.charge)
                for p in particles
            ]
            if which == "energy":
                b = physics.total_energy(moved, G)
                residuals.append(abs(a - b) / (1.0 + abs(a)))
            else:
                b = physics.em_force_scalar(moved[0], moved[1:], k, c)
                residuals.append(
                    float(np.linalg.norm(b - q @ a) / (1.0 + np.linalg.norm(a)))
                )
        out["equivariance"] = {"trials": trials, "max_residual": max(residuals)}
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
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
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


def _finite(value):
    return isinstance(value, int) or isinstance(value, float) and np.isfinite(value)


# Kinds of config value: (what a message calls it, test of the parsed
# value, conversion of a value that passes it or None).
_INTEGER = ("an integer", lambda v: isinstance(v, int), None)
_NUMBER = ("a finite number", _finite, None)
_WORD = ("a word", lambda v: isinstance(v, str), None)
_BOOLS = {"true": True, "false": False, 1: True, 0: False}
_BOOL = ("true, false, 1 or 0", lambda v: isinstance(v, (str, int)) and v in _BOOLS, _BOOLS.get)
_INTEGERS = ("a list of integers", lambda v: isinstance(v, list) and all(isinstance(i, int) for i in v),
             None)
_NUMBERS = ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_finite, v)), tuple)

# Config key -> (constructor, its keyword, kind of value); the keys of
# constructor None are required, any other key left out takes the
# constructor's default.
_TRAIN_KEYS = {
    "n_particles": (None, "n_particles", _INTEGER),
    "n_samples": (None, "n_samples", _INTEGER),
    "seed": (None, "seed", _INTEGER),
    "edge_inv_sqrt": (mpnn.EdgeConfig, "include_inv_sqrt", _BOOL),
    "edge_rbf_centers": (mpnn.EdgeConfig, "rbf_centers", _NUMBERS),
    "edge_rbf_width": (mpnn.EdgeConfig, "rbf_width", _NUMBER),
    "layers": (mpnn.MpnnModel, "layers", _INTEGER),
    "widths": (mpnn.MpnnModel, "hidden", _INTEGERS),
    "activation": (mpnn.MpnnModel, "activation", _WORD),
    "mode": (mpnn.MpnnModel, "mode", _WORD),
    "readout": (mpnn.MpnnModel, "readout", _WORD),
    "epochs": (mpnn.TrainConfig, "epochs", _INTEGER),
    "lr": (mpnn.TrainConfig, "lr", _NUMBER),
    "batch": (mpnn.TrainConfig, "batch_size", _INTEGER),
}


def _train_kwargs(cfg):
    """Constructor -> its keyword arguments from the parsed config, every
    value checked against its key's kind."""
    kwargs = {None: {}, mpnn.EdgeConfig: {}, mpnn.MpnnModel: {}, mpnn.TrainConfig: {}}
    for key, value in cfg.items():
        if key not in _TRAIN_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        cls, name, (what, ok, convert) = _TRAIN_KEYS[key]
        if not ok(value):
            raise ShapeError(f"config key {key} must be {what}, got {value!r}")
        kwargs[cls][name] = convert(value) if convert else value
    for key, (cls, _, (what, _, _)) in _TRAIN_KEYS.items():
        if cls is None and key not in cfg:
            raise ShapeError(f"config must set {key}, {what}")
    return kwargs


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "model_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
@_input_errors
def train_cmd(config_path, model_path, report_path):
    """Train the scalar message-passing network on generated force data."""
    kwargs = _train_kwargs(_parse_kv_config(config_path))
    n, n_samples, seed = (kwargs[None][k] for k in ("n_particles", "n_samples", "seed"))
    model = mpnn.MpnnModel(n, edge_config=mpnn.EdgeConfig(**kwargs[mpnn.EdgeConfig]), seed=seed,
                           **kwargs[mpnn.MpnnModel])
    dataset = mpnn.generate_dataset(groups.make_rng(seed), n, n_samples)
    tcfg = mpnn.TrainConfig(seed=seed, **kwargs[mpnn.TrainConfig])
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


def _certify_target(target, spec_dicts):
    """Build (fn, specs) for a named certification target."""
    specs = [harness.SymmetrySpec(**d) for d in spec_dicts]
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
    if target.startswith("einsum:"):
        parsed = einsum.parse(target[len("einsum:"):])
        names = []
        for term in parsed.terms:
            for f in term.factors:
                if not (f.is_epsilon or f.is_delta) and f.name not in names:
                    names.append(f.name)

        def einsum_fn(x):
            bindings = {name: x.vectors[i] for i, name in enumerate(names)}
            return einsum.evaluate(parsed, bindings, x.d)

        return einsum_fn, specs
    raise ValueError(f"unknown certify target {target!r}")


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
    if as_scalar(tolerance, "tolerance") < 0:
        raise ShapeError(f"tolerance must be >= 0, got {tolerance}")
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
