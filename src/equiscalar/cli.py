"""Command-line entry point.

Conventions: structured output is JSON on stdout, diagnostics go to stderr.
Exit codes: 0 success, 1 validation/certification failure, 2 usage or input
error. Every randomized subcommand requires an explicit --seed; there is no
wall-clock default, so identical invocations are byte-identical.
"""
from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np

from . import einsum, features, groups, harness, mpnn, physics
from .core import EUCLIDEAN, MINKOWSKI, Metric, VectorTuple, as_scalar
from .errors import EquiscalarError, ShapeError


def _emit(obj):
    click.echo(json.dumps(obj, indent=2))


def _fail_usage(message):
    click.echo(message, err=True)
    sys.exit(2)


@click.group()
def main():
    """Build, evaluate, and certify invariant/equivariant functions."""


# -- sample-group -----------------------------------------------------------


@main.command("sample-group")
@click.option("--group", type=click.Choice(["o", "so", "lorentz", "e", "poincare", "perm"]), required=True)
@click.option("--dim", type=int, required=True, help="Ambient dimension (slot count for perm).")
@click.option("--seed", type=int, required=True)
@click.option("--rapidity-max", type=float, default=groups.DEFAULT_RAPIDITY_MAX, show_default=True)
def sample_group(group, dim, seed, rapidity_max):
    """Sample one group element and print it as JSON."""
    try:
        _emit(groups.element_to_dict(groups.sample(group, groups.make_rng(seed), dim, rapidity_max)))
    except EquiscalarError as exc:
        _fail_usage(str(exc))


# -- features ---------------------------------------------------------------


@main.command("features")
@click.option("--metric", "metric_kind", type=click.Choice(["euclid", "minkowski"]), default="euclid", show_default=True)
@click.option("--subdets", is_flag=True, help="Include SO(d) subdeterminant features.")
@click.option("--omega", "omega_d", type=int, default=None, help="Also emit the wrap-around band for rank d.")
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--out", "outfile", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
def features_cmd(metric_kind, subdets, omega_d, infile, outfile):
    """Compute invariant scalar features of a vector tuple."""
    try:
        with open(infile) as fh:
            text = fh.read()
        x = VectorTuple.from_csv(text) if infile.endswith(".csv") else VectorTuple.from_json(text)
        metric = Metric(EUCLIDEAN if metric_kind == "euclid" else MINKOWSKI, x.d)
        g = features.gram(metric, x)
        out = {"n": x.n, "d": x.d, "metric": metric.kind, "gram": g}
        if subdets:
            out["subdets"] = [
                {"indices": list(k), "value": v} for k, v in features.subdeterminants(x).items()
            ]
        if omega_d is not None:
            sample = features.omega_sample(g, omega_d)
            out["omega"] = [
                {"i": i, "j": j, "value": v} for (i, j), v in sorted(sample.entries.items())
            ]
        if outfile:
            with open(outfile, "w") as fh:
                _write_features(out, fh.write)
    except (EquiscalarError, OSError, ValueError, KeyError) as exc:
        _fail_usage(f"features: {exc}")
    if outfile:
        click.echo(f"wrote {outfile}", err=True)
    else:
        _write_features(out, lambda text: click.echo(text, nl=False))
        click.echo()


def _write_features(out, write):
    """Write ``json.dumps(out, indent=2)`` through ``write``, with ``out["gram"]``
    an ndarray: the other keys go through json, the Gram one row at a time.
    json's pure-Python encoder (the one ``indent`` selects) spells a float as
    ``float.__repr__`` does, except ``Infinity``, ``-Infinity`` and ``NaN``."""
    head, _, tail = json.dumps({**out, "gram": None}, indent=2).partition('"gram": null')
    write(head + '"gram": [')
    sep = "\n    [\n      "
    for row in out["gram"]:
        text = ",\n      ".join(map(float.__repr__, row.tolist()))
        if not np.isfinite(row).all():
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        write(sep + text + "\n    ]")
        sep = ",\n    [\n      "
    write("\n  ]" + tail)


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
def demo(which, infile, trials, seed):
    """Evaluate the reference physics examples on a particle file."""
    if trials > 0 and seed is None:
        _fail_usage("--check-equivariance requires an explicit --seed")
    try:
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
    except (EquiscalarError, OSError, ValueError, KeyError, IndexError) as exc:
        _fail_usage(f"demo: {exc}")


# -- einsum -----------------------------------------------------------------


@main.group("einsum")
def einsum_group():
    """Parse, validate, and evaluate index-notation expressions."""


@einsum_group.command("check")
@click.argument("expr")
@click.option("--metric", "metric_kind", type=click.Choice(["euclid", "minkowski"]), default="euclid", show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--mode", type=click.Choice([einsum.MODE_PLAIN, einsum.MODE_METRIC_AWARE]), default=einsum.MODE_PLAIN, show_default=True)
def einsum_check(expr, metric_kind, dim, mode):
    """Validate EXPR; exit 0 if valid, 1 with a violation report otherwise."""
    try:
        parsed = einsum.parse(expr)
    except EquiscalarError as exc:
        _fail_usage(f"einsum: {exc}")
    metric = Metric(EUCLIDEAN if metric_kind == "euclid" else MINKOWSKI, dim)
    report = einsum.validate(parsed, metric, mode)
    _emit(report.to_dict())
    sys.exit(0 if report.valid else 1)


@einsum_group.command("eval")
@click.argument("expr")
@click.option("--bind", "bindfile", type=click.Path(exists=True), required=True, help="JSON map of tensor name to nested array.")
@click.option("--dim", type=int, required=True)
@click.option("--metric", "metric_kind", type=click.Choice(["euclid", "minkowski"]), default="euclid", show_default=True)
def einsum_eval(expr, bindfile, dim, metric_kind):
    """Evaluate EXPR on the given bindings, one np.einsum contraction per term."""
    try:
        parsed = einsum.parse(expr)
        with open(bindfile) as fh:
            bindings = json.load(fh)
        metric = Metric(EUCLIDEAN if metric_kind == "euclid" else MINKOWSKI, dim)
        value = einsum.evaluate(parsed, bindings, dim, metric)
    except (EquiscalarError, OSError, ValueError) as exc:
        _fail_usage(f"einsum: {exc}")
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


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "model_path", type=click.Path(), required=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
def train_cmd(config_path, model_path, report_path):
    """Train the scalar message-passing network on generated force data."""
    try:
        cfg = _parse_kv_config(config_path)
        if "seed" not in cfg:
            _fail_usage("train: config must set an explicit seed")
        edge = mpnn.EdgeConfig(
            include_inv_sqrt=bool(cfg.get("edge_inv_sqrt", 0)),
            rbf_centers=tuple(cfg.get("edge_rbf_centers", [])),
            rbf_width=cfg.get("edge_rbf_width", 0.5),
        )
        model = mpnn.MpnnModel(
            cfg["n_particles"],
            layers=cfg.get("layers", 2),
            hidden=tuple(cfg.get("widths", [16, 16])),
            activation=cfg.get("activation", "tanh"),
            mode=cfg.get("mode", mpnn.CONCAT),
            edge_config=edge,
            readout=cfg.get("readout", mpnn.READOUT_POSITION),
            seed=cfg["seed"],
        )
        rng = groups.make_rng(cfg["seed"])
        dataset = mpnn.generate_dataset(rng, cfg["n_particles"], cfg["n_samples"])
        tcfg = mpnn.TrainConfig(
            epochs=cfg.get("epochs", 200),
            lr=cfg.get("lr", 1e-3),
            batch_size=cfg.get("batch", 32),
            seed=cfg["seed"],
        )
        spec_list = _mpnn_specs(cfg["n_particles"])
        residuals = []

        def certify_epoch(epoch, current):
            # The same 10 trials every epoch, so the column tracks the model alone.
            cert = harness.certify_joint(
                _mpnn_certify_fn(current), spec_list, trials=10, rng=groups.make_rng(cfg["seed"] + 1)
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
    except (EquiscalarError, OSError, ValueError, KeyError) as exc:
        _fail_usage(f"train: {exc}")


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


def _mpnn_certify_fn(model):
    def fn(x, scalars):
        rs = x.vectors[0::2]
        vs = x.vectors[1::2]
        return model.forward(scalars[:, 0], rs, vs)

    return fn


# -- certify ----------------------------------------------------------------


def _certify_target(target, spec_dicts):
    """Build (fn, specs) for a named certification target."""
    specs = [harness.SymmetrySpec(**d) for d in spec_dicts]
    if target == "gram":
        metric_kind = MINKOWSKI if specs[0].group in ("lorentz", "poincare") else EUCLIDEAN
        fn = lambda x: features.gram(Metric(metric_kind, x.d), x)
        return fn, specs
    if target == "energy":
        def energy_fn(x, scalars):
            n = x.n // 2
            parts = [
                physics.Particle(
                    x.vectors[2 * i], x.vectors[2 * i + 1], mass=abs(scalars[i, 0]) + 0.1
                )
                for i in range(n)
            ]
            return physics.total_energy(parts, 1.0)

        return energy_fn, specs
    if target == "emforce":
        def force_fn(x, scalars):
            n = x.n // 2
            parts = [
                physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], charge=scalars[i, 0])
                for i in range(n)
            ]
            return np.array(
                [
                    physics.em_force_scalar(parts[i], parts[:i] + parts[i + 1 :], 1.0, 1.0)
                    for i in range(n)
                ]
            )

        return force_fn, specs
    if target.startswith("model:"):
        model = mpnn.MpnnModel.load(target[len("model:"):])
        return _mpnn_certify_fn(model), specs
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
def certify_cmd(target, spec_path, trials, seed, tolerance, outfile):
    """Run randomized equivariance certification on a named target."""
    try:
        with open(spec_path) as fh:
            spec_obj = json.load(fh)
        spec_dicts = spec_obj if isinstance(spec_obj, list) else [spec_obj]
        for d in spec_dicts:
            if "roles" in d and d["roles"] is not None:
                d["roles"] = tuple(d["roles"])
        fn, specs = _certify_target(target, spec_dicts)
        rng = groups.make_rng(seed)
        report = harness.certify_joint(fn, specs, trials, rng)
        payload = report.to_dict()
        payload["tolerance"] = tolerance
        payload["passed"] = report.max_residual <= tolerance and not report.failures
        if outfile:
            with open(outfile, "w") as fh:
                json.dump(payload, fh, indent=2)
    except (EquiscalarError, OSError, ValueError, KeyError, TypeError) as exc:
        _fail_usage(f"certify: {exc}")
    _emit(payload)
    sys.exit(0 if payload["passed"] else 1)


if __name__ == "__main__":
    main()
