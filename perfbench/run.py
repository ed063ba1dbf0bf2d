"""equiscalar benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mpnn-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The run builds its inputs from ``--seed`` (set-up is
repeated and its median reported as ``setup_s``), runs the workload's
once-per-run phase if it has one, then passes of its fixed job list for
``--seconds`` (at least three passes), and reports each job at its median
over the passes. Every output is checked. All reported times are read from
``refclock.RefClock``, which runs at the speed of a fixed reference loop
sampled every 50 ms, so that the host's changes of speed cancel out; the
text lines also give the wall-clock pass time.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` one untraced pass runs first, then
wrappers are installed around every public function of each module and the
traced passes give the per-layer metrics, including the tracing overhead
(traced pass time over untraced pass time). The spans of the once-per-run
phase and the first traced pass are written to
``.perfbench/trace-<workload>-seed<seed>-<pid>.jsonl``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

# Single-threaded BLAS: steadier timings, and float reductions whose order
# does not depend on the thread count, so the work counts repeat exactly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
MIN_PASSES = 3

W_MPNN, W_CERT, W_FEAT = "mpnn-train", "certify-mix", "features-scale"
ALL = (W_MPNN, W_CERT, W_FEAT)

# Per workload: the segments timed by pass_s, and the (work count, segment)
# that give work_per_s. Then the names the workload definitions use.
HEADLINE = {
    W_MPNN: (("dataset", "train"), ("train_samples", "train")),
    W_CERT: (("certify",), ("trials", "certify")),
    W_FEAT: (("features",), ("omega_solves", "omega")),
}
NAMED_RATES = {
    W_MPNN: {"train_samples_per_s": ("train_samples", "train"),
             "dataset_samples_per_s": ("dataset_samples", "dataset")},
    W_CERT: {"cert_trials_per_s": ("trials", "certify")},
    W_FEAT: {"omega_solves_per_s": ("omega_solves", "omega")},
}
NAMED_SECONDS = {W_FEAT: {"features_job_s": "features"}}

# Per-layer metrics: name -> (unit, better, workloads on which it must be
# non-zero). On every other workload the benchmark predicts it is zero.
CERT_GROUPS = [f"{family}-n{n}" for n in (3, 10)
               for family in ("o", "so", "e", "lorentz", "poincare")] + [
    "symmetrized-n5", "cross-vs-o3", "emforce", "energy", "einsum-eps-pair",
    "mpnn-concat", "mpnn-pooled", "planted",
    "cli-gram", "cli-emforce", "cli-energy", "cli-einsum", "cli-model"]
SPAN_WORKLOADS = {
    "core.VectorTuple": (W_CERT, W_FEAT),
    "core.VectorTuple.from_json": (W_FEAT,),
    "core.VectorTuple.to_json": (W_CERT,),
    "groups.apply": (W_CERT,),
    "groups.sample": (W_CERT,),
    "features.gram": (W_CERT, W_FEAT),
    "features.subdeterminants": (W_CERT, W_FEAT),
    "features.translation_reduce": (W_CERT,),
    "features.omega_sample": (W_FEAT,),
    "features.omega_complete": (W_FEAT,),
    "features.cholesky_reconstruct": (W_FEAT,),
    "features.lorentz_orthogonalize": (W_FEAT,),
    "basis.evaluate": (W_CERT,),
    "basis.generalized_cross": (W_CERT,),
    "physics.em_force_scalar": (W_MPNN, W_CERT),
    "physics.total_energy": (W_CERT,),
    "einsum.evaluate": (W_CERT,),
    "mpnn.MpnnModel.forward": (W_MPNN, W_CERT),
    "mpnn.MpnnModel.backward": (W_MPNN,),
    "mpnn.MpnnModel.apply_gradients": (W_MPNN,),
    "mpnn.ScalarNet.forward": (W_MPNN, W_CERT),
    "mpnn.ScalarNet.backward": (W_MPNN,),
    "mpnn.edge_features": (W_MPNN, W_CERT),
    "mpnn.evaluate_mse": (W_MPNN,),
    "mpnn.generate_dataset": (W_MPNN,),
    "mpnn.forces_for": (W_MPNN,),
    "mpnn.train": (W_MPNN,),
    "harness.certify_joint": (W_CERT,),
    "cli.features": (W_FEAT,),
    "cli.certify": (W_CERT,),
}
LAYER_METRICS = {}
for _span, _on in SPAN_WORKLOADS.items():
    LAYER_METRICS[f"{_span}.calls"] = ("count", "lower", _on)
    LAYER_METRICS[f"{_span}.self_s"] = ("s", "lower", _on)
LAYER_METRICS.update({
    "features.gram.entries": ("count", "lower", (W_CERT, W_FEAT)),
    "features.gram.flops_computed": ("count", "lower", (W_CERT, W_FEAT)),
    "features.subdeterminants.dets": ("count", "lower", (W_CERT, W_FEAT)),
    "features.omega_complete.iterations": ("count", "lower", (W_FEAT,)),
    "features.omega_complete.converged_ratio": ("ratio", "higher", (W_FEAT,)),
    "features.lorentz_orthogonalize.restarts": ("count", "lower", (W_FEAT,)),
    "mpnn.train.pairs_per_step": ("count", "lower", (W_MPNN,)),
    "harness.certify_joint.trials": ("count", "lower", (W_CERT,)),
    "harness.certify_joint.fn_s": ("s", "lower", (W_CERT,)),
    "harness.certify_joint.overhead_ratio": ("ratio", "lower", (W_CERT,)),
    "harness.certify_joint.trials_per_s": ("1/s", "higher", (W_CERT,)),
})
for _group in CERT_GROUPS:
    LAYER_METRICS[f"harness.job.{_group}.trials_per_s"] = ("1/s", "higher", (W_CERT,))
LAYER_METRICS["trace.overhead_ratio"] = ("ratio", "lower", ALL)
LAYER_METRICS["trace.spans"] = ("count", "lower", ALL)

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = [name for name, (unit, _, _) in LAYER_METRICS.items() if unit == "count"] + [
    "features.omega_complete.converged_ratio"]


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _ratio(num, den):
    return num / den if den else 0.0


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import equiscalar from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "equiscalar", "__init__.py")):
        sys.exit(f"perfbench: no equiscalar sources under {SRC}")
    sys.path.insert(0, SRC)
    import equiscalar

    if os.path.dirname(os.path.dirname(os.path.abspath(equiscalar.__file__))) != SRC:
        sys.exit(f"perfbench: imported equiscalar from {equiscalar.__file__}, not {SRC}")


class Totals:
    """Totals of a run: each job's seconds is its median over the passes;
    the once phase, if any, adds its single measurement. ``field`` picks
    the reference-clock (``seconds``) or the wall-clock (``wall``) times.
    The work counts are those of one pass plus the once phase."""

    def __init__(self, passes, once=None, field="seconds"):
        keys = {key for log in passes for key in getattr(log, field)}
        self.seconds = {key: median([getattr(log, field).get(key, 0.0) for log in passes])
                        for key in keys}
        self.work = dict(passes[0].work)
        if once is not None:
            self.seconds.update(getattr(once, field))
            for key, value in once.work.items():
                self.work[key] = self.work.get(key, 0) + value

    def time(self, segments, job_prefix=""):
        return sum(value for (segment, job), value in self.seconds.items()
                   if segment in segments and job.startswith(job_prefix))

    def rate(self, work_key, segment, job_prefix=""):
        return _ratio(self.work.get(work_key, 0), self.time((segment,), job_prefix))


def end_to_end_metrics(workload, totals, logs, once_log, setup_times):
    """The end-to-end metrics. ok_ratio is that of the job list, the once
    phase plus one pass (the mean pass), so it does not depend on how many
    passes fit in the run."""
    pass_segments, (work_key, work_segment) = HEADLINE[workload]
    once = [once_log] if once_log else []
    attempted = (sum(log.attempted for log in once)
                 + sum(log.attempted for log in logs) / len(logs))
    failed = (sum(log.failed for log in once)
              + sum(log.failed for log in logs) / len(logs))
    return {
        "setup_s": (median(setup_times), "s"),
        "pass_s": (totals.time(pass_segments), "s"),
        "work_per_s": (totals.rate(work_key, work_segment), "1/s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def named_metrics(workload, totals, wall_totals, metrics):
    """The same run under the metric names the workload definitions use."""
    pass_segments, _ = HEADLINE[workload]
    out = {"pass_s (wall clock)": (wall_totals.time(pass_segments), "s"),
           "setup_s": metrics["setup_s"],
           "fail_ratio": (1.0 - metrics["ok_ratio"][0], "ratio"),
           "peak_rss_mb": metrics["peak_rss_mb"]}
    for name, (key, segment) in NAMED_RATES[workload].items():
        out[name] = (totals.rate(key, segment), "1/s")
    for name, segment in NAMED_SECONDS.get(workload, {}).items():
        out[name] = (totals.time((segment,)), "s")
    if workload == W_CERT:
        for group in CERT_GROUPS:
            out[f"trials_per_s.{group}"] = (
                totals.rate(f"trials:{group}", "certify", f"{group}#"), "1/s")
    return out


def layer_metrics(passes, once, untraced_seconds):
    """Per-layer metrics of a traced run. Counts come from the first traced
    pass (every pass repeats the same work), times are medians over passes;
    the once phase, if any, adds its single measurement to both."""
    def count(get):
        return get(passes[0]) + (get(once) if once else 0)

    def seconds(get):
        return median([get(p) for p in passes]) + (get(once) if once else 0.0)

    out = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = count(lambda r: r["summary"]["calls"].get(span, 0))
        elif field == "self_s":
            out[name] = seconds(lambda r: r["summary"]["self_s"].get(span, 0.0))
    for key in ("features.gram.entries", "features.gram.flops_computed",
                "features.subdeterminants.dets", "features.omega_complete.iterations",
                "features.lorentz_orthogonalize.restarts", "harness.certify_joint.trials"):
        out[key] = count(lambda r: r["counts"].get(key, 0))
    out["features.omega_complete.converged_ratio"] = _ratio(
        count(lambda r: r["counts"].get("features.omega_complete.converged", 0)),
        out["features.omega_complete.calls"])
    out["mpnn.train.pairs_per_step"] = _ratio(
        count(lambda r: r["counts"].get("mpnn.MpnnModel.backward.pairs", 0)),
        out["mpnn.MpnnModel.apply_gradients.calls"])
    fn_s = seconds(lambda r: r["summary"]["fn_s"])
    certify_s = seconds(lambda r: r["summary"]["certify_wall_s"])
    out["harness.certify_joint.fn_s"] = fn_s
    out["harness.certify_joint.overhead_ratio"] = _ratio(certify_s - fn_s, certify_s)
    out["harness.certify_joint.trials_per_s"] = _ratio(out["harness.certify_joint.trials"],
                                                       certify_s)
    totals = Totals([p["log"] for p in passes], once["log"] if once else None)
    for group in CERT_GROUPS:
        out[f"harness.job.{group}.trials_per_s"] = totals.rate(
            f"trials:{group}", "certify", f"{group}#")
    out["trace.overhead_ratio"] = median([p["seconds"] for p in passes]) / untraced_seconds
    out["trace.spans"] = count(lambda r: r["spans"])
    return {name: (value, LAYER_METRICS[name][0]) for name, value in out.items()}


def main(argv=None):
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    from refclock import REFERENCE_S, RefClock
    from workloads import WORKLOADS, PassLog

    setup, run_once, run_pass = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = None
    clock = RefClock()

    def traced_phase(phase):
        """Run one phase; returns its log and, when tracing, its record."""
        log = PassLog(clock.now, tracer)
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counts.clear()
        t0 = clock.now()
        phase(inputs, log)
        seconds = clock.now() - t0
        record = tracer and {"log": log, "seconds": seconds, "counts": dict(tracer.counts),
                             "summary": tracer.summarize(first_span),
                             "spans": len(tracer.spans) - first_span}
        return log, record

    try:
        clock.start()
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            path = os.path.join(workdir, f"setup-{repeat}")
            os.makedirs(path)
            start = clock.now()
            inputs = setup(path, args.seed)
            setup_times.append(clock.now() - start)

        untraced_seconds = None
        if args.trace:
            t0 = clock.now()
            run_pass(inputs, PassLog(clock.now))
            untraced_seconds = clock.now() - t0
            tracer = spans.Tracer(clock.now)
            tracer.install()
        once_log, once_record = traced_phase(run_once) if run_once else (None, None)
        logs, records = [], []
        start = perf_counter()
        while len(logs) < MIN_PASSES or perf_counter() - start < args.seconds:
            log, record = traced_phase(run_pass)
            logs.append(log)
            records.append(record)
        if tracer:
            tracer.uninstall()
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    all_logs = logs + ([once_log] if once_log else [])
    machine = machine_record()
    totals = Totals(logs, once_log)
    e2e = end_to_end_metrics(args.workload, totals, logs, once_log, setup_times)
    named = named_metrics(args.workload, totals, Totals(logs, once_log, "wall"), e2e)
    if tracer:
        metrics = layer_metrics(records, once_record, untraced_seconds)
        path = os.path.join(ROOT, ".perfbench",
                            f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        kept = records[0]["spans"] + (once_record["spans"] if once_record else 0)
        tracer.write(path, kept, {"workload": args.workload, "seed": args.seed,
                                  "machine": machine, "passes": len(records),
                                  "metrics": metrics})
        print(f"trace: {len(tracer.spans)} spans over {len(records)} passes; "
              f"the first {kept} -> {path}")
    else:
        metrics = e2e

    attempted = sum(log.attempted for log in all_logs)
    failed = sum(log.failed for log in all_logs)
    incorrect = sum(log.incorrect for log in all_logs)
    for what in sorted({what for log in all_logs for what in log.failures}):
        print(f"failed: {what}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(logs)} passes, "
          f"{attempted} operations, {failed} failed, machine {json.dumps(machine)}")
    if clock.ticks:
        print(f"host speed: {clock.ticks} reference samples, mean "
              f"{REFERENCE_S * clock.ticks / clock.handler_s:.3f}x the reference host")
    for name, (value, unit) in named.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
