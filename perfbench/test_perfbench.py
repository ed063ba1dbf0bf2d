"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They check that BENCHMARK.json names exactly the metrics the benchmark
prints, that the wrappers reach every binding of every traced function, that
each per-layer metric is non-zero on the workloads that exercise it and zero
on the others (so a rename in src/ that dodges a wrapper fails here instead
of reading as zero time), that the work counts repeat exactly for a seed,
and that the reference clock samples the host and reads monotonically.
"""
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 3


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with the same seed."""
    jobs = [workload for workload in run.ALL for _ in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda workload: _run(workload, 1), jobs))
    out = {}
    for workload, result in zip(jobs, results):
        out.setdefault(workload, []).append(result)
    return out


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_layer_metrics():
    listed = {m["name"]: (m["unit"], m["better"]) for m in _benchmark_json()["per_layer"]}
    assert listed == {name: (unit, better)
                      for name, (unit, better, _) in run.LAYER_METRICS.items()}


def test_untraced_run_prints_every_end_to_end_metric():
    result = _run("certify-mix", 0)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_clock_samples_the_host_and_is_monotonic():
    import signal
    from time import perf_counter

    clock = refclock.RefClock()
    clock.start()
    try:
        readings = []
        end = perf_counter() + 0.5
        while perf_counter() < end:
            readings.append(clock.now())
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert clock.ticks >= 3
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    # Within a factor of 4 of wall time on any plausible host.
    assert 0.125 < readings[-1] / (0.5 - clock.handler_s) < 4.0


def test_wrappers_reach_every_binding():
    run.import_library()
    tracer = spans.Tracer()
    tracer.install()
    modules = [m for key, m in sys.modules.items()
               if key == "equiscalar" or key.startswith("equiscalar.")]
    patched = list(tracer.patched)
    try:
        originals = {id(original) for _, _, original in patched}
        for m in modules:
            for attr, value in vars(m).items():
                assert id(value) not in originals, f"{m.__name__}.{attr} left unwrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        current = owner.callback if attr == "callback" else owner.__dict__[attr]
        assert current is original, f"{owner}.{attr} not restored"


def test_every_layer_metric_is_exercised_or_bypassed_as_predicted(traced):
    for workload, (result, _) in traced.items():
        assert result["correct"], workload
        for name, (_, _, on) in run.LAYER_METRICS.items():
            value = result["metrics"][name]["value"]
            if workload in on:
                assert value > 0, f"{name} is zero on {workload}"
            else:
                assert value == 0, f"{name} = {value} on {workload}, predicted zero"


def test_work_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        for name in run.EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"]
