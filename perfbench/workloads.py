"""The three benchmark workloads.

Each workload has a ``setup(workdir, seed)`` that builds every input from the
seed (files included) and warms each job type up, and a ``run_pass(inputs,
log)`` that runs the fixed job list once; features-scale also has a
``run_once`` phase that runs a single time per run. Every pass repeats
exactly the same work, so the work counts of one pass are exact. Only the
library calls are timed; the checks on their outputs run outside the timed
regions.
"""
from __future__ import annotations

import array
import contextlib
import io
import itertools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from equiscalar import basis, cli, einsum, features, harness, mpnn, physics
from equiscalar.core import FREE, POSITION, VectorTuple, euclidean, minkowski

EUCLIDEAN_TOL = 1e-9
LORENTZIAN_TOL = 1e-8


class PassLog:
    """Timed segments and per-operation outcomes of one pass.

    Each segment is timed by ``clock`` (the run's reference-speed clock) and
    by the wall clock.

    ``check`` counts one operation. A failed check makes the pass incorrect
    unless ``expected_to_fail_sometimes`` marks an operation the library
    documents as able to fail (Omega completion reports non-convergence
    through a flag); those feed the failure count only.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.seconds = defaultdict(float)  # (segment, job) -> clock seconds
        self.wall = defaultdict(float)  # (segment, job) -> wall seconds
        self.work = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = []

    @contextlib.contextmanager
    def timed(self, job, segment):
        if self.tracer is not None:
            self.tracer.job = job
        start, wall = self.clock(), perf_counter()
        try:
            yield
        finally:
            self.seconds[segment, job] += self.clock() - start
            self.wall[segment, job] += perf_counter() - wall
            if self.tracer is not None:
                self.tracer.job = None

    def call(self, job, segment, fn, *args, **kwargs):
        """Time one library call; an exception is a failed operation."""
        try:
            with self.timed(job, segment):
                return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failing job must not end the run
            self.check(False, f"{job}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok, what, expected_to_fail_sometimes=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += not expected_to_fail_sometimes
            self.failures.append(what)


def _cli(args):
    """Run one CLI command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args, prog_name="equiscalar", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


# =============================================================================
# mpnn-train
# =============================================================================

MPNN_SAMPLES = 64
MPNN_EPOCHS = 8
# Acceptance criterion 8's seeds (model 808, data 42, train 1) for every
# config and every workload seed: with plain SGD at lr 1e-3 some data seeds
# diverge (2 of 20 data seeds at 64 samples), which would make both the
# failure count and the work done depend on the workload seed.
MODEL_SEED, DATA_SEED, TRAIN_SEED = 808, 42, 1
# (name, particles, mode, lr). (a) is criterion 8's config. (c) runs at lr
# 1e-5: its initial val MSE is ~900 (28-54 at n=4) and at lr 1e-3 or 1e-4
# the pooled n=12 model diverges within its first epoch.
MPNN_CONFIGS = (
    ("a-pooled-n4", 4, mpnn.POOLED, 1e-3),
    ("b-concat-n4", 4, mpnn.CONCAT, 1e-3),
    ("c-pooled-n12", 12, mpnn.POOLED, 1e-5),
)


def _mpnn_model(n, mode, seed):
    return mpnn.MpnnModel(n, layers=2, hidden=(16, 16), mode=mode,
                          edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=seed)


def setup_mpnn_train(workdir, seed):
    jobs = []
    for name, n, mode, lr in MPNN_CONFIGS:
        jobs.append({
            "name": name, "n": n, "mode": mode,
            "config": mpnn.TrainConfig(epochs=MPNN_EPOCHS, lr=lr, batch_size=32, seed=TRAIN_SEED),
        })
        small = mpnn.generate_dataset(np.random.default_rng(DATA_SEED), n, 40)
        mpnn.train(_mpnn_model(n, mode, MODEL_SEED), small,
                   mpnn.TrainConfig(epochs=1, lr=lr, batch_size=32, seed=TRAIN_SEED))
    return jobs


def run_mpnn_train(jobs, log):
    for job in jobs:
        n, name = job["n"], job["name"]
        rng = np.random.default_rng(DATA_SEED)
        data = log.call(f"{name}/dataset", "dataset", mpnn.generate_dataset, rng, n, MPNN_SAMPLES)
        if data is None:
            continue
        log.work["dataset_samples"] += MPNN_SAMPLES
        log.check(bool(np.all(np.isfinite(data.targets))), f"{name}: non-finite force targets")
        model = _mpnn_model(n, job["mode"], MODEL_SEED)
        config = job["config"]
        report = log.call(f"{name}/train", "train", mpnn.train, model, data, config)
        if report is None:
            continue
        n_val = max(1, int(round(MPNN_SAMPLES * config.val_fraction)))
        log.work["train_samples"] += (len(report.epochs) - 1) * (MPNN_SAMPLES - n_val)
        losses = np.array([row[1:] for row in report.epochs])
        log.check(
            not report.aborted and len(report.epochs) == config.epochs + 1
            and bool(np.all(np.isfinite(losses))) and report.final_val < report.initial_val,
            f"{name}: val MSE {report.initial_val:.4g} -> {report.final_val:.4g}, "
            f"aborted {report.aborted}",
        )


# =============================================================================
# certify-mix
# =============================================================================

FIXTURES = (
    ("select0", lambda f: np.eye(f.n)[0]),
    ("uniform", lambda f: np.full(f.n, 1.0 / f.n)),
    ("tanh-rowsum", lambda f: np.tanh(f.gram.sum(axis=1))),
)
FAMILIES = (
    ("o", False), ("so", False), ("e", False), ("lorentz", True), ("poincare", True),
)
EPS_PAIR = "u_j v_k w_m eps_ijk eps_imn"
MATRIX_TRIALS = {3: 80, 10: 24}
SYMMETRIZED_TRIALS = 12
CONTROL_TRIALS = 120
PHYSICS_TRIALS = 80
EINSUM_TRIALS = 20
MPNN_CERT_TRIALS = 40
PLANTED_RUNS = 20
PLANTED_TRIALS = 20
CLI_TRIALS = {"gram": 200, "emforce": 80, "energy": 80, "einsum": 20, "model": 40}
N_BODIES = 4


def _block_specs(groups_, n, output_kind):
    common = dict(dim=3, n_vectors=2 * n, roles=(POSITION, FREE) * n,
                  output_kind=output_kind, blocks=n, scalars_per_block=1)
    return [harness.SymmetrySpec(group=g, **common) for g in groups_]


def _energy_fn(x, scalars):
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], mass=abs(scalars[i, 0]) + 0.1)
             for i in range(x.n // 2)]
    return physics.total_energy(parts, 1.0)


def _emforce_fn(x, scalars):
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], charge=scalars[i, 0])
             for i in range(x.n // 2)]
    return np.array([physics.em_force_scalar(parts[i], parts[:i] + parts[i + 1:], 1.0, 1.0)
                     for i in range(len(parts))])


def _mpnn_fn(model):
    return lambda x, scalars: model.forward(scalars[:, 0], x.vectors[0::2], x.vectors[1::2])


def _planted(eps):
    def fn(x):
        v = x.vectors[0]
        return v + eps * (1.0 + np.linalg.norm(v)) * np.array([1.0, 0.0, 0.0])
    return fn


def setup_certify_mix(workdir, seed):
    """Build the job list: (group, kind, fn, specs, trials, tolerance)."""
    jobs = []
    for n in (3, 10):
        for family, lorentzian in FAMILIES:
            metric = minkowski(4) if lorentzian else euclidean(3)
            roles = (POSITION,) * n if family in ("e", "poincare") else None
            spec = harness.SymmetrySpec(family, metric.dim, n, roles=roles,
                                        output_kind=harness.VECTOR_EQUIVARIANT)
            for fixture_name, coeff in FIXTURES:
                cross = (lambda f: {(0, 1): float(np.tanh(f.gram[0, 1]))}) if family == "so" else None
                model = basis.EquivariantModel(
                    family, metric, basis.FixedClosure(coeff, cross, name=fixture_name))
                jobs.append((f"{family}-n{n}", "equivariant",
                             lambda x, m=model: basis.evaluate(m, x), [spec],
                             MATRIX_TRIALS[n], LORENTZIAN_TOL if lorentzian else EUCLIDEAN_TOL))
    symmetrized = basis.EquivariantModel(
        "o", euclidean(3), basis.FixedClosure(lambda f: np.tanh(f.gram[0])),
        permutation_symmetric=True)
    jobs.append(("symmetrized-n5", "equivariant", lambda x: basis.evaluate(symmetrized, x),
                 [harness.SymmetrySpec(g, 3, 5) for g in ("perm", "o")],
                 SYMMETRIZED_TRIALS, EUCLIDEAN_TOL))
    cross_only = basis.EquivariantModel(
        "so", euclidean(3),
        basis.FixedClosure(lambda f: np.zeros(f.n), cross_fn=lambda f: {(0, 1): 1.0}))
    jobs.append(("cross-vs-o3", "control", lambda x: basis.evaluate(cross_only, x),
                 [harness.SymmetrySpec("o", 3, 3)], CONTROL_TRIALS, EUCLIDEAN_TOL))
    jobs.append(("emforce", "equivariant", _emforce_fn,
                 _block_specs(("perm", "translation", "o"), N_BODIES,
                              harness.VECTOR_TRANSLATION_INVARIANT),
                 PHYSICS_TRIALS, EUCLIDEAN_TOL))
    jobs.append(("energy", "equivariant", _energy_fn,
                 _block_specs(("perm", "e"), N_BODIES, harness.SCALAR_INVARIANT),
                 PHYSICS_TRIALS, EUCLIDEAN_TOL))
    eps_pair = einsum.parse(EPS_PAIR)
    jobs.append(("einsum-eps-pair", "equivariant",
                 lambda x: einsum.evaluate(eps_pair, dict(zip("uvw", x.vectors)), 3),
                 [harness.SymmetrySpec("o", 3, 3)], EINSUM_TRIALS, EUCLIDEAN_TOL))
    for mode in (mpnn.CONCAT, mpnn.POOLED):
        model = mpnn.MpnnModel(N_BODIES, layers=2, hidden=(16, 16), mode=mode,
                               edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=seed)
        jobs.append((f"mpnn-{mode}", "equivariant", _mpnn_fn(model),
                     _block_specs(("perm", "translation", "o"), N_BODIES,
                                  harness.VECTOR_TRANSLATION_INVARIANT),
                     MPNN_CERT_TRIALS, EUCLIDEAN_TOL))
    for eps in (1e-3, 1e-1):
        for run in range(PLANTED_RUNS):
            jobs.append(("planted", ("planted", eps), _planted(eps),
                         [harness.SymmetrySpec("o", 3, 2)], PLANTED_TRIALS, None))

    # CLI certify runs read their specs and the model from files.
    model_path = os.path.join(workdir, "model.json")
    mpnn.MpnnModel(N_BODIES, layers=2, hidden=(16, 16), mode=mpnn.CONCAT,
                   edge_config=mpnn.EdgeConfig(include_inv_sqrt=True),
                   seed=seed + 1).save(model_path)

    def spec_file(name, specs):
        path = os.path.join(workdir, f"spec-{name}.json")
        with open(path, "w") as fh:
            json.dump([{k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in vars(s).items()} for s in specs], fh)
        return path

    block_vec = _block_specs(("perm", "translation", "o"), N_BODIES,
                             harness.VECTOR_TRANSLATION_INVARIANT)
    cli_jobs = [
        ("gram", "gram", [harness.SymmetrySpec("o", 3, 5, output_kind=harness.SCALAR_INVARIANT)]),
        ("emforce", "emforce", block_vec),
        ("energy", "energy", _block_specs(("perm", "e"), N_BODIES, harness.SCALAR_INVARIANT)),
        ("einsum", f"einsum:{EPS_PAIR}", [harness.SymmetrySpec("o", 3, 3)]),
        ("model", f"model:{model_path}", block_vec),
    ]
    for i, (name, target, specs) in enumerate(cli_jobs):
        args = ["certify", "--target", target, "--spec", spec_file(name, specs),
                "--seed", str(seed * 100 + i), "--tolerance", str(EUCLIDEAN_TOL)]
        jobs.append((f"cli-{name}", "cli", args, None, CLI_TRIALS[name], EUCLIDEAN_TOL))

    # Warm-up: one short run of every job.
    for _, kind, fn, specs, _, _ in jobs:
        if kind == "cli":
            _cli(fn + ["--trials", "1"])
        else:
            harness.certify_joint(fn, specs, 1, np.random.default_rng(seed))
    return {"seed": seed, "jobs": jobs}


def _check_cert(log, group, kind, report, tol):
    if kind == "equivariant":
        log.check(report.max_residual <= tol and not report.failures,
                  f"{group}: residual {report.max_residual:.3e} > {tol:g} "
                  f"or {len(report.failures)} trial failures")
    elif kind == "control":
        comps = report.components
        ok = (comps.get("det=-1", {}).get("max_residual", 0.0) >= 0.1
              and comps.get("det=+1", {}).get("max_residual", 1.0) <= EUCLIDEAN_TOL
              and not report.failures)
        log.check(ok, f"{group}: det=-1 negative control not flagged: {comps}")
    else:
        eps = kind[1]
        log.check(report.max_residual >= eps / 2.0,
                  f"{group}: planted eps={eps:g} missed (residual {report.max_residual:.3e})")


def run_certify_mix(inputs, log):
    seed = inputs["seed"]
    for index, (group, kind, fn, specs, trials, tol) in enumerate(inputs["jobs"]):
        job = f"{group}#{index}"
        if kind == "cli":
            result = log.call(job, "certify", _cli, fn + ["--trials", str(trials)])
            if result is None:
                continue
            code, text = result
            payload = json.loads(text) if code == 0 else {}
            log.check(code == 0 and payload.get("passed") is True
                      and payload.get("trials") == trials and not payload.get("failures"),
                      f"{group}: exit {code}, residual {payload.get('max_residual')}")
        else:
            rng = np.random.default_rng([seed, index])
            report = log.call(job, "certify", harness.certify_joint, fn, specs, trials, rng)
            if report is None:
                continue
            _check_cert(log, group, kind, report, tol)
        log.work["trials"] += trials
        log.work[f"trials:{group}"] += trials


# =============================================================================
# features-scale
# =============================================================================

FEATURE_SIZES = (100, 500, 1000)
SUBDET_SIZE = 16
CHOLESKY_SIZE = 300
LORENTZ_CALLS = 200
# The Omega grid is a fixed fixture, the same for every workload seed: a solve
# that fails to converge costs ~100x one that converges, so a seed-dependent
# grid would make the solve rate depend on how many failures a seed draws.
# Generator as in acceptance criterion 4 (d = 3); grid seeds 0 and 1.
OMEGA_SIZES = (10, 20, 30, 40, 50)
OMEGA_SEEDS = (0, 1)
OMEGA_RANK = 3
OMEGA_HELD_OUT_TOL = 1e-6


def _omega_case(n, grid_seed):
    v = np.random.default_rng(grid_seed).standard_normal((OMEGA_RANK, n))
    m = v.T @ v
    return m, features.omega_sample(m, OMEGA_RANK)


def setup_features_scale(workdir, seed):
    rng = np.random.default_rng(seed)
    cli_jobs = []
    for n in FEATURE_SIZES:
        x = VectorTuple(rng.standard_normal((n, 4)))
        path = os.path.join(workdir, f"tuple-{n}.json")
        with open(path, "w") as fh:
            fh.write(x.to_json())
        for metric in ("euclid", "minkowski"):
            out = os.path.join(workdir, f"features-{n}-{metric}.json")
            cli_jobs.append((f"features-n{n}-{metric}", x, metric,
                             ["features", "--metric", metric, "--omega", "3",
                              "--in", path, "--out", out], out))
    x16 = VectorTuple(rng.standard_normal((SUBDET_SIZE, 3)))
    path = os.path.join(workdir, f"tuple-{SUBDET_SIZE}.json")
    with open(path, "w") as fh:
        fh.write(x16.to_json())
    out = os.path.join(workdir, f"features-{SUBDET_SIZE}-subdets.json")
    cli_jobs.append((f"subdets-n{SUBDET_SIZE}", x16, "euclid",
                     ["features", "--subdets", "--omega", "3", "--in", path, "--out", out], out))

    a = rng.standard_normal((CHOLESKY_SIZE, CHOLESKY_SIZE))
    low = rng.standard_normal((CHOLESKY_SIZE, 3))
    grams = [a @ a.T, low @ low.T]

    lorentz_inputs = []
    for i in range(LORENTZ_CALLS):
        vecs = rng.standard_normal((3, 4))
        if i % 4 == 3:  # near-lightlike lead vector
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            s = rng.standard_normal()
            vecs[0] = np.concatenate([[s], 0.999 * s * u])
        lorentz_inputs.append(VectorTuple(vecs))
    lorentz_inputs.append(VectorTuple([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                       [0.0, 0.0, 1.0, 0.0]]))  # exactly lightlike lead

    omega = [(n, s, *_omega_case(n, s)) for n in OMEGA_SIZES for s in OMEGA_SEEDS]

    # Warm-up: every job type once at a small size.
    warm = os.path.join(workdir, "warm.json")
    with open(warm, "w") as fh:
        fh.write(VectorTuple(rng.standard_normal((8, 4))).to_json())
    _cli(["features", "--subdets", "--omega", "3", "--in", warm, "--out", warm + ".out"])
    features.cholesky_reconstruct(grams[1][:8, :8])
    features.lorentz_orthogonalize(lorentz_inputs[0], np.random.default_rng(0))
    features.omega_complete(_omega_case(10, 0)[1], seed=0)
    return {"seed": seed, "cli": cli_jobs, "grams": grams, "lorentz": lorentz_inputs,
            "omega": omega}


def _count_floats(value):
    """Float leaves of a value parsed by ``_load_floats`` (each is None)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return value.count(None) + sum(_count_floats(v) for v in value
                                       if isinstance(v, (list, dict)))
    return int(value is None)


def _load_floats(path):
    """Parse a JSON output file, keeping its floats out of Python objects:
    each float leaf parses to None and its value goes, in file order, to one
    flat array, split here among the top-level keys. Parsed the usual way,
    the n=1000 gram of a features output took 14-25 MB more memory than the
    library call that wrote it, so peak_rss_mb measured this check."""
    values = array.array("d")
    with open(path) as fh:
        out = json.load(fh, parse_float=lambda text: values.append(float(text)))
    flat = np.frombuffer(values) if values else np.empty(0)
    floats, at = {}, 0
    for key, value in out.items():
        count = _count_floats(value)
        floats[key] = flat[at:at + count]
        at += count
    return out, floats


def _check_features_output(log, name, x, metric, code, path):
    if code != 0:
        log.check(False, f"{name}: exit {code}")
        return
    out, floats = _load_floats(path)
    if floats["gram"].size != x.n * x.n:
        log.check(False, f"{name}: gram has {floats['gram'].size} entries, not {x.n}^2")
        return
    g = floats["gram"].reshape(x.n, x.n)
    sig = np.ones(x.d) if metric == "euclid" else np.array([1.0] + [-1.0] * (x.d - 1))
    reference = (x.vectors * sig) @ x.vectors.T
    ok = bool(np.array_equal(g, g.T)) and _rel_err(g, reference) <= 1e-12
    band = dict(zip(((e["i"], e["j"]) for e in out["omega"]), floats["omega"]))
    ok = ok and len(band) == x.n * 4 and all(band[k] == g[k] for k in band)
    if "subdets" in out:
        subsets = [tuple(e["indices"]) for e in out["subdets"]]
        values = floats["subdets"]
        minors = np.stack([x.vectors[list(s)].T for s in subsets])
        ok = ok and subsets == list(itertools.combinations(range(x.n), x.d))
        ok = ok and _rel_err(values, np.linalg.det(minors)) <= 1e-12
    log.check(ok, f"{name}: gram/omega/subdet output wrong")


def run_features_scale(inputs, log):
    for name, x, metric, args, path in inputs["cli"]:
        result = log.call(name, "features", _cli, args)
        if result is not None:
            _check_features_output(log, name, x, metric, result[0], path)
            os.remove(path)

    for i, m in enumerate(inputs["grams"]):
        job = f"cholesky#{i}"
        x = log.call(job, "features", features.cholesky_reconstruct, m)
        back = log.call(job, "features", features.gram, euclidean(x.d), x) if x is not None else None
        if back is not None:
            log.check(_rel_err(back, m) <= 1e-10, f"{job}: round trip error {_rel_err(back, m):.3e}")

    rng = np.random.default_rng([inputs["seed"], 6])
    sig = np.array([1.0, -1.0, -1.0, -1.0])
    results = log.call("lorentz-batch", "features",
                       lambda: [features.lorentz_orthogonalize(x, rng) for x in inputs["lorentz"]])
    for i, res in enumerate(results or []):
        g = (res.tuple.vectors * sig) @ res.tuple.vectors.T
        off = g - np.diag(np.diag(g))
        log.check(float(np.max(np.abs(off)) / max(1.0, np.max(np.abs(g)))) <= 1e-9,
                  f"lorentz#{i}: not Minkowski-orthogonal")


def run_omega_grid(inputs, log):
    for n, grid_seed, m, sample in inputs["omega"]:
        job = f"omega-n{n}-s{grid_seed}"
        result = log.call(job, "omega", features.omega_complete, sample, seed=grid_seed)
        log.work["omega_solves"] += 1
        if result is None:
            continue
        held = np.ones((n, n), dtype=bool)
        for i, j in sample.entries:
            held[i, j] = held[j, i] = False
        rel = float(np.linalg.norm((result.matrix - m)[held]) / np.linalg.norm(m[held]))
        log.check(result.converged and rel <= OMEGA_HELD_OUT_TOL,
                  f"{job}: converged {result.converged}, held-out rel {rel:.3e}",
                  expected_to_fail_sometimes=True)


# name -> (setup, run_once or None, run_pass)
WORKLOADS = {
    "mpnn-train": (setup_mpnn_train, None, run_mpnn_train),
    "certify-mix": (setup_certify_mix, None, run_certify_mix),
    "features-scale": (setup_features_scale, run_omega_grid, run_features_scale),
}
