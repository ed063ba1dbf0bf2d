"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL line (run with -s or look at captured output)."""
import zlib

import numpy as np
import pytest

from equiscalar import basis, einsum, features, groups, harness, mpnn, physics
from equiscalar.core import FREE, POSITION, VectorTuple, euclidean, minkowski

from test_einsum import CORPUS, oracle_eval


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- 1: invariance suite ---------------------------------------------------------


def test_criterion_1_gram_invariance():
    rng = groups.make_rng(101)
    worst = 0.0
    for d in range(2, 7):
        metric = euclidean(d)
        for n in range(2, 11):
            for _ in range(1000):
                x = VectorTuple(rng.standard_normal((n, d)))
                g0 = features.gram(metric, x)
                q = groups.sample("o", rng, d)
                g1 = features.gram(metric, groups.apply(q, x))
                rel = np.max(np.abs(g1 - g0)) / (1.0 + np.max(np.abs(g0)))
                worst = max(worst, rel)
    metric = minkowski(4)
    for _ in range(1000):
        x = VectorTuple(rng.standard_normal((3, 4)))
        g0 = features.gram(metric, x)
        lam = groups.sample("lorentz", rng, 4, rapidity_max=2.0)
        g1 = features.gram(metric, groups.apply(lam, x))
        rel = np.max(np.abs(g1 - g0)) / (1.0 + np.max(np.abs(g0)))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _report(1, "gram invariance O(d)+Lorentz", ok, f"max rel residual {worst:.3e}")
    assert ok


# -- 2: equivariance suite --------------------------------------------------------


def test_criterion_2_equivariance_suite():
    fixtures = [
        basis.select_vector(0),
        basis.uniform_mixture(),
        basis.FixedClosure(lambda f: np.tanh(f.gram.sum(axis=1)), name="tanh-rowsum"),
    ]
    n = 3
    roles = (POSITION,) * n
    cases = [
        ("o", euclidean(3), None, 1e-9),
        ("so", euclidean(3), None, 1e-9),
        ("e", euclidean(3), roles, 1e-9),
        ("lorentz", minkowski(4), None, 1e-8),
        ("poincare", minkowski(4), roles, 1e-8),
    ]
    worst_overall = 0.0
    ok = True
    for family, metric, case_roles, tol in cases:
        for fixture in fixtures:
            model = basis.EquivariantModel(family, metric, fixture)
            spec = harness.SymmetrySpec(
                family, metric.dim, n, roles=case_roles,
                output_kind=harness.VECTOR_EQUIVARIANT, rapidity_max=2.0,
            )
            report = harness.certify(
                lambda x, m=model: basis.evaluate(m, x),
                spec,
                500,
                groups.make_rng(zlib.crc32(f"{family}/{fixture.name}".encode())),
            )
            worst_overall = max(worst_overall, report.max_residual / tol)
            if report.max_residual > tol or report.failures:
                ok = False
    # Negative control: pure cross term certified against full O(3).
    cross = basis.EquivariantModel(
        "so", euclidean(3),
        basis.FixedClosure(lambda f: np.zeros(f.n), cross_fn=lambda f: {(0, 1): 1.0}),
    )
    control = harness.certify(
        lambda x: basis.evaluate(cross, x),
        harness.SymmetrySpec("o", 3, 3, output_kind=harness.VECTOR_EQUIVARIANT),
        500,
        groups.make_rng(202),
    )
    neg_ok = (
        control.components["det=-1"]["max_residual"] >= 0.1
        and control.components["det=+1"]["max_residual"] <= 1e-9
    )
    ok = ok and neg_ok
    _report(
        2, "fixture x family equivariance", ok,
        f"worst residual/tolerance {worst_overall:.3e}, "
        f"det=-1 control {control.components['det=-1']['max_residual']:.3e}",
    )
    assert ok


# -- 3: physics exactness ----------------------------------------------------------


def test_criterion_3_physics_exactness():
    rng = np.random.default_rng(303)
    worst_force = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        parts = [
            physics.Particle(
                rng.standard_normal(3), rng.standard_normal(3),
                charge=float(rng.choice([-1.0, 1.0])),
            )
            for _ in range(n)
        ]
        a = physics.em_force_cross(parts[0], parts[1:], k=1.0, c=2.0)
        b = physics.em_force_scalar(parts[0], parts[1:], k=1.0, c=2.0)
        worst_force = max(
            worst_force, np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)))
        )
    worst_triple = 0.0
    for _ in range(100):
        a, b, c = rng.standard_normal((3, 3))
        scale = max(1.0, float(np.max(np.abs([a, b, c]))) ** 3)
        worst_triple = max(worst_triple, physics.triple_product_check(a, b, c) / scale)

    def energy_fn(x, scalars):
        parts = [
            physics.Particle(
                x.vectors[2 * i], x.vectors[2 * i + 1], mass=abs(scalars[i, 0]) + 0.1
            )
            for i in range(x.n // 2)
        ]
        return physics.total_energy(parts, 1.0)

    n_bodies = 4
    common = dict(
        dim=3, n_vectors=2 * n_bodies, roles=(POSITION, FREE) * n_bodies,
        output_kind=harness.SCALAR_INVARIANT, blocks=n_bodies, scalars_per_block=1,
    )
    energy_report = harness.certify_joint(
        energy_fn,
        [harness.SymmetrySpec(group=g, **common) for g in ("perm", "e")],
        500,
        groups.make_rng(304),
    )
    rest = physics.total_energy(
        [
            physics.Particle([0.0, 0, 0], [0.0, 0, 0]),
            physics.Particle([1.0, 0, 0], [0.0, 0, 0]),
        ],
        G=1.0,
    )
    ok = (
        worst_force <= 1e-12
        and worst_triple <= 1e-12
        and energy_report.max_residual <= 1e-9
        and not energy_report.failures
        and rest == -2.0
    )
    _report(
        3, "physics exactness", ok,
        f"force {worst_force:.3e}, triple {worst_triple:.3e}, "
        f"energy {energy_report.max_residual:.3e}, rest energy {rest}",
    )
    assert ok


# -- 4: omega completion -----------------------------------------------------------


def test_criterion_4_omega_recovery():
    n, d = 10, 3
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((d, n))
        m = v.T @ v
        sample = features.omega_sample(m, d)
        result = features.omega_complete(sample, seed=seed)
        held_out = np.ones((n, n), dtype=bool)
        for (i, j) in sample.entries:
            held_out[i, j] = held_out[j, i] = False
        rel = np.linalg.norm((result.matrix - m)[held_out]) / np.linalg.norm(m[held_out])
        worst = max(worst, rel)
    # Expected failure mode: a rank-n matrix is outside the rank-d model.
    full_rank = features.omega_complete(features.omega_sample(np.eye(n), d), max_iter=100)
    rank_n_recovered = np.max(np.abs(full_rank.matrix - np.eye(n))) <= 1e-6
    ok = worst <= 1e-6 and not rank_n_recovered
    _report(
        4, "omega band completion", ok,
        f"worst held-out rel {worst:.3e}, rank-n recovered {rank_n_recovered}",
    )
    assert ok


# -- 5: cholesky round trip ----------------------------------------------------------


def test_criterion_5_cholesky_round_trip():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n))
        m = a @ a.T
        x = features.cholesky_reconstruct(m)
        back = features.gram(euclidean(n), x)
        worst = max(worst, np.max(np.abs(back - m)) / max(1.0, np.max(np.abs(m))))
    ok = worst <= 1e-10
    _report(5, "cholesky round trip", ok, f"worst rel residual {worst:.3e}")
    assert ok


# -- 6: lorentz orthogonalization ------------------------------------------------------


def test_criterion_6_lorentz_orthogonalization():
    rng = groups.make_rng(606)
    worst = 0.0
    restarts_seen = 0
    sig = np.array([1.0, -1.0, -1.0, -1.0])
    for trial in range(100):
        vecs = rng.standard_normal((3, 4))
        if trial % 4 == 3:
            # Seed one near-lightlike vector.
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            s = rng.standard_normal()
            vecs[0] = np.concatenate([[s], 0.999 * s * u])
        out = features.lorentz_orthogonalize(VectorTuple(vecs), rng)
        restarts_seen += out.restarts
        g = (out.tuple.vectors * sig) @ out.tuple.vectors.T
        off = g - np.diag(np.diag(g))
        worst = max(worst, np.max(np.abs(off)) / max(1.0, np.max(np.abs(g))))
    # Force the restart path at least once with an exactly lightlike lead.
    forced = features.lorentz_orthogonalize(
        VectorTuple([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        rng,
    )
    restarts_seen += forced.restarts
    ok = worst <= 1e-9 and restarts_seen >= 1
    _report(
        6, "lorentz orthogonalization", ok,
        f"worst off-diagonal {worst:.3e}, restarts {restarts_seen}",
    )
    assert ok


# -- 7: einsum corpus ------------------------------------------------------------------


def test_criterion_7_einsum_corpus():
    classified_ok = True
    oracle_ok = True
    rng = np.random.default_rng(707)
    for src, metric, mode, valid, order, rule in CORPUS:
        report = einsum.validate(einsum.parse(src), metric, mode)
        if report.valid != valid or (valid and report.output_order != order):
            classified_ok = False
        if not valid:
            continue
        expr = einsum.parse(src)
        names = {f.name for t in expr.terms for f in t.factors} - {"eps", "delta"}
        for _ in range(10):
            bindings = {name: rng.standard_normal(metric.dim) for name in names}
            got = np.asarray(einsum.evaluate(expr, bindings, metric.dim, metric=metric))
            want = np.asarray(oracle_eval(src, bindings, metric.dim, metric.signature))
            if np.max(np.abs(got - want)) > 1e-12 * max(1.0, float(np.max(np.abs(want)))):
                oracle_ok = False
    expr = einsum.parse("u_j v_k w_m eps_ijk eps_imn")
    rewritten = einsum.rewrite_epsilon_pair(expr)
    rewrite_worst = 0.0
    for _ in range(100):
        bindings = {n: rng.standard_normal(3) for n in ("u", "v", "w")}
        a = einsum.evaluate(expr, bindings, 3)
        b = einsum.evaluate(rewritten, bindings, 3)
        rewrite_worst = max(
            rewrite_worst, np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(a))))
        )
    ok = classified_ok and oracle_ok and rewrite_worst <= 1e-12
    _report(
        7, "einsum corpus", ok,
        f"classification {classified_ok}, oracle match {oracle_ok}, "
        f"rewrite residual {rewrite_worst:.3e}",
    )
    assert ok


# -- 8: mpnn ----------------------------------------------------------------------------


def _train_mpnn():
    model = mpnn.MpnnModel(
        4,
        layers=2,
        hidden=(16, 16),
        mode=mpnn.POOLED,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True),
        seed=808,
    )
    dataset = mpnn.generate_dataset(np.random.default_rng(42), 4, 2000)
    config = mpnn.TrainConfig(
        epochs=200, lr=1e-3, batch_size=32, seed=1, stop_at_val_ratio=0.5
    )
    return model, mpnn.train(model, dataset, config)


def _mpnn_specs(n):
    common = dict(
        dim=3, n_vectors=2 * n, roles=(POSITION, FREE) * n,
        output_kind=harness.VECTOR_TRANSLATION_INVARIANT,
        blocks=n, scalars_per_block=1,
    )
    return [
        harness.SymmetrySpec(group=g, **common) for g in ("perm", "translation", "o")
    ]


def _certify_mpnn(model, seed):
    def fn(x, scalars):
        return model.forward(scalars[:, 0], x.vectors[0::2], x.vectors[1::2])

    return harness.certify_joint(fn, _mpnn_specs(4), 200, groups.make_rng(seed))


def test_criterion_8_mpnn():
    # Gradient check, both message-passing modes.
    grad_worst = 0.0
    for mode in (mpnn.CONCAT, mpnn.POOLED):
        rng = np.random.default_rng(88)
        model = mpnn.MpnnModel(
            3, layers=2, hidden=(5,), mode=mode,
            edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=9,
        )
        qs = rng.choice([-1.0, 1.0], size=3)
        rs = rng.uniform(-1.0, 1.0, size=(3, 3))
        vs = rng.normal(0.0, 0.3, size=(3, 3))
        probe = rng.standard_normal((3, 3))
        _, cache = model.forward(qs, rs, vs, want_cache=True)
        grads = model.backward(cache, probe)
        flat = []
        for layer, name, kind, idx, arr in model.parameters():
            g = grads[0 if kind == "w" else 1][idx][4 * layer + mpnn.NET_NAMES.index(name)]
            flat.extend((arr, g, pos) for pos in np.ndindex(arr.shape))
        eps = 1e-5
        for p in rng.choice(len(flat), size=60, replace=False):
            arr, g, pos = flat[p]
            old = arr[pos]
            arr[pos] = old + eps
            hi = float(np.sum(model.forward(qs, rs, vs) * probe))
            arr[pos] = old - eps
            lo = float(np.sum(model.forward(qs, rs, vs) * probe))
            arr[pos] = old
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(g[pos])
            grad_worst = max(
                grad_worst,
                abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic)),
            )

    # Random-model joint certification (the faithful full-concat mode).
    random_model = mpnn.MpnnModel(
        4, layers=2, hidden=(16, 16), mode=mpnn.CONCAT,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=11,
    )
    random_cert = _certify_mpnn(random_model, 812)

    # Training run: pooled mode halves the epoch-0 validation MSE.
    model_a, report_a = _train_mpnn()
    trained_cert = _certify_mpnn(model_a, 813)
    halved = (
        not report_a.aborted
        and report_a.final_val <= 0.5 * report_a.initial_val
        and report_a.epochs[-1][0] <= 200
    )
    # Determinism: the identical run reproduces the trajectory and weights.
    model_b, report_b = _train_mpnn()
    deterministic = report_a.epochs == report_b.epochs and all(
        np.array_equal(wa, wb)
        for (_, _, _, _, wa), (_, _, _, _, wb) in zip(
            model_a.parameters(), model_b.parameters()
        )
    )

    ok = (
        grad_worst <= 1e-5
        and random_cert.max_residual <= 1e-9
        and not random_cert.failures
        and trained_cert.max_residual <= 1e-9
        and not trained_cert.failures
        and halved
        and deterministic
    )
    _report(
        8, "mpnn gradients/certification/training", ok,
        f"grad {grad_worst:.3e}, random cert {random_cert.max_residual:.3e}, "
        f"trained cert {trained_cert.max_residual:.3e}, "
        f"val {report_a.initial_val:.2f}->{report_a.final_val:.2f} "
        f"in {report_a.epochs[-1][0]} epochs, deterministic {deterministic}",
    )
    assert ok


# -- 9: harness calibration ---------------------------------------------------------------


def test_criterion_9_harness_calibration():
    spec = harness.SymmetrySpec("o", 3, 2, output_kind=harness.VECTOR_EQUIVARIANT)
    details = []
    ok = True
    for eps in (1e-3, 1e-1):

        def planted(x, eps=eps):
            v = x.vectors[0]
            return v + eps * (1.0 + np.linalg.norm(v)) * np.array([1.0, 0.0, 0.0])

        detected = 0
        for run in range(100):
            report = harness.certify(planted, spec, 20, groups.make_rng(9000 + run))
            if report.max_residual >= eps / 2.0:
                detected += 1
        details.append(f"eps={eps:g}: {detected}/100")
        if detected < 99:
            ok = False
    _report(9, "planted-violation calibration", ok, ", ".join(details))
    assert ok
