import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from equiscalar import groups, mpnn, physics
from equiscalar.errors import DegenerateInputError, ShapeError


def _random_system(rng, n=3):
    qs = rng.choice([-1.0, 1.0], size=n)
    rs = rng.uniform(-1.0, 1.0, size=(n, 3))
    vs = rng.normal(0.0, 0.3, size=(n, 3))
    return qs, rs, vs


def _small_model(mode, n=3, seed=0, **kwargs):
    return mpnn.MpnnModel(
        n,
        layers=2,
        hidden=(5,),
        mode=mode,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True),
        seed=seed,
        **kwargs,
    )


def _random_batch(rng, b, n):
    return tuple(np.stack(parts) for parts in zip(*(_random_system(rng, n) for _ in range(b))))


def _flat_grads(model, grads):
    return np.concatenate([
        grads[layer][name][0 if kind == "w" else 1][idx].ravel()
        for layer, name, kind, idx, _ in model.parameters()
    ])


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


DATA = pathlib.Path(__file__).parent / "data"


# -- edge features -------------------------------------------------------------


def test_edge_features_shape_and_channels():
    rng = np.random.default_rng(0)
    qs, rs, vs = _random_system(rng, 4)
    e = mpnn.edge_features(qs, rs, vs)
    assert e.shape == (4, 4, 3)
    assert np.allclose(e[..., 0], np.outer(qs, qs))
    assert np.allclose(e[..., 1], vs @ vs.T)
    i, j = 1, 3
    assert e[i, j, 2] == pytest.approx(np.sum((rs[i] - rs[j]) ** 2))
    assert np.allclose(np.diagonal(e[..., 2]), 0.0)


def test_edge_features_inv_sqrt_channel():
    rng = np.random.default_rng(1)
    qs, rs, vs = _random_system(rng)
    e = mpnn.edge_features(qs, rs, vs, mpnn.EdgeConfig(include_inv_sqrt=True))
    assert e.shape[-1] == 4
    assert np.allclose(np.diagonal(e[..., 3]), 0.0)
    assert e[0, 1, 3] == pytest.approx(1.0 / np.linalg.norm(rs[0] - rs[1]))


def test_edge_features_coincident_with_inverse_raises():
    rs = np.zeros((2, 3))
    with pytest.raises(DegenerateInputError):
        mpnn.edge_features(
            [1.0, -1.0], rs, np.zeros((2, 3)), mpnn.EdgeConfig(include_inv_sqrt=True)
        )


def test_edge_features_rbf_channels():
    cfg = mpnn.EdgeConfig(rbf_centers=(0.0, 1.0), rbf_width=0.5)
    rng = np.random.default_rng(2)
    qs, rs, vs = _random_system(rng)
    e = mpnn.edge_features(qs, rs, vs, cfg)
    assert e.shape[-1] == 5
    dist = np.linalg.norm(rs[0] - rs[1])
    assert e[0, 1, 4] == pytest.approx(np.exp(-((dist - 1.0) ** 2) / 0.5))


def test_edge_features_euclidean_invariance():
    rng = groups.make_rng(3)
    qs, rs, vs = _random_system(rng, 4)
    cfg = mpnn.EdgeConfig(include_inv_sqrt=True)
    e0 = mpnn.edge_features(qs, rs, vs, cfg)
    q = groups.sample_orthogonal(rng, 3).q
    w = rng.standard_normal(3)
    e1 = mpnn.edge_features(qs, rs @ q.T + w, vs @ q.T, cfg)
    assert np.max(np.abs(e1 - e0)) <= 1e-12 * max(1.0, np.max(np.abs(e0)))


def test_edge_features_shape_error():
    with pytest.raises(ShapeError):
        mpnn.edge_features([1.0, -1.0], np.zeros((2, 2)), np.zeros((2, 2)))


# -- scalar nets -----------------------------------------------------------------


def test_scalar_net_single_vs_batch():
    net = mpnn.ScalarNet([4, 6, 1], rng=np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((7, 4))
    batch = net.forward(x)
    for i in range(7):
        single = net.forward(x[i])
        assert single == pytest.approx(batch[i], rel=1e-15, abs=1e-15)


def test_scalar_net_zero_weights_zero_output():
    net = mpnn.ScalarNet([3, 4, 1])
    for w in net.weights:
        w[:] = 0.0
    out = net.forward(np.ones(3))
    assert out == 0.0


def test_off_diagonal_masks_are_kept_read_only():
    for n in range(2, 14):
        mask = mpnn._off_diagonal(n)
        assert mask is mpnn._off_diagonal(n)
        assert np.array_equal(mask, ~np.eye(n, dtype=bool))
        with pytest.raises(ValueError):
            mask[0, 0] = True
    assert np.array_equal(mpnn._off_diagonal(40), ~np.eye(40, dtype=bool))


def test_scalar_net_rejects_bad_widths():
    with pytest.raises(ShapeError):
        mpnn.ScalarNet([3, 4, 2])
    net = mpnn.ScalarNet([3, 4, 1])
    with pytest.raises(ShapeError):
        net.forward(np.ones(5))


def _patch_block_rows(monkeypatch, rows):
    # Blocks of 8 rows of width-16 layers. Like the 512 rows of a real block
    # they are a multiple of the 4 rows that the BLAS matrix-vector kernel of
    # the output layer takes at a time, so every row meets the same
    # arithmetic as in one whole-batch call (7-row blocks move some outputs
    # by an ulp).
    monkeypatch.setattr(mpnn, "BLOCK_BYTES", rows * 8 * 16)


def test_blocked_scalar_net_matches_one_block(monkeypatch):
    net = mpnn.ScalarNet([8, 16, 16, 1], rng=np.random.default_rng(6))
    x = np.random.default_rng(7).standard_normal((100, 8))
    dscalar = np.random.default_rng(8).standard_normal(100)
    whole, whole_grads = net.forward(x), net.backward(x, dscalar)
    # 12 blocks of 8 rows and a ragged block of 4
    _patch_block_rows(monkeypatch, 8)
    assert np.array_equal(net.forward(x), whole)
    for got, want in zip(net.backward(x, dscalar), whole_grads):
        assert _rel_err(np.concatenate([g.ravel() for g in got]),
                        np.concatenate([g.ravel() for g in want])) <= 1e-12


# -- forward symmetries ------------------------------------------------------------


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_forward_rotation_and_reflection_equivariance(mode):
    rng = groups.make_rng(6)
    model = _small_model(mode)
    qs, rs, vs = _random_system(rng)
    out = model.forward(qs, rs, vs)
    for _ in range(10):
        q = groups.sample_orthogonal(rng, 3).q  # both det components
        moved = model.forward(qs, rs @ q.T, vs @ q.T)
        assert np.max(np.abs(moved - out @ q.T)) <= 1e-11 * (1.0 + np.max(np.abs(out)))


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_forward_translation_invariance(mode):
    rng = np.random.default_rng(7)
    model = _small_model(mode)
    qs, rs, vs = _random_system(rng)
    out = model.forward(qs, rs, vs)
    moved = model.forward(qs, rs + rng.standard_normal(3), vs)
    assert np.max(np.abs(moved - out)) <= 1e-11 * (1.0 + np.max(np.abs(out)))


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_forward_permutation_equivariance(mode):
    rng = np.random.default_rng(8)
    model = _small_model(mode, n=4)
    qs, rs, vs = _random_system(rng, 4)
    out = model.forward(qs, rs, vs)
    for _ in range(10):
        sigma = np.random.default_rng(int(rng.integers(1 << 30))).permutation(4)
        permuted = model.forward(qs[sigma], rs[sigma], vs[sigma])
        assert np.max(np.abs(permuted - out[sigma])) <= 1e-11 * (
            1.0 + np.max(np.abs(out))
        )


def test_concat_mode_fixed_n():
    model = _small_model(mpnn.CONCAT, n=3)
    rng = np.random.default_rng(9)
    qs, rs, vs = _random_system(rng, 4)
    with pytest.raises(ShapeError):
        model.forward(qs, rs, vs)


def test_pooled_mode_generalizes_across_n():
    model = _small_model(mpnn.POOLED, n=3)
    rng = np.random.default_rng(10)
    qs, rs, vs = _random_system(rng, 5)
    out = model.forward(qs, rs, vs)
    assert out.shape == (5, 3)


def test_velocity_readout_channel():
    rng = np.random.default_rng(11)
    model = _small_model(mpnn.POOLED, readout=mpnn.READOUT_VELOCITY)
    zero = mpnn.MpnnModel(
        3, layers=2, hidden=(5,), mode=mpnn.POOLED,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True),
        readout=mpnn.READOUT_VELOCITY,
    )
    for layer in zero.nets:
        for net in layer.values():
            for w in net.weights:
                w[:] = 0.0
    qs, rs, vs = _random_system(rng)
    # With zero message nets the readout is the untouched velocity channel.
    assert np.allclose(zero.forward(qs, rs, vs), vs, atol=1e-15)
    assert model.forward(qs, rs, vs).shape == (3, 3)


# -- gradients ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode, activation",
    [
        pytest.param(mode, act, id=mode if act == "tanh" else f"{mode}-{act}")
        for act in ("tanh", "softplus")
        for mode in (mpnn.CONCAT, mpnn.POOLED)
    ],
)
def test_gradient_matches_central_differences(mode, activation):
    rng = np.random.default_rng(12)
    model = _small_model(mode, activation=activation)
    qs, rs, vs = _random_system(rng)
    probe = rng.standard_normal((3, 3))

    def loss():
        return float(np.sum(model.forward(qs, rs, vs) * probe))

    _, cache = model.forward(qs, rs, vs, want_cache=True)
    grads = model.backward(cache, probe)
    params = model.parameters()
    flat = []
    for layer, name, kind, idx, arr in params:
        g = grads[layer][name][0 if kind == "w" else 1][idx]
        flat.extend(
            (arr, g, pos) for pos in np.ndindex(arr.shape)
        )
    eps = 1e-5
    picks = rng.choice(len(flat), size=min(60, len(flat)), replace=False)
    worst = 0.0
    for p in picks:
        arr, g, pos = flat[p]
        old = arr[pos]
        arr[pos] = old + eps
        hi = loss()
        arr[pos] = old - eps
        lo = loss()
        arr[pos] = old
        numeric = (hi - lo) / (2.0 * eps)
        analytic = float(g[pos])
        rel = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
        worst = max(worst, rel)
    assert worst <= 1e-5


# -- batched kernel -----------------------------------------------------------------


def _check_batched_matches_per_sample(mode, n, readout, b):
    rng = np.random.default_rng(24)
    model = _small_model(mode, n=n, readout=readout)
    qs, rs, vs = _random_batch(rng, b, n)
    probe = rng.standard_normal(rs.shape)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    batched = _flat_grads(model, model.backward(cache, probe))
    singles, summed = [], 0.0
    for s in range(b):
        single, single_cache = model.forward(qs[s], rs[s], vs[s], want_cache=True)
        singles.append(single)
        summed = summed + _flat_grads(model, model.backward(single_cache, probe[s]))
    assert out.shape == (b, n, 3)
    assert _rel_err(out, np.stack(singles)) <= 1e-12
    assert _rel_err(batched, summed) <= 1e-12


@pytest.mark.parametrize("readout", [mpnn.READOUT_POSITION, mpnn.READOUT_VELOCITY])
@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_batched_forward_and_backward_match_per_sample(mode, n, readout):
    _check_batched_matches_per_sample(mode, n, readout, 5)


def test_batched_rows_across_the_block_size_match_per_sample():
    # 32 * 132 pair rows, past the 1638 rows of one block of width-5 layers
    assert 32 * 12 * 11 > mpnn.BLOCK_BYTES // (8 * 5)
    _check_batched_matches_per_sample(mpnn.POOLED, 12, mpnn.READOUT_POSITION, 32)


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_blocked_model_matches_one_block(monkeypatch, mode):
    rng = np.random.default_rng(27)
    model = mpnn.MpnnModel(4, hidden=(16, 16), mode=mode,
                           edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=3)
    qs, rs, vs = _random_batch(rng, 5, 4)
    probe = rng.standard_normal(rs.shape)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    grads = _flat_grads(model, model.backward(cache, probe))
    # pooled: 60 pair rows, 7 blocks of 8 and one of 4; concat: 20 node rows
    _patch_block_rows(monkeypatch, 8)
    blocked, blocked_cache = model.forward(qs, rs, vs, want_cache=True)
    assert np.array_equal(blocked, out)
    assert _rel_err(_flat_grads(model, model.backward(blocked_cache, probe)), grads) <= 1e-12


@pytest.mark.parametrize("tag", ["concat", "pooled"])
def test_golden_model_reproduces_saved_outputs_and_gradients(tag):
    # Written by the per-sample implementation that the batched kernel
    # replaced (regenerating them from the current code would defeat the
    # test): model files in the saved-model format, three samples each,
    # their outputs and the per-sample gradients for a fixed probe, summed.
    case = json.loads((DATA / "golden_outputs.json").read_text())[tag]
    model = mpnn.MpnnModel.load(DATA / f"golden_{tag}.model.json")
    qs, rs, vs, probe = (np.array(case[key]) for key in ("qs", "rs", "vs", "probe"))
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    assert _rel_err(out, np.array(case["outputs"])) <= 1e-12
    grads = _flat_grads(model, model.backward(cache, probe))
    assert _rel_err(grads, np.array(case["grad_sum"])) <= 1e-12


def _pooled_n12_model():
    return mpnn.MpnnModel(
        12, layers=2, hidden=(16, 16), mode=mpnn.POOLED,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=808,
    )


def test_training_memory_stays_near_one_sgd_step():
    # Keeping every net's activations for all 32 * 132 pairs of a batch from
    # forward to backward peaks near 16 MB here; recomputing them per net in
    # backward over the whole batch peaked near 4.0 MB, and over row blocks
    # near 1.7 MB.
    ds = mpnn.generate_dataset(np.random.default_rng(42), 12, 64)
    model = _pooled_n12_model()
    tracemalloc.start()
    try:
        mpnn.train(model, ds, mpnn.TrainConfig(epochs=2, lr=1e-5, batch_size=32, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_backward_memory_stays_within_row_blocks():
    # One backward over a 32-sample batch: the nets' (32 * 132, 16)
    # temporaries over the whole batch peaked at 3.37 MB here, in row
    # blocks at 1.03 MB.
    ds = mpnn.generate_dataset(np.random.default_rng(42), 12, 32)
    model = _pooled_n12_model()
    out, cache = model.forward(ds.qs, ds.rs, ds.vs, want_cache=True)
    tracemalloc.start()
    try:
        model.backward(cache, out - ds.targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# -- dataset ------------------------------------------------------------------------


def test_dataset_shapes_and_charges():
    ds = mpnn.generate_dataset(np.random.default_rng(13), 4, 10)
    assert ds.size == 10
    assert ds.rs.shape == (10, 4, 3)
    assert set(np.unique(ds.qs)) <= {-1.0, 1.0}


def test_dataset_min_separation():
    ds = mpnn.generate_dataset(np.random.default_rng(14), 5, 20)
    for s in range(ds.size):
        d = np.linalg.norm(ds.rs[s][:, None] - ds.rs[s][None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= mpnn.MIN_SEPARATION


def test_dataset_targets_are_forces():
    # Checked against the cross-product form, which shares no code with the
    # scalar form that generate_dataset uses.
    ds = mpnn.generate_dataset(np.random.default_rng(15), 3, 5, k=1.2, c=2.0)
    for s in range(ds.size):
        parts = [
            physics.Particle(r, v, charge=q) for q, r, v in zip(ds.qs[s], ds.rs[s], ds.vs[s])
        ]
        for i, test in enumerate(parts):
            want = physics.em_force_cross(test, parts[:i] + parts[i + 1 :], k=1.2, c=2.0)
            got = ds.targets[s, i]
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_dataset_deterministic():
    a = mpnn.generate_dataset(np.random.default_rng(16), 3, 4)
    b = mpnn.generate_dataset(np.random.default_rng(16), 3, 4)
    assert np.array_equal(a.rs, b.rs) and np.array_equal(a.targets, b.targets)


# -- training / persistence -----------------------------------------------------------


def test_train_reports_and_is_deterministic():
    ds = mpnn.generate_dataset(np.random.default_rng(17), 3, 40)
    cfg = mpnn.TrainConfig(epochs=2, lr=1e-3, batch_size=8, seed=3)
    reports = []
    for _ in range(2):
        model = _small_model(mpnn.POOLED, seed=21)
        reports.append(mpnn.train(model, ds, cfg))
    a, b = reports
    assert a.epochs == b.epochs
    assert not a.aborted
    assert [e for e, _, _ in a.epochs] == [0, 1, 2]
    assert all(np.isfinite(t) and np.isfinite(v) for _, t, v in a.epochs)


def test_train_early_stop_on_val_ratio():
    ds = mpnn.generate_dataset(np.random.default_rng(18), 3, 40)
    model = _small_model(mpnn.POOLED, seed=22)
    cfg = mpnn.TrainConfig(epochs=50, lr=1e-3, batch_size=8, seed=3, stop_at_val_ratio=1e9)
    seen = []
    report = mpnn.train(model, ds, cfg, on_epoch=lambda epoch, m: seen.append((epoch, m)))
    # An absurdly generous ratio stops after the very first epoch.
    assert report.epochs[-1][0] == 1
    # The callback sees every recorded epoch, the untrained model's included.
    assert seen == [(0, model), (1, model)]


@pytest.mark.parametrize("n_samples, batch_size", [(1, 32), (10, 0)])
def test_train_rejects_no_training_samples_or_empty_batches(n_samples, batch_size):
    ds = mpnn.generate_dataset(np.random.default_rng(25), 3, n_samples)
    with pytest.raises(ShapeError):
        mpnn.train(_small_model(mpnn.POOLED), ds, mpnn.TrainConfig(epochs=1, batch_size=batch_size))


def test_evaluate_mse_is_independent_of_slice_size():
    ds = mpnn.generate_dataset(np.random.default_rng(26), 3, 10)
    model = _small_model(mpnn.POOLED)
    idx = np.arange(10)
    whole = mpnn.evaluate_mse(model, ds, idx, batch_size=10)
    for batch_size in (1, 3):
        assert mpnn.evaluate_mse(model, ds, idx, batch_size) == pytest.approx(whole, rel=1e-12)
    with pytest.raises(ShapeError):
        mpnn.evaluate_mse(model, ds, idx[:0])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    model = _small_model(mpnn.CONCAT, seed=23)
    qs, rs, vs = _random_system(rng)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = mpnn.MpnnModel.load(path)
    assert np.array_equal(loaded.forward(qs, rs, vs), model.forward(qs, rs, vs))
    assert loaded.mode == mpnn.CONCAT
    assert loaded.edge_config == model.edge_config


def test_model_rejects_unknown_mode_and_readout():
    with pytest.raises(ValueError):
        mpnn.MpnnModel(3, mode="dense")
    with pytest.raises(ValueError):
        mpnn.MpnnModel(3, readout="charge")


@pytest.mark.parametrize("build, field", [
    (lambda: mpnn.ScalarNet([3, 0, 1]), "widths"),
    (lambda: mpnn.MpnnModel(3, hidden=(4, 0)), "widths"),
    (lambda: mpnn.MpnnModel(3, layers=0), "layers"),
    (lambda: mpnn.TrainConfig(batch_size=0), "batch_size"),
], ids=["scalar-net-width-0", "mpnn-width-0", "mpnn-layers-0", "train-batch-0"])
def test_a_size_below_1_is_rejected_when_built(build, field):
    with pytest.raises(ShapeError, match=field):
        build()


@pytest.mark.parametrize("build", [
    lambda: mpnn.ScalarNet([3, 4, 1], "relu"),
    lambda: mpnn.MpnnModel(3, activation="relu"),
    lambda: mpnn.MpnnModel(3, activation="Tanh"),
], ids=["scalar-net", "mpnn-relu", "mpnn-Tanh"])
def test_an_unknown_activation_is_rejected_when_the_net_is_built(build):
    with pytest.raises(ValueError, match="activation"):
        build()
