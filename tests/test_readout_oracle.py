"""`MpnnModel.forward` and `backward` before the last layer ran only the
nets of the channel read out, kept as oracles, and checked bit for bit
against the library.

Each oracle is the code it replaced, copied as it was: every layer runs
its whole stack of four nets, the last layer's message update covers both
channels, and `backward` updates the input gradient after every layer.
`train` is copied with it, so that whole trainings can be compared. Only
the library helpers those paths still share unchanged (`edge_features`,
`_net_input`, `_pair_matrix`, `_row_grads`, `ScalarNet`) are called from
the oracles.
"""
import numpy as np
import pytest

from equiscalar import mpnn

MODES = (mpnn.CONCAT, mpnn.POOLED)
READOUTS = (mpnn.READOUT_POSITION, mpnn.READOUT_VELOCITY)


def _oracle_forward(model, qs, rs, vs):
    n = qs.shape[1]
    off = mpnn._off_diagonal(n)
    z = model._net_input(mpnn.edge_features(qs, rs, vs, model.edge_config), off)
    rows = z.reshape(-1, z.shape[-1])
    h = np.empty((2, *rs.shape))
    np.subtract(rs, np.add.reduce(rs, axis=1, keepdims=True) / n, out=h[0])
    h[1] = vs
    cache = {"n": n, "z": z, "h": [], "G": []}
    for stack in model.stacks:
        g = mpnn._pair_matrix(stack.forward(rows).reshape(2, 2, -1), z.shape, off)
        cache["h"].append(h)
        cache["G"].append(g)
        h = h + (g.sum(axis=-1)[..., None] * h - g @ h).sum(axis=1)
    return h[0 if model.readout == mpnn.READOUT_POSITION else 1], cache


def _oracle_backward(model, cache, dout):
    z = cache["z"]
    rows = z.reshape(-1, z.shape[-1])
    off = mpnn._off_diagonal(cache["n"])
    dh = np.zeros((2, *z.shape[:2], 3))
    dh[0 if model.readout == mpnn.READOUT_POSITION else 1] = dout
    grads = [None] * model.layers
    for layer in reversed(range(model.layers)):
        h, g = cache["h"][layer], cache["G"][layer]
        dm = dh[:, None]
        dg = (dm * h).sum(axis=-1)[..., None] - dm @ np.swapaxes(h, -1, -2)
        dh = dh + (g.sum(axis=-1)[..., None] * dm - np.swapaxes(g, -1, -2) @ dm).sum(axis=0)
        dvals = mpnn._row_grads(dg, z.shape, off).reshape(len(mpnn.NET_NAMES), -1)
        grads[layer] = model.stacks[layer].backward(rows, dvals)
    return grads


def _oracle_evaluate_mse(model, dataset, indices, batch_size):
    total = 0.0
    for start in range(0, len(indices), batch_size):
        batch = indices[start : start + batch_size]
        pred = _oracle_forward(model, dataset.qs[batch], dataset.rs[batch], dataset.vs[batch])[0]
        total += mpnn.mse_loss(pred, dataset.targets[batch]) * len(batch)
    return total / len(indices)


def _oracle_train(model, dataset, config):
    n_val = max(1, int(round(dataset.size * config.val_fraction)))
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(dataset.size)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    val0 = _oracle_evaluate_mse(model, dataset, val_idx, config.batch_size)
    epochs = [(0, _oracle_evaluate_mse(model, dataset, train_idx, config.batch_size), val0)]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            pred, cache = _oracle_forward(model, dataset.qs[batch], dataset.rs[batch], dataset.vs[batch])
            diff = pred - dataset.targets[batch]
            epoch_loss += float(np.mean(diff * diff)) * len(batch)
            for stack, (weights, biases) in zip(model.stacks, _oracle_backward(model, cache, 2.0 * diff / diff.size)):
                for p, g in zip(stack.weights + stack.biases, weights + biases):
                    p -= config.lr * g
        epochs.append((epoch, epoch_loss / len(order),
                       _oracle_evaluate_mse(model, dataset, val_idx, config.batch_size)))
        if epochs[-1][1] > mpnn.DIVERGENCE_LIMIT or not np.isfinite(epochs[-1][1]):
            break
    return epochs


def _model(n, mode, readout, layers, seed=0):
    return mpnn.MpnnModel(n, layers=layers, hidden=(16, 16), mode=mode, readout=readout,
                          edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=seed)


def _batch(seed, b, n):
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], (b, n)), rng.uniform(-1.0, 1.0, (b, n, 3)),
            rng.normal(0.0, 0.3, (b, n, 3)))


def _net(grads, row):
    """The (weights, biases) gradients of net ``row`` of a stack's gradients."""
    return [[p[row] for p in part] for part in grads]


def _assert_same_grads(got, want):
    # got is shaped as the model's stack, want as each layer stack of the oracle.
    for layer, w in enumerate(want):
        for k, name in enumerate(mpnn.NET_NAMES):
            for got_part, want_part in zip(_net(got, 4 * layer + k), _net(w, k)):
                for a, b in zip(got_part, want_part):
                    assert a.shape == b.shape and np.array_equal(a, b), (layer, name)


def _dead_nets(model):
    """Names of the last layer's nets that write the channel not read out."""
    return ("gt_r", "gt_v") if model.readout == mpnn.READOUT_POSITION else ("g_r", "g_v")


# Batch sizes per n: B = 32 makes multi-block net calls at n = 12 (4224
# pooled pair rows, 384 concat node rows, in 128-row blocks).
CASES = [(n, b) for n in (1, 2, 4, 5, 12) for b in ((3, 32) if n == 12 else (3,))]


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("readout", READOUTS)
@pytest.mark.parametrize("mode", MODES)
def test_outputs_and_gradients_match_the_full_stack_oracle_bit_for_bit(mode, readout, layers):
    for n, b in CASES:
        model = _model(n, mode, readout, layers, seed=n + b)
        qs, rs, vs = _batch(n * b, b, n)
        out, cache = model.forward(qs, rs, vs, want_cache=True)
        want, want_cache = _oracle_forward(model, qs, rs, vs)
        assert out.shape == want.shape and np.array_equal(out, want), (n, b)
        assert np.array_equal(model.forward(qs, rs, vs), want), (n, b)
        dout = np.random.default_rng(n * b + 1).standard_normal(out.shape)
        grads = model.backward(cache, dout)
        _assert_same_grads(grads, _oracle_backward(model, want_cache, dout))
        for name in _dead_nets(model):
            row = 4 * (layers - 1) + mpnn.NET_NAMES.index(name)
            assert not any(np.any(p) for part in _net(grads, row) for p in part)


@pytest.mark.parametrize("mode", MODES)
def test_one_sample_forward_and_backward_match_the_oracle_bit_for_bit(mode):
    for readout in READOUTS:
        model = _model(5, mode, readout, 2, seed=9)
        qs, rs, vs = (a[0] for a in _batch(10, 1, 5))
        out, cache = model.forward(qs, rs, vs, want_cache=True)
        want, want_cache = _oracle_forward(model, qs[None], rs[None], vs[None])
        assert out.shape == (5, 3) and np.array_equal(out, want[0])
        dout = np.random.default_rng(11).standard_normal((5, 3))
        _assert_same_grads(model.backward(cache, dout), _oracle_backward(model, want_cache, dout))


def _assert_same_training(make_model, data, config):
    model, oracle = make_model(), make_model()
    report = mpnn.train(model, data, config)
    assert report.epochs == _oracle_train(oracle, data, config)
    assert len(report.epochs) == config.epochs + 1 and not report.aborted
    for p, q in zip(model.parameters(), oracle.parameters()):
        assert np.array_equal(p[-1], q[-1]) and np.array_equal(np.signbit(p[-1]), np.signbit(q[-1])), p[:4]
    untrained = make_model()
    assert not all(np.array_equal(p[-1], q[-1]) for p, q in zip(model.parameters(), untrained.parameters()))


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("readout", READOUTS)
@pytest.mark.parametrize("mode", MODES)
def test_training_matches_the_full_stack_oracle_bit_for_bit(mode, readout, layers):
    for n in (2, 4, 5, 12):
        # Steps small enough that no training diverges: the untrained three-layer
        # model at n = 12 is off by about 3e4 in MSE, and diverges at 1e-6.
        config = mpnn.TrainConfig(epochs=3, lr=1e-9 if n == 12 else 1e-5, batch_size=16, seed=2)
        data = mpnn.generate_dataset(np.random.default_rng(n), n, 40)
        _assert_same_training(lambda: _model(n, mode, readout, layers, seed=n), data, config)


@pytest.mark.parametrize("n, mode, lr", [(4, mpnn.POOLED, 1e-3), (4, mpnn.CONCAT, 1e-3),
                                         (12, mpnn.POOLED, 1e-5)])
def test_benchmark_trainings_match_the_full_stack_oracle_bit_for_bit(n, mode, lr):
    # The three trainings of perfbench's mpnn-train workload, with its seeds.
    data = mpnn.generate_dataset(np.random.default_rng(42), n, 64)
    config = mpnn.TrainConfig(epochs=8, lr=lr, batch_size=32, seed=1)
    _assert_same_training(lambda: _model(n, mode, mpnn.READOUT_POSITION, 2, seed=808), data, config)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("readout", READOUTS)
@pytest.mark.parametrize("mode", MODES)
def test_nets_that_never_reach_the_output_are_not_run(mode, readout, layers):
    model = _model(5, mode, readout, layers, seed=3)
    qs, rs, vs = _batch(4, 8, 5)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    dout = np.random.default_rng(5).standard_normal(out.shape)
    grads = model.backward(cache, dout)
    for name in _dead_nets(model):
        for p in model.nets[-1][name].weights:
            p[...] = np.nan
    poisoned_out, poisoned_cache = model.forward(qs, rs, vs, want_cache=True)
    assert np.array_equal(poisoned_out, out)
    poisoned = model.backward(poisoned_cache, dout)
    for got, want in zip(poisoned[0] + poisoned[1], grads[0] + grads[1]):
        assert got.shape == want.shape and np.array_equal(got, want)
    for name in _dead_nets(model):
        row = 4 * (layers - 1) + mpnn.NET_NAMES.index(name)
        assert not any(np.any(p) for part in _net(poisoned, row) for p in part)
