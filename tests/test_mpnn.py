import copy
import json
import pathlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from equiscalar import groups, mpnn, physics
from equiscalar.errors import DegenerateInputError, NonFiniteError, ShapeError


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
        grads[0 if kind == "w" else 1][idx][4 * layer + mpnn.NET_NAMES.index(name)].ravel()
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


def test_an_rbf_width_past_float64_range_gives_a_channel_of_one():
    cfg = mpnn.EdgeConfig(rbf_centers=(1.0,), rbf_width=1e200)
    qs, rs, vs = np.ones(3), np.eye(3), np.zeros((3, 3))
    assert (mpnn.edge_features(qs, rs, vs, cfg)[..., 3] == 1.0).all()
    out = mpnn.MpnnModel(3, mode="pooled", edge_config=cfg).forward(qs, rs, vs)
    assert out.shape == (3, 3) and np.isfinite(out).all()


def test_edge_features_euclidean_invariance():
    rng = groups.make_rng(3)
    qs, rs, vs = _random_system(rng, 4)
    cfg = mpnn.EdgeConfig(include_inv_sqrt=True)
    e0 = mpnn.edge_features(qs, rs, vs, cfg)
    q = groups.sample("o", rng, 3).q
    w = rng.standard_normal(3)
    e1 = mpnn.edge_features(qs, rs @ q.T + w, vs @ q.T, cfg)
    assert np.max(np.abs(e1 - e0)) <= 1e-12 * max(1.0, np.max(np.abs(e0)))


@pytest.mark.parametrize("field, value", [("qs", np.inf), ("rs", np.nan), ("vs", -np.inf)])
def test_non_finite_input_raises_non_finite_error(field, value):
    rng = np.random.default_rng(4)
    system = dict(zip(("qs", "rs", "vs"), _random_system(rng, 3)))
    system[field][1] = value
    model = _small_model(mpnn.POOLED)
    for call in (mpnn.edge_features, model.forward):
        with pytest.raises(NonFiniteError):
            call(system["qs"], system["rs"], system["vs"])


@pytest.mark.parametrize("field, value", [("qs", 1e200), ("rs", 1e160), ("vs", 1e160)])
def test_finite_input_whose_edge_features_overflow_is_rejected(field, value):
    rng = np.random.default_rng(4)
    system = dict(zip(("qs", "rs", "vs"), _random_system(rng, 3)))
    system[field][1] = value
    model = _small_model(mpnn.POOLED)
    for call in (mpnn.edge_features, model.forward):
        with pytest.raises(NonFiniteError):
            call(system["qs"], system["rs"], system["vs"])


def test_edge_features_shape_error():
    with pytest.raises(ShapeError):
        mpnn.edge_features([1.0, -1.0], np.zeros((2, 2)), np.zeros((2, 2)))


BAD_EDGE_CONFIGS = {
    "inv-sqrt-an-integer": ({"include_inv_sqrt": 1}, "include_inv_sqrt must be true or false, got 1"),
    "inv-sqrt-numpy-bool": ({"include_inv_sqrt": np.True_}, "include_inv_sqrt must be true or false"),
    "centers-a-string": ({"rbf_centers": ("a",)}, "rbf_centers must be a list of finite numbers, got ('a',)"),
    "centers-a-number": ({"rbf_centers": 0.5}, "rbf_centers must be a list of finite numbers, got 0.5"),
    "centers-hold-nan": ({"rbf_centers": [0.5, float("nan")]}, "rbf_centers must be a list of finite numbers"),
    "centers-hold-a-bool": ({"rbf_centers": [True]}, "rbf_centers must be a list of finite numbers"),
    "width-minus-1": ({"rbf_width": -1}, "rbf_width must be a finite number > 0, got -1"),
    "width-0": ({"rbf_width": 0}, "rbf_width must be a finite number > 0, got 0"),
    "width-inf": ({"rbf_width": float("inf")}, "rbf_width must be a finite number > 0, got inf"),
    "width-a-string": ({"rbf_width": "0.5"}, "rbf_width must be a finite number > 0, got '0.5'"),
}


@pytest.mark.parametrize("case", BAD_EDGE_CONFIGS)
def test_an_edge_config_is_checked_when_built(case):
    kwargs, message = BAD_EDGE_CONFIGS[case]
    with pytest.raises(ShapeError) as info:
        mpnn.EdgeConfig(**kwargs)
    assert str(info.value).startswith(message)


def test_an_edge_config_keeps_its_values_as_given():
    cfg = mpnn.EdgeConfig(include_inv_sqrt=True, rbf_centers=[0.5, 1], rbf_width=np.float64(0.25))
    saved = mpnn.MpnnModel(3, edge_config=cfg, seed=1).to_dict()["edge_config"]
    assert json.dumps(saved) == '{"include_inv_sqrt": true, "rbf_centers": [0.5, 1], "rbf_width": 0.25}'


def test_a_saved_model_with_a_zero_rbf_width_is_rejected():
    obj = json.loads((DATA / "golden_pooled.model.json").read_text())
    obj["edge_config"]["rbf_width"] = 0
    with pytest.raises(ShapeError, match=r"^edge_config\.rbf_width must be a finite number > 0, got 0$"):
        mpnn.MpnnModel.from_dict(obj)


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
    assert mpnn._off_diagonal(40) is not mpnn._off_diagonal(40)


def test_scalar_net_rejects_bad_widths():
    with pytest.raises(ShapeError):
        mpnn.ScalarNet([3, 4, 2])
    net = mpnn.ScalarNet([3, 4, 1])
    with pytest.raises(ShapeError):
        net.forward(np.ones(5))


def _patch_block_rows(monkeypatch, rows):
    # Blocks of 8 rows of one net of width-16 layers, and of 4 rows (the
    # least) of a model layer's stack of four such nets. Like the 128 and 512
    # rows of real blocks they are a multiple of the 4 rows that the BLAS
    # matrix-vector kernel of the output layer takes at a time, so every row
    # meets the same arithmetic as in one whole-batch call (7-row blocks move
    # some outputs by an ulp).
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
        q = groups.sample("o", rng, 3).q  # both det components
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
        g = grads[0 if kind == "w" else 1][idx][4 * layer + mpnn.NET_NAMES.index(name)]
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
    # 32 * 132 pair rows, past the 1638 rows of one block of one net of
    # width-5 layers and the 408 of a stack of four
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
    # stacks of four nets in blocks of 4 rows: pooled 60 pair rows, concat 20 node rows
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


# -- stacked layers ------------------------------------------------------------------
#
# The per-net path that the stacked layers replaced, kept as their oracle:
# each of a layer's four nets runs on its own over the layer's input rows,
# in blocks of BLOCK_BYTES per hidden-layer temporary of that one net, and
# the message kernel reads the np.stack of their outputs.


def _oracle_activations(net, a, layers=None):
    activations = [a]
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights[:layers], net.biases[:layers])):
        a = a @ w.T
        a += b
        if layer != last:
            mpnn._act(net.activation, a)
        activations.append(a)
    return activations


def _oracle_step(net):
    return max(1, mpnn.BLOCK_BYTES // (8 * max(net.widths[1:])))


def _oracle_net_forward(net, a):
    step = _oracle_step(net)
    return np.concatenate([_oracle_activations(net, a[start:start + step])[-1][:, 0]
                           for start in range(0, len(a), step)])


def _oracle_net_backward(net, a, dscalar):
    step = _oracle_step(net)
    last = len(net.weights) - 1
    grads_w, grads_b = [0.0] * (last + 1), [0.0] * (last + 1)
    for start in range(0, len(a), step):
        rows = slice(start, start + step)
        activations = _oracle_activations(net, a[rows], last)
        delta = dscalar[rows, None]
        for layer in reversed(range(last + 1)):
            if layer != last:
                g = mpnn._act_grad(net.activation, activations[layer + 1])
                g *= delta
                delta = g
            grads_w[layer] = grads_w[layer] + delta.T @ activations[layer]
            grads_b[layer] = grads_b[layer] + delta.sum(axis=0)
            if layer:
                delta = delta @ net.weights[layer]
    return grads_w, grads_b


def _oracle_forward(model, qs, rs, vs):
    """(output, cache) of the per-net path on (B, n) charges and (B, n, 3)
    positions and velocities."""
    n = qs.shape[1]
    off = mpnn._off_diagonal(n)
    z = model._net_input(mpnn.edge_features(qs, rs, vs, model.edge_config), off)
    rows = z.reshape(-1, z.shape[-1])
    h = np.stack([rs - rs.mean(axis=1, keepdims=True), vs])
    cache = {"n": n, "z": z, "h": [], "G": []}
    for nets in model.nets:
        vals = np.stack([_oracle_net_forward(nets[name], rows) for name in mpnn.NET_NAMES])
        g = mpnn._pair_matrix(vals.reshape(2, 2, -1), z.shape, off)
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
    # Shaped as the model's stack: net name of a layer is row 4 * layer + its index.
    grads = [np.zeros(p.shape) for p in model.stack.weights], [np.zeros(p.shape) for p in model.stack.biases]
    for layer in reversed(range(model.layers)):
        h, g, nets = cache["h"][layer], cache["G"][layer], model.nets[layer]
        dm = dh[:, None]
        dg = (dm * h).sum(axis=-1)[..., None] - dm @ np.swapaxes(h, -1, -2)
        dh = dh + (g.sum(axis=-1)[..., None] * dm - np.swapaxes(g, -1, -2) @ dm).sum(axis=0)
        for k, (name, dvals) in enumerate(zip(mpnn.NET_NAMES, mpnn._row_grads(dg, z.shape, off).reshape(4, -1))):
            for part, net_grads in zip(grads, _oracle_net_backward(nets[name], rows, dvals)):
                for g, net_g in zip(part, net_grads):
                    g[4 * layer + k] = net_g
    return grads


@pytest.mark.parametrize("rows", [None, 8], ids=["default-blocks", "patched-blocks"])
@pytest.mark.parametrize("b", [1, 32], ids=["single", "batch-32"])
@pytest.mark.parametrize("n", [3, 4, 12])
@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_stacked_layers_match_the_per_net_oracle(monkeypatch, mode, n, b, rows):
    if rows:
        _patch_block_rows(monkeypatch, rows)
    rng = np.random.default_rng(29)
    model = mpnn.MpnnModel(n, hidden=(16, 16), mode=mode,
                           edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=n + b)
    qs, rs, vs = _random_batch(rng, b, n)
    probe = rng.standard_normal(rs.shape)
    want, oracle_cache = _oracle_forward(model, qs, rs, vs)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    assert np.array_equal(out, want)
    if b == 1:
        assert np.array_equal(model.forward(qs[0], rs[0], vs[0]), want[0])
    got = _flat_grads(model, model.backward(cache, probe))
    assert _rel_err(got, _flat_grads(model, _oracle_backward(model, oracle_cache, probe))) <= 1e-12


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
@pytest.mark.parametrize("stack", [None, 4], ids=["one-net", "stack-of-4"])
def test_row_blocks_match_the_per_net_oracle_and_one_block(monkeypatch, stack, activation):
    # Row counts on both sides of the block size (512 rows for one net, 128
    # for a stack of four), step + 1 leaving a 1-row remainder; biases drawn
    # so that adding them from a tile of a block's rows and from the
    # broadcast vector can be told apart. The oracle runs each net over all
    # the rows at once.
    rng = np.random.default_rng(32)
    net = mpnn.ScalarNet([8, 16, 16, 1], activation, rng, stack=stack)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
    nets = [net[k] for k in range(stack)] if stack else [net]
    step = net._rows(np.zeros(8))[2]
    x_all = rng.standard_normal((4224, 8))
    d_all = rng.standard_normal((len(nets), 4224))
    sizes = [1, 3, 4, 5, step - 1, step, step + 1, 2 * step + 3, 4224]
    blocked = []
    for m in sizes:
        x, d = x_all[:m], d_all[:, :m]
        out = net.forward(x).reshape(len(nets), m)
        want = np.stack([_oracle_activations(one, x)[-1][:, 0] for one in nets])
        assert np.array_equal(out, want), m
        grads_w, grads_b = net.backward(x, d.reshape(out.shape if stack else m))
        for k, one in enumerate(nets):
            want_w, want_b = _oracle_net_backward(one, x, d[k])
            got = [g[k] if stack else g for g in grads_w + grads_b]
            assert _rel_err(np.concatenate([g.ravel() for g in got]),
                            np.concatenate([g.ravel() for g in want_w + want_b])) <= 1e-12, m
        blocked.append(out)
    # The single-row call that certification makes, through the one-block path.
    assert np.array_equal(np.reshape(net.forward(x_all[0]), len(nets)), blocked[0][:, 0])
    monkeypatch.setattr(mpnn, "BLOCK_BYTES", 1 << 30)
    for m, out in zip(sizes, blocked):
        assert np.array_equal(net.forward(x_all[:m]).reshape(len(nets), m), out), m


def test_one_scalar_net_forward_per_layer_and_one_pass_per_block(monkeypatch):
    calls = {"forward": 0, "blocks": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mpnn.ScalarNet, "forward", counted("forward", mpnn.ScalarNet.forward))
    monkeypatch.setattr(mpnn.ScalarNet, "_activations",
                        counted("blocks", mpnn.ScalarNet._activations))
    qs, rs, vs = _random_batch(np.random.default_rng(30), 2, 12)
    # 2 * 132 pair rows in blocks of 128 rows of a layer's stack of four
    # width-16 nets, every live net of both layers in one pass per block
    assert mpnn.BLOCK_BYTES // (8 * 4 * 16) == 128
    _pooled_n12_model().forward(qs, rs, vs)
    assert calls == {"forward": 1, "blocks": 3}


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("readout", [mpnn.READOUT_POSITION, mpnn.READOUT_VELOCITY])
@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_one_scalar_net_call_per_model_forward_and_backward(monkeypatch, mode, readout, layers):
    calls = {"forward": 0, "backward": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in calls:
        monkeypatch.setattr(mpnn.ScalarNet, key, counted(key, getattr(mpnn.ScalarNet, key)))
    model = mpnn.MpnnModel(4, layers=layers, hidden=(5,), mode=mode, readout=readout, seed=layers)
    qs, rs, vs = _random_batch(np.random.default_rng(41), 3, 4)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    model.backward(cache, np.ones_like(out))
    assert calls == {"forward": 1, "backward": 1}
    model.forward(qs[0], rs[0], vs[0])
    assert calls == {"forward": 2, "backward": 1}


@pytest.mark.parametrize("widths, stack", [
    ([8, 16, 16, 1], None), ([8, 16, 16, 1], 4), ([8, 5, 1], None), ([48, 5, 1], 4),
    ([8, 7, 3, 1], 4), ([8, 3000, 1], 4),
])
def test_block_rows_are_the_most_multiple_of_4_that_fit_block_bytes(widths, stack):
    net = mpnn.ScalarNet(widths, stack=stack)
    step = net._rows(np.zeros(widths[0]))[2]
    row_bytes = 8 * (stack or 1) * max(widths[1:])
    assert step % 4 == 0 and step >= 4
    assert step * row_bytes <= mpnn.BLOCK_BYTES or step == 4
    assert (step + 4) * row_bytes > mpnn.BLOCK_BYTES


def test_a_stack_holds_the_nets_built_one_at_a_time():
    stack = mpnn.ScalarNet([6, 5, 3, 1], rng=np.random.default_rng(3), stack=4)
    x = np.random.default_rng(4).standard_normal((100, 6))
    out = stack.forward(x)
    assert out.shape == (4, 100) and stack.forward(x[7]).shape == (4,)
    rng = np.random.default_rng(3)
    for k in range(4):
        net = mpnn.ScalarNet([6, 5, 3, 1], rng=rng)
        for got, want in zip(stack[k].weights + stack[k].biases, net.weights + net.biases):
            assert np.array_equal(got, want)
        assert np.array_equal(stack[k].forward(x), out[k])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_model_keeps_its_nets_as_views_into_its_own_stacks(clone):
    qs, rs, vs = _random_batch(np.random.default_rng(40), 4, 3)
    model = _small_model(mpnn.POOLED, seed=5)
    copied = clone(model)
    out, cache = copied.forward(qs, rs, vs, want_cache=True)
    copied.apply_gradients(copied.backward(cache, np.ones_like(out)), 1e-2)
    trained = copied.forward(qs, rs, vs)
    assert not np.array_equal(trained, out)
    assert np.array_equal(mpnn.MpnnModel.from_dict(copied.to_dict()).forward(qs, rs, vs), trained)
    assert np.array_equal(model.forward(qs, rs, vs), out)


def test_per_net_weights_are_views_into_the_layer_stacks():
    rng = np.random.default_rng(31)
    model = _small_model(mpnn.POOLED)
    qs, rs, vs = _random_system(rng)
    before = model.forward(qs, rs, vs)
    whole = model.stack.weights + model.stack.biases
    for layer, (stack, nets) in enumerate(zip(model.stacks, model.nets)):
        for k, name in enumerate(mpnn.NET_NAMES):
            for view, stacked, one in zip(nets[name].weights + nets[name].biases,
                                          stack.weights + stack.biases, whole):
                assert view.base is one and stacked.base is one
                assert np.array_equal(view, stacked[k]) and np.array_equal(view, one[4 * layer + k])
    model.nets[1]["g_r"].biases[-1] += 0.25
    assert np.all(model.stacks[1].biases[-1][0] == model.nets[1]["g_r"].biases[-1])
    assert np.all(model.stack.biases[-1][4] == model.nets[1]["g_r"].biases[-1])
    assert not np.array_equal(model.forward(qs, rs, vs), before)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_a_model_holds_the_layer_stacks_drawn_one_after_another(mode, layers):
    model = mpnn.MpnnModel(5, layers=layers, hidden=(16, 16), mode=mode,
                           edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=23)
    rng = np.random.default_rng(23)
    assert len(model.stacks) == layers
    for stack in model.stacks:
        drawn = mpnn.ScalarNet(stack.widths, rng=rng, stack=len(mpnn.NET_NAMES))
        for got, want in zip(stack.weights + stack.biases, drawn.weights + drawn.biases):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tag", ["concat", "pooled"])
def test_golden_model_files_load_and_save_byte_for_byte(tmp_path, tag):
    path = DATA / f"golden_{tag}.model.json"
    mpnn.MpnnModel.load(path).save(tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == path.read_bytes()


# Edits of the golden concat model file (2 layers of [16, 6, 6, 1] nets)
# that no longer fit the model it declares.
BAD_NETS = {
    "weight-row-dropped": (lambda nets: nets[0]["g_v"]["weights"][1].pop(),
                           ["layer 0 net g_v weights[1]", "(5, 6)", "(6, 6)"]),
    "bias-entry-added": (lambda nets: nets[1]["gt_r"]["biases"][0].append(0.5),
                         ["layer 1 net gt_r biases[0]", "(7,)", "(6,)"]),
    "one-of-two-layers": (lambda nets: nets.pop(), ["2 layers"]),
    "net-missing": (lambda nets: nets[1].pop("gt_v"), ["layer 1", "g_r, g_v, gt_r, gt_v"]),
    "weight-missing": (lambda nets: nets[0]["g_r"]["weights"].pop(), ["layer 0 net g_r", "3 weights"]),
    "weight-ragged": (lambda nets: nets[1]["g_v"]["weights"][1][0].append(1.0),
                      ["layer 1 net g_v weights[1]", "got a ragged list"]),
    "net-not-an-object": (lambda nets: nets[0].update(g_r=5), ["layer 0 net g_r", "3 weights"]),
    "weights-key-missing": (lambda nets: nets[1]["gt_v"].pop("weights"), ["layer 1 net gt_v", "3 weights"]),
    "biases-not-a-list": (lambda nets: nets[0]["g_v"].update(biases={"0": [0.0]}),
                          ["layer 0 net g_v", "3 biases"]),
}


@pytest.mark.parametrize("case", BAD_NETS)
def test_from_dict_rejects_nets_that_do_not_fit_the_declared_model(case):
    edit, words = BAD_NETS[case]
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    edit(obj["nets"])
    with pytest.raises(ShapeError) as info:
        mpnn.MpnnModel.from_dict(obj)
    assert all(word in str(info.value) for word in words), str(info.value)


# Edits of the golden concat model file whose fields other than the nets
# do not have their type.
BAD_FIELDS = {
    "n-particles-a-string": (lambda m: m.update(n_particles="4"),
                             "n_particles must be an integer >= 1, got '4'"),
    "n-particles-missing": (lambda m: m.pop("n_particles"), "n_particles must be an integer >= 1, got None"),
    "nets-missing": (lambda m: m.pop("nets"), "nets must be a list of 2 layers, one per model layer"),
    "layers-a-float": (lambda m: m.update(layers=2.0), "layers must be an integer >= 1, got 2.0"),
    "layers-a-bool": (lambda m: m.update(layers=True), "layers must be an integer >= 1, got True"),
    "hidden-a-string": (lambda m: m.update(hidden="16"), "hidden must be a list of integers >= 1, got '16'"),
    "hidden-a-float-width": (lambda m: m.update(hidden=[16.5, 16]),
                             "hidden must be a list of integers >= 1, got [16.5, 16]"),
    "hidden-a-bool-width": (lambda m: m.update(hidden=[True, 6]),
                            "hidden must be a list of integers >= 1, got [True, 6]"),
    "activation-a-number": (lambda m: m.update(activation=3), "activation must be one of 'tanh', 'softplus', got 3"),
    "mode-a-list": (lambda m: m.update(mode=["concat"]), "mode must be one of 'concat', 'pooled', got ['concat']"),
    "readout-null": (lambda m: m.update(readout=None), "readout must be one of 'position', 'velocity', got None"),
    "edge-config-a-list": (lambda m: m.update(edge_config=[]), "edge_config must be an object, got []"),
    "inv-sqrt-an-integer": (lambda m: m["edge_config"].update(include_inv_sqrt=1),
                            "edge_config.include_inv_sqrt must be true or false, got 1"),
    "rbf-centers-a-number": (lambda m: m["edge_config"].update(rbf_centers=0.5),
                             "edge_config.rbf_centers must be a list of finite numbers, got 0.5"),
    "rbf-centers-hold-a-bool": (lambda m: m["edge_config"].update(rbf_centers=[False]),
                                "edge_config.rbf_centers must be a list of finite numbers, got [False]"),
    "rbf-width-a-string": (lambda m: m["edge_config"].update(rbf_width="0.5"),
                           "edge_config.rbf_width must be a finite number > 0, got '0.5'"),
    "rbf-width-a-bool": (lambda m: m["edge_config"].update(rbf_width=True),
                         "edge_config.rbf_width must be a finite number > 0, got True"),
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_from_dict_names_a_field_of_the_wrong_type(case):
    edit, message = BAD_FIELDS[case]
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    edit(obj)
    with pytest.raises(ShapeError) as info:
        mpnn.MpnnModel.from_dict(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("net, kind, idx, value", [
    ("g_r", "biases", 0, float("nan")), ("gt_v", "weights", 2, float("inf")), ("g_v", "biases", 2, -float("inf")),
])
def test_from_dict_rejects_non_finite_weights_naming_the_array(net, kind, idx, value):
    obj = json.loads((DATA / "golden_concat.model.json").read_text())
    array = obj["nets"][1][net][kind][idx]
    if isinstance(array[0], list):
        array[0][0] = value
    else:
        array[0] = value
    message = rf"^layer 1 net {net} {kind}\[{idx}\] must be a finite array of shape .+, got {value} at index "
    with pytest.raises(NonFiniteError, match=message):
        mpnn.MpnnModel.from_dict(json.loads(json.dumps(obj)))


def test_from_dict_rejects_a_saved_model_that_is_not_an_object():
    with pytest.raises(ShapeError, match="a saved model must be an object, got list"):
        mpnn.MpnnModel.from_dict([])


def _pooled_n12_model():
    return mpnn.MpnnModel(
        12, layers=2, hidden=(16, 16), mode=mpnn.POOLED,
        edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=808,
    )


def test_training_memory_stays_near_one_sgd_step():
    # Keeping every net's activations for all 32 * 132 pairs of a batch from
    # forward to backward peaks near 16 MB here; recomputing them per net in
    # backward over the whole batch peaked near 4.0 MB, and over row blocks
    # near 1.6 MB.
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
    # blocks with their bias tiles at 0.94 MB.
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


@pytest.mark.parametrize("c", [0.0, 1e-200], ids=["c-zero", "c-squared-underflows"])
def test_a_c_that_makes_the_targets_not_finite_is_refused(c):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match=f"^k = 1.0 and c = {c!r} give force targets that are not finite$"):
            mpnn.generate_dataset(np.random.default_rng(0), 3, 2, c=c)
    assert caught == []


def test_a_c_past_float64_range_leaves_the_coulomb_targets():
    ds = mpnn.generate_dataset(np.random.default_rng(0), 3, 2, c=1e200)
    delta = ds.rs[:, :, None] - ds.rs[:, None]  # (S, n, n, 3)
    dist = np.linalg.norm(delta, axis=-1)
    dist[:, range(3), range(3)] = np.inf
    coulomb = (ds.qs[:, :, None, None] * ds.qs[:, None, :, None] * delta / dist[..., None] ** 3).sum(axis=2)
    np.testing.assert_allclose(ds.targets, coulomb, rtol=1e-12)


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


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_train_builds_edge_features_once_per_sample_and_runs_every_batch_through_the_public_calls(monkeypatch, mode):
    # The benchmark's spans count these calls, and its work count reads "n"
    # from backward's cache.
    calls = {"edge_features": 0, "evaluate_mse": 0, "forward": 0, "backward": 0, "apply_gradients": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "backward":
                assert args[1]["n"] == 3
            return fn(*args, **kwargs)
        return wrapper

    for name in ("edge_features", "evaluate_mse"):
        monkeypatch.setattr(mpnn, name, spy(name, getattr(mpnn, name)))
    for name in ("forward", "backward", "apply_gradients"):
        monkeypatch.setattr(mpnn.MpnnModel, name, spy(name, getattr(mpnn.MpnnModel, name)))
    ds = mpnn.generate_dataset(np.random.default_rng(17), 3, 20)
    mpnn.train(_small_model(mode), ds, mpnn.TrainConfig(epochs=2, lr=1e-3, batch_size=4, seed=3))
    # The 20 samples are built once, four at a time, not once per forward.
    # 4 validation samples, one batch, and 16 training samples, four: epoch 0
    # evaluates both splits, and each epoch steps four times and evaluates one.
    assert calls == {"edge_features": 5, "evaluate_mse": 2 + 2, "forward": 5 + 2 * 5, "backward": 2 * 4,
                     "apply_gradients": 2 * 4}


def test_train_refuses_a_coincident_pair_before_any_sgd_step(monkeypatch):
    steps = []
    monkeypatch.setattr(mpnn.MpnnModel, "apply_gradients", lambda *args: steps.append(args))
    ds = mpnn.generate_dataset(np.random.default_rng(17), 3, 20)
    ds.rs[-1, 1] = ds.rs[-1, 0]
    with pytest.raises(DegenerateInputError, match="^coincident positions with the inverse-sqrt channel enabled$"):
        mpnn.train(_small_model(mpnn.POOLED), ds, mpnn.TrainConfig(epochs=2, batch_size=4, seed=3))
    assert steps == []


@pytest.mark.parametrize("n_samples, batch_size", [(1, 32), (10, 0)])
def test_train_rejects_no_training_samples_or_empty_batches(n_samples, batch_size):
    ds = mpnn.generate_dataset(np.random.default_rng(25), 3, n_samples)
    with pytest.raises(ShapeError):
        mpnn.train(_small_model(mpnn.POOLED), ds, mpnn.TrainConfig(epochs=1, batch_size=batch_size))


@pytest.mark.parametrize("lr, final_val", [(1e200, "nan"), (1e50, "huge")])
def test_train_aborts_quietly_when_only_the_val_mse_diverges(lr, final_val, recwarn, capfd):
    # One step leaves the train MSE (taken before the step) finite and small;
    # the val MSE after it is NaN or about 2e204.
    ds = mpnn.generate_dataset(np.random.default_rng(1), 3, 10)
    report = mpnn.train(mpnn.MpnnModel(3, hidden=(4,), seed=1), ds, mpnn.TrainConfig(epochs=1, lr=lr))
    (_, train_mse, val_mse), = report.epochs[1:]
    assert train_mse < mpnn.DIVERGENCE_LIMIT
    assert np.isnan(val_mse) if final_val == "nan" else val_mse > 1e200
    assert report.aborted
    assert len(recwarn) == 0 and capfd.readouterr().err == ""


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 2.5, "epochs must be an integer"),
    ("epochs", True, "epochs must be an integer"),
    ("batch_size", 2.5, "batch_size must be an integer"),
    ("batch_size", False, "batch_size must be an integer"),
    ("lr", float("nan"), "lr must be a finite number"),
    ("lr", float("inf"), "lr must be a finite number"),
    ("lr", "0.1", "lr must be a finite number"),
    ("lr", True, "lr must be a finite number"),
    ("val_fraction", float("nan"), "val_fraction must be a finite number in"),
    ("val_fraction", -0.5, "val_fraction must be a finite number in"),
    ("val_fraction", 1.0, "val_fraction must be a finite number in"),
    ("val_fraction", None, "val_fraction must be a finite number in"),
    ("stop_at_val_ratio", -1.0, "stop_at_val_ratio must be None or a finite number"),
    ("stop_at_val_ratio", float("inf"), "stop_at_val_ratio must be None or a finite number"),
    ("stop_at_val_ratio", "0.5", "stop_at_val_ratio must be None or a finite number"),
])
def test_train_config_fields_are_checked_when_built(field, value, message):
    with pytest.raises(ShapeError, match=message):
        mpnn.TrainConfig(**{field: value})


def test_train_config_accepts_every_field_at_its_bounds():
    mpnn.TrainConfig(epochs=0, lr=-1e-3, batch_size=1, val_fraction=0.0, stop_at_val_ratio=0.0)
    mpnn.TrainConfig(epochs=np.int64(3), lr=np.float64(1e-2), batch_size=np.int32(8), val_fraction=0.99,
                     stop_at_val_ratio=None)


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
    (lambda: mpnn.MpnnModel(3, hidden=(4, 0)), "hidden"),
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


@pytest.mark.parametrize("build, field", [
    (lambda: mpnn.ScalarNet([1]), "widths"),
    (lambda: mpnn.ScalarNet([3, 1], stack=0), "stack"),
    (lambda: mpnn.ScalarNet([3, 1], stack=-1), "stack"),
    (lambda: mpnn.ScalarNet([3, 1], stack=2.5), "stack"),
    (lambda: mpnn.MpnnModel(0, mode=mpnn.POOLED), "n_particles"),
    (lambda: mpnn.MpnnModel(0, mode=mpnn.CONCAT), "n_particles"),
], ids=["scalar-net-one-width", "stack-0", "stack-negative", "stack-not-integer",
        "pooled-n-0", "concat-n-0"])
def test_a_shape_no_net_can_have_is_rejected_when_built(build, field):
    with pytest.raises(ShapeError, match=field):
        build()


@pytest.mark.parametrize("readout", [mpnn.READOUT_POSITION, mpnn.READOUT_VELOCITY])
@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_one_particle_gets_no_messages(mode, readout):
    model = _small_model(mode, n=1, readout=readout)
    qs, rs, vs = _random_system(np.random.default_rng(34), 1)
    out, cache = model.forward(qs, rs, vs, want_cache=True)
    # Unchanged hidden channels: the centred position is 0, the velocity itself.
    assert np.array_equal(out, np.zeros((1, 3)) if readout == mpnn.READOUT_POSITION else vs)
    assert not np.any(_flat_grads(model, model.backward(cache, np.ones((1, 3)))))


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_an_empty_batch_gives_an_empty_output_and_zero_gradients(mode):
    model = _small_model(mode, n=4)
    out, cache = model.forward(np.zeros((0, 4)), np.zeros((0, 4, 3)), np.zeros((0, 4, 3)),
                               want_cache=True)
    assert out.shape == (0, 4, 3)
    grads = _flat_grads(model, model.backward(cache, out))
    assert grads.size == sum(arr.size for *_, arr in model.parameters())
    assert not np.any(grads)


def test_from_dict_draws_no_random_weights(monkeypatch):
    class NoDraws(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("from_dict drew random weights")

    obj = json.loads((DATA / "golden_pooled.model.json").read_text())
    monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws(np.random.PCG64()))
    with pytest.raises(AssertionError):
        mpnn.MpnnModel(3)
    assert mpnn.MpnnModel.from_dict(obj).to_dict() == obj


# -- one sample alone and in a batch -------------------------------------------


def _alone_and_batched(n, mode):
    model = mpnn.MpnnModel(n, layers=2, hidden=(16, 16), mode=mode,
                           edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=1)
    data = mpnn.generate_dataset(np.random.default_rng(2), n, 64)
    batch = model.forward(data.qs, data.rs, data.vs)
    alone = np.array([model.forward(data.qs[i], data.rs[i], data.vs[i]) for i in range(64)])
    return model, data, batch, alone


@pytest.mark.parametrize("n, mode", [(4, mpnn.CONCAT), (4, mpnn.POOLED), (5, mpnn.POOLED)])
def test_one_sample_gives_its_batch_bits_when_its_net_rows_are_a_multiple_of_four(n, mode):
    _, _, batch, alone = _alone_and_batched(n, mode)
    assert alone.tobytes() == batch.tobytes()


def test_a_concat_sample_of_five_rows_differs_from_its_batch_only_by_rounding():
    # One concat sample at n = 5 is 5 net input rows: the output layer's BLAS
    # matrix-vector product takes 4 rows at a time and the fifth by another
    # kernel, while in the batch every row is in a group of four. Padding the
    # sample's rows to 8 gives each row its bits in the batch.
    model, data, batch, alone = _alone_and_batched(5, mpnn.CONCAT)
    assert np.max(np.abs(alone - batch)) <= 1e-13 * np.max(np.abs(batch))
    e = mpnn.edge_features(data.qs, data.rs, data.vs, model.edge_config)
    rows = model._net_input(e, mpnn._off_diagonal(5)).reshape(64 * 5, -1)
    stack = model.stacks[0]
    in_batch = stack.forward(rows)
    for i in range(63):
        padded = stack.forward(rows[5 * i:5 * i + 8])[:, :5]
        assert padded.tobytes() == in_batch[:, 5 * i:5 * i + 5].tobytes()
