"""Scalar-coefficient message passing for charged-particle force regression.

Per layer, four scalar networks give pair coefficients that multiply
hidden-vector differences of the position channel h_r and velocity channel h_v:

    m_r_i = sum_{j != i} g_r(i, j) (h_r_i - h_r_j) + sum_{j != i} g_v(i, j) (h_v_i - h_v_j)
    m_v_i = sum_{j != i} gt_r(i, j) (h_r_i - h_r_j) + sum_{j != i} gt_v(i, j) (h_v_i - h_v_j)

with residual updates h <- h + m. The networks consume only invariant edge
scalars, so rotation equivariance, translation invariance, and permutation
equivariance hold by construction. In "concat" mode every pair (i, j) gets
g(E_i), where E_i is the full set {e_i1, ..., e_in} concatenated in canonical
(sorted) block order, so the input does not depend on particle numbering;
"pooled" mode feeds (e_ij, sum_k e_ik) per pair to decouple the width from n.

Both modes share one message kernel, applied to a whole minibatch per call:
each net fills a (B, n, n) pair-coefficient matrix G with a zero diagonal,
and m_i = rowsum(G)_i h_i - (G h)_i. Its reverse is dG_ij = dm_i . (h_i - h_j)
and dh += rowsum(G) dm - G^T dm. The four matrices of a layer are stacked as
(2, 2, B, n, n), indexed by message channel and hidden channel, so that each
of these is one array expression per layer. `MpnnModel.forward` takes one
sample, (n,) charges with (n, 3) positions and velocities, or stacks (B, n)
and (B, n, 3). Its cache keeps only the net input rows z, the G matrices and
each layer's input h: keeping the nets' activations would hold every hidden
layer for every pair of the minibatch at once (about four times the peak
memory of a training step at n = 12). `ScalarNet.backward` recomputes them
from z one row block at a time and drops each block's before the next
(gradient checkpointing per block). Everything is float64 numpy with
hand-rolled reverse-mode gradients.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import _read_only
from .errors import DegenerateInputError, ShapeError
from .physics import Particle, em_force_scalar

CONCAT = "concat"
POOLED = "pooled"

READOUT_POSITION = "position"
READOUT_VELOCITY = "velocity"


# -- edge features -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeConfig:
    include_inv_sqrt: bool = False
    rbf_centers: tuple = ()
    rbf_width: float = 0.5

    @property
    def dim(self) -> int:
        return 3 + int(self.include_inv_sqrt) + len(self.rbf_centers)


def edge_features(qs, rs, vs, config: EdgeConfig = EdgeConfig()) -> np.ndarray:
    """(..., n, n, C) invariant scalars per ordered pair, for (..., n)
    charges and (..., n, 3) positions and velocities; diagonal entries use
    delta = 0 (the inverse channel is defined as 0 there)."""
    qs = np.asarray(qs, dtype=np.float64)
    rs = np.asarray(rs, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    if qs.ndim == 0 or rs.shape != (*qs.shape, 3) or vs.shape != rs.shape:
        raise ShapeError(
            f"expected positions and velocities of shape {(*qs.shape, 3)}, "
            f"got {rs.shape} and {vs.shape}"
        )
    delta = rs[..., :, None, :] - rs[..., None, :, :]
    dist_sq = np.einsum("...ijk,...ijk->...ij", delta, delta)
    channels = [
        qs[..., :, None] * qs[..., None, :],
        vs @ np.swapaxes(vs, -1, -2),
        dist_sq,
    ]
    if config.include_inv_sqrt:
        off_diag = _off_diagonal(qs.shape[-1])
        if np.any(dist_sq[..., off_diag] == 0.0):
            raise DegenerateInputError(
                "coincident positions with the inverse-sqrt channel enabled"
            )
        inv = np.zeros_like(dist_sq)
        inv[..., off_diag] = dist_sq[..., off_diag] ** -0.5
        channels.append(inv)
    if config.rbf_centers:
        dist = np.sqrt(dist_sq)
        for c in config.rbf_centers:
            channels.append(np.exp(-((dist - c) ** 2) / (2.0 * config.rbf_width**2)))
    return np.stack(channels, axis=-1)


def _off_diagonal(n):
    """The (n, n) mask ~eye(n): kept read-only for n <= 32, else built."""
    return _OFF_DIAGONAL[n] if n < len(_OFF_DIAGONAL) else ~np.eye(n, dtype=bool)


_OFF_DIAGONAL = [_read_only(~np.eye(n, dtype=bool)) for n in range(33)]


def _sorted_blocks(e: np.ndarray) -> np.ndarray:
    """(..., n, n * C): each node's rows e[..., i, :, :] flattened in
    lexicographic order, making the result a function of the row multiset
    rather than the row order."""
    order = np.lexsort(np.moveaxis(e, -1, 0)[::-1], axis=-1)
    return np.take_along_axis(e, order[..., None], axis=-2).reshape(*e.shape[:-2], -1)


def _pair_matrix(vals, shape, off):
    """(..., B, n, n) pair coefficients with zero diagonals from net outputs
    (..., B * n * k) on input rows of shape (B, n, k, W): k = n - 1 gives one
    value per ordered pair, k = 1 one value per node that fills its row."""
    b, n, k = shape[:3]
    lead = vals.shape[:-1]
    g = np.zeros((*lead, b, n, n))
    if k == 1:
        vals = np.repeat(vals, n - 1, axis=-1)
    g[..., off] = vals.reshape(*lead, b, n * (n - 1))
    return g


def _row_grads(dg, shape, off):
    """Adjoint of _pair_matrix: per-row output gradients (..., B * n * k)
    from (..., B, n, n) pair-coefficient gradients."""
    b, n, k = shape[:3]
    lead = dg.shape[:-3]
    d = dg[..., off].reshape(*lead, b * n, n - 1)
    return d.sum(axis=-1) if k == 1 else d.reshape(*lead, -1)


# -- scalar feedforward net ---------------------------------------------------


def _act(name, x):
    """Apply the activation to x in place and return it."""
    if name == "tanh":
        return np.tanh(x, out=x)
    if name == "softplus":
        return np.logaddexp(0.0, x, out=x)
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name, a):
    """Activation derivative as a new array, written in terms of the
    activation output a."""
    if name == "tanh":
        g = np.square(a)
        return np.subtract(1.0, g, out=g)
    if name == "softplus":
        g = np.expm1(np.negative(a))  # sigmoid(x) = 1 - exp(-softplus(x))
        return np.negative(g, out=g)
    raise ValueError(f"unknown activation {name!r}")


# Bytes of one float64 temporary of a net's hidden layer (512 rows at width
# 16). A temporary this small stays in L2 and below glibc's 128 KiB mmap
# threshold, so it is reused from the heap instead of page-faulted in afresh
# on every call; sized in bytes, a wider net takes fewer rows per block.
BLOCK_BYTES = 64 * 1024


class ScalarNet:
    """Fully connected net with scalar output, run on its input rows in
    blocks of BLOCK_BYTES per hidden-layer temporary. `backward` stores
    nothing from `forward`: it recomputes each block's activations from the
    input rows and adds the block's gradients to the totals."""

    def __init__(self, widths, activation="tanh", rng=None):
        if any(w < 1 for w in widths):
            raise ShapeError(f"widths must be at least 1, got {list(widths)}")
        if widths[-1] != 1:
            raise ShapeError("scalar net output width must be 1")
        if activation not in ("tanh", "softplus"):
            raise ValueError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.activation = activation
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in))
            self.biases.append(np.zeros(fan_out))

    def _rows(self, x):
        """(m, in_width) float64 rows of x (one row for a 1-d x), whether x
        is 1-d, and the row step of a block, read from BLOCK_BYTES."""
        a = np.asarray(x, dtype=np.float64)
        single = a.ndim == 1
        if a.ndim < 2:
            a = a.reshape(1, -1)
        if a.shape[1] != self.widths[0]:
            raise ShapeError(f"net expects input width {self.widths[0]}, got {a.shape[1]}")
        return a, single, max(1, BLOCK_BYTES // (8 * max(self.widths[1:])))

    def _activations(self, a, layers=None):
        """Outputs of the rows a through the first ``layers`` layers (all of
        them by default), input first."""
        activations = [a]
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights[:layers], self.biases[:layers])):
            a = a @ w.T
            a += b
            if layer != last:
                _act(self.activation, a)
            activations.append(a)
        return activations

    def forward(self, x):
        """Value on one input vector (a float) or on each row of an
        (m, in_width) stack (an (m,) array)."""
        a, single, step = self._rows(x)
        out = self._activations(a[:step])[-1][:, 0]
        if len(a) > step:
            out = np.concatenate([out] + [self._activations(a[start:start + step])[-1][:, 0]
                                          for start in range(step, len(a), step)])
        return float(out[0]) if single else out

    def backward(self, x, dscalar):
        """Parameter gradients (weights, biases) for d(loss)/d(output) =
        dscalar on the input rows x, summed over the rows."""
        a, _, step = self._rows(x)
        dscalar = np.atleast_1d(np.asarray(dscalar, dtype=np.float64))
        last = len(self.weights) - 1
        grads_w, grads_b = [0.0] * (last + 1), [0.0] * (last + 1)
        for start in range(0, max(len(a), 1), step):
            rows = slice(start, start + step)
            # The output layer's value is never read: only its gradient.
            activations = self._activations(a[rows], last)
            delta = dscalar[rows, None]
            for layer in reversed(range(last + 1)):
                if layer != last:
                    g = _act_grad(self.activation, activations[layer + 1])
                    g *= delta
                    delta = g
                grads_w[layer] = grads_w[layer] + delta.T @ activations[layer]
                grads_b[layer] = grads_b[layer] + delta.sum(axis=0)
                if layer:
                    delta = delta @ self.weights[layer]
        return grads_w, grads_b


# In this order the nets' pair matrices stack as G[m channel, h channel],
# channel 0 being position and 1 velocity.
NET_NAMES = ("g_r", "g_v", "gt_r", "gt_v")


class MpnnModel:
    """T message-passing layers, four scalar nets per layer, weights shared
    across nodes and pairs (permutation equivariance by construction)."""

    def __init__(
        self,
        n_particles,
        layers=2,
        hidden=(16, 16),
        activation="tanh",
        mode=CONCAT,
        edge_config=EdgeConfig(),
        readout=READOUT_POSITION,
        seed=0,
    ):
        if layers < 1:
            raise ShapeError(f"layers must be at least 1, got {layers}")
        if mode not in (CONCAT, POOLED):
            raise ValueError(f"unknown mode {mode!r}")
        if readout not in (READOUT_POSITION, READOUT_VELOCITY):
            raise ValueError(f"unknown readout {readout!r}")
        self.n_particles = n_particles
        self.layers = layers
        self.mode = mode
        self.edge_config = edge_config
        self.readout = readout
        self.activation = activation
        self.hidden = tuple(hidden)
        in_width = (
            edge_config.dim * n_particles if mode == CONCAT else 2 * edge_config.dim
        )
        rng = np.random.default_rng(seed)
        self.nets = [
            {
                name: ScalarNet([in_width, *hidden, 1], activation, rng)
                for name in NET_NAMES
            }
            for _ in range(layers)
        ]

    # -- forward ---------------------------------------------------------

    def _net_input(self, e, off):
        """(B, n, k, W) net input rows from (B, n, n, C) edge features: one
        row per ordered pair (k = n - 1) in pooled mode, one per node (k = 1)
        in concat mode."""
        if self.mode == CONCAT:
            # z_i is the multiset {e_i1..e_in} concatenated in a canonical
            # (lexicographically sorted) block order, so that reordering
            # the particles cannot change the net input.
            return _sorted_blocks(e)[:, :, None, :]
        b, n = e.shape[:2]
        pooled = np.broadcast_to(e.sum(axis=2, keepdims=True), e.shape)
        return np.concatenate([e, pooled], axis=-1)[:, off].reshape(b, n, n - 1, -1)

    def forward(self, qs, rs, vs, want_cache=False):
        """Output vectors: (n, 3) for one sample given as (n,) charges and
        (n, 3) positions and velocities, (B, n, 3) for stacks of B samples.
        With want_cache, returns (output, cache) for `backward`."""
        qs = np.asarray(qs, dtype=np.float64)
        rs = np.asarray(rs, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        single = qs.ndim == 1
        if single:
            qs, rs, vs = qs[None], rs[None], vs[None]
        if qs.ndim != 2:
            raise ShapeError(f"expected (n,) or (B, n) charges, got shape {qs.shape}")
        n = qs.shape[1]
        if self.mode == CONCAT and n != self.n_particles:
            raise ShapeError(
                f"concat-mode model built for n={self.n_particles}, got n={n}"
            )
        off = _off_diagonal(n)
        z = self._net_input(edge_features(qs, rs, vs, self.edge_config), off)
        rows = z.reshape(-1, z.shape[-1])
        h = np.stack([rs - rs.mean(axis=1, keepdims=True), vs])  # (2, B, n, 3)
        cache = {"n": n, "z": z, "h": [], "G": []}
        for nets in self.nets:
            vals = np.stack([nets[name].forward(rows) for name in NET_NAMES])
            g = _pair_matrix(vals.reshape(2, 2, -1), z.shape, off)  # (2, 2, B, n, n)
            if want_cache:
                cache["h"].append(h)
                cache["G"].append(g)
            # m_i = sum_j G_ij (h_i - h_j), summed over both h channels
            h = h + (g.sum(axis=-1)[..., None] * h - g @ h).sum(axis=1)
        out = h[0 if self.readout == READOUT_POSITION else 1]
        if single:
            out = out[0]
        if want_cache:
            return out, cache
        return out

    # -- backward ----------------------------------------------------------

    def backward(self, cache, dout):
        """Reverse-mode parameter gradients for upstream d(loss)/d(output),
        summed over the samples of the cached forward. Each net recomputes
        its activations from the cached input rows, one block at a time."""
        z = cache["z"]
        rows = z.reshape(-1, z.shape[-1])
        off = _off_diagonal(cache["n"])
        dh = np.zeros((2, *z.shape[:2], 3))
        dh[0 if self.readout == READOUT_POSITION else 1] = dout
        grads = [{} for _ in range(self.layers)]
        for layer in reversed(range(self.layers)):
            h, g, nets = cache["h"][layer], cache["G"][layer], self.nets[layer]
            dm = dh[:, None]  # residual update: gradient reaches both h and m
            # dG_ij = dm_i . (h_i - h_j);  dh += rowsum(G) dm - G^T dm
            dg = (dm * h).sum(axis=-1)[..., None] - dm @ np.swapaxes(h, -1, -2)
            dh = dh + (g.sum(axis=-1)[..., None] * dm - np.swapaxes(g, -1, -2) @ dm).sum(axis=0)
            for name, dvals in zip(NET_NAMES, _row_grads(dg, z.shape, off).reshape(4, -1)):
                grads[layer][name] = nets[name].backward(rows, dvals)
        return grads

    # -- parameter access --------------------------------------------------

    def parameters(self):
        """Flat list of (layer, name, 'w'|'b', index, array) views."""
        out = []
        for layer in range(self.layers):
            for name in NET_NAMES:
                net = self.nets[layer][name]
                for idx, w in enumerate(net.weights):
                    out.append((layer, name, "w", idx, w))
                for idx, b in enumerate(net.biases):
                    out.append((layer, name, "b", idx, b))
        return out

    def apply_gradients(self, grads, lr):
        for layer in range(self.layers):
            for name in NET_NAMES:
                net = self.nets[layer][name]
                gw, gb = grads[layer][name]
                for w, g in zip(net.weights, gw):
                    w -= lr * g
                for b, g in zip(net.biases, gb):
                    b -= lr * g

    def to_dict(self):
        return {
            "n_particles": self.n_particles,
            "layers": self.layers,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "mode": self.mode,
            "readout": self.readout,
            "edge_config": {
                "include_inv_sqrt": self.edge_config.include_inv_sqrt,
                "rbf_centers": list(self.edge_config.rbf_centers),
                "rbf_width": self.edge_config.rbf_width,
            },
            "nets": [
                {
                    name: {
                        "weights": [w.tolist() for w in self.nets[layer][name].weights],
                        "biases": [b.tolist() for b in self.nets[layer][name].biases],
                    }
                    for name in NET_NAMES
                }
                for layer in range(self.layers)
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        cfg = obj["edge_config"]
        model = cls(
            obj["n_particles"],
            layers=obj["layers"],
            hidden=tuple(obj["hidden"]),
            activation=obj["activation"],
            mode=obj["mode"],
            edge_config=EdgeConfig(
                cfg["include_inv_sqrt"], tuple(cfg["rbf_centers"]), cfg["rbf_width"]
            ),
            readout=obj["readout"],
        )
        for layer, nets in enumerate(obj["nets"]):
            for name in NET_NAMES:
                model.nets[layer][name].weights = [
                    np.asarray(w, dtype=np.float64) for w in nets[name]["weights"]
                ]
                model.nets[layer][name].biases = [
                    np.asarray(b, dtype=np.float64) for b in nets[name]["biases"]
                ]
        return model

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# -- dataset -------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    qs: np.ndarray  # (S, n)
    rs: np.ndarray  # (S, n, 3)
    vs: np.ndarray  # (S, n, 3)
    targets: np.ndarray  # (S, n, 3)

    @property
    def size(self):
        return self.qs.shape[0]


MIN_SEPARATION = 0.1
MAX_REJECTION_ATTEMPTS = 10000


def generate_dataset(rng, n_particles: int, n_samples: int, k=1.0, c=1.0) -> Dataset:
    """Random charged configurations with per-particle force targets.

    Positions uniform in [-1, 1]^3 with minimum pairwise distance 0.1
    (whole-configuration rejection), velocities Gaussian sigma 0.3, charges
    uniform in {-1, +1}. Targets recompute exactly as em_force_scalar.
    """
    if n_particles < 2:
        raise ShapeError("need at least 2 particles")
    qs = np.empty((n_samples, n_particles))
    rs = np.empty((n_samples, n_particles, 3))
    vs = np.empty((n_samples, n_particles, 3))
    targets = np.empty((n_samples, n_particles, 3))
    for s in range(n_samples):
        for attempt in range(MAX_REJECTION_ATTEMPTS + 1):
            if attempt == MAX_REJECTION_ATTEMPTS:
                raise DegenerateInputError(
                    f"rejection sampling failed after {MAX_REJECTION_ATTEMPTS} attempts"
                )
            pos = rng.uniform(-1.0, 1.0, size=(n_particles, 3))
            dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
            np.fill_diagonal(dists, np.inf)
            if dists.min() >= MIN_SEPARATION:
                break
        qs[s] = rng.choice([-1.0, 1.0], size=n_particles)
        rs[s] = pos
        vs[s] = rng.normal(0.0, 0.3, size=(n_particles, 3))
        targets[s] = forces_for(qs[s], rs[s], vs[s], k, c)
    return Dataset(qs, rs, vs, targets)


def forces_for(qs, rs, vs, k=1.0, c=1.0) -> np.ndarray:
    """Per-particle electromagnetic force from the scalar-form law."""
    parts = [Particle(r, v, charge=q) for q, r, v in zip(qs, rs, vs)]
    out = np.empty((len(parts), 3))
    for i, p in enumerate(parts):
        out[i] = em_force_scalar(p, parts[:i] + parts[i + 1 :], k, c)
    return out


# -- training -------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.2
    # Stop once val MSE <= ratio * epoch-0 val MSE (None = run all epochs).
    stop_at_val_ratio: float | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ShapeError(f"epochs must be at least 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ShapeError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # (epoch, train_mse, val_mse)
    aborted: bool = False

    @property
    def initial_val(self):
        return self.epochs[0][2]

    @property
    def final_val(self):
        return self.epochs[-1][2]


DIVERGENCE_LIMIT = 1e6


def mse_loss(pred, target):
    diff = pred - target
    return float(np.mean(diff * diff))


def evaluate_mse(model, dataset, indices, batch_size=TrainConfig.batch_size):
    """Mean per-sample force MSE over `indices`, evaluated `batch_size`
    samples per forward call."""
    if len(indices) == 0:
        raise ShapeError("no samples to evaluate")
    total = 0.0
    for start in range(0, len(indices), batch_size):
        batch = indices[start : start + batch_size]
        pred = model.forward(dataset.qs[batch], dataset.rs[batch], dataset.vs[batch])
        total += mse_loss(pred, dataset.targets[batch]) * len(batch)
    return total / len(indices)


def train(model: MpnnModel, dataset: Dataset, config: TrainConfig, on_epoch=None) -> TrainReport:
    """Plain SGD on per-particle force MSE; deterministic given the seed.

    ``on_epoch(epoch, model)``, when given, runs after each epoch's losses are
    recorded, epoch 0 (the untrained model) included.

    Raises ShapeError when the validation split leaves no training sample.
    """
    n_val = max(1, int(round(dataset.size * config.val_fraction)))
    if n_val >= dataset.size:
        raise ShapeError(
            f"{dataset.size} samples leave none for training after {n_val} for validation"
        )
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(dataset.size)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    report = TrainReport()
    val0 = evaluate_mse(model, dataset, val_idx, config.batch_size)
    train0 = evaluate_mse(model, dataset, train_idx, config.batch_size)
    report.epochs.append((0, train0, val0))
    if on_epoch is not None:
        on_epoch(0, model)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            pred, cache = model.forward(
                dataset.qs[batch], dataset.rs[batch], dataset.vs[batch], want_cache=True
            )
            diff = pred - dataset.targets[batch]
            epoch_loss += float(np.mean(diff * diff)) * len(batch)
            # d(mean over the batch of per-sample MSE)/d(pred)
            model.apply_gradients(model.backward(cache, 2.0 * diff / diff.size), config.lr)
        train_mse = epoch_loss / len(order)
        val_mse = evaluate_mse(model, dataset, val_idx, config.batch_size)
        report.epochs.append((epoch, train_mse, val_mse))
        if on_epoch is not None:
            on_epoch(epoch, model)
        if train_mse > DIVERGENCE_LIMIT or not np.isfinite(train_mse):
            report.aborted = True
            break
        if config.stop_at_val_ratio is not None and val_mse <= config.stop_at_val_ratio * val0:
            break
    return report
