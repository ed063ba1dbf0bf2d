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
of these is one array expression per layer. The nets of every layer read
the same input rows z, since only the hidden vectors h pass messages, so
all 4 * layers nets are one `ScalarNet` stack, layer by layer in NET_NAMES
order, with (4 * layers, out, in) weights and (4 * layers, out) biases,
the model's only parameter store: each read of `stacks[layer]` (a layer's
four) or `nets[layer][name]` (one net) makes views into it, for parameter
access and the saved-model format. The output is one channel c of the
last layer (c = 0, position, or 1, velocity, by the readout), so that
layer computes the message and dG of channel c alone, and its other two
nets never reach the output. So one
`forward` call runs the live nets, every net but those two, gathered by a
fixed index, and gives the coefficients of every layer at once; the layer
loop then makes only the message updates. `backward` first runs every
layer's message adjoint, then one `backward` call of the live nets gives
their gradients, returned as `ScalarNet.backward` returns them, (weights,
biases) shaped as the stack's, with zero rows for the two dead nets: net
`name` of a layer is row 4 * layer + NET_NAMES.index(name), and an SGD step
is one in-place update per stack array. The stack cuts its rows into the
blocks of one layer's four nets, so every net meets the arithmetic of a
layer stack run on its own, bit for bit. `backward` does not update the
input gradient dh below layer 0, where nothing reads it.
`MpnnModel.forward` takes one sample, (n,) charges with (n, 3)
positions and velocities, or stacks (B, n) and (B, n, 3). What its pass
reads of them, the net input rows z and the layer-0 hidden vectors, does
not depend on the weights, so `train` reads its dataset once, at its
start: it builds every sample's inputs a batch of samples at a time into
one array and keeps them for the whole call, samples x rows per sample x
input width x 8 bytes of rows: 0.54 MB for 64 pooled samples at n = 12
with the inverse channel, 1.5 MB for acceptance criterion 8's 2000 at
n = 4. The cache of `forward` keeps only the net
input rows z, the G matrices and each layer's input h: keeping the nets'
activations would hold every hidden layer for every pair of the minibatch
at once (about four times the peak memory of a training step at n = 12).
`ScalarNet.backward` recomputes them from z one row block at a time and
drops each block's before the next (gradient checkpointing per block); a
block holds as many rows as keep a
hidden-layer temporary of one layer's four nets within BLOCK_BYTES. So
that no operation in a block repeats an operand along its rows, a call of
more than one block builds one contiguous tile of a block's rows of each
layer's biases (and, in `backward`, of the output weights) and every block
reads it; a call of one block, as every single-sample call is, broadcasts
them instead.
Everything is float64 numpy with hand-rolled reverse-mode gradients.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Rule, _kept, array, check_fields, choice, integer, list_of, real
from .errors import DegenerateInputError, NonFiniteError, ShapeError
from .physics import Particle, em_force_scalar

CONCAT = "concat"
POOLED = "pooled"

READOUT_POSITION = "position"
READOUT_VELOCITY = "velocity"


# -- edge features -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeConfig:
    """The optional edge channels. The numbers are checked as given, not
    converted, so a model saves the numbers it was built with; the centers
    are kept as a tuple."""

    include_inv_sqrt: bool = False
    rbf_centers: tuple = ()
    rbf_width: float = 0.5

    _rules = {"include_inv_sqrt": choice((True, False), "true or false"), "rbf_centers": list_of(real()),
              "rbf_width": real(lambda w: w > 0, " > 0")}

    def __post_init__(self):
        check_fields(vars(self), self._rules)
        object.__setattr__(self, "rbf_centers", tuple(self.rbf_centers))

    @property
    def dim(self) -> int:
        return 3 + int(self.include_inv_sqrt) + len(self.rbf_centers)


_CHARGES = array("a finite array of numbers, one per particle", lambda s: len(s) >= 1)


def edge_features(qs, rs, vs, config: EdgeConfig = EdgeConfig()) -> np.ndarray:
    """(..., n, n, C) invariant scalars per ordered pair, for (..., n)
    charges and (..., n, 3) positions and velocities; diagonal entries use
    delta = 0 (the inverse channel is defined as 0 there)."""
    qs = _CHARGES.unscanned(qs, "qs")
    shape = (*qs.shape, 3)
    vectors = array(f"a finite array of shape {shape}", shape.__eq__)
    rs, vs = vectors.unscanned(rs, "rs"), vectors.unscanned(vs, "vs")
    # A NaN or an infinity in the input, finite input that overflows, and a
    # coincident pair under the inverse channel all reach e: one output check
    # finds them, and only then are the inputs scanned, to name the first.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = rs[..., :, None, :] - rs[..., None, :, :]
        dist_sq = np.einsum("...ijk,...ijk->...ij", delta, delta)
        channels = [
            qs[..., :, None] * qs[..., None, :],
            vs @ np.swapaxes(vs, -1, -2),
            dist_sq,
        ]
        if config.include_inv_sqrt:
            off_diag = _off_diagonal(qs.shape[-1])
            channels.append(np.power(dist_sq, -0.5, out=np.zeros_like(dist_sq), where=off_diag))
        if config.rbf_centers:
            dist = np.sqrt(dist_sq)
            for c in config.rbf_centers:
                channels.append(np.exp(-((dist - c) ** 2) / (2.0 * np.float64(config.rbf_width) ** 2)))
        e = np.empty((*dist_sq.shape, len(channels)))
        for i, channel in enumerate(channels):
            e[..., i] = channel
    if not np.isfinite(e).all():
        # Each non-finite input entry reaches a diagonal: q_i^2, r_i - r_i, |v_i|^2.
        _CHARGES.scan(qs, "qs")
        vectors.scan(rs, "rs")
        vectors.scan(vs, "vs")
        if config.include_inv_sqrt and np.any(dist_sq == 0.0, where=off_diag):
            raise DegenerateInputError("coincident positions with the inverse-sqrt channel enabled")
        raise NonFiniteError("charges, positions and velocities must give finite edge features")
    return e


_off_diagonal = _kept(lambda n: ~np.eye(n, dtype=bool), lambda n: n <= 32)


def _sorted_blocks(e: np.ndarray) -> np.ndarray:
    """(..., n, n * C): each node's rows e[..., i, :, :] flattened in
    lexicographic order, making the result a function of the row multiset
    rather than the row order."""
    *lead, n, c = e.shape
    order = np.lexsort(e.transpose(e.ndim - 1, *range(e.ndim - 1))[::-1], axis=-1)
    rows = e.reshape(-1, n, c)[np.arange(order.size // n)[:, None], order.reshape(-1, n)]
    return rows.reshape(*lead, n * c)


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


_ACTIVATION = choice(("tanh", "softplus"))


def _act(name, x):
    """Apply the activation, tanh or softplus, to x in place and return it."""
    if name == "tanh":
        return np.tanh(x, out=x)
    return np.logaddexp(0.0, x, out=x)


def _act_grad(name, a):
    """Activation derivative as a new array, written in terms of the
    activation output a."""
    if name == "tanh":
        g = np.square(a)
        return np.subtract(1.0, g, out=g)
    g = np.expm1(np.negative(a))  # sigmoid(x) = 1 - exp(-softplus(x))
    return np.negative(g, out=g)


# Bytes of one float64 hidden-layer temporary of a block of the nets that
# size it: 128 rows of the four width-16 nets of a layer (K = 4), 512 rows
# of one such net. A temporary this small stays in L2 and below glibc's
# 128 KiB mmap threshold, so it is reused from the heap instead of
# page-faulted in afresh on every call; sized in bytes, a wider net or a
# larger stack takes fewer rows. An MpnnModel sizes its blocks by one
# layer's four nets, so that its rows are cut as a layer stack's, and a
# block's temporaries span the live nets of all its layers: 96 KB for the
# six of 2 layers of width 16. Rows go by multiples of 4, the rows that the
# BLAS matrix-vector kernel of the output layer takes at a time, so every
# row meets the same arithmetic whatever the block size (2-row blocks move
# some outputs by an ulp). A call of more than one block also holds a tile
# per layer, a block's rows of that layer's biases, which is the size of
# a temporary.
BLOCK_BYTES = 64 * 1024
_WIDTHS = list_of(integer(1))


class ScalarNet:
    """Fully connected net with scalar output, or with ``stack=K`` a stack
    of K nets of the same widths that read the same input rows: weights
    (K, out, in), biases (K, out) and outputs (K, m), every layer one
    batched matmul over the K nets. Indexing a stack gives one of its nets
    as a ScalarNet whose arrays are views into the stack's.

    The input rows run in blocks of BLOCK_BYTES per hidden-layer temporary
    of ``_block_nets`` nets: all K of a stack built here, and of a stack
    that indexing takes, those of the stack it was taken from.
    `backward` stores nothing from `forward`: it recomputes each block's
    activations from the input rows and adds the block's gradients to the
    totals. An operand repeated along a block's rows makes numpy run one
    short inner loop per row, 3-4 times the cost of the same arithmetic
    on contiguous arrays. So a call of more than one block adds biases
    from contiguous tiles (a call of one block broadcasts them, cheaper
    than building tiles), a bias gradient is one matrix-vector product
    with a vector of ones, and the output layer's rank-1 backprop is two
    multiplies, not a matmul over a length-1 axis.

    The result for one row need not have the same last bits in every
    batch: the BLAS matmul of a layer can round a row differently with the
    number of rows. The output layer's matrix-vector product takes rows
    four at a time and the rest by another kernel, so a call whose row
    count is not a multiple of 4 gives its last rows other bits; and with
    OpenBLAS a wide first layer rounds with the row count: (m, 48) @ (48, 16)
    gave other bits at m = 132, 384 or 1200 than in blocks of 4 or 8, and
    (m, 32) @ (32, 16) other bits in an 8-row call than in a 512-row one.
    See `MpnnModel.forward` for what this means for one sample."""

    def __init__(self, widths, activation="tanh", rng=None, stack=None):
        self._allocate(widths, activation, stack)
        self._draw(rng if rng is not None else np.random.default_rng(0))

    def _allocate(self, widths, activation, stack):
        """Check the shape, then hold weights not yet drawn and zero biases."""
        _WIDTHS(widths, "widths")
        if len(widths) < 2:
            raise ShapeError(f"widths must hold an input and an output width, got {list(widths)}")
        if widths[-1] != 1:
            raise ShapeError("scalar net output width must be 1")
        integer(1, or_none=True)(stack, "stack")
        _ACTIVATION(activation, "activation")
        self.widths = list(widths)
        self.activation = activation
        self.lead = () if stack is None else (int(stack),)
        self._block_nets = math.prod(self.lead)  # the nets whose temporaries size a block
        self.weights = [np.empty((*self.lead, fan_out, fan_in))
                        for fan_in, fan_out in zip(widths[:-1], widths[1:])]
        self.biases = [np.zeros((*self.lead, fan_out)) for fan_out in widths[1:]]

    def _draw(self, rng):
        # Net by net, layer by layer: the draws of K nets built one at a time.
        for net in np.ndindex(self.lead):
            for w in self.weights:
                w[net] = rng.standard_normal(w.shape[-2:]) / np.sqrt(w.shape[-1])

    def __getitem__(self, k):
        """Net k of a stack, its arrays views into the stack's, or for a
        slice or an index array k the stack of those nets: views for a
        slice, copies gathered for an index array. Such a stack cuts its
        rows into the same blocks as the whole stack, so its outputs and its
        gradients, summed block by block, are the whole stack's for those
        nets bit for bit."""
        net = object.__new__(ScalarNet)
        net.widths, net.activation = self.widths, self.activation
        net.weights = [w[k] for w in self.weights]
        net.biases = [b[k] for b in self.biases]
        net.lead = net.biases[0].shape[:-1]
        net._block_nets = self._block_nets if net.lead else 1
        return net

    def _rows(self, x):
        """(m, in_width) float64 rows of x (one row for a 1-d x), whether x
        is 1-d, and the row step of a block, read from BLOCK_BYTES."""
        a = np.asarray(x, dtype=np.float64)
        single = a.ndim == 1
        if a.ndim < 2:
            a = a.reshape(1, -1)
        if a.shape[1] != self.widths[0]:
            raise ShapeError(f"net expects input width {self.widths[0]}, got {a.shape[1]}")
        step = BLOCK_BYTES // (8 * self._block_nets * max(self.widths[1:])) // 4 * 4
        return a, single, max(4, step)

    def _blocks(self, m, step, vectors):
        """(rows, vectors) of each block of m input rows: its slice of the
        rows and the (*lead, 1, width) ``vectors`` repeated along its rows
        (biases to add, weights to multiply by). One block takes them as
        they are, by broadcasting; more blocks share one contiguous tile of
        each, built here."""
        if m <= step:
            return [(slice(None), vectors)]
        starts = list(range(0, m, step))
        if m % step == 1:
            # numpy runs a 1-row block through BLAS's matrix-vector kernels,
            # which give that row other bits than a larger block does: it
            # takes 4 rows of the block before it.
            starts[-1] -= 4
        bounds = [(lo, hi) for lo, hi in zip(starts, starts[1:] + [m]) if hi > lo]
        tiles = [np.repeat(v, max(hi - lo for lo, hi in bounds), axis=-2) for v in vectors]
        return [(slice(lo, hi), [t[..., :hi - lo, :] for t in tiles]) for lo, hi in bounds]

    def _activations(self, a, bias):
        """Outputs of the rows a through the first len(bias) layers, layer
        i adding bias[i], input first; (*lead, m, width) after the input."""
        activations = [a]
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, bias)):
            a = a @ w.mT  # (m, in) rows broadcast against every net of a stack
            a += b
            if layer != last:
                _act(self.activation, a)
            activations.append(a)
        return activations

    def forward(self, x):
        """Value on one input vector (a float, or (K,) for a stack) or on
        each row of an (m, in_width) stack (an (m,) or (K, m) array)."""
        a, single, step = self._rows(x)
        bias = [b[..., None, :] for b in self.biases]
        if len(a) <= step:
            out = self._activations(a, bias)[-1][..., 0]
        else:
            out = np.concatenate([self._activations(a[rows], tiles)[-1][..., 0]
                                  for rows, tiles in self._blocks(len(a), step, bias)], axis=-1)
        if single:
            return out[..., 0] if self.lead else float(out[0])
        return out

    def backward(self, x, dscalar):
        """Parameter gradients (weights, biases), each shaped as its
        parameter, for d(loss)/d(output) = dscalar, shaped as forward's
        output, on the input rows x, summed over the rows."""
        a, _, step = self._rows(x)
        dscalar = np.asarray(dscalar, dtype=np.float64).reshape(*self.lead, -1)
        last = len(self.weights) - 1
        grads_w, grads_b = [0.0] * (last + 1), [0.0] * (last + 1)
        ones = np.ones(len(a))
        # The output layer's value is never read: only its gradient, and
        # its weights' rows for the rank-1 backprop below it.
        vectors = [b[..., None, :] for b in self.biases[:last]] + [self.weights[last]]
        for rows, tiles in self._blocks(len(a), step, vectors):
            *bias, w_out = tiles
            activations = self._activations(a[rows], bias)
            delta = dscalar[..., rows, None]
            for layer in reversed(range(last + 1)):
                if layer != last:
                    g = _act_grad(self.activation, activations[layer + 1])
                    if layer == last - 1:  # (*lead, m, 1) delta by the output weights
                        g *= w_out
                        g *= delta
                    else:
                        g *= delta @ self.weights[layer + 1]
                    delta = g
                grads_w[layer] = grads_w[layer] + delta.mT @ activations[layer]
                grads_b[layer] = grads_b[layer] + ones[:delta.shape[-2]] @ delta
        return grads_w, grads_b


# In this order the nets' pair matrices stack as G[m channel, h channel],
# channel 0 being position and 1 velocity.
NET_NAMES = ("g_r", "g_v", "gt_r", "gt_v")


_SAMPLE_CHARGES = array("a finite (n,) or (B, n) array of numbers, n >= 1", lambda s: len(s) in (1, 2) and s[-1] >= 1)


@dataclass
class _Inputs:
    """What `MpnnModel.forward` reads of a stack of B samples of n
    particles, none of it depending on the weights: the (B, n, k, W) net
    input rows z and the (2, B, n, 3) hidden vectors h of layer 0 (centred
    positions, velocities), and the samples' (B, n, 3) force targets when
    built of a `Dataset`. Indexing by samples gathers theirs."""

    n: int
    z: np.ndarray
    h: np.ndarray
    targets: np.ndarray | None = None

    def __getitem__(self, samples):
        targets = None if self.targets is None else self.targets[samples]
        return _Inputs(self.n, self.z[samples], self.h[:, samples], targets)


class MpnnModel:
    """T message-passing layers of four scalar nets each, weights shared
    across nodes and pairs (permutation equivariance by construction).
    ``stack`` holds all 4T nets as one stacked ScalarNet and is the only
    parameter store; each read of ``stacks[layer]`` (a layer's four) or
    ``nets[layer][name]`` (one net) makes views into it."""

    _rules = {"n_particles": integer(1), "layers": integer(1), "hidden": _WIDTHS, "activation": _ACTIVATION,
              "mode": choice((CONCAT, POOLED)), "readout": choice((READOUT_POSITION, READOUT_VELOCITY))}
    # Checked when built, not read from a saved model: it has no seed, and its edge_config is an object.
    _built = {"seed": integer(0), "edge_config": Rule(lambda v: isinstance(v, EdgeConfig), "an EdgeConfig")}

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
        check_fields(dict(seed=seed, edge_config=edge_config), self._built)
        self._allocate(n_particles, layers, hidden, activation, mode, edge_config, readout)
        # Net by net, as the draws of the layer stacks built one after another.
        self.stack._draw(np.random.default_rng(seed))

    def _allocate(self, n_particles, layers, hidden, activation, mode, edge_config, readout):
        """Check the configuration, then hold its stack, weights not yet drawn."""
        check_fields(dict(n_particles=n_particles, layers=layers, hidden=hidden, activation=activation,
                          mode=mode, readout=readout), self._rules)
        # Counts as ints, so that a model built with numpy integers saves as JSON.
        self.n_particles, self.layers, self.hidden = int(n_particles), int(layers), tuple(map(int, hidden))
        self.mode, self.readout, self.activation, self.edge_config = mode, readout, activation, edge_config
        in_width = edge_config.dim * self.n_particles if mode == CONCAT else 2 * edge_config.dim
        k = len(NET_NAMES)
        self.stack = ScalarNet.__new__(ScalarNet)
        self.stack._allocate([in_width, *self.hidden, 1], activation, k * self.layers)
        self.stack._block_nets = k  # its rows cut into the blocks of one layer's stack
        # Per layer, the message channels it computes: both below the last
        # layer, and in the last only the one read out, c, whose nets are
        # 2c and 2c + 1 of the layer. The live nets write those channels.
        c = 0 if self.readout == READOUT_POSITION else 1
        self._channels = [slice(0, 2)] * (self.layers - 1) + [slice(c, c + 1)]
        last = k * (self.layers - 1)
        self._live = np.r_[:last, last + 2 * c:last + 2 * c + 2]

    @property
    def stacks(self):
        """Each layer's four nets as a stack, its arrays views into ``stack``."""
        k = len(NET_NAMES)
        return [self.stack[k * layer:k * (layer + 1)] for layer in range(self.layers)]

    @property
    def nets(self):
        """``nets[layer][name]``: each net, its arrays views into ``stack``."""
        return [{name: stack[i] for i, name in enumerate(NET_NAMES)} for stack in self.stacks]

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
        b, n, _, c = e.shape
        z = np.empty((b, n, n - 1, 2 * c))
        z[..., :c] = e[:, off].reshape(b, n, n - 1, c)
        z[..., c:] = e.sum(axis=2)[:, :, None, :]
        return z

    def _inputs(self, qs, rs, vs):
        """The `_Inputs` of the samples given as `forward` takes them,
        checked as `forward` checks them."""
        qs = _SAMPLE_CHARGES(qs, "qs")
        n = qs.shape[-1]
        if self.mode == CONCAT and n != self.n_particles:
            raise ShapeError(f"concat-mode model built for n={self.n_particles}, got n={n}")
        e = edge_features(qs, rs, vs, self.edge_config)  # checks rs and vs by the array rule too
        rs, vs = np.asarray(rs, dtype=np.float64), np.asarray(vs, dtype=np.float64)
        if qs.ndim == 1:
            rs, vs, e = rs[None], vs[None], e[None]
        z = self._net_input(e, _off_diagonal(n))
        h = np.empty((2, *rs.shape))  # (2, B, n, 3): centred positions (numpy's mean, bit for bit), velocities
        np.subtract(rs, np.add.reduce(rs, axis=1, keepdims=True) / n, out=h[0])
        h[1] = vs
        return _Inputs(n, z, h)

    def forward(self, qs, rs, vs, want_cache=False):
        """Output vectors: (n, 3) for one sample given as (n,) charges and
        (n, 3) positions and velocities, (B, n, 3) for stacks of B samples.
        With want_cache, returns (output, cache) for `backward`. ``qs`` may
        instead be the built inputs of a stack of samples, which `train`
        and `evaluate_mse` gather from what they built, with rs and vs None.

        A sample's output alone and in a stack can differ in the last bits
        (up to a few 1e-15 relative at n <= 12 with OpenBLAS): the nets'
        output layer is a BLAS matrix-vector product that takes rows four
        at a time and the remaining rows by another kernel, and a wide
        concat net's first layer rounds with the row count (see
        `ScalarNet`). A sample gives the same bits alone as in a stack when
        its net input rows (n in concat mode, n(n - 1) pooled) are a
        multiple of 4 and the first layer is narrow, as for n = 4 in either
        mode and pooled n = 5 or 8; concat models at n = 2, 3 and 5 to 12
        and pooled ones at n = 2, 3, 6 and 7 differ."""
        if isinstance(qs, _Inputs):
            inputs, single = qs, False
        else:
            inputs = self._inputs(qs, rs, vs)
            single = np.ndim(qs) == 1
        n, z, h = inputs.n, inputs.z, inputs.h
        off = _off_diagonal(n)
        rows = z.reshape(-1, z.shape[-1])
        cache = {"n": n, "z": z, "h": [], "G": []}
        # Overflowing weights give an Inf or NaN output, which callers check.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.stack[self._live].forward(rows)
            # (2 * layers - 1, 2, B, n, n): per message channel of each layer, by hidden channel
            gs = _pair_matrix(vals.reshape(len(vals) // 2, 2, -1), z.shape, off)
            for layer, channels in enumerate(self._channels):
                g = gs[2 * layer:2 * layer + 2]  # both message channels; in the last layer, one
                if want_cache:
                    cache["h"].append(h)
                    cache["G"].append(g)
                # m_i = sum_j G_ij (h_i - h_j), summed over both h channels
                h = h[channels] + (g.sum(axis=-1)[..., None] * h - g @ h).sum(axis=1)
        out = h[0]
        if single:
            out = out[0]
        if want_cache:
            return out, cache
        return out

    # -- backward ----------------------------------------------------------

    def backward(self, cache, dout):
        """Reverse-mode parameter gradients (weights, biases) for upstream
        d(loss)/d(output), summed over the samples of the cached forward,
        each shaped as its ``stack`` array: net ``name`` of ``layer`` is row
        4 * layer + NET_NAMES.index(name). The live nets that forward ran
        recompute their activations from the cached input rows one block at
        a time. The last layer's other two nets never reach the output, and
        their gradients are zeros.

        The bits depend on the memory order of the nets' row gradients. For
        one sample (B = 1) the rows that ``_row_grads`` gives each net are
        strided, and the output bias's gradient, a dot product over them,
        rounds otherwise than over a contiguous copy. A change of this
        layout must keep that order, or say here which bits it moves."""
        z = cache["z"]
        rows = z.reshape(-1, z.shape[-1])
        off = _off_diagonal(cache["n"])
        dh = np.zeros((2, *z.shape[:2], 3))
        dh[0 if self.readout == READOUT_POSITION else 1] = dout
        dvals = [None] * self.layers
        with np.errstate(over="ignore", invalid="ignore"):
            for layer in reversed(range(self.layers)):
                channels, h, g = self._channels[layer], cache["h"][layer], cache["G"][layer]
                dm = dh[channels, None]  # residual update: gradient reaches both h and m
                # dG_ij = dm_i . (h_i - h_j);  dh += rowsum(G) dm - G^T dm, unread below layer 0
                dg = (dm * h).sum(axis=-1)[..., None] - dm @ np.swapaxes(h, -1, -2)
                if layer:
                    dh = dh + (g.sum(axis=-1)[..., None] * dm - np.swapaxes(g, -1, -2) @ dm).sum(axis=0)
                dvals[layer] = _row_grads(dg, z.shape, off).reshape(2 * len(dg), -1)
            # np.concatenate keeps the layers' memory order (see above); the layers'
            # arrays are freed before the nets run.
            dvals = np.concatenate(dvals)
            live = self.stack[self._live].backward(rows, dvals)
        # Shaped as the stack's (weights, biases), zero for the nets not run.
        grads = ([np.zeros(p.shape) for p in self.stack.weights], [np.zeros(p.shape) for p in self.stack.biases])
        for part, got in zip(grads, live):
            for g, live_g in zip(part, got):
                g[self._live] = live_g
        return grads

    # -- parameter access --------------------------------------------------

    def parameters(self):
        """Flat list of (layer, name, 'w'|'b', index, array) views."""
        return [(layer, name, kind, idx, p) for layer, nets in enumerate(self.nets) for name, net in nets.items()
                for kind, params in (("w", net.weights), ("b", net.biases)) for idx, p in enumerate(params)]

    def apply_gradients(self, grads, lr):
        """One SGD step for ``grads`` as `backward` returns them: one in-place
        update per stack array."""
        weights, biases = grads
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g in zip(self.stack.weights + self.stack.biases, weights + biases):
                p -= lr * g

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
                    name: {"weights": [w.tolist() for w in net.weights], "biases": [b.tolist() for b in net.biases]}
                    for name, net in nets.items()
                }
                for nets in self.nets
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        """The model that ``obj`` describes, its weights read from ``obj``
        without drawing any first."""
        if not isinstance(obj, dict):
            raise ShapeError(f"a saved model must be an object, got {type(obj).__name__}")
        # Each field is checked by its object's rule and named by its path; a missing one reads None.
        fields = {name: rule(obj.get(name), name) for name, rule in cls._rules.items()}
        edges = obj.get("edge_config")
        if not isinstance(edges, dict):
            raise ShapeError(f"edge_config must be an object, got {edges!r}")
        edges = {name: rule(edges.get(name), f"edge_config.{name}") for name, rule in EdgeConfig._rules.items()}
        model = cls.__new__(cls)
        model._allocate(edge_config=EdgeConfig(**edges), **fields)
        saved = obj.get("nets")
        if not isinstance(saved, list) or len(saved) != model.layers:
            raise ShapeError(f"nets must be a list of {model.layers} layers, one per model layer")
        for layer, (nets, views) in enumerate(zip(saved, model.nets)):
            if not isinstance(nets, dict) or sorted(nets) != sorted(NET_NAMES):
                raise ShapeError(f"layer {layer} must hold exactly the nets {', '.join(NET_NAMES)}")
            for name, net in views.items():
                for kind, arrays in (("weights", net.weights), ("biases", net.biases)):
                    values = nets[name].get(kind) if isinstance(nets[name], dict) else None
                    if not isinstance(values, list) or len(values) != len(arrays):
                        raise ShapeError(f"layer {layer} net {name} must hold {len(arrays)} {kind}")
                    for idx, (arr, value) in enumerate(zip(arrays, values)):
                        arr[...] = array(f"a finite array of shape {arr.shape}", arr.shape.__eq__)(
                            value, f"layer {layer} net {name} {kind}[{idx}]")
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
    uniform in {-1, +1}. Targets recompute exactly as em_force_scalar, with
    numpy's floating-point warnings off; a k or c that makes one NaN or Inf
    (c = 0, or a c whose square underflows) raises NonFiniteError.
    """
    check_fields(dict(n_particles=n_particles, n_samples=n_samples, k=k, c=c), generate_dataset._rules)
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for s in range(n_samples):
            targets[s] = forces_for(qs[s], rs[s], vs[s], k, c)
    if not np.isfinite(targets).all():
        raise NonFiniteError(f"k = {k!r} and c = {c!r} give force targets that are not finite")
    return Dataset(qs, rs, vs, targets)


# Its rules, held where the train config reads a class's.
generate_dataset._rules = {"n_particles": integer(2), "n_samples": integer(0), "k": real(), "c": real()}


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

    _rules = {"epochs": integer(0), "lr": real(), "batch_size": integer(1), "seed": integer(0),
              "val_fraction": real(lambda f: 0 <= f < 1, " in [0, 1)"),
              "stop_at_val_ratio": real(lambda r: r >= 0, " >= 0", or_none=True)}

    def __post_init__(self):
        check_fields(vars(self), self._rules)


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
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model's MSE is Inf or NaN
        diff = pred - target
        return float(np.mean(diff * diff))


def _built(model, dataset: Dataset, chunk) -> _Inputs:
    """The `_Inputs` of every sample of `dataset`, targets included, built
    by `MpnnModel._inputs` ``chunk`` samples at a time into one array: only
    the built rows outlive one chunk's edge features and temporaries."""
    size = len(dataset.qs)
    for start in range(0, size, chunk):
        part = model._inputs(*(a[start : start + chunk] for a in (dataset.qs, dataset.rs, dataset.vs)))
        if start == 0:
            z, h = np.empty((size, *part.z.shape[1:])), np.empty((2, size, *part.h.shape[2:]))
        z[start : start + chunk], h[:, start : start + chunk] = part.z, part.h
    return _Inputs(part.n, z, h, dataset.targets)


def evaluate_mse(model, dataset, indices, batch_size=TrainConfig.batch_size):
    """Mean per-sample force MSE over `indices`, evaluated `batch_size`
    samples per forward call. ``dataset`` is a `Dataset`, whose indexed
    samples are built first, or the inputs that `train` built of one."""
    if len(indices) == 0:
        raise ShapeError("no samples to evaluate")
    if isinstance(dataset, Dataset):
        dataset = _built(model, Dataset(*(a[indices] for a in (dataset.qs, dataset.rs, dataset.vs, dataset.targets))),
                         batch_size)
        indices = np.arange(len(indices))
    total = 0.0
    for start in range(0, len(indices), batch_size):
        batch = indices[start : start + batch_size]
        samples = dataset[batch]
        total += mse_loss(model.forward(samples, None, None), samples.targets) * len(batch)
    return total / len(indices)


def train(model: MpnnModel, dataset: Dataset, config: TrainConfig, on_epoch=None) -> TrainReport:
    """Plain SGD on per-particle force MSE; deterministic given the seed.

    The dataset is read once, at the start: every sample's inputs are
    checked and built as `MpnnModel.forward` builds them, so a bad sample
    raises before any SGD step, and kept for the call, samples x rows per
    sample x input width x 8 bytes of net input rows and samples x n x 48
    bytes of centred positions and velocities. They are built
    ``batch_size`` samples at a time, so the build's temporaries are one
    batch's; a criterion-8 run peaks at 2.9 MB (tracemalloc), the kept
    1.9 MB and one SGD step's temporaries. Each batch gathers its own
    inputs by sample index and goes through `MpnnModel.forward`, `backward`
    and `evaluate_mse` as its raw arrays would, bit for bit.

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
    inputs = _built(model, dataset, config.batch_size)
    report = TrainReport()
    val0 = evaluate_mse(model, inputs, val_idx, config.batch_size)
    train0 = evaluate_mse(model, inputs, train_idx, config.batch_size)
    report.epochs.append((0, train0, val0))
    if on_epoch is not None:
        on_epoch(0, model)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            samples = inputs[order[start : start + config.batch_size]]
            pred, cache = model.forward(samples, None, None, want_cache=True)
            with np.errstate(over="ignore", invalid="ignore"):
                diff = pred - samples.targets
                epoch_loss += float(np.mean(diff * diff)) * len(diff)
                # d(mean over the batch of per-sample MSE)/d(pred)
                dout = 2.0 * diff / diff.size
            model.apply_gradients(model.backward(cache, dout), config.lr)
        train_mse = epoch_loss / len(order)
        val_mse = evaluate_mse(model, inputs, val_idx, config.batch_size)
        report.epochs.append((epoch, train_mse, val_mse))
        if on_epoch is not None:
            on_epoch(epoch, model)
        if not (train_mse <= DIVERGENCE_LIMIT and val_mse <= DIVERGENCE_LIMIT):  # NaN compares False
            report.aborted = True
            break
        if config.stop_at_val_ratio is not None and val_mse <= config.stop_at_val_ratio * val0:
            break
    return report
