"""Randomized equivariance certification.

Samples group elements and random inputs, applies the group actions, and
reports relative residuals between f(g * x) and the expected transform of
f(x). Statistical evidence at fixed tolerance, never a proof; trial
failures are recorded in the report rather than aborting the run.

RNG order: a call derives one stream per role from the caller's generator,
once, before its first trial: it takes one raw 64-bit word per role from
that generator in one call and seeds a PCG64 generator with each. The
roles, in that order, are the input vectors with their block scalars; the
lightlike stress draws, when a spec has a Minkowski metric; and, spec by
spec, each kind of number its family draws (a Gaussian matrix, a column, a
sign, a rapidity, an axis, its redraw, a shift, a permutation). Trials run
in stacks of ``CHUNK_TRIALS``, and each role takes its draws for a stack in
one call on its stream, trial by trial: a trial's vectors then its scalars,
each stressed trial's (trial % 4 == 3) near-lightlike vectors, each
trial's element numbers. A Lorentz axis of norm below 1e-8 takes its
replacement from its spec's redraw stream, in trial order. Within one
stream, a stack of draws of one kind equals the same draws taken one trial
at a time, bit for bit, so stacking moves no draw and a seeded report is
the same whatever the chunk size. Then the stack's elements are built,
applied to all inputs and compared as array operations. Each spec's draw
arguments are checked once per stack; its family's draw then runs
unchecked.

The stacked inputs form one ``VectorTuple`` of T*n rows, built without a
check: the generator draws finite floats, and the spec checked its roles. A
target that declares a batched form, ``fn.batched(vectors, scalars)`` on a
(T, n, d) stack and its (T, blocks, k) scalars (or None), returning outputs
with a leading axis of length T, is called once on a stack's inputs and once
on their images, provided every image keeps the spec's roles. Otherwise,
and whenever the batched call raises or returns the wrong leading length,
the target is called per trial on row views of the input stack: on the
input, then on its image, in trial order, so a failure names its trial.
Residuals of the outputs of one shape are computed as one stack; an output
that is NaN or infinite, or a residual that is NaN, fails its trial with
``NonFiniteError``. Each stack runs under one ``np.errstate`` with
overflow, division by zero and invalid operations ignored: the element
build and determinants, the apply, the target's calls, the transform and
the compare. So a report is the same whether numpy's warnings print or
raise, and none escapes. Residuals and components are added up once per stack,
the residuals one at a time in trial order, as ``mean_residual``'s bits
depend on that order. A trial is
otherwise carried as its index in the stack; row views are built for the
report only for the failures and the worst trial, the inputs it serializes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import MINKOWSKI, VectorTuple, check_fields, check_roles, choice, det, integer
from .errors import NonFiniteError, ShapeError
from . import groups

SCALAR_INVARIANT = "scalar-invariant"
VECTOR_EQUIVARIANT = "vector-equivariant"
VECTOR_TRANSLATION_INVARIANT = "vector-translation-invariant"
PSEUDO_VECTOR = "pseudo-vector"

_OUTPUT_KIND = choice((SCALAR_INVARIANT, VECTOR_EQUIVARIANT, VECTOR_TRANSLATION_INVARIANT, PSEUDO_VECTOR))
# The rules of a spec's counts; its group, dim and rapidity_max are checked
# as the draw arguments of its family.
_COUNTS = {"n_vectors": integer(1), "blocks": integer(1, or_none=True), "scalars_per_block": integer(0)}


@dataclass(frozen=True)
class SymmetrySpec:
    """One group action to certify against.

    ``blocks`` groups the tuple's vectors into contiguous blocks that
    permutation elements move jointly (and whose rows the output follows);
    ``scalars_per_block`` attaches extra invariant scalars (e.g. charges)
    that ride along with their block under permutation.
    """

    group: str
    dim: int
    n_vectors: int
    roles: tuple | None = None
    output_kind: str = VECTOR_EQUIVARIANT
    rapidity_max: float = groups.DEFAULT_RAPIDITY_MAX
    blocks: int | None = None
    scalars_per_block: int = 0

    def __post_init__(self):
        groups.draw_record(self.group, self.dim, self.rapidity_max)
        _OUTPUT_KIND(self.output_kind, "output_kind")
        check_fields(vars(self), _COUNTS)
        if self.blocks is not None and self.n_vectors % self.blocks:
            raise ShapeError(f"{self.n_vectors} vectors do not split into {self.blocks} blocks")
        if self.scalars_per_block and self.blocks is None:
            raise ShapeError("scalars_per_block needs blocks")
        object.__setattr__(self, "roles", check_roles(self.roles, self.n_vectors))


# Trials drawn, moved and compared as one stack. Bounds a run's memory to
# one chunk of inputs, elements and outputs, whatever its trial count.
CHUNK_TRIALS = 256


@dataclass
class CertReport:
    trials: int = 0
    max_residual: float = 0.0
    mean_residual: float = 0.0
    worst_input: str | None = None
    components: dict = field(default_factory=dict)  # e.g. "det=+1" -> stats
    failures: list = field(default_factory=list)

    def to_dict(self):
        return {
            "trials": self.trials,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_input": self.worst_input,
            "components": self.components,
            "failures": self.failures,
        }


def _element_dim(spec: SymmetrySpec) -> int:
    return (spec.blocks or spec.n_vectors) if groups.FAMILIES[spec.group].on_slots else spec.dim


def _stressed(specs) -> bool:
    """Whether every fourth trial (trial % 4 == 3) draws a near-lightlike input."""
    return any(groups.FAMILIES[s.group].metric == MINKOWSKI for s in specs)


def _role_streams(rng, specs):
    """The call's role streams, derived from ``rng`` once: (input vectors
    with their block scalars, lightlike stress draws or None when no trial
    is stressed, per spec the list of its family's element draw streams).
    Each is a PCG64 generator seeded by one of the raw 64-bit words that
    ``rng`` gives in one call, in that order."""
    stressed = _stressed(specs)
    counts = [groups.FAMILIES[s.group].roles for s in specs]
    seeds = rng.bit_generator.random_raw(1 + stressed + sum(counts)).tolist()
    streams = iter([np.random.Generator(np.random.PCG64(seed)) for seed in seeds])
    inputs, stress = next(streams), next(streams) if stressed else None
    return inputs, stress, [[next(streams) for _ in range(count)] for count in counts]


def _sample_inputs(spec: SymmetrySpec, chunk: range, rng, stress):
    """The (T*n, d) input vectors of the trials of ``chunk`` and their
    (T, blocks, k) scalars or None: trial by trial, its vectors then its
    scalars, from ``rng`` in one call. Each trial with trial % 4 == 3 gets a
    near-lightlike input from ``stress`` instead, unless that is None."""
    n, d, count = spec.n_vectors, spec.dim, len(chunk)
    if spec.scalars_per_block:
        draw = rng.standard_normal((count, n * d + spec.blocks * spec.scalars_per_block))
        vecs = draw[:, :n * d].reshape(count * n, d)
        scalars = draw[:, n * d:].reshape(count, spec.blocks, spec.scalars_per_block)
    else:
        vecs, scalars = rng.standard_normal((count * n, d)), None
    stressed = list(range((3 - chunk.start) % 4, count, 4)) if stress is not None else []
    if stressed:
        # Near-lightlike stress inputs: timelike plus 0.999 spacelike. Row i
        # of a stressed trial draws its spatial direction, then its scale.
        draw = stress.standard_normal((len(stressed), n, d))
        u, scale = draw[..., :-1], draw[..., -1]
        u = u / np.sqrt(u[..., None, :] @ u[..., :, None])[..., 0]
        rows = vecs.reshape(count, n, d)
        rows[stressed, :, 0] = scale
        rows[stressed, :, 1:] = (0.999 * scale)[..., None] * u
    return vecs, scalars


def _serialize_input(x: VectorTuple, scalars) -> str:
    text = x.to_json()
    if scalars is None:
        return text
    return f'{text[:-1]}, "scalars": {json.dumps(np.asarray(scalars).tolist())}}}'


def _trial_input(x: VectorTuple, scalars, t: int, n: int) -> str:
    """``_serialize_input`` of trial t, rows t*n:(t+1)*n of the input stack
    x. Only the inputs reported are built as rows: failures and the worst."""
    return _serialize_input(x.rows(t * n, (t + 1) * n), None if scalars is None else scalars[t])


def _apply_stack(g, spec: SymmetrySpec, x: VectorTuple, scalars):
    """Move the input stack (T*n rows, (T, blocks, k) scalars) by the element stack g."""
    if not isinstance(g, groups.Permutation):
        return groups.apply(g, x), scalars
    sigma = g.sigma
    if spec.blocks is not None and sigma.shape[-1] != spec.n_vectors:
        per_block = spec.n_vectors // spec.blocks
        lifted = np.add.outer(np.multiply(sigma, per_block), np.arange(per_block))
        g = groups.Permutation(lifted.reshape(len(sigma), -1))
    if scalars is not None:
        scalars = scalars[np.arange(len(sigma))[:, None], sigma]
    return groups.apply(g, x), scalars


def _per_trial(a, ndim):
    """View the (k, ...) per-trial array a with singleton axes up to ndim."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _transform(g, det, spec: SymmetrySpec, out, idx):
    """Expected outputs: ``out`` stacks the outputs of the trials that ``idx``
    selects, and each moves by its element of the stack g (det: their
    determinants)."""
    kind = spec.output_kind
    if kind == SCALAR_INVARIANT:
        return out
    if isinstance(g, groups.Permutation):
        if out.ndim != 3:
            return out
        if out.shape[1] != g.sigma.shape[-1]:
            raise ShapeError(f"output has {out.shape[1]} rows; the permutation moves {g.sigma.shape[-1]}")
        return out[np.arange(len(out))[:, None], g.sigma[idx]]
    q = g.q[idx]
    if out.ndim == 1:
        out[0] @ q[0].T  # 0-d outputs fail here, as one trial's ``out @ q.T`` does
    out = (out.reshape(len(out), -1, out.shape[-1]) @ q.mT).reshape(out.shape)
    if kind == VECTOR_EQUIVARIANT and g._translates:
        return out + _per_trial(g.w[idx], out.ndim)
    if kind == PSEUDO_VECTOR:
        return out * _per_trial(det[idx], out.ndim)
    return out


_DET_KEYS = {False: "det=-1", True: "det=+1"}


def _batched_outputs(fn, x, scalars, images, image_scalars, count):
    """``_per_trial_outputs``' result from fn's batched form, called on the
    stacked inputs and on their images, or None when the per-trial loop has
    to run instead."""
    batched = getattr(fn, "batched", None)
    if batched is None or images.roles != x.roles:
        return None
    try:
        outs = np.asarray(batched(x.vectors.reshape(count, -1, x.d), scalars), dtype=np.float64)
        outs2 = np.asarray(batched(images.vectors.reshape(count, -1, x.d), image_scalars),
                           dtype=np.float64)
    except Exception:  # noqa: BLE001 - the per-trial loop names the failing trial
        return None
    if outs.shape[:1] != (count,) or outs2.shape != outs.shape:
        return None
    trials = list(range(count))
    return [(trials, outs, trials, outs2)]


def _per_trial_outputs(fn, x, scalars, images, image_scalars, count, errors, late):
    """Call fn on each input and then on its image (unless ``images`` is
    None), in trial order, on (n, d) row views of the stacks; record each
    trial's error in ``errors`` (its input's call) or ``late`` (its image's
    call, or an image output whose shape is not the input's). Returns, per
    output shape, (trials, their outputs, positions among them of the trials
    with an image output, those image outputs)."""
    n = x.n // count
    roles = x.roles[:n]
    trusted = VectorTuple._trusted
    inputs = x.vectors.reshape(count, n, x.d)
    if images is not None:
        moved = images.vectors.reshape(count, n, x.d)
        # Every image row keeps its input's roles unless a permutation moved a tag.
        same_roles = images.roles == x.roles
    outs, outs2 = [None] * count, [None] * count
    for t in range(count):
        try:
            row = trusted(inputs[t], roles)
            outs[t] = out = np.asarray(fn(row) if scalars is None else fn(row, scalars[t]), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            errors[t] = exc
            continue
        if images is None:
            continue
        try:
            image = trusted(moved[t], roles if same_roles else images.roles[t * n:(t + 1) * n])
            out2 = np.asarray(fn(image) if image_scalars is None else fn(image, image_scalars[t]),
                              dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            late[t] = exc
            continue
        if out2.shape != out.shape:
            late[t] = ShapeError(f"output of shape {out2.shape} on the image, "
                                 f"{out.shape} on the input")
        else:
            outs2[t] = out2
    by_shape = {}
    for t, out in enumerate(outs):
        if out is not None:
            by_shape.setdefault(out.shape, []).append(t)
    shapes = []
    for idx in by_shape.values():
        done = [k for k, t in enumerate(idx) if outs2[t] is not None]
        shapes.append((idx, np.array([outs[t] for t in idx]),
                       done, np.array([outs2[idx[k]] for k in done])))
    return shapes


def _norms(a):
    """``np.linalg.norm`` of each a[k], bit for bit: the root of the dot
    product of a[k] with itself."""
    f = a.reshape(len(a), -1)
    return np.sqrt(f[:, None, :] @ f[:, :, None]).ravel()


def _non_finite(stack, norms) -> list:
    """Positions in the (k, ...) output stack of the outputs holding NaN or
    Inf, given the outputs' norms: an output whose norm is finite is finite."""
    if np.isfinite(norms.sum()):
        return []
    return [k for k in np.flatnonzero(~np.isfinite(norms)).tolist() if not np.isfinite(stack[k]).all()]


def _chunk_results(fn, specs, chunk, streams):
    """The chunk's input stack, its (T, blocks, k) scalars or None, for each
    trial of ``chunk`` in order its error (None if it passed) and residual
    (None if it failed), and per spec with a determinant whether each
    trial's element has det > 0."""
    # Draw: each role's numbers for the whole chunk in one call on its own
    # stream. The draw arguments are checked here, once for the chunk.
    spec, count = specs[0], len(chunk)
    inputs, stress, per_spec = streams
    vecs, scalars = _sample_inputs(spec, chunk, inputs, stress)
    elements = []
    for s, rngs in zip(specs, per_spec):
        dim = _element_dim(s)
        draws = groups.draw_record(s.group, dim, s.rapidity_max).draw(iter(rngs), count, dim, s.rapidity_max)
        elements.append(groups.sample_stack(s.group, draws))
    dets = [None if isinstance(g, groups.Permutation) else det(g.q) for g in elements]
    positive = [(dg > 0).tolist() for g, dg in zip(elements, dets)
                if not isinstance(g, (groups.Permutation, groups.Translation))]

    # Apply: stack the inputs as one tuple, then move them by each spec in
    # turn; ``groups.apply`` checks each image, as a boost can overflow.
    # Failing there fails every trial whose output reaches that spec.
    x = VectorTuple._trusted(vecs, spec.roles * count)
    images, image_scalars = x, scalars
    applied, apply_error = len(specs), None
    for j, (g, s) in enumerate(zip(elements, specs)):
        try:
            images, image_scalars = _apply_stack(g, s, images, image_scalars)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            applied, apply_error = j, exc
            break

    # Call fn on the inputs and on their images. A trial's error is the first
    # of: its input's call (a non-finite output included), then spec by spec
    # the apply and the transform, then its image's call (``late``).
    errors, late = [None] * count, [None] * count
    shapes = None if apply_error else _batched_outputs(fn, x, scalars, images, image_scalars, count)
    if shapes is None:
        shapes = _per_trial_outputs(fn, x, scalars, None if apply_error else images,
                                    image_scalars, count, errors, late)

    # Transform the outputs of each shape as one stack, spec by spec, and
    # compare those of the trials whose image output came back. Outputs that
    # are not finite are found from their norms.
    residuals = [None] * count
    for idx, stack, done, outs2 in shapes:
        norms = _norms(stack)
        for k in _non_finite(stack, norms):
            errors[idx[k]] = NonFiniteError("output on the input is NaN or Inf")
        expected = stack
        try:
            for j, (g, dg, s) in enumerate(zip(elements, dets, specs)):
                if j == applied:
                    raise apply_error
                expected = _transform(g, dg, s, expected,
                                      slice(None) if len(idx) == count else idx)
        except Exception as exc:  # noqa: BLE001
            for t in idx:
                if errors[t] is None:
                    errors[t] = exc
            continue
        if not done:
            continue
        if len(done) < len(idx):
            norms, expected = norms[done], expected[done]
        for j in _non_finite(outs2, _norms(outs2)):
            late[idx[done[j]]] = NonFiniteError("output on the image is NaN or Inf")
        stacked = _norms(outs2 - expected) / (1.0 + norms)
        for k, residual in zip(done, stacked.tolist()):
            if residual == residual:
                residuals[idx[k]] = residual
            elif late[idx[k]] is None:  # finite outputs whose squared norms overflow
                late[idx[k]] = NonFiniteError("residual is NaN: the outputs overflow its arithmetic")
    errors = [late[t] if error is None else error for t, error in enumerate(errors)]
    return x, scalars, errors, residuals, positive


def _add_components(components, positive, residuals) -> None:
    """Add a chunk's passed trials to the per-component stats: ``positive``
    holds, per spec with a determinant, whether each trial's element has
    det > 0, ``residuals`` the trials' residuals. A trial counts once per
    spec under its key. Taken trial by trial and each spec by spec, the
    first trial's first key comes first, so it enters ``components`` first."""
    if not positive:
        return
    first = positive[0][0]
    for sign in (first, not first):
        hits = [r for p in positive for r, s in zip(residuals, p) if s == sign]
        if hits:
            comp = components.setdefault(_DET_KEYS[sign], {"trials": 0, "max_residual": 0.0})
            comp["trials"] += len(hits)
            comp["max_residual"] = max(comp["max_residual"], max(hits))


def certify(fn, spec: SymmetrySpec, trials: int, rng) -> CertReport:
    return certify_joint(fn, [spec], trials, rng)


def certify_joint(fn, specs, trials: int, rng) -> CertReport:
    """Certify against several actions jointly: each trial composes one
    sampled element per spec (applied in the given order) and compares
    against the composed expected output transform. Trials run in stacks
    of ``CHUNK_TRIALS`` (see the module docstring for the RNG order)."""
    specs = list(specs)
    if not specs:
        raise ShapeError("certify_joint needs at least one spec")
    integer(1)(trials, "trials")
    report = CertReport(trials=int(trials))
    n = specs[0].n_vectors
    streams = _role_streams(rng, specs)
    total, worst = 0.0, None
    for start in range(0, trials, CHUNK_TRIALS):
        chunk = range(start, min(trials, start + CHUNK_TRIALS))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x, scalars, errors, residuals, positive = _chunk_results(fn, specs, chunk, streams)
        passed = []
        for t, error in enumerate(errors):
            if error is None:
                passed.append(t)
            else:
                report.failures.append(
                    {"trial": start + t, "error": f"{type(error).__name__}: {error}",
                     "input": _trial_input(x, scalars, t, n)}
                )
        if not passed:
            continue
        values = [residuals[t] for t in passed]
        for residual in values:  # one at a time, in trial order: mean_residual's bits
            total += residual
        top = max(values)
        if top >= report.max_residual:  # the last trial to reach the maximum is the worst
            report.max_residual = top
            worst = (x, scalars, passed[len(values) - 1 - values[::-1].index(top)], n)
        if len(passed) < len(chunk):
            positive = [[p[t] for t in passed] for p in positive]
        _add_components(report.components, positive, values)
    if worst is not None:
        report.worst_input = _trial_input(*worst)
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report
