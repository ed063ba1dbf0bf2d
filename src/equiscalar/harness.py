"""Randomized equivariance certification.

Samples group elements and random inputs, applies the group actions, and
reports relative residuals between f(g * x) and the expected transform of
f(x). Statistical evidence at fixed tolerance, never a proof; trial
failures are recorded in the report rather than aborting the run.

RNG order: each trial draws its input (and its scalars), then one element
per spec, in spec order, before the next trial draws anything. Trials run
in stacks of ``CHUNK_TRIALS``: the draws of a stack are taken in that
order first, then its elements are built, applied to all inputs and
compared as array operations. Stacking moves no draw, so a seeded report is
the same whatever the chunk size.

The stacked inputs are validated once, as one ``VectorTuple`` of T*n rows. A
target that declares a batched form, ``fn.batched(vectors, scalars)`` on a
(T, n, d) stack and its (T, blocks, k) scalars (or None), returning outputs
with a leading axis of length T, is called once on a stack's inputs and once
on their images, provided every image keeps the spec's roles. Otherwise,
and whenever the batched call raises or returns the wrong leading length,
the target is called per trial on row views of the validated stack: on the
input, then on its image, in trial order, so a failure names its trial.
Residuals of the outputs of one shape are computed as one stack. A trial is
otherwise carried as its index in the stack; row views are built for the
report only for the failures and the worst trial, the inputs it serializes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .core import FREE, MINKOWSKI, ROLES, VectorTuple
from .errors import RoleError, ShapeError
from . import groups

SCALAR_INVARIANT = "scalar-invariant"
VECTOR_EQUIVARIANT = "vector-equivariant"
VECTOR_TRANSLATION_INVARIANT = "vector-translation-invariant"
PSEUDO_VECTOR = "pseudo-vector"

_OUTPUT_KINDS = (
    SCALAR_INVARIANT,
    VECTOR_EQUIVARIANT,
    VECTOR_TRANSLATION_INVARIANT,
    PSEUDO_VECTOR,
)


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
        if self.group not in groups.FAMILIES:
            raise ShapeError(f"unknown group {self.group!r}")
        if self.output_kind not in _OUTPUT_KINDS:
            raise ShapeError(f"unknown output kind {self.output_kind!r}")
        for name in ("dim", "n_vectors", "blocks", "scalars_per_block"):
            value = getattr(self, name)
            if not _is_count(value) and not (name == "blocks" and value is None):
                raise ShapeError(f"{name} must be an integer, got {value!r}")
        least = groups.FAMILIES[self.group].least_dim
        if self.dim < least:
            raise ShapeError(f"dim must be >= {least} for group {self.group!r}, got {self.dim}")
        if self.n_vectors < 1:
            raise ShapeError(f"n_vectors must be >= 1, got {self.n_vectors}")
        if self.blocks is not None and (self.blocks < 1 or self.n_vectors % self.blocks):
            raise ShapeError(f"{self.n_vectors} vectors do not split into {self.blocks} blocks")
        if self.scalars_per_block < 0:
            raise ShapeError(f"scalars_per_block must be >= 0, got {self.scalars_per_block}")
        if self.scalars_per_block and self.blocks is None:
            raise ShapeError("scalars_per_block needs blocks")
        roles = self.roles
        if roles is None:
            roles = (FREE,) * self.n_vectors
        if len(roles) != self.n_vectors:
            raise ShapeError("roles length must equal n_vectors")
        for role in roles:
            if role not in ROLES:
                raise RoleError(f"roles must each be one of {ROLES}, got {role!r}")
        object.__setattr__(self, "roles", tuple(roles))


def _is_count(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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
    return (spec.blocks or spec.n_vectors) if spec.group == "perm" else spec.dim


def _sample_input(specs, rng, trial: int):
    """One trial's (n, d) input vectors and its (blocks, k) scalars or None."""
    spec = specs[0]
    n, d = spec.n_vectors, spec.dim
    vecs = rng.standard_normal((n, d))
    if trial % 4 == 3 and any(groups.FAMILIES[s.group].metric == MINKOWSKI for s in specs):
        # Near-lightlike stress inputs: timelike plus 0.999 spacelike. Row i
        # draws its spatial direction, then its scale.
        draw = rng.standard_normal((n, d))
        u, scale = draw[:, :-1], draw[:, -1]
        u = u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
        vecs[:, 0] = scale
        vecs[:, 1:] = (0.999 * scale)[:, None] * u
    scalars = (
        rng.standard_normal((spec.blocks, spec.scalars_per_block))
        if spec.scalars_per_block
        else None
    )
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


def _call(fn, x, scalars):
    return fn(x) if scalars is None else fn(x, scalars)


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
    None), in trial order, on row views of the stacks; record each trial's
    error in ``errors`` (its input's call) or ``late`` (its image's call, or
    an image output whose shape is not the input's). Returns, per output
    shape, (trials, their outputs, positions among them of the trials with an
    image output, those image outputs)."""
    n = x.n // count
    outs, outs2 = [None] * count, [None] * count
    for t in range(count):
        try:
            outs[t] = np.asarray(_call(fn, x.rows(t * n, (t + 1) * n),
                                       None if scalars is None else scalars[t]), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            errors[t] = exc
            continue
        if images is None:
            continue
        try:
            out2 = np.asarray(_call(fn, images.rows(t * n, (t + 1) * n),
                                    None if image_scalars is None else image_scalars[t]),
                              dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            late[t] = exc
            continue
        if out2.shape != outs[t].shape:
            late[t] = ShapeError(f"output of shape {out2.shape} on the image, "
                                 f"{outs[t].shape} on the input")
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


def _chunk_results(fn, specs, chunk, rng):
    """The chunk's validated input stack, its (T, blocks, k) scalars or None,
    and (error, residual, component keys) for each trial of ``chunk``, in
    order; error is None or residual is."""
    # Draw: each trial's input, then one element per spec, in spec order.
    inputs, draws = [], [[] for _ in specs]
    per_spec = [(spec.group, _element_dim(spec), spec.rapidity_max, drawn)
                for spec, drawn in zip(specs, draws)]
    for trial in chunk:
        inputs.append(_sample_input(specs, rng, trial))
        for group, dim, rapidity_max, drawn in per_spec:
            drawn.append(groups.draw(group, rng, dim, rapidity_max))
    elements = [groups.sample_stack(spec.group, drawn) for spec, drawn in zip(specs, draws)]
    dets = [None if isinstance(g, groups.Permutation) else np.linalg.det(g.q) for g in elements]
    positive = [(det > 0).tolist() for g, det in zip(elements, dets)
                if not isinstance(g, (groups.Permutation, groups.Translation))]

    # Apply: validate the stacked inputs once, then move them by each spec in
    # turn. Failing there fails every trial whose output reaches that spec.
    count = len(chunk)
    x = VectorTuple(np.concatenate([v for v, _ in inputs]), specs[0].roles * count)
    scalars = None if inputs[0][1] is None else np.array([s for _, s in inputs])
    images, image_scalars = x, scalars
    applied, apply_error = len(specs), None
    for j, (g, spec) in enumerate(zip(elements, specs)):
        try:
            images, image_scalars = _apply_stack(g, spec, images, image_scalars)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            applied, apply_error = j, exc
            break

    # Call fn on the inputs and on their images. A trial's error is the first
    # of: its input's call, then spec by spec the apply and the transform,
    # then its image's call (``late``).
    errors, late = [None] * count, [None] * count
    shapes = None if apply_error else _batched_outputs(fn, x, scalars, images, image_scalars, count)
    if shapes is None:
        shapes = _per_trial_outputs(fn, x, scalars, None if apply_error else images,
                                    image_scalars, count, errors, late)

    # Transform the outputs of each shape as one stack, spec by spec, and
    # compare those of the trials whose image output came back.
    residuals = [None] * count
    for idx, stack, done, outs2 in shapes:
        expected = stack
        try:
            for j, (g, det, spec) in enumerate(zip(elements, dets, specs)):
                if j == applied:
                    raise apply_error
                expected = _transform(g, det, spec, expected,
                                      slice(None) if len(idx) == count else idx)
        except Exception as exc:  # noqa: BLE001
            for t in idx:
                errors[t] = exc
            continue
        if not done:
            continue
        if len(done) < len(idx):
            stack, expected = stack[done], expected[done]
        stacked = _norms(outs2 - expected) / (1.0 + _norms(stack))
        for k, residual in zip(done, stacked.tolist()):
            residuals[idx[k]] = residual

    results = []
    for t in range(count):
        error = errors[t] if errors[t] is not None else late[t]
        if error is not None:
            results.append((error, None, ()))
            continue
        results.append((None, residuals[t], [_DET_KEYS[p[t]] for p in positive]))
    return x, scalars, results


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
    if not _is_count(trials) or trials < 1:
        raise ShapeError(f"trials must be an integer >= 1, got {trials!r}")
    report = CertReport(trials=int(trials))
    n = specs[0].n_vectors
    total, worst = 0.0, None
    for start in range(0, trials, CHUNK_TRIALS):
        chunk = range(start, min(trials, start + CHUNK_TRIALS))
        x, scalars, results = _chunk_results(fn, specs, chunk, rng)
        for t, (error, residual, keys) in enumerate(results):
            if error is not None:
                report.failures.append(
                    {"trial": start + t, "error": f"{type(error).__name__}: {error}",
                     "input": _trial_input(x, scalars, t, n)}
                )
                continue
            total += residual
            if residual >= report.max_residual:
                report.max_residual = residual
                worst = (x, scalars, t, n)
            for key in keys:
                comp = report.components.setdefault(key, {"trials": 0, "max_residual": 0.0})
                comp["trials"] += 1
                comp["max_residual"] = max(comp["max_residual"], residual)
    if worst is not None:
        report.worst_input = _trial_input(*worst)
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report
