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
the same whatever the chunk size. The target is still called per trial,
on a validated ``VectorTuple``: on the input, then on its image, in trial
order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import FREE, VectorTuple
from .errors import ShapeError
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
        if self.blocks is not None and (self.blocks < 1 or self.n_vectors % self.blocks):
            raise ShapeError(f"{self.n_vectors} vectors do not split into {self.blocks} blocks")
        roles = self.roles
        if roles is None:
            roles = (FREE,) * self.n_vectors
        if len(roles) != self.n_vectors:
            raise ShapeError("roles length must equal n_vectors")
        object.__setattr__(self, "roles", tuple(roles))


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
    spec = specs[0]
    n, d = spec.n_vectors, spec.dim
    vecs = rng.standard_normal((n, d))
    lorentzian = any(s.group in ("lorentz", "poincare") for s in specs)
    if lorentzian and trial % 4 == 3:
        # Near-lightlike stress inputs: timelike plus 0.999 spacelike. Row i
        # draws its spatial direction, then its scale.
        draw = rng.standard_normal((n, d))
        u, scale = draw[:, :-1], draw[:, -1]
        u = u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
        vecs[:, 0] = scale
        vecs[:, 1:] = (0.999 * scale)[:, None] * u
    x = VectorTuple(vecs, spec.roles)
    scalars = (
        rng.standard_normal((spec.blocks, spec.scalars_per_block))
        if spec.scalars_per_block
        else None
    )
    return x, scalars


def _serialize_input(x: VectorTuple, scalars) -> str:
    text = x.to_json()
    if scalars is None:
        return text
    return f'{text[:-1]}, "scalars": {json.dumps(np.asarray(scalars).tolist())}}}'


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


def _chunk_results(fn, specs, chunk, rng):
    """(trial, (input, scalars), error, residual, component keys) for each
    trial of ``chunk``, in order; error is None or residual is."""
    # Draw: each trial's input, then one element per spec, in spec order.
    inputs, draws = [], [[] for _ in specs]
    for trial in chunk:
        inputs.append(_sample_input(specs, rng, trial))
        for spec, drawn in zip(specs, draws):
            drawn.append(groups.draw(spec.group, rng, _element_dim(spec), spec.rapidity_max))
    elements = [groups.sample_stack(spec.group, drawn) for spec, drawn in zip(specs, draws)]
    dets = [None if isinstance(g, groups.Permutation) else np.linalg.det(g.q) for g in elements]
    positive = [det > 0 for g, det in zip(elements, dets)
                if not isinstance(g, (groups.Permutation, groups.Translation))]

    # Apply: move the stacked inputs by each spec in turn. Failing there fails
    # every trial whose output reaches that spec.
    count, n = len(chunk), specs[0].n_vectors
    x = VectorTuple(np.concatenate([x_t.vectors for x_t, _ in inputs]), specs[0].roles * count)
    scalars = None if inputs[0][1] is None else np.array([s_t for _, s_t in inputs])
    applied, apply_error = len(specs), None
    for j, (g, spec) in enumerate(zip(elements, specs)):
        try:
            x, scalars = _apply_stack(g, spec, x, scalars)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            applied, apply_error = j, exc
            break

    # Call fn once on each input and once on its image, in trial order. A
    # trial's error is the first of: its input's call, then spec by spec the
    # apply and the transform, then its image's call (``late``).
    errors, late, outs, outs2 = [None] * count, [None] * count, [None] * count, [None] * count
    for t, (x_t, scalars_t) in enumerate(inputs):
        try:
            outs[t] = np.asarray(_call(fn, x_t, scalars_t), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            errors[t] = exc
            continue
        if apply_error is None:
            rows = slice(t * n, (t + 1) * n)
            try:
                outs2[t] = np.asarray(_call(fn, VectorTuple(x.vectors[rows], x.roles[rows]),
                                            None if scalars is None else scalars[t]), dtype=np.float64)
            except Exception as exc:  # noqa: BLE001
                late[t] = exc

    # Transform the outputs of each shape as one stack, spec by spec.
    expected, by_shape = [None] * count, {}
    for t, out in enumerate(outs):
        if out is not None:
            by_shape.setdefault(out.shape, []).append(t)
    for idx in by_shape.values():
        stack = np.array([outs[t] for t in idx])
        sel = slice(None) if len(idx) == count else idx  # all trials: index by a view
        try:
            for j, (g, det, spec) in enumerate(zip(elements, dets, specs)):
                if j == applied:
                    raise apply_error
                stack = _transform(g, det, spec, stack, sel)
        except Exception as exc:  # noqa: BLE001
            for t in idx:
                errors[t] = exc
            continue
        for t, row in zip(idx, stack):
            expected[t] = row

    results = []
    for t, trial in enumerate(chunk):
        error = errors[t] if errors[t] is not None else late[t]
        if error is not None:
            results.append((trial, inputs[t], error, None, ()))
            continue
        residual = float(np.linalg.norm(outs2[t] - expected[t]) / (1.0 + np.linalg.norm(outs[t])))
        results.append((trial, inputs[t], None, residual, [_DET_KEYS[p[t]] for p in positive]))
    return results


def certify(fn, spec: SymmetrySpec, trials: int, rng) -> CertReport:
    return certify_joint(fn, [spec], trials, rng)


def certify_joint(fn, specs, trials: int, rng) -> CertReport:
    """Certify against several actions jointly: each trial composes one
    sampled element per spec (applied in the given order) and compares
    against the composed expected output transform. Trials run in stacks
    of ``CHUNK_TRIALS`` (see the module docstring for the RNG order)."""
    if trials < 1:
        raise ShapeError("trials must be >= 1")
    specs = list(specs)
    report = CertReport(trials=trials)
    total, worst = 0.0, None
    for start in range(0, trials, CHUNK_TRIALS):
        chunk = range(start, min(trials, start + CHUNK_TRIALS))
        for trial, (x, scalars), error, residual, keys in _chunk_results(fn, specs, chunk, rng):
            if error is not None:
                report.failures.append(
                    {"trial": trial, "error": f"{type(error).__name__}: {error}",
                     "input": _serialize_input(x, scalars)}
                )
                continue
            total += residual
            if residual >= report.max_residual:
                report.max_residual = residual
                worst = (x, scalars)
            for key in keys:
                comp = report.components.setdefault(key, {"trials": 0, "max_residual": 0.0})
                comp["trials"] += 1
                comp["max_residual"] = max(comp["max_residual"], residual)
    if worst is not None:
        report.worst_input = _serialize_input(*worst)
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report
