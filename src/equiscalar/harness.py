"""Randomized equivariance certification.

Samples group elements and random inputs, applies the group actions, and
reports relative residuals between f(g * x) and the expected transform of
f(x). Statistical evidence at fixed tolerance, never a proof; trial
failures are recorded in the report rather than aborting the run.
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


def _sample_element(spec: SymmetrySpec, rng):
    dim = (spec.blocks or spec.n_vectors) if spec.group == "perm" else spec.dim
    return groups.sample(spec.group, rng, dim, spec.rapidity_max)


def _lift_block_permutation(g: groups.Permutation, spec: SymmetrySpec) -> groups.Permutation:
    if spec.blocks is None or len(g.sigma) == spec.n_vectors:
        return g
    per_block = spec.n_vectors // spec.blocks
    sigma = np.add.outer(np.multiply(g.sigma, per_block), np.arange(per_block))
    return groups.Permutation(tuple(sigma.ravel()))


def _apply_input(g, spec: SymmetrySpec, x: VectorTuple, scalars):
    if isinstance(g, groups.Permutation):
        lifted = _lift_block_permutation(g, spec)
        x2 = groups.apply(lifted, x)
        scalars2 = scalars[list(g.sigma)] if scalars is not None else None
        return x2, scalars2
    return groups.apply(g, x), scalars


def _transform_output(g, spec: SymmetrySpec, out):
    out = np.asarray(out, dtype=np.float64)
    kind = spec.output_kind
    if kind == SCALAR_INVARIANT:
        return out
    if isinstance(g, groups.Permutation):
        return out[list(g.sigma)] if out.ndim == 2 else out
    out = out @ g.q.T
    if kind == VECTOR_EQUIVARIANT and g._translates:
        return out + g.w
    if kind == PSEUDO_VECTOR:
        return out * np.linalg.det(g.q)
    return out


def _component_key(g) -> str | None:
    linear = (groups.Orthogonal, groups.Rotation, groups.Lorentz, groups.Euclidean, groups.Poincare)
    if isinstance(g, linear):
        return f"det={'+1' if np.linalg.det(g.q) > 0 else '-1'}"
    return None


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
    obj = json.loads(x.to_json())
    if scalars is not None:
        obj["scalars"] = np.asarray(scalars).tolist()
    return json.dumps(obj)


def _call(fn, x, scalars):
    return fn(x) if scalars is None else fn(x, scalars)


def certify(fn, spec: SymmetrySpec, trials: int, rng) -> CertReport:
    return certify_joint(fn, [spec], trials, rng)


def certify_joint(fn, specs, trials: int, rng) -> CertReport:
    """Certify against several actions jointly: each trial composes one
    sampled element per spec (applied in the given order) and compares
    against the composed expected output transform."""
    if trials < 1:
        raise ShapeError("trials must be >= 1")
    specs = list(specs)
    report = CertReport()
    total = 0.0
    for trial in range(trials):
        x, scalars = _sample_input(specs, rng, trial)
        elements = [_sample_element(spec, rng) for spec in specs]
        try:
            out = np.asarray(_call(fn, x, scalars), dtype=np.float64)
            x2, scalars2 = x, scalars
            expected = out
            for g, spec in zip(elements, specs):
                x2, scalars2 = _apply_input(g, spec, x2, scalars2)
                expected = _transform_output(g, spec, expected)
            out2 = np.asarray(_call(fn, x2, scalars2), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            report.failures.append(
                {"trial": trial, "error": f"{type(exc).__name__}: {exc}",
                 "input": _serialize_input(x, scalars)}
            )
            continue
        residual = float(np.linalg.norm(out2 - expected) / (1.0 + np.linalg.norm(out)))
        total += residual
        if residual >= report.max_residual:
            report.max_residual = residual
            report.worst_input = _serialize_input(x, scalars)
        for g in elements:
            key = _component_key(g)
            if key is None:
                continue
            comp = report.components.setdefault(key, {"trials": 0, "max_residual": 0.0})
            comp["trials"] += 1
            comp["max_residual"] = max(comp["max_residual"], residual)
    report.trials = trials
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report
