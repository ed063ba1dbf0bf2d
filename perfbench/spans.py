"""Spans around calls into each equiscalar module, recorded from outside it.

The library has no trace hooks, so a traced run replaces every binding of
each public function the workloads reach with a wrapper that records a span
(name, start, end, parent span, job id). A function imported by name into
another module (``basis.gram``, ``mpnn.em_force_scalar``, the package
re-exports) is a second binding of the same object; ``install`` finds those
by identity across all loaded ``equiscalar`` modules, so a call cannot slip
past the wrapper through an alias. Methods are patched on their class.

Untraced runs never construct a ``Tracer`` and install nothing.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Span name -> (module, attribute path). Every sample_* function of groups
# records under one span name, "groups.sample".
FUNCTIONS = {
    "core.VectorTuple": ("core", "VectorTuple.__post_init__"),
    "core.VectorTuple.from_json": ("core", "VectorTuple.from_json"),
    "core.VectorTuple.to_json": ("core", "VectorTuple.to_json"),
    "groups.apply": ("groups", "apply"),
    "groups.sample": ("groups", "sample_*"),
    "features.gram": ("features", "gram"),
    "features.subdeterminants": ("features", "subdeterminants"),
    "features.translation_reduce": ("features", "translation_reduce"),
    "features.omega_sample": ("features", "omega_sample"),
    "features.omega_complete": ("features", "omega_complete"),
    "features.cholesky_reconstruct": ("features", "cholesky_reconstruct"),
    "features.lorentz_orthogonalize": ("features", "lorentz_orthogonalize"),
    "basis.evaluate": ("basis", "evaluate"),
    "basis.generalized_cross": ("basis", "generalized_cross"),
    "physics.em_force_scalar": ("physics", "em_force_scalar"),
    "physics.total_energy": ("physics", "total_energy"),
    "einsum.evaluate": ("einsum", "evaluate"),
    "mpnn.MpnnModel.forward": ("mpnn", "MpnnModel.forward"),
    "mpnn.MpnnModel.backward": ("mpnn", "MpnnModel.backward"),
    "mpnn.MpnnModel.apply_gradients": ("mpnn", "MpnnModel.apply_gradients"),
    "mpnn.ScalarNet.forward": ("mpnn", "ScalarNet.forward"),
    "mpnn.ScalarNet.backward": ("mpnn", "ScalarNet.backward"),
    "mpnn.edge_features": ("mpnn", "edge_features"),
    "mpnn.evaluate_mse": ("mpnn", "evaluate_mse"),
    "mpnn.generate_dataset": ("mpnn", "generate_dataset"),
    "mpnn.forces_for": ("mpnn", "forces_for"),
    "mpnn.train": ("mpnn", "train"),
    "harness.certify_joint": ("harness", "certify_joint"),
    "cli.features": ("cli", "features_cmd.callback"),
    "cli.certify": ("cli", "certify_cmd.callback"),
}

# Span of each call to the function under certification, opened by the
# certify_joint wrapper around its ``fn`` argument.
TARGET_FN = "harness.fn"


def _work_counts(name, args, kwargs, result):
    """Exact work counts of one call, from its arguments and result."""
    if name == "features.gram":
        x = args[1] if len(args) > 1 else kwargs["x"]
        return {"entries": x.n * x.n, "flops_computed": 2 * x.n * x.n * x.d}
    if name == "features.subdeterminants":
        return {"dets": len(result)}
    if name == "features.omega_complete":
        return {"iterations": result.iterations, "converged": int(result.converged)}
    if name == "features.lorentz_orthogonalize":
        return {"restarts": result.restarts}
    if name == "harness.certify_joint":
        return {"trials": result.trials}
    if name == "mpnn.MpnnModel.backward":
        n = args[1]["n"]
        return {"pairs": n * (n - 1)}
    return None


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, job],
    its times read from ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self.patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts = _work_counts(name, args, kwargs, result)
            if counts:
                for key, value in counts.items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _wrap_certify(self, fn):
        """certify_joint wrapper that also times each call of its target fn."""
        traced = self.wrap("harness.certify_joint", fn)

        @functools.wraps(fn)
        def certify_joint(target, *args, **kwargs):
            return traced(self.wrap(TARGET_FN, target), *args, **kwargs)

        return certify_joint

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every binding of every function in FUNCTIONS."""
        for module_name, _ in FUNCTIONS.values():
            importlib.import_module(f"equiscalar.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "equiscalar" or key.startswith("equiscalar.")]
        for name, (module_name, path) in FUNCTIONS.items():
            module = sys.modules[f"equiscalar.{module_name}"]
            if path.endswith("*"):
                prefix = path[:-1]
                originals = [v for k, v in vars(module).items()
                             if k.startswith(prefix) and callable(v)]
            elif "." in path:
                self._install_member(name, module, path)
                continue
            else:
                originals = [getattr(module, path)]
            for original in originals:
                wrapper = (self._wrap_certify(original) if name == "harness.certify_joint"
                           else self.wrap(name, original))
                bound = 0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"no binding found for {name}")

    def _install_member(self, name, module, path):
        owner_name, attr = path.split(".")
        owner = getattr(module, owner_name)
        if attr == "callback":  # a click command
            self.patched.append((owner, attr, owner.callback))
            owner.callback = self.wrap(name, owner.callback)
            return
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            self._set(owner, attr, self.wrap(name, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- summaries ---------------------------------------------------------

    def summarize(self, first_span):
        """Per-name calls and self time of the spans recorded since
        ``first_span``, plus the certify_joint breakdown."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans, start=first_span):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        fn_s = sum(end - start for name, start, end, _, _ in spans if name == TARGET_FN)
        cert_wall = sum(end - start for name, start, end, parent, _ in spans
                        if name == "harness.certify_joint")
        return {"calls": dict(calls), "self_s": dict(self_s),
                "fn_s": fn_s, "certify_wall_s": cert_wall}

    def write(self, path, count, meta):
        """Write the first ``count`` spans as JSON lines, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans[:count]):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
