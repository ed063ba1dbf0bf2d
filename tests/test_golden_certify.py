"""Seeded certification reports, pinned byte for byte.

``tests/data/golden_certify.json`` holds ``json.dumps(report.to_dict())`` of
each API case below and the stdout of each ``equiscalar certify`` case, as
written by the per-trial harness loop. Any change to how the harness draws,
applies, transforms or compares must reproduce them exactly.

Regenerate (only when a change is meant to move seeded output) with

    PYTHONPATH=src python tests/test_golden_certify.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equiscalar import basis, groups, harness
from equiscalar.cli import main
from equiscalar.core import FREE, POSITION, euclidean, minkowski

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_certify.json"

VTI = harness.VECTOR_TRANSLATION_INVARIANT
SCALAR = harness.SCALAR_INVARIANT


def _model_fn(group, metric, cross=False):
    cross_fn = (lambda f: {(0, 1): float(np.tanh(f.gram[0, 1]))}) if cross else None
    model = basis.EquivariantModel(
        group, metric,
        basis.FixedClosure(lambda f: np.tanh(f.gram.sum(axis=1)), cross_fn, name="tanh-rowsum"))
    return lambda x: basis.evaluate(model, x)


def _mean(x):
    return x.vectors.mean(axis=0)


def _centered(x):
    return x.vectors - x.vectors.mean(axis=0)


def _blocks(x, scalars):
    return scalars[:, 0:1] * x.vectors[0::2] + x.vectors[1::2]


def _flaky(x):
    if x.vectors[0, 0] > 0.5:
        raise ValueError(f"boom at {x.vectors[0, 0]:.3f}")
    return x.vectors[0]


def _sometimes_nan(x):
    out = x.vectors[0].copy()
    if x.vectors[1, 0] > 1.0:
        out[0] = np.nan
    return out


def _planted(x):
    v = x.vectors[0]
    return v + 1e-3 * (1.0 + np.linalg.norm(v)) * np.array([1.0, 0.0, 0.0])


def _spec(group, dim, n, **kw):
    return harness.SymmetrySpec(group, dim, n, **kw)


def _block_specs(groups_, n, kind):
    common = dict(dim=3, n_vectors=2 * n, roles=(POSITION, FREE) * n, output_kind=kind,
                  blocks=n, scalars_per_block=1)
    return [harness.SymmetrySpec(g, **common) for g in groups_]


# name -> (fn, specs, trials, seed)
API_CASES = {
    "o-d3": (_model_fn("o", euclidean(3)), [_spec("o", 3, 4)], 40, 1),
    "o-d1": (_mean, [_spec("o", 1, 3)], 20, 2),
    "o-d2-scalar": (lambda x: float(np.linalg.norm(x.vectors[0])),
                    [_spec("o", 2, 2, output_kind=SCALAR)], 20, 3),
    "so-d3-cross": (_model_fn("so", euclidean(3), cross=True), [_spec("so", 3, 3)], 40, 4),
    "so-d2": (_mean, [_spec("so", 2, 3)], 20, 5),
    "e-d3": (_model_fn("e", euclidean(3)), [_spec("e", 3, 3, roles=(POSITION,) * 3)], 40, 6),
    "e-mixed-roles": (_mean, [_spec("e", 3, 3, roles=(POSITION, FREE, POSITION))], 20, 7),
    "lorentz-d4": (_model_fn("lorentz", minkowski(4)), [_spec("lorentz", 4, 3)], 40, 8),
    "lorentz-d2": (_mean, [_spec("lorentz", 2, 3, rapidity_max=0.5)], 24, 9),
    "lorentz-d3": (_mean, [_spec("lorentz", 3, 2)], 24, 10),
    "poincare-d4": (_model_fn("poincare", minkowski(4)),
                    [_spec("poincare", 4, 3, roles=(POSITION,) * 3)], 40, 11),
    "poincare-d3-vti": (_centered, [_spec("poincare", 3, 3, roles=(POSITION,) * 3,
                                          output_kind=VTI)], 24, 12),
    "perm-free": (lambda x: 2.0 * x.vectors,
                  [_spec("perm", 3, 4)], 20, 13),
    "perm-mixed-roles": (lambda x: x.vectors[x.position_indices()].sum(axis=0) + 0.0 * x.vectors,
                         [_spec("perm", 3, 4, roles=(POSITION, FREE, FREE, POSITION))], 20, 14),
    "perm-blocks-scalars": (_blocks, [_spec("perm", 3, 4, blocks=2, scalars_per_block=1)], 30, 15),
    "translation-vec": (_mean, [_spec("translation", 3, 3, roles=(POSITION, FREE, POSITION))],
                        20, 16),
    "translation-vti": (_centered, [_spec("translation", 3, 3, roles=(POSITION,) * 3,
                                          output_kind=VTI)], 20, 17),
    "joint-perm-translation-o": (
        lambda x, scalars: _blocks(x, scalars) - x.vectors[0::2].mean(axis=0),
        _block_specs(("perm", "translation", "o"), 3, VTI), 40, 18),
    "joint-lorentz-poincare": (_mean, [_spec("lorentz", 4, 3), _spec("poincare", 4, 3)], 24, 19),
    "joint-perm-e": (_model_fn("e", euclidean(3)),
                     [_spec("perm", 3, 3, roles=(POSITION,) * 3),
                      _spec("e", 3, 3, roles=(POSITION,) * 3)], 24, 20),
    "pseudo-vector": (lambda x: np.cross(x.vectors[0], x.vectors[1]),
                      [_spec("o", 3, 2, output_kind=harness.PSEUDO_VECTOR)], 40, 21),
    "pseudo-as-vector": (lambda x: np.cross(x.vectors[0], x.vectors[1]), [_spec("o", 3, 2)], 40, 22),
    "planted": (_planted, [_spec("o", 3, 2)], 20, 23),
    "raises-sometimes": (_flaky, [_spec("o", 3, 2)], 30, 24),
    "nan-sometimes": (_sometimes_nan, [_spec("o", 3, 2)], 30, 25),
    "dims-disagree": (_mean, [_spec("o", 3, 3), _spec("o", 4, 3)], 6, 26),
    "perm-slots-disagree": (_mean, [_spec("o", 3, 4), _spec("perm", 3, 5)], 6, 27),
    "dims-disagree-raises-first": (_flaky, [_spec("so", 3, 2), _spec("e", 2, 2)], 12, 28),
    "scalar-output-translated": (lambda x: float(x.vectors[0, 0]),
                                 [_spec("translation", 3, 2, roles=(POSITION, FREE))], 4, 29),
    "longer-than-a-chunk": (_mean, [_spec("lorentz", 4, 3), _spec("perm", 4, 3)], 1100, 30),
}


# name -> (target, spec dicts, trials, seed)
_BLOCK_VTI = [dict(group=g, dim=3, n_vectors=8, roles=["position", "free"] * 4,
                   output_kind=VTI, blocks=4, scalars_per_block=1)
              for g in ("perm", "translation", "o")]
CLI_CASES = {
    "gram": ("gram", [dict(group="o", dim=3, n_vectors=5, output_kind=SCALAR)], 30, 31),
    "gram-lorentz": ("gram", [dict(group="lorentz", dim=4, n_vectors=3, output_kind=SCALAR)],
                     16, 32),
    "energy": ("energy", [dict(group=g, dim=3, n_vectors=8, roles=["position", "free"] * 4,
                               output_kind=SCALAR, blocks=4, scalars_per_block=1)
                          for g in ("perm", "e")], 20, 33),
    "emforce": ("emforce", _BLOCK_VTI, 20, 34),
    "einsum": ("einsum:u_j v_k w_m eps_ijk eps_imn", [dict(group="o", dim=3, n_vectors=3)], 12, 35),
    "einsum-pseudo": ("einsum:eps_ijk u_j v_k",
                      [dict(group="o", dim=3, n_vectors=2, output_kind=harness.PSEUDO_VECTOR)],
                      12, 36),
    "model": (f"model:{DATA / 'golden_concat.model.json'}", _BLOCK_VTI, 12, 37),
}


def _api_output(name):
    fn, specs, trials, seed = API_CASES[name]
    report = harness.certify_joint(fn, specs, trials, groups.make_rng(seed))
    return json.dumps(report.to_dict())


def _cli_output(name, workdir):
    target, spec_dicts, trials, seed = CLI_CASES[name]
    spec_path = Path(workdir) / f"spec-{name}.json"
    spec_path.write_text(json.dumps(spec_dicts))
    result = CliRunner().invoke(main, ["certify", "--target", target, "--spec", str(spec_path),
                                       "--trials", str(trials), "--seed", str(seed)])
    return result.output


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(API_CASES))
def test_certify_report_matches_golden(golden, name):
    assert _api_output(name) == golden["api"][name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_certify_cli_output_matches_golden(golden, name, tmp_path):
    assert _cli_output(name, tmp_path) == golden["cli"][name]


def test_golden_cases_cover_failures_and_components(golden):
    reports = {name: json.loads(text) for name, text in golden["api"].items()}
    assert reports["raises-sometimes"]["failures"] and reports["raises-sometimes"]["worst_input"]
    # A NaN output fails its trial: no NaN reaches the mean or drops out of the maximum.
    nan_failures = reports["nan-sometimes"]["failures"]
    assert nan_failures and all(f["error"].startswith("NonFiniteError: ") for f in nan_failures)
    assert np.isfinite(reports["nan-sometimes"]["mean_residual"])
    assert len(reports["dims-disagree"]["failures"]) == 6
    assert len(reports["perm-slots-disagree"]["failures"]) == 6
    assert reports["pseudo-as-vector"]["components"]["det=-1"]["max_residual"] > 1e-2
    assert reports["longer-than-a-chunk"]["trials"] > harness.CHUNK_TRIALS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {"api": {name: _api_output(name) for name in API_CASES},
               "cli": {name: _cli_output(name, tmp) for name in CLI_CASES}}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
