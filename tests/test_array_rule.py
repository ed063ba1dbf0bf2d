"""Every array a public object or call takes is converted and checked by one
rule, ``core.array``: ragged rows, strings, None, complex numbers and bools
are refused like NaN and infinities, each as ``<field> must be <kind>, got
<...>``, the array named by its dtype, shape or first bad entry. The
property test's seed and example count are fixed."""
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from equiscalar import basis, core, einsum, features, groups, mpnn, physics
from equiscalar.errors import EquiscalarError, NonFiniteError, ShapeError

DATA = Path(__file__).parent / "data"

_BAND_KEYS = [(i, (i + s) % 4) for i in range(4) for s in range(2)]
_SAVED = json.loads((DATA / "golden_concat.model.json").read_text())


_MODEL = mpnn.MpnnModel(3, hidden=(4,), mode=mpnn.POOLED)


def _saved_with_bias(v):
    saved = json.loads(json.dumps(_SAVED))
    saved["nets"][0]["g_r"]["biases"][0] = v
    return saved


# entry point -> (the field as its message names it, a value it takes, the call)
SITES = {
    "VectorTuple": ("vectors", np.eye(3), lambda v: core.VectorTuple(v)),
    "VectorTuple.from_json": ("vectors", np.eye(3), lambda v: core.VectorTuple.from_json(json.dumps(
        {"d": 3, "vectors": v.tolist() if isinstance(v, np.ndarray) else v, "roles": ["free"] * 3}))),
    "as_vector": ("vector", np.ones(3), core.as_vector),
    "as_matrix": ("matrix", np.eye(3), core.as_matrix),
    "inner": ("a", np.ones(3), lambda v: core.inner(core.euclidean(3), v, np.ones(3))),
    "Particle.r": ("particle r", np.ones(3), lambda v: physics.Particle(v, np.zeros(3))),
    "Particle.v": ("particle v", np.ones(3), lambda v: physics.Particle(np.zeros(3), v)),
    "boost": ("axis", np.array([1.0, 0.0, 0.0]), lambda v: groups.boost(0.5, v, 4)),
    "cholesky_reconstruct": ("m", np.eye(3), features.cholesky_reconstruct),
    "omega_sample": ("m", np.eye(4), lambda v: features.omega_sample(v, 1)),
    "OmegaSample": ("entries", np.ones(8), lambda v: features.OmegaSample(4, 1, dict(zip(_BAND_KEYS, v)))),
    "Orthogonal": ("q", np.eye(3), groups.Orthogonal),
    "Rotation": ("q", np.eye(3), groups.Rotation),
    "Lorentz": ("q", np.eye(4), groups.Lorentz),
    "Translation": ("w", np.ones(3), groups.Translation),
    "Euclidean.w": ("w", np.ones(3), lambda v: groups.Euclidean(v, np.eye(3))),
    "Euclidean.q": ("q", np.eye(3), lambda v: groups.Euclidean(np.ones(3), v)),
    "Poincare.w": ("w", np.ones(4), lambda v: groups.Poincare(v, np.eye(4))),
    "Poincare.q": ("q", np.eye(4), lambda v: groups.Poincare(np.ones(4), v)),
    "Permutation": ("sigma", np.array([2, 0, 1]), groups.Permutation),
    "einsum.evaluate": ("tensor 'u'", np.ones(3), lambda v: einsum.evaluate(
        einsum.parse("u_i v_i"), {"u": v, "v": np.ones(3)}, 3)),
    "generalized_cross": ("vs", np.eye(3)[:2], basis.generalized_cross),
    "span_check": ("h_out", np.ones(3), lambda v: basis.span_check(core.VectorTuple(np.eye(3)), v)),
    "MpnnModel.from_dict": ("layer 0 net g_r biases[0]", np.zeros(6),
                            lambda v: mpnn.MpnnModel.from_dict(_saved_with_bias(v))),
    "edge_features.qs": ("qs", np.ones(3), lambda v: mpnn.edge_features(v, np.eye(3), np.zeros((3, 3)))),
    "edge_features.rs": ("rs", np.eye(3), lambda v: mpnn.edge_features(np.ones(3), v, np.zeros((3, 3)))),
    "edge_features.vs": ("vs", np.zeros((3, 3)), lambda v: mpnn.edge_features(np.ones(3), np.eye(3), v)),
    "MpnnModel.forward.qs": ("qs", np.ones(3), lambda v: _MODEL.forward(v, np.eye(3), np.zeros((3, 3)))),
    "MpnnModel.forward.rs": ("rs", np.eye(3)[None], lambda v: _MODEL.forward(np.ones((1, 3)), v, np.zeros((1, 3, 3)))),
    "MpnnModel.forward.vs": ("vs", np.zeros((3, 3)), lambda v: _MODEL.forward(np.ones(3), np.eye(3), v)),
    "em_forces.r": ("r", np.eye(3), lambda v: physics.em_forces(v, np.zeros((3, 3)), np.ones(3), 1.0, 1.0)),
    "em_forces.v": ("v", np.zeros((3, 3)), lambda v: physics.em_forces(np.eye(3), v, np.ones(3), 1.0, 1.0)),
    "em_forces.q": ("q", np.ones(3), lambda v: physics.em_forces(np.eye(3), np.zeros((3, 3)), v, 1.0, 1.0)),
    "total_energies.r": ("r", np.eye(3), lambda v: physics.total_energies(v, np.zeros((3, 3)), np.ones(3), 1.0)),
    "total_energies.v": ("v", np.zeros((3, 3)), lambda v: physics.total_energies(np.eye(3), v, np.ones(3), 1.0)),
    "total_energies.m": ("m", np.ones(3), lambda v: physics.total_energies(np.eye(3), np.zeros((3, 3)), v, 1.0)),
}


def _first_entry_as(good, entry):
    """``good`` as nested lists, its first entry replaced by ``entry``."""
    value = good.tolist()
    inner = value
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = entry
    return value


# kind of bad array -> how to make it from a value that is taken
BAD = {
    "ragged": lambda good: _first_entry_as(good, [1.0, 2.0]),
    "string": lambda good: _first_entry_as(good, "1"),
    "none": lambda good: _first_entry_as(good, None),
    "complex": lambda good: _first_entry_as(good, 1 + 0j),
    "bool": lambda good: good.astype(bool),
    "nan": lambda good: _first_entry_as(good, float("nan")),
    "inf": lambda good: _first_entry_as(good, float("inf")),
}

_CASES = [(site, bad) for site in SITES for bad in BAD
          if not (site == "VectorTuple.from_json" and bad in ("complex", "bool"))]  # JSON spells neither


@pytest.mark.parametrize("site", SITES)
def test_a_good_array_is_taken(site):
    _, good, call = SITES[site]
    call(good)
    call(good.tolist())


@pytest.mark.parametrize("site, bad", _CASES, ids=[f"{site}-{bad}" for site, bad in _CASES])
def test_a_bad_array_is_refused_naming_its_field(site, bad):
    field, good, call = SITES[site]
    with pytest.raises(EquiscalarError) as info:
        call(BAD[bad](good))
    message = str(info.value)
    assert re.match(rf"{re.escape(field)} must be .+, got ", message), message
    assert "[[" not in message and "array(" not in message, message  # never the array's repr
    assert isinstance(info.value, NonFiniteError) == (bad in ("nan", "inf")), type(info.value)


@pytest.mark.parametrize("call", [
    lambda q: physics.em_forces(np.eye(3), np.zeros((3, 3)), q, 1.0, 1.0),
    lambda q: physics.total_energies(np.eye(3), np.zeros((3, 3)), q, 1.0),
], ids=["em_forces", "total_energies"])
@pytest.mark.parametrize("values", [np.ones(2), np.ones(4), np.ones((2, 3)), np.float64(1.0)],
                         ids=["short", "long", "extra-axis", "scalar"])
def test_per_particle_values_of_the_wrong_shape_are_refused(call, values):
    message = r"^[qm] must be a finite array of shape \(3,\) or of its last axes, got shape "
    with pytest.raises(ShapeError, match=message):
        call(values)


def test_a_stack_of_sets_may_share_one_set_of_per_particle_values():
    r, v = np.stack([np.eye(3), 2.0 * np.eye(3)]), np.ones((2, 3, 3))
    for call in (lambda q: physics.total_energies(r, v, q, 1.0), lambda q: physics.em_forces(r, v, q, 1.0, 1.0)):
        assert np.array_equal(call(np.ones(3)), call(np.ones((2, 3))))


def test_a_json_bool_array_is_refused():
    with pytest.raises(ShapeError, match="^vectors must be .+, got dtype bool$"):
        core.VectorTuple.from_json('{"d": 2, "vectors": [[true, false]], "roles": ["free"]}')


def test_a_bool_orthogonal_matrix_is_not_a_rotation():
    with pytest.raises(ShapeError, match="^q must be .+, got dtype bool$"):
        groups.Rotation(np.eye(2, dtype=bool))


@pytest.mark.parametrize("sigma", [[1.9, 0.2], [0.5, 1.0], [1e300, 0.0]])
def test_a_non_integral_permutation_is_refused_not_truncated(sigma):
    with pytest.raises(ShapeError, match=rf"^sigma must be .+, got {re.escape(repr(sigma[0]))} at index \[0\]$"):
        groups.Permutation(sigma)


def test_an_integral_float_permutation_is_taken():
    assert groups.Permutation([1.0, 0.0]).sigma.tolist() == [1, 0]


def test_a_string_rapidity_is_refused_by_the_number_rule():
    with pytest.raises(ShapeError, match="^phi must be a finite number, got 'x'$"):
        groups.boost("x", [1.0, 0.0, 0.0], 4)


def test_a_refused_array_is_named_by_its_shape_not_its_values():
    with pytest.raises(ShapeError) as info:
        core.VectorTuple(np.zeros(100_000))
    assert str(info.value) == "vectors must be a finite 2-d array of numbers, got shape (100000,)"


def test_the_first_non_finite_entry_is_named():
    vectors = np.zeros((4, 3))
    vectors[2, 1], vectors[3, 0] = -np.inf, np.nan
    with pytest.raises(NonFiniteError, match=r"^vectors must be .+, got -inf at index \[2, 1\]$"):
        core.VectorTuple(vectors)


# -- no input ends in another exception ------------------------------------------

_LEAVES = (st.floats() | st.integers(-2**70, 2**70) | st.booleans() | st.text(max_size=2) | st.none()
           | st.complex_numbers(max_magnitude=1e3))
_NESTED = st.recursive(_LEAVES, lambda rows: st.lists(rows, max_size=4), max_leaves=16)
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.uint64, np.bool_, np.complex128]),
                     hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))


@pytest.mark.parametrize("build", [core.VectorTuple, core.as_vector, core.as_matrix, groups.Permutation,
                                   groups.Orthogonal], ids=["VectorTuple", "as_vector", "as_matrix",
                                                            "Permutation", "Orthogonal"])
@seed(20261020)
@settings(max_examples=300, database=None, deadline=None)
@given(value=_NESTED | _ARRAYS)
def test_any_nested_list_or_array_is_built_or_refused(build, value):
    try:
        build(value)
    except EquiscalarError:
        pass
