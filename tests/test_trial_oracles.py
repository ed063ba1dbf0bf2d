"""The per-call paths of one certification trial before their fixed costs
were cut, kept as oracles, and checked bit for bit against the library.

Each oracle is the code it replaced, copied as it was: ``basis.evaluate``
with ``translation_reduce``, ``generalized_cross``, ``subdeterminants``,
the position-coefficient centring and the symmetrized sigma loop;
``Particle`` with ``em_force_scalar`` and ``total_energy``; a one-sample
``MpnnModel.forward`` with its edge features and net input; and the
chunked ``certify_joint`` with its per-trial draw checks, row tuples and
component bookkeeping. Only the library helpers those paths still share
unchanged are called from the oracles.
"""
import itertools
import json
import math

import numpy as np
import pytest

from equiscalar import basis, features, groups, harness, mpnn, physics
from equiscalar.core import FREE, MINKOWSKI, POSITION, VectorTuple, as_scalar, as_vector, euclidean, minkowski, sort_sign
from equiscalar.errors import DegenerateInputError, NonFiniteError, RoleError, ShapeError
from equiscalar.features import CENTER_OF_POSITIONS, FIRST_POSITION, ScalarFeatureSet, gram


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


# -- basis.evaluate -------------------------------------------------------------


def _oracle_translation_reduce(x, pivot=FIRST_POSITION):
    pos = x.position_indices()
    if pos.size == 0:
        raise RoleError("translation_reduce requires at least one position vector")
    positions = x.vectors[pos]
    with np.errstate(over="ignore"):
        if pivot == FIRST_POSITION:
            positions -= x.vectors[pos[0]]
        elif pivot == CENTER_OF_POSITIONS:
            positions -= positions.sum(axis=0) / pos.size
        else:
            raise ValueError(f"unknown pivot rule {pivot!r}")
    if not np.isfinite(positions).all():
        raise NonFiniteError("translation-reduced positions overflow to Inf")
    out = x.vectors.copy()
    out[pos] = positions
    if pivot == FIRST_POSITION:
        out = np.delete(out, pos[0], axis=0)
    return VectorTuple._trusted(out, (FREE,) * len(out))


def _oracle_generalized_cross(vs):
    vs = list(vs)
    if not vs:
        raise ShapeError("generalized cross product needs at least one vector")
    d = len(vs) + 1
    mats = np.empty((d, d, d))
    for j, v in enumerate(vs):
        mats[:, :, j] = as_vector(v, d)
    mats[:, :, -1] = np.eye(d)
    return np.linalg.det(mats)


def _oracle_subdeterminants(x):
    subsets = list(itertools.combinations(range(x.n), x.d))
    minors = x.vectors[np.array(subsets, dtype=np.intp)].transpose(0, 2, 1)
    return dict(zip(subsets, np.linalg.det(minors).tolist()))


def permuted_grams(gram, n):
    """Each chunk of ``basis._permutation_chunks`` with its P permuted grams,
    gathered at once: the eager form of the Grams of
    ``ScalarFeatureSet.permuted``."""
    for idx in basis._permutation_chunks(n):
        yield idx, gram[idx[:, :, None], idx[:, None, :]]


class _OracleSymmetrized:
    """The explicit S_n orbit average, one ``total[sigma] += coeffs`` per sigma."""

    def __init__(self, base, n):
        self.base, self.n = base, n

    def coefficients(self, features_):
        n = features_.n
        total = np.zeros(n)
        cross_total = {}
        count = math.factorial(n)
        for idx, grams in permuted_grams(features_.gram, n):
            subdets = basis._permuted_subdets(features_.subdets, idx)
            mapped, values = [], []
            for sigma, g, sd in zip(idx, grams, subdets):
                coeffs, cross = self.base.coefficients(ScalarFeatureSet(g, features_.metric, sd))
                total[sigma] += coeffs
                if cross:
                    mapped.append(sigma[np.array(list(cross), dtype=np.intp)])
                    values += cross.values()
            if values:
                images, signs = sort_sign(np.concatenate(mapped))
                for key, sign, c in zip(map(tuple, images.tolist()), signs.tolist(), values):
                    cross_total[key] = cross_total.get(key, 0.0) + sign * c
        total /= count
        cross_out = {k: v / count for k, v in cross_total.items()} if cross_total else None
        return total, cross_out


def _oracle_evaluate(model, x):
    coeff_fn = model.coeffs
    if model.permutation_symmetric:
        coeff_fn = _OracleSymmetrized(coeff_fn, x.n)
    record = groups.FAMILIES[model.family]
    centred, pseudo = record.translates, record.proper
    reduced = _oracle_translation_reduce(x, CENTER_OF_POSITIONS) if centred else x
    subdets = (_oracle_subdeterminants(x) if x.n >= x.d else {}) if pseudo else None
    feats = ScalarFeatureSet(gram(model.metric, reduced), model.metric, subdets=subdets)
    coeffs, cross_coeffs = coeff_fn.coefficients(feats)
    if centred:
        pos = x.position_indices()
        coeffs = coeffs.copy()
        coeffs[pos] += (basis._POSITION_SUMS[model.mode] - coeffs[pos].sum()) / pos.size
    h = coeffs @ x.vectors
    for subset, c in (cross_coeffs or {}).items():
        h = h + c * _oracle_generalized_cross([x.vectors[i] for i in subset])
    return h


_FIXTURES = {
    "tanh-rowsum": (lambda f: np.tanh(f.gram.sum(axis=1)), None),
    "select0-strided": (lambda f: np.eye(f.n)[:, 0], None),
    "negative-zeros": (lambda f: -np.zeros(f.n), None),
    "subdet-cross": (lambda f: np.cos(f.gram[0]) + sum((f.subdets or {}).values()),
                     lambda f: {(0, 1)[:f.metric.dim - 1]: float(np.tanh(f.gram[0, -1]))}
                     if f.n >= f.metric.dim - 1 else None),
}
_FAMILIES = [("o", euclidean(3)), ("so", euclidean(3)), ("e", euclidean(3)),
             ("lorentz", minkowski(4)), ("poincare", minkowski(4))]


def _role_sets(n):
    yield None
    yield (POSITION,) * n
    yield tuple(POSITION if i % 2 == 0 else FREE for i in range(n))
    yield tuple(FREE if i % 2 == 0 else POSITION for i in range(n))


@pytest.mark.parametrize("mode", [basis.MODE_EQUIVARIANT, basis.MODE_INVARIANT])
@pytest.mark.parametrize("family, metric", _FAMILIES, ids=[f for f, _ in _FAMILIES])
def test_evaluate_matches_the_per_call_oracle_bit_for_bit(family, metric, mode):
    rng = np.random.default_rng([[f for f, _ in _FAMILIES].index(family), mode == basis.MODE_INVARIANT])
    for n in (1, 2, 3, 10):  # SO(3) at n = 1, 2 has no subdeterminant
        for roles in _role_sets(n):
            if groups.FAMILIES[family].translates and POSITION not in (roles or ()):
                continue
            for name, (fn, cross) in _FIXTURES.items():
                if cross is not None and family != "so":
                    continue
                model = basis.EquivariantModel(family, metric, basis.FixedClosure(fn, cross, name), mode)
                for _ in range(3):
                    x = VectorTuple(rng.standard_normal((n, metric.dim)) * 10.0 ** rng.integers(-3, 4),
                                    roles)
                    assert _bits(basis.evaluate(model, x)) == _bits(_oracle_evaluate(model, x)), \
                        (family, mode, n, roles, name)


@pytest.mark.parametrize("family, metric", _FAMILIES, ids=[f for f, _ in _FAMILIES])
def test_symmetrized_evaluate_matches_the_sigma_loop_bit_for_bit(family, metric):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        roles = (POSITION,) * n if groups.FAMILIES[family].translates else None
        for name, (fn, cross) in _FIXTURES.items():
            if cross is not None and family != "so":
                continue
            model = basis.EquivariantModel(family, metric, basis.FixedClosure(fn, cross, name),
                                           permutation_symmetric=True)
            x = VectorTuple(rng.standard_normal((n, metric.dim)), roles)
            assert _bits(basis.evaluate(model, x)) == _bits(_oracle_evaluate(model, x)), (family, n, name)


@pytest.mark.parametrize("pivot", [FIRST_POSITION, CENTER_OF_POSITIONS])
def test_translation_reduce_matches_the_oracle_bit_for_bit(pivot):
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 10, 40):
        for roles in _role_sets(n):
            if POSITION not in (roles or ()):
                continue
            for layout in ("C", "F", "rows"):
                v = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4)
                if layout == "F":
                    v = np.asfortranarray(v)
                elif layout == "rows":
                    v = rng.standard_normal((2 * n, 4))[::2]
                x = VectorTuple(v, roles)
                got, want = features.translation_reduce(x, pivot), _oracle_translation_reduce(x, pivot)
                assert _bits(got.vectors) == _bits(want.vectors) and got.roles == want.roles
    # Positions whose difference (the first pivot) or sum (the centre) overflows.
    for rows in ([[-1.5e308, 0.0], [1.5e308, 1.0]], [[1.5e308, 0.0], [1.5e308, 1.0]]):
        x = VectorTuple(rows, (POSITION, POSITION))
        overflows = pivot == (FIRST_POSITION if rows[0][0] < 0 else CENTER_OF_POSITIONS)
        for fn in (features.translation_reduce, _oracle_translation_reduce):
            if overflows:
                with pytest.raises(NonFiniteError):
                    fn(x, pivot)
            else:
                assert np.isfinite(fn(x, pivot).vectors).all()


def test_generalized_cross_matches_the_oracle_bit_for_bit():
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        for _ in range(20):
            vs = rng.standard_normal((d - 1, d))
            want = _bits(_oracle_generalized_cross(list(vs)))
            assert _bits(basis.generalized_cross(vs)) == want
            assert _bits(basis.generalized_cross(list(vs))) == want
            assert _bits(basis.generalized_cross([list(v) for v in vs])) == want


# -- physics ----------------------------------------------------------------------


def _oracle_particle_fields(r, v, mass=1.0, charge=0.0):
    r = as_vector(r)
    return r, as_vector(v, r.size), as_scalar(mass, "particle mass"), as_scalar(charge, "particle charge")


def _oracle_em_force_scalar(test, sources, k, c):
    if test.r.size != 3 or any(s.r.size != 3 for s in sources):
        raise ShapeError("electromagnetic force is defined for d=3")
    rs = np.array([s.r for s in sources]).reshape(-1, 3)
    hit = np.flatnonzero((rs == test.r[None, :]).all(axis=-1))
    if hit.size:
        raise DegenerateInputError(f"source {hit[0]} coincides with the test particle position")
    qs = np.array([s.charge for s in sources], dtype=np.float64)
    vs = np.array([s.v for s in sources]).reshape(-1, 3)
    q = np.float64(test.charge)
    delta = test.r[None, :] - rs
    coef = (k * q)[..., None] * qs / np.linalg.norm(delta, axis=-1) ** 3
    test_v = test.v[..., None]
    vv, vd = vs @ test_v, delta @ test_v
    return (coef[..., None, :] @ ((1.0 - vv / c**2) * delta + (vd / c**2) * vs))[..., 0, :]


def _oracle_total_energy(particles, G):
    if not particles:
        return 0.0
    r = np.array([p.r for p in particles])
    v = np.array([p.v for p in particles])
    m = np.array([p.mass for p in particles], dtype=np.float64)
    sep = np.linalg.norm(r[..., :, None, :] - r[..., None, :, :], axis=-1)
    sep.reshape(*sep.shape[:-2], -1)[..., :: sep.shape[-1] + 1] = np.inf
    hit = np.argwhere(sep == 0.0)
    if hit.size:
        raise DegenerateInputError("particles %d and %d have coincident positions" % tuple(hit[0][-2:]))
    kinetic = (m[..., None, :] @ (v * v).sum(axis=-1)[..., None])[..., 0, 0]
    pairs = m[..., :, None] * m[..., None, :] / sep
    return float(0.5 * kinetic - G * pairs.reshape(*pairs.shape[:-2], -1).sum(axis=-1))


def test_particles_forces_and_energies_match_the_oracles_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 7):
        for _ in range(20):
            scale = 10.0 ** rng.integers(-2, 3)
            rows = rng.standard_normal((n, 2, 3)) * scale
            charges = rng.standard_normal(n)
            parts = []
            for (r, v), q in zip(rows, charges):
                p = physics.Particle(r, v, mass=abs(q) + 0.1, charge=np.float64(q))
                want = _oracle_particle_fields(r, v, abs(q) + 0.1, np.float64(q))
                assert (_bits(p.r), _bits(p.v), p.mass, p.charge) == tuple(
                    _bits(f) if isinstance(f, np.ndarray) else f for f in want)
                assert type(p.mass) is float and type(p.charge) is float
                parts.append(p)
            for i in range(n):
                others = parts[:i] + parts[i + 1:]
                assert _bits(physics.em_force_scalar(parts[i], others, 1.3, 0.7)) == \
                    _bits(_oracle_em_force_scalar(parts[i], others, 1.3, 0.7))
            got, want = physics.total_energy(parts, 0.9), _oracle_total_energy(parts, 0.9)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    coincident = [physics.Particle([1.0, 0.0, -0.0], [0.0] * 3), physics.Particle([1.0, -0.0, 0.0], [1.0] * 3)]
    for fn in (physics.em_force_scalar, _oracle_em_force_scalar):
        with pytest.raises(DegenerateInputError, match="source 0 coincides"):
            fn(coincident[0], coincident[1:], 1.0, 1.0)
    for fn in (physics.total_energy, _oracle_total_energy):
        with pytest.raises(DegenerateInputError, match="particles 0 and 1"):
            fn(coincident, 1.0)


# -- one-sample MpnnModel.forward -------------------------------------------------


def _oracle_edge_features(qs, rs, vs, config):
    with np.errstate(over="ignore", invalid="ignore"):
        delta = rs[..., :, None, :] - rs[..., None, :, :]
        dist_sq = np.einsum("...ijk,...ijk->...ij", delta, delta)
        channels = [qs[..., :, None] * qs[..., None, :], vs @ np.swapaxes(vs, -1, -2), dist_sq]
        if config.include_inv_sqrt:
            off_diag = ~np.eye(qs.shape[-1], dtype=bool)
            if np.any(dist_sq == 0.0, where=off_diag):
                raise DegenerateInputError("coincident positions with the inverse-sqrt channel enabled")
            channels.append(np.power(dist_sq, -0.5, out=np.zeros_like(dist_sq), where=off_diag))
        if config.rbf_centers:
            dist = np.sqrt(dist_sq)
            for c in config.rbf_centers:
                channels.append(np.exp(-((dist - c) ** 2) / (2.0 * config.rbf_width**2)))
        e = np.stack(channels, axis=-1)
    if not np.isfinite(e).all():
        raise NonFiniteError("charges, positions and velocities must be finite, with finite edge features")
    return e


def _oracle_forward(model, qs, rs, vs):
    qs, rs, vs = (np.asarray(a, dtype=np.float64)[None] for a in (qs, rs, vs))
    n = qs.shape[1]
    off = ~np.eye(n, dtype=bool)
    e = _oracle_edge_features(qs, rs, vs, model.edge_config)
    if model.mode == mpnn.CONCAT:
        order = np.lexsort(np.moveaxis(e, -1, 0)[::-1], axis=-1)
        rows = np.take_along_axis(e, order[..., None], axis=-2)
        z = rows.reshape(*e.shape[:-2], e.shape[-2] * e.shape[-1])[:, :, None, :]
    else:
        b, _, _, c = e.shape
        z = np.empty((b, n, n - 1, 2 * c))
        z[..., :c] = e[:, off].reshape(b, n, n - 1, c)
        z[..., c:] = e.sum(axis=2)[:, :, None, :]
    rows = z.reshape(-1, z.shape[-1])
    h = np.stack([rs - rs.mean(axis=1, keepdims=True), vs])
    for stack in model.stacks:
        g = mpnn._pair_matrix(stack.forward(rows).reshape(2, 2, -1), z.shape, off)
        h = h + (g.sum(axis=-1)[..., None] * h - g @ h).sum(axis=1)
    return h[0 if model.readout == mpnn.READOUT_POSITION else 1][0]


@pytest.mark.parametrize("mode", [mpnn.CONCAT, mpnn.POOLED])
def test_one_sample_forward_matches_the_oracle_bit_for_bit(mode):
    configs = [mpnn.EdgeConfig(), mpnn.EdgeConfig(include_inv_sqrt=True),
               mpnn.EdgeConfig(include_inv_sqrt=True, rbf_centers=(0.5, 1.5), rbf_width=0.7)]
    for n in (1, 2, 3, 4, 5, 8):
        for config in configs:
            for readout in (mpnn.READOUT_POSITION, mpnn.READOUT_VELOCITY):
                model = mpnn.MpnnModel(n, layers=2, hidden=(16, 16), mode=mode, edge_config=config,
                                       readout=readout, seed=n)
                data = np.random.default_rng(n)
                for _ in range(4):
                    qs, rs, vs = data.choice([-1.0, 1.0], n), data.uniform(-1, 1, (n, 3)), data.normal(0, 0.3, (n, 3))
                    assert _bits(model.forward(qs, rs, vs)) == _bits(_oracle_forward(model, qs, rs, vs))
    model = mpnn.MpnnModel(3, mode=mode, edge_config=mpnn.EdgeConfig(include_inv_sqrt=True))
    rs = np.zeros((3, 3))
    for fn in (model.forward, lambda *a: _oracle_forward(model, *a)):
        with pytest.raises(DegenerateInputError):
            fn(np.ones(3), rs, rs)


# -- whole seeded certify_joint reports ---------------------------------------------


def _oracle_draw_lorentz(rng, d_plus_1, rapidity_max):
    d = d_plus_1 - 1
    a = rng.standard_normal((d, d)) if d >= 2 else np.empty((0, 0))
    phi = rng.uniform(-rapidity_max, rapidity_max)
    axis = rng.standard_normal(d)
    norm = np.linalg.norm(axis)
    while norm < 1e-8:
        axis = rng.standard_normal(d)
        norm = np.linalg.norm(axis)
    return a, phi, axis / norm


@pytest.mark.parametrize("family", ["lorentz", "poincare"])
def test_lorentz_draws_match_the_oracle_bit_for_bit(family):
    for seed in range(30):
        for dim in (2, 3, 4, 7):
            rng, ref = groups.make_rng(seed), groups.make_rng(seed)
            for _ in range(5):
                got = groups.draw(family, rng, dim, 1.5)
                want = ((ref.standard_normal(dim),) if family == "poincare" else ()) + \
                    _oracle_draw_lorentz(ref, dim, 1.5)
                assert [_bits(g) for g in got] == [_bits(w) for w in want]



def _oracle_sample_input(specs, rng, trial):
    spec = specs[0]
    n, d = spec.n_vectors, spec.dim
    vecs = rng.standard_normal((n, d))
    if trial % 4 == 3 and any(groups.FAMILIES[s.group].metric == MINKOWSKI for s in specs):
        draw = rng.standard_normal((n, d))
        u, scale = draw[:, :-1], draw[:, -1]
        u = u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
        vecs[:, 0] = scale
        vecs[:, 1:] = (0.999 * scale)[:, None] * u
    scalars = rng.standard_normal((spec.blocks, spec.scalars_per_block)) if spec.scalars_per_block else None
    return vecs, scalars


def _oracle_per_trial_outputs(fn, x, scalars, images, image_scalars, count, errors, late):
    def call(f, y, s):
        return f(y) if s is None else f(y, s)

    n = x.n // count
    outs, outs2 = [None] * count, [None] * count
    for t in range(count):
        try:
            outs[t] = np.asarray(call(fn, x.rows(t * n, (t + 1) * n),
                                      None if scalars is None else scalars[t]), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            errors[t] = exc
            continue
        if images is None:
            continue
        try:
            out2 = np.asarray(call(fn, images.rows(t * n, (t + 1) * n),
                                   None if image_scalars is None else image_scalars[t]), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            late[t] = exc
            continue
        if out2.shape != outs[t].shape:
            late[t] = ShapeError(f"output of shape {out2.shape} on the image, {outs[t].shape} on the input")
        else:
            outs2[t] = out2
    by_shape = {}
    for t, out in enumerate(outs):
        if out is not None:
            by_shape.setdefault(out.shape, []).append(t)
    shapes = []
    for idx in by_shape.values():
        done = [k for k, t in enumerate(idx) if outs2[t] is not None]
        shapes.append((idx, np.array([outs[t] for t in idx]), done, np.array([outs2[idx[k]] for k in done])))
    return shapes


def _oracle_chunk_results(fn, specs, chunk, rng):
    inputs, draws = [], [[] for _ in specs]
    per_spec = [(spec.group, harness._element_dim(spec), spec.rapidity_max, drawn)
                for spec, drawn in zip(specs, draws)]
    for trial in chunk:
        inputs.append(_oracle_sample_input(specs, rng, trial))
        for group, dim, rapidity_max, drawn in per_spec:
            drawn.append(groups.draw(group, rng, dim, rapidity_max))
    elements = [groups.sample_stack(spec.group, drawn) for spec, drawn in zip(specs, draws)]
    dets = [None if isinstance(g, groups.Permutation) else np.linalg.det(g.q) for g in elements]
    positive = [(det > 0).tolist() for g, det in zip(elements, dets)
                if not isinstance(g, (groups.Permutation, groups.Translation))]
    count = len(chunk)
    x = VectorTuple._trusted(np.concatenate([v for v, _ in inputs]), specs[0].roles * count)
    scalars = None if inputs[0][1] is None else np.array([s for _, s in inputs])
    images, image_scalars = x, scalars
    applied, apply_error = len(specs), None
    for j, (g, spec) in enumerate(zip(elements, specs)):
        try:
            images, image_scalars = harness._apply_stack(g, spec, images, image_scalars)
        except Exception as exc:  # noqa: BLE001
            applied, apply_error = j, exc
            break
    errors, late = [None] * count, [None] * count
    shapes = None if apply_error else harness._batched_outputs(fn, x, scalars, images, image_scalars, count)
    if shapes is None:
        shapes = _oracle_per_trial_outputs(fn, x, scalars, None if apply_error else images,
                                           image_scalars, count, errors, late)
    residuals = [None] * count
    for idx, stack, done, outs2 in shapes:
        expected = stack
        try:
            for j, (g, det, spec) in enumerate(zip(elements, dets, specs)):
                if j == applied:
                    raise apply_error
                expected = harness._transform(g, det, spec, expected,
                                              slice(None) if len(idx) == count else idx)
        except Exception as exc:  # noqa: BLE001
            for t in idx:
                errors[t] = exc
            continue
        if not done:
            continue
        if len(done) < len(idx):
            stack, expected = stack[done], expected[done]
        stacked = harness._norms(outs2 - expected) / (1.0 + harness._norms(stack))
        for k, residual in zip(done, stacked.tolist()):
            residuals[idx[k]] = residual
    results = []
    for t in range(count):
        error = errors[t] if errors[t] is not None else late[t]
        if error is not None:
            results.append((error, None, ()))
            continue
        results.append((None, residuals[t], [harness._DET_KEYS[p[t]] for p in positive]))
    return x, scalars, results


def _oracle_certify_joint(fn, specs, trials, rng, chunk_trials):
    report = harness.CertReport(trials=int(trials))
    n = specs[0].n_vectors
    total, worst = 0.0, None
    for start in range(0, trials, chunk_trials):
        chunk = range(start, min(trials, start + chunk_trials))
        x, scalars, results = _oracle_chunk_results(fn, specs, chunk, rng)
        for t, (error, residual, keys) in enumerate(results):
            if error is not None:
                report.failures.append({"trial": start + t, "error": f"{type(error).__name__}: {error}",
                                        "input": harness._trial_input(x, scalars, t, n)})
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
        report.worst_input = harness._trial_input(*worst)
    done = trials - len(report.failures)
    report.mean_residual = total / done if done else float("nan")
    return report


def _model_target(family, metric, cross=False):
    cross_fn = (lambda f: {(0, 1): float(np.tanh(f.gram[0, 1]))}) if cross else None
    model = basis.EquivariantModel(family, metric, basis.FixedClosure(
        lambda f: np.tanh(f.gram.sum(axis=1)), cross_fn, name="tanh-rowsum"))
    return lambda x: basis.evaluate(model, x)


def _ragged(x, *scalars):
    v = x.vectors
    if v[0, 0] > 1.2:
        raise ArithmeticError("first coordinate too large")
    out = v * (1.0 + 0.01 * np.tanh(v[0, 0])) + (0.0 if v[1, 0] < 0.5 else 1e-3)
    return out if v[0, 1] > 0 else out[0]


def _planted(x):
    v = x.vectors[0]
    return v + 1e-3 * (1.0 + np.linalg.norm(v)) * np.array([1.0, 0.0, 0.0])


def _emforce(x, scalars):
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], charge=scalars[i, 0])
             for i in range(x.n // 2)]
    return np.array([physics.em_force_scalar(parts[i], parts[:i] + parts[i + 1:], 1.0, 1.0)
                     for i in range(len(parts))])


def _energy(x, scalars):
    parts = [physics.Particle(x.vectors[2 * i], x.vectors[2 * i + 1], mass=abs(scalars[i, 0]) + 0.1)
             for i in range(x.n // 2)]
    return physics.total_energy(parts, 1.0)


def _mpnn_target(mode):
    model = mpnn.MpnnModel(4, layers=2, hidden=(16, 16), mode=mode,
                           edge_config=mpnn.EdgeConfig(include_inv_sqrt=True), seed=3)
    return lambda x, scalars: model.forward(scalars[:, 0], x.vectors[0::2], x.vectors[1::2])


def _spec(group, dim, n, **kw):
    return harness.SymmetrySpec(group, dim, n, **kw)


def _block_specs(groups_, kind):
    return [harness.SymmetrySpec(g, 3, 8, roles=(POSITION, FREE) * 4, output_kind=kind, blocks=4,
                                 scalars_per_block=1) for g in groups_]


_VTI = harness.VECTOR_TRANSLATION_INVARIANT
# name -> (fn, specs, trials)
_CERT_CASES = {
    "o-n3": (_model_target("o", euclidean(3)), [_spec("o", 3, 3)], 30),
    "so-n3-cross": (_model_target("so", euclidean(3), cross=True), [_spec("so", 3, 3)], 30),
    "so-n2": (_model_target("so", euclidean(3)), [_spec("so", 3, 2)], 12),
    "e-n10": (_model_target("e", euclidean(3)), [_spec("e", 3, 10, roles=(POSITION,) * 10)], 12),
    "lorentz-n3": (_model_target("lorentz", minkowski(4)), [_spec("lorentz", 4, 3)], 30),
    "poincare-mixed": (_model_target("poincare", minkowski(4)),
                       [_spec("poincare", 4, 3, roles=(POSITION, FREE, POSITION))], 30),
    "planted": (_planted, [_spec("o", 3, 2)], 20),
    "ragged-joint": (_ragged, [_spec(g, 4, 3, roles=(POSITION, FREE, POSITION))
                               for g in ("lorentz", "perm", "poincare")], 23),
    "ragged-o-perm-e": (_ragged, [_spec(g, 3, 3, roles=(POSITION, FREE, POSITION))
                                  for g in ("o", "perm", "e")], 23),
    "emforce": (_emforce, _block_specs(("perm", "translation", "o"), _VTI), 20),
    "energy": (_energy, _block_specs(("perm", "e"), harness.SCALAR_INVARIANT), 20),
    # Every residual exactly 0: the worst input is the last trial's.
    "perm-ties": (lambda x: 2.0 * x.vectors, [_spec("perm", 3, 4)], 20),
    # Images whose permuted roles differ from the input's, read by the target.
    "perm-mixed-roles": (lambda x: x.vectors[x.position_indices()].sum(axis=0) + 0.0 * x.vectors,
                         [_spec("perm", 3, 4, roles=(POSITION, FREE, FREE, POSITION))], 20),
    "mpnn-concat": (_mpnn_target(mpnn.CONCAT), _block_specs(("perm", "translation", "o"), _VTI), 10),
    "mpnn-pooled": (_mpnn_target(mpnn.POOLED), _block_specs(("perm", "translation", "o"), _VTI), 10),
}


@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("name", sorted(_CERT_CASES))
def test_certify_joint_report_matches_the_oracle_bit_for_bit(monkeypatch, name, chunk):
    fn, specs, trials = _CERT_CASES[name]
    monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
    for seed in (0, 1):
        got = harness.certify_joint(fn, specs, trials, groups.make_rng(seed))
        want = _oracle_certify_joint(fn, specs, trials, groups.make_rng(seed), chunk)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
