import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equiscalar import basis, features, groups
from equiscalar.core import (
    FREE,
    POSITION,
    VectorTuple,
    euclidean,
    minkowski,
)
from equiscalar.errors import (
    DegenerateInputError,
    IndefiniteMatrixError,
    NonFiniteError,
    RoleError,
    ShapeError,
)


# -- gram --------------------------------------------------------------------


def test_gram_orthonormal_pair():
    x = VectorTuple([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(features.gram(euclidean(2), x), np.eye(2))


def test_gram_single_vector():
    x = VectorTuple([[1.0, 2.0, 3.0]])
    assert features.gram(euclidean(3), x)[0, 0] == 14.0


def test_gram_minkowski_hand_values():
    x = VectorTuple([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    g = features.gram(minkowski(4), x)
    assert np.array_equal(g, np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_gram_exact_symmetry():
    rng = np.random.default_rng(0)
    x = VectorTuple(rng.standard_normal((7, 4)))
    g = features.gram(euclidean(4), x)
    assert np.array_equal(g, g.T)


def _bit_symmetric(g):
    """Mirror entries hold the same bits; np.array_equal takes -0.0 == 0.0
    and NaN != NaN. The features writer relies on this to reuse the texts of
    the upper triangle for the lower one."""
    return np.array_equal(g.view(np.uint64), g.T.view(np.uint64))


def test_gram_is_bit_symmetric_with_zero_vectors():
    v = np.random.default_rng(9).standard_normal((8, 4))
    v[2] = 0.0
    v[5] = -0.0
    v[6] = [-0.0, 0.0, -0.0, 1.0]
    assert _bit_symmetric(features.gram(minkowski(4), VectorTuple(v)))


def test_gram_orthogonal_invariance():
    rng = groups.make_rng(1)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        x = VectorTuple(rng.standard_normal((n, d)))
        q = groups.sample_orthogonal(rng, d)
        g0 = features.gram(euclidean(d), x)
        g1 = features.gram(euclidean(d), groups.apply(q, x))
        assert np.max(np.abs(g1 - g0)) <= 1e-9 * (1.0 + np.max(np.abs(g0)))


def _loop_gram(metric, x):
    """Entry-by-entry oracle: one dot product per i <= j, mirrored."""
    m = np.empty((x.n, x.n))
    weighted = x.vectors * metric.signature
    for i in range(x.n):
        for j in range(i, x.n):
            m[i, j] = m[j, i] = float(np.dot(weighted[i], x.vectors[j]))
    return m


@pytest.mark.parametrize("metric", [euclidean(4), minkowski(4)], ids=["euclid", "minkowski"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 100, 1000])
def test_gram_matches_loop_oracle(metric, n):
    x = VectorTuple(np.random.default_rng(n).standard_normal((n, 4)))
    g = features.gram(metric, x)
    want = _loop_gram(metric, x)
    assert _bit_symmetric(g)
    if n <= 100:
        assert np.array_equal(g, want)
    else:
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def test_gram_metric_dimension_mismatch():
    with pytest.raises(ShapeError):
        features.gram(euclidean(3), VectorTuple(np.eye(2)))


# -- subdeterminants ---------------------------------------------------------


def test_subdeterminants_identity():
    x = VectorTuple(np.eye(3))
    assert features.subdeterminants(x) == {(0, 1, 2): 1.0}


def test_subdeterminants_hand_values_d2():
    x = VectorTuple([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    dets = features.subdeterminants(x)
    assert dets[(0, 1)] == pytest.approx(1.0)
    assert dets[(0, 2)] == pytest.approx(2.0)
    assert dets[(1, 2)] == pytest.approx(2.0)


def test_subdeterminants_swap_antisymmetry():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((4, 3))
    before = features.subdeterminants(VectorTuple(v))
    swapped = v.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    after = features.subdeterminants(VectorTuple(swapped))
    # Subsets containing both swapped slots change sign; the values come from
    # the same 3x3 minors either way.
    assert after[(0, 1, 2)] == pytest.approx(-before[(0, 1, 2)])
    assert after[(0, 1, 3)] == pytest.approx(-before[(0, 1, 3)])


def test_subdeterminants_rotation_invariance_and_reflection_sign():
    rng = groups.make_rng(3)
    x = VectorTuple(rng.standard_normal((5, 3)))
    base = features.subdeterminants(x)
    rot = groups.sample_rotation(rng, 3)
    rotated = features.subdeterminants(groups.apply(rot, x))
    for key in base:
        assert rotated[key] == pytest.approx(base[key], abs=1e-10)
    refl = np.eye(3)
    refl[0, 0] = -1.0
    reflected = features.subdeterminants(x.with_vectors(x.vectors @ refl))
    for key in base:
        assert reflected[key] == pytest.approx(-base[key], abs=1e-10)


@pytest.mark.parametrize("n,d", [(3, 3), (7, 3), (9, 2), (8, 4), (5, 1)])
def test_subdeterminants_match_per_subset_det(n, d):
    x = VectorTuple(np.random.default_rng(n * d).standard_normal((n, d)))
    got = features.subdeterminants(x)
    subsets = list(itertools.combinations(range(n), d))
    assert list(got) == subsets
    for subset in subsets:
        want = np.linalg.det(x.vectors[list(subset)].T)
        assert abs(got[subset] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_subdeterminants_kept_subsets_match_a_fresh_det(d):
    rng = np.random.default_rng(40 + d)
    for n in range(d, 13):
        x = VectorTuple(rng.standard_normal((n, d)))
        subsets = list(itertools.combinations(range(n), d))
        want = [np.linalg.det(x.vectors[list(subset)].T) for subset in subsets]
        for _ in range(2):  # the first call of an (n, d) builds its index, the second reads it
            got = features.subdeterminants(x)
            assert list(got) == subsets
            assert np.array(list(got.values())).tobytes() == np.array(want).tobytes()


def test_subdeterminants_keep_read_only_indices_within_their_bound():
    rng = np.random.default_rng(9)
    for n, d, kept in [(12, 6, True), (13, 6, False), (33, 1, False), (32, 2, True)]:
        features.subdeterminants(VectorTuple(rng.standard_normal((n, d))))
        assert ((n, d) in features._SUBSETS) == kept
    subsets, index = features._SUBSETS[12, 6]
    assert index.shape == (924, 6) and list(subsets) == list(itertools.combinations(range(12), 6))
    with pytest.raises(ValueError):
        index[0, 0] = 1
    with pytest.raises(ValueError):
        features._LOWER[5][1, 0] = False


def test_subdeterminants_count_limit():
    # C(200, 4) = 64,684,950 minors: refused before any subset is built.
    with pytest.raises(ShapeError, match="exceed"):
        features.subdeterminants(VectorTuple(np.ones((200, 4))))


def test_subdeterminants_limit_is_on_stacked_entries(monkeypatch):
    x = VectorTuple(np.random.default_rng(6).standard_normal((16, 3)))
    entries = 560 * 3 * 3  # C(16, 3) minors of 3 x 3
    monkeypatch.setattr(features, "MAX_SUBDET_ENTRIES", entries)
    assert len(features.subdeterminants(x)) == 560
    monkeypatch.setattr(features, "MAX_SUBDET_ENTRIES", entries - 1)
    with pytest.raises(ShapeError):
        features.subdeterminants(x)


def test_subdeterminants_needs_enough_vectors():
    with pytest.raises(ShapeError):
        features.subdeterminants(VectorTuple([[1.0, 0.0, 0.0]]))


# -- translation_reduce ------------------------------------------------------


def test_reduce_first_position_differences():
    x = VectorTuple([[1.0, 1.0], [4.0, 5.0]], (POSITION, POSITION))
    out = features.translation_reduce(x)
    assert np.array_equal(out.vectors, [[3.0, 4.0]])
    assert out.roles == (FREE,)


def test_reduce_translation_invariant():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 3))
    roles = (POSITION, POSITION, POSITION, FREE)
    x = VectorTuple(v, roles)
    shifted = groups.apply(groups.Translation(rng.standard_normal(3)), x)
    for pivot in (features.FIRST_POSITION, features.CENTER_OF_POSITIONS):
        a = features.translation_reduce(x, pivot).vectors
        b = features.translation_reduce(shifted, pivot).vectors
        assert np.max(np.abs(a - b)) <= 1e-12


def test_reduce_center_sums_to_zero():
    rng = np.random.default_rng(5)
    x = VectorTuple(rng.standard_normal((3, 2)), (POSITION,) * 3)
    out = features.translation_reduce(x, features.CENTER_OF_POSITIONS)
    assert np.max(np.abs(out.vectors.sum(axis=0))) <= 1e-12


def test_reduce_interleaved_roles():
    # The first position sits in slot 1, not slot 0.
    v = np.array([[1.0, 2.0], [3.0, 5.0], [-1.0, 4.0], [7.0, 11.0]])
    x = VectorTuple(v, (FREE, POSITION, FREE, POSITION))
    first = features.translation_reduce(x, features.FIRST_POSITION)
    assert np.array_equal(first.vectors, [[1.0, 2.0], [-1.0, 4.0], [4.0, 6.0]])
    assert first.roles == (FREE,) * 3
    center = features.translation_reduce(x, features.CENTER_OF_POSITIONS)
    assert np.array_equal(center.vectors, [[1.0, 2.0], [-2.0, -3.0], [-1.0, 4.0], [2.0, 3.0]])
    assert center.roles == (FREE,) * 4
    assert np.array_equal(x.vectors, v)  # the input is not modified


@pytest.mark.filterwarnings("error")
def test_reduce_overflow_raises_without_a_warning():
    x = VectorTuple([[1.5e308, 0, 0], [1.5e308, 1, 0], [0, 0, 1]], (POSITION,) * 3)
    with pytest.raises(NonFiniteError):
        features.translation_reduce(x, features.CENTER_OF_POSITIONS)
    model = basis.EquivariantModel("e", euclidean(3), basis.uniform_mixture())
    with pytest.raises(NonFiniteError):
        basis.evaluate(model, x)
    apart = VectorTuple([[1.5e308, 0], [-1.5e308, 0]], (POSITION,) * 2)
    with pytest.raises(NonFiniteError):
        features.translation_reduce(apart, features.FIRST_POSITION)


def test_reduce_requires_positions():
    with pytest.raises(RoleError):
        features.translation_reduce(VectorTuple(np.eye(2)))


# -- omega sampling / completion --------------------------------------------


def test_omega_sample_index_set_n4_d2():
    m = np.arange(16.0).reshape(4, 4)
    sample = features.omega_sample(m, 2)
    expected = {
        (0, 0), (0, 1), (0, 2),
        (1, 1), (1, 2), (1, 3),
        (2, 2), (2, 3), (2, 0),
        (3, 3), (3, 0), (3, 1),
    }
    assert set(sample.entries) == expected
    assert len(sample.entries) == 4 * 3
    for (i, j), v in sample.entries.items():
        assert v == m[i, j]


def test_omega_sample_includes_diagonal():
    m = np.random.default_rng(6).standard_normal((6, 6))
    sample = features.omega_sample(m, 1)
    assert all((i, i) in sample.entries for i in range(6))


def test_omega_sample_band_too_wide():
    with pytest.raises(ShapeError):
        features.omega_sample(np.eye(3), 3)


def test_omega_sample_rejects_key_off_band():
    entries = dict(features.omega_sample(np.eye(5), 1).entries)
    entries[(0, 3)] = entries.pop((0, 1))
    with pytest.raises(ShapeError):
        features.OmegaSample(5, 1, entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_omega_sample_rejects_non_finite_entry(bad):
    entries = dict(features.omega_sample(np.eye(5), 1).entries)
    entries[(2, 3)] = bad
    with pytest.raises(NonFiniteError):
        features.OmegaSample(5, 1, entries)


def _low_rank_band(n, d, seed):
    """Criterion 4's generator: a rank-d Gram of n standard normal vectors."""
    v = np.random.default_rng(seed).standard_normal((d, n))
    m = v.T @ v
    return m, features.omega_sample(m, d)


def _held_out(m, sample):
    """Mask of the entries off the band, or of all of them when the band is all of m."""
    held = np.ones(m.shape, dtype=bool)
    for i, j in sample.entries:
        held[i, j] = held[j, i] = False
    if not held.any():
        held[:] = True
    return held


def _held_out_rel(m, sample, result):
    """Relative error off the band, or on the whole matrix when the band is all of it."""
    held = _held_out(m, sample)
    return np.linalg.norm((result.matrix - m)[held]) / np.linalg.norm(m[held])


@pytest.mark.parametrize(
    "n,d,seed",
    [(50, 3, 0), (200, 3, 0), (1000, 3, 0), (200, 1, 0), (200, 2, 0), (200, 4, 0),
     (4, 3, 0), (2, 1, 0), (40, 3, 1), (50, 3, 1)],
)
def test_omega_complete_stitched_recovery(n, d, seed):
    # Up to n=1000, and n=d+1 where the band is the whole matrix. (40, 3, 1),
    # (50, 3, 0) and (50, 3, 1) are the grid cases the chained-solve start
    # got wrong: unconverged, or converged with held-out error above 1e-6.
    m, sample = _low_rank_band(n, d, seed)
    result = features.omega_complete(sample, seed=seed)
    assert result.converged
    assert result.iterations == 1  # the stitched start is exact; one polish sweep
    assert _held_out_rel(m, sample, result) <= 1e-6


def _sequential_stitch(band):
    """Reference for ``features._stitched_factor``: the per-window loop.

    Window k is turned onto the d vectors already placed by an orthogonal
    Procrustes fit (one d x d SVD, reflections allowed) and places its last.
    """
    n, d = band.shape[0], band.shape[1] - 1
    p = np.arange(d + 1)
    grams = band[(np.arange(n)[:, None, None] + np.minimum.outer(p, p)) % n, np.abs(p[:, None] - p)]
    eigvals, eigvecs = np.linalg.eigh(grams)
    if eigvals.min() < -1e-8 * max(1.0, float(np.abs(eigvals).max())):
        return None
    factors = eigvecs[:, :, 1:] * np.sqrt(np.clip(eigvals[:, 1:], 0.0, None))[:, None, :]
    x = np.empty((n, d))
    x[: d + 1] = factors[0]
    for k in range(1, n - d):
        u, _, vt = np.linalg.svd(factors[k, :d].T @ x[k : k + d])
        x[k + d] = factors[k, d] @ (u @ vt)
    return x


def _band(m, d):
    rows = np.arange(m.shape[0])[:, None]
    return m[rows, (rows + np.arange(d + 1)) % m.shape[0]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("size", ["d+1", "d+2", 10, 50, 200, 1000])
def test_stitched_factor_matches_the_sequential_stitch(d, size):
    n = {"d+1": d + 1, "d+2": d + 2}.get(size, size)
    for seed in range(3):
        band = _band(_low_rank_band(n, d, seed)[0], d)
        x, ref = features._stitched_factor(band), _sequential_stitch(band)
        g, g_ref = x @ x.T, ref @ ref.T
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        a = np.random.default_rng(seed).standard_normal((n, d))
        x = features._stitched_factor(_band(-a @ a.T, d))
        assert np.max(np.abs(-x @ x.T + a @ a.T)) <= 1e-8 * np.max(np.abs(a @ a.T))  # every sign -1
        assert _sequential_stitch(_band(-a @ a.T, d)) is None


def _noisy_band(n, d, seed):
    """Criterion 4's rank-d Gram, and its band with 1e-9 Gaussian noise."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((d, n))
    m = v.T @ v
    noise = 1e-9 * rng.standard_normal((n, d + 1))
    keys = features._band_keys(n, d)
    return m, features.OmegaSample(n, d, dict(zip(keys, (_band(m, d) + noise).ravel().tolist())))


@pytest.mark.parametrize("n", [20, 200, 1000])
def test_omega_complete_noise_is_no_worse_than_the_sequential_stitch(monkeypatch, n):
    # Factors set from a measurement against the sequential stitch (median
    # ratios 0.97-1.02, worst 1.11e-6 against 1.05e-6 at n = 1000); never
    # relax them. Fewer seeds do not settle the ratios: on seeds 100-109
    # alone, n = 1000 read 1.28x on the median and 1.93x on the worst.
    cases = [_noisy_band(n, 3, seed) for seed in range(1000, 1030)]
    errors = [_held_out_rel(m, s, features.omega_complete(s)) for m, s in cases]
    monkeypatch.setattr(features, "_stitched_factor", _sequential_stitch)
    oracle = [_held_out_rel(m, s, features.omega_complete(s)) for m, s in cases]
    assert np.median(errors) <= 1.25 * np.median(oracle)
    assert max(errors) <= 2.0 * max(oracle)


@settings(max_examples=25)
@given(d=st.integers(1, 4), data=st.data())
def test_omega_complete_never_raises_on_finite_band(d, data):
    # Any rank (zero, below d, d, full) and any signature, over 200 decades.
    n = data.draw(st.integers(d + 1, 60), label="n")
    rank = data.draw(st.integers(0, d) | st.integers(0, n), label="rank")
    indefinite = data.draw(st.booleans(), label="indefinite")
    exponent = data.draw(st.integers(-100, 100), label="exponent")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((n, rank))
    signs = rng.choice([-1.0, 1.0], rank) if indefinite else np.ones(rank)
    m = (a * signs) @ a.T * 10.0**exponent
    sample = features.omega_sample(m, d)
    result = features.omega_complete(sample)
    assert result.matrix.shape == (n, n)
    assert result.iterations >= 1
    assert not result.converged or np.all(np.isfinite(result.matrix))
    if rank <= d and result.converged:  # then the completion is the source
        held = _held_out(m, sample)
        assert np.linalg.norm((result.matrix - m)[held]) <= 1e-6 * np.linalg.norm(m[held])


def test_omega_complete_linalg_error_is_unconverged(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    result = features.omega_complete(_low_rank_band(10, 3, 0)[1])
    assert not result.converged


def test_omega_complete_rank_one_exact():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(8)
    m = np.outer(v, v)
    result = features.omega_complete(features.omega_sample(m, 1))
    assert result.converged
    assert np.max(np.abs(result.matrix - m)) <= 1e-8 * np.max(np.abs(m))


def test_omega_complete_recovers_low_rank_gram():
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3, 10))
    m = v.T @ v
    result = features.omega_complete(features.omega_sample(m, 3))
    rel = np.linalg.norm(result.matrix - m) / np.linalg.norm(m)
    assert rel <= 1e-6


def test_omega_complete_full_rank_fails():
    # A rank-n matrix is outside the rank-d model; the band does not pin it
    # down and the flag must say so (or the fit residual stays large).
    result = features.omega_complete(features.omega_sample(np.eye(8), 2), max_iter=100)
    recovered = np.max(np.abs(result.matrix - np.eye(8))) <= 1e-6
    assert not recovered
    assert result.iterations <= 100  # one start, so at most max_iter sweeps


def test_omega_complete_overflow_is_unconverged():
    # A full-rank indefinite band is off the model; its unconstrained stitch
    # overflows along the chain, which must end unconverged, not raise.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1000, 1000))
    result = features.omega_complete(features.omega_sample((a * rng.choice([-1.0, 1.0], 1000)) @ a.T, 3))
    assert not result.converged


def test_omega_complete_deterministic():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((2, 7))
    sample = features.omega_sample(v.T @ v, 2)
    a = features.omega_complete(sample, seed=5)
    b = features.omega_complete(sample, seed=5)
    assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_omega_complete_does_not_read_seed(sign):
    v = np.random.default_rng(9).standard_normal((2, 7))
    sample = features.omega_sample(v.T @ (v * [[sign], [1.0]]), 2)  # PSD, then signature (-, +)
    a = features.omega_complete(sample, seed=0)
    b = features.omega_complete(sample, seed=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert (a.converged, a.residual, a.iterations) == (b.converged, b.residual, b.iterations)


def _signed_band(n, d, signs, seed):
    """A rank-d Gram a diag(signs) a^T of n standard normal vectors, and its band."""
    a = np.random.default_rng(seed).standard_normal((n, d))
    m = (a * signs) @ a.T
    return m, features.omega_sample(m, d)


@pytest.mark.parametrize("kind", ["+-", "-+", "negative"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [12, 20, 200, 1000])
def test_omega_complete_recovers_indefinite_rank_d(n, d, kind):
    # Lorentz-style Grams V eta V^T in either sign convention, and -a a^T.
    signs = {"+-": [1.0] + [-1.0] * (d - 1), "-+": [-1.0] + [1.0] * (d - 1), "negative": [-1.0] * d}[kind]
    for seed in range(2):
        m, sample = _signed_band(n, d, np.array(signs), seed)
        result = features.omega_complete(sample)
        assert result.converged
        assert _held_out_rel(m, sample, result) <= 1e-9


@pytest.mark.parametrize("n", [200, 1000])
def test_omega_complete_recovers_indefinite_rank_below_d(n):
    # Windows of rank below d keep roundoff-level eigenpairs; the fit must not
    # invert them, or their errors multiply along the chain until it overflows.
    for signs in ([-1.0], [1.0, -1.0], [-1.0, 1.0, -1.0]):
        m, _ = _signed_band(n, len(signs), np.array(signs), 0)
        sample = features.omega_sample(m, 4)
        result = features.omega_complete(sample)
        assert result.converged
        assert _held_out_rel(m, sample, result) <= 1e-9


def test_omega_complete_negative_gram_regression():
    # A negative definite rank-d Gram that random-start ALS never completed.
    m, sample = _signed_band(48, 2, -1.0, 0)
    result = features.omega_complete(sample)
    assert result.converged
    assert np.max(np.abs(result.matrix - m)) <= 1e-9


@pytest.mark.parametrize("factor", [1e-9, 1e-12])
def test_omega_complete_converged_means_recovered_at_small_scale(factor):
    # The ridge and the residual test act at unit scale, so a tiny band must
    # be normalised too, or a near-zero completion passes as converged.
    m, _ = _low_rank_band(20, 3, 0)
    m = m * factor
    sample = features.omega_sample(m, 3)
    result = features.omega_complete(sample)
    assert result.converged
    assert _held_out_rel(m, sample, result) <= 1e-9


# -- cholesky_reconstruct ----------------------------------------------------


def test_cholesky_identity():
    x = features.cholesky_reconstruct(np.eye(2))
    assert np.allclose(features.gram(euclidean(2), x), np.eye(2), atol=1e-12)


def test_cholesky_round_trip_random_psd():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n))
        m = a @ a.T
        x = features.cholesky_reconstruct(m)
        assert np.max(np.abs(features.gram(euclidean(n), x) - m)) <= 1e-10 * max(
            1.0, np.max(np.abs(m))
        )


def test_cholesky_rank_deficient_zero_padding():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((2, 6))  # rank 2 gram on 6 vectors
    m = v.T @ v
    x = features.cholesky_reconstruct(m)
    assert np.max(np.abs(x.vectors[:, 2:])) <= 1e-6


def test_cholesky_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError) as err:
        features.cholesky_reconstruct(np.diag([1.0, -1.0]))
    assert err.value.min_eigenvalue == pytest.approx(-1.0)


# -- lorentz_orthogonalize ---------------------------------------------------


def _mink_gram(vectors):
    sig = np.array([1.0, -1.0, -1.0, -1.0])
    return (vectors * sig) @ vectors.T


def test_lorentz_gs_standard_basis_unchanged():
    x = VectorTuple(np.eye(4))
    out = features.lorentz_orthogonalize(x, groups.make_rng(0))
    assert np.array_equal(out.tuple.vectors, np.eye(4))
    assert out.restarts == 0


def test_lorentz_gs_off_diagonal_vanishes():
    rng = groups.make_rng(12)
    for _ in range(50):
        x = VectorTuple(rng.standard_normal((3, 4)))
        out = features.lorentz_orthogonalize(x, rng)
        g = _mink_gram(out.tuple.vectors)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-9 * max(1.0, np.max(np.abs(g)))


def test_lorentz_gs_preserves_leading_spans():
    rng = groups.make_rng(13)
    x = VectorTuple(rng.standard_normal((4, 4)))
    out = features.lorentz_orthogonalize(x, rng)
    if out.restarts:
        return  # a restart remixes the tail; leading-span claim is per-block
    for j in range(4):
        basis = x.vectors[: j + 1].T
        coef, *_ = np.linalg.lstsq(basis, out.tuple.vectors[j], rcond=None)
        assert np.linalg.norm(basis @ coef - out.tuple.vectors[j]) <= 1e-9


def test_lorentz_gs_lightlike_input_restarts():
    # First vector lightlike: the very first pivot fails and the remix path
    # must run at least once.
    rng = groups.make_rng(14)
    vecs = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    out = features.lorentz_orthogonalize(VectorTuple(vecs), rng)
    assert out.restarts >= 1
    g = _mink_gram(out.tuple.vectors)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-9 * max(1.0, np.max(np.abs(g)))


def test_lorentz_gs_rejects_dependent_inputs():
    vecs = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(DegenerateInputError):
        features.lorentz_orthogonalize(VectorTuple(vecs), groups.make_rng(0))


def test_lorentz_gs_rejects_too_many_vectors():
    with pytest.raises(DegenerateInputError):
        features.lorentz_orthogonalize(
            VectorTuple(np.random.default_rng(15).standard_normal((5, 4))),
            groups.make_rng(0),
        )
