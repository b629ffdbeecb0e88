import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoreg.embedding import (
    AffinityMatrix,
    _median_bandwidth,
    _normalized_laplacian,
    _symmetrize_exact,
    assemble_affinity,
    gaussian_kernel,
    median_sigma,
    pairwise_sq_dists,
    solve_embedding,
    spatial_similarity,
    temporal_distance_profile,
    temporal_similarity,
)
from egoreg.errors import DegenerateInput, DimensionMismatch, ShapeMismatch


def random_affinity(rng, p, q, with_query_block=False):
    P = rng.uniform(0.0, 1.0, size=(p, q))
    R = rng.uniform(0.0, 1.0, size=(p, q))
    if with_query_block:
        S = spatial_similarity(rng.uniform(0, 100, size=(p, 2)))
        G = temporal_similarity(rng.uniform(0, 100, size=(p, 3, 2)))
        return assemble_affinity(P, R, S, G)
    return assemble_affinity(P, R)


# ---------------------------------------------------------------- kernels


def test_gaussian_kernel_hand_value():
    # squared distances 1 and 9: the median bandwidth is sigma^2 = 5
    k = gaussian_kernel(np.array([[0.0]]), np.array([[1.0], [3.0]]))
    assert k[0] == pytest.approx(np.exp([-0.2, -1.8]), rel=1e-12)


def test_gaussian_kernel_self_is_one():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 8))
    k = gaussian_kernel(a, a)
    assert np.allclose(np.diag(k), 1.0)
    assert k.max() <= 1.0 and k.min() > 0.0


def test_gaussian_kernel_validation():
    with pytest.raises(DimensionMismatch):
        gaussian_kernel(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gaussian_kernel_coincident_points_are_all_ones(dtype):
    # every squared distance exactly zero: the points coincide, as centred
    # identical contexts do, and no median bandwidth exists
    row = np.arange(16) / 8.0 - 1.0  # sums of its squares are exact
    for a, b in [(np.tile(row, (5, 1)), np.tile(row, (3, 1))),
                 (np.zeros((4, 8256)), np.zeros((6, 8256))),
                 (np.zeros((1, 3)), np.zeros((1, 3)))]:
        a, b = a.astype(dtype), b.astype(dtype)
        for x, y in [(a, b), (a, a)]:
            k = gaussian_kernel(x, y)
            assert k.dtype == np.float64
            assert np.array_equal(k, np.ones((len(x), len(y))))
    with pytest.raises(DegenerateInput):  # no pairs at all is still degenerate
        gaussian_kernel(np.zeros((0, 3), dtype), np.zeros((2, 3), dtype))


def test_gaussian_kernel_precision_follows_its_inputs():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(30, 64)), rng.normal(size=(20, 64))
    k64 = gaussian_kernel(a, b)
    # any float64 operand keeps the whole product in float64
    assert np.array_equal(gaussian_kernel(a.astype(np.float32).astype(np.float64), b),
                          gaussian_kernel(a.astype(np.float32), b))
    # float32 inputs: float32 product, float64 bandwidth and exp
    k32 = gaussian_kernel(a.astype(np.float32), b.astype(np.float32))
    assert k32.dtype == np.float64
    assert np.abs(k32 - k64).max() < 1e-5
    assert not np.array_equal(k32, k64)


def brute_force_median_sigma(a, b=None):
    a = np.atleast_2d(a)
    if b is None:
        d2 = [np.sum((a[i] - a[j]) ** 2) for i in range(len(a)) for j in range(i + 1, len(a))]
    else:
        b = np.atleast_2d(b)
        d2 = [np.sum((x - y) ** 2) for x in a for y in b]
    med = np.median(d2)
    if med <= 0.0:
        pos = [v for v in d2 if v > 0]
        med = min(pos)
    return float(np.sqrt(med))


def outcome(fn, *args):
    """fn's result, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def test_one_container_passed_twice_is_one_set():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(30, 4))
    containers = [x.tolist(), tuple(map(tuple, x)), x[:, 0].tolist(), x[0], x[:1],
                  rng.integers(0, 9, size=(12, 3)), np.array([0.1, 0.7, 2.3])]
    for c in containers:
        arr = np.atleast_2d(np.asarray(c, dtype=np.result_type(np.asarray(c), np.float32)))
        for fn in (gaussian_kernel, median_sigma):
            want, got = outcome(fn, arr, arr), outcome(fn, c, c)
            if isinstance(want, type):
                assert got is want
            else:
                assert np.array_equal(got, want)


def test_median_sigma_two_clusters():
    # points at 0 and at distance 1: squared distances are {0, 1},
    # so sigma^2 is the median of that mixture
    a = np.array([[0.0], [0.0], [1.0], [1.0]])
    # pairs: (0,0) (0,1) (0,1) (0,1) (0,1) (1,1) -> d2 = [0,1,1,1,1,0]
    assert median_sigma(a) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10), d=st.integers(1, 4))
def test_median_sigma_matches_enumeration(seed, n, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d))
    assert median_sigma(a) == pytest.approx(brute_force_median_sigma(a), rel=1e-9)


def test_median_sigma_cross_matches_enumeration():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
    assert median_sigma(a, b) == pytest.approx(brute_force_median_sigma(a, b), rel=1e-9)


def test_median_sigma_subsample_deterministic():
    # 300 points: 44850 pairs, of which 10000 seeded ones are read
    rng = np.random.default_rng(9)
    a = rng.normal(size=(300, 4))
    s1 = median_sigma(a)
    assert s1 == median_sigma(a)
    # and close to the exhaustive value
    d2 = pairwise_sq_dists(a, a)[np.triu_indices(len(a), k=1)]
    assert s1 == pytest.approx(float(np.sqrt(np.median(d2))), rel=0.05)


def test_median_sigma_degenerate():
    with pytest.raises(DegenerateInput):
        median_sigma(np.zeros((4, 2)))
    with pytest.raises(DegenerateInput):
        median_sigma(np.zeros((1, 2)))


def test_kernels_resolve_the_median_sigma_bandwidth_bitwise():
    # kernels read the bandwidth off their own distances
    rng = np.random.default_rng(11)
    for na, nb, d in [(6, 4, 3), (150, 90, 16), (120, 130, 200)]:
        a, b = rng.normal(size=(na, d)), rng.normal(size=(nb, d))
        for x, y, sigma in [(a, b, median_sigma(a, b)), (a, a, median_sigma(a))]:
            assert np.array_equal(gaussian_kernel(x, y),
                                  np.exp(-pairwise_sq_dists(x, y) / (sigma * sigma)))
    for p in (3, 40, 200):  # 200 points: 19900 pairs, subsampled
        pos = rng.uniform(0.0, 320.0, size=(p, 2))
        assert np.array_equal(spatial_similarity(pos),
                              reference_spatial_similarity(pos, median_sigma(pos)))


def test_median_sigma_wide_cross_matches_difference_form():
    # two context-sized sets: 62400 pairs, so 10000 seeded pairs are read
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(260, 8256)), rng.normal(size=(240, 8256))
    flat = np.random.default_rng(0).integers(0, 260 * 240, size=10_000)
    iu, ju = np.divmod(flat, 240)
    d2 = np.concatenate([((a[iu[k:k + 500]] - b[ju[k:k + 500]]) ** 2).sum(axis=1)
                         for k in range(0, flat.size, 500)])
    assert median_sigma(a, b) == pytest.approx(float(np.sqrt(np.median(d2))), rel=1e-9)


# ------------------------------------------------- spatial and temporal


def test_spatial_similarity_shape_and_diag():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 200, size=(7, 2))
    s = spatial_similarity(pos)
    assert s.shape == (7, 7)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 1.0)
    assert s.min() > 0.0 and s.max() <= 1.0


def test_spatial_similarity_decays_with_distance():
    # squared distances 1, 2500 and 2401: the median bandwidth is sigma^2 = 2401
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
    s = spatial_similarity(pos)
    assert s[0, 1] > s[0, 2]
    assert s[0, 1] == pytest.approx(np.exp(-1.0 / 2401.0), rel=1e-12)


def reference_spatial_similarity(pos, sigma=None):
    """The kernel from its own squared distances, as spatial_similarity
    computed it before it was built on gaussian_kernel."""
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    d2 = pairwise_sq_dists(pos, pos)
    if sigma is None:
        sigma = _median_bandwidth(d2, True)
    s = _symmetrize_exact(np.exp(-d2 / (sigma * sigma)))
    np.fill_diagonal(s, 1.0)
    return s


def test_spatial_similarity_is_bitwise_the_distance_form_kernel():
    rng = np.random.default_rng(21)
    for p in (2, 3, 17, 150, 260):  # 150 and 260 points: the median is subsampled
        pos = rng.uniform(0.0, 320.0, size=(p, 2))
        if p == 17:
            pos[5] = pos[9]  # one coincident pair among distinct ones
        assert np.array_equal(spatial_similarity(pos), reference_spatial_similarity(pos))


def test_spatial_similarity_of_one_or_coincident_points_is_all_ones():
    # as gaussian_kernel and temporal_similarity: no distance, no bandwidth
    for pos in ([[3.0, 4.0]], [[3.0, 4.0]] * 5):
        assert np.array_equal(spatial_similarity(pos), np.ones((len(pos), len(pos))))


def test_temporal_profile_hand_case():
    # two points: distance 5 one frame ago, 3 now -> profile (5-3)^2 = 4
    tracks = np.array([
        [[0.0, 0.0], [0.0, 0.0]],
        [[5.0, 0.0], [3.0, 0.0]],
    ])
    prof = temporal_distance_profile(tracks)
    assert prof[0, 1] == pytest.approx(4.0)
    assert prof[0, 0] == 0.0


def test_temporal_similarity_static_is_ones():
    tracks = np.repeat(np.array([[[1.0, 2.0]], [[5.0, 6.0]], [[9.0, 1.0]]]), 4, axis=1)
    g = temporal_similarity(tracks)
    assert np.array_equal(g, np.ones((3, 3)))


def test_temporal_similarity_no_past_is_ones():
    tracks = np.random.default_rng(2).uniform(0, 10, size=(4, 1, 2))
    assert np.array_equal(temporal_similarity(tracks), np.ones((4, 4)))


def test_temporal_similarity_penalizes_wobble():
    steady = np.zeros((3, 3, 2))
    steady[1, :, 0] = 4.0
    steady[2, :, 0] = [8.0, 8.0, 8.0]
    wobble = steady.copy()
    wobble[2, 0, 0] = 20.0  # pair (0,2) distance jumps between frames
    g = temporal_similarity(wobble)
    assert g[0, 1] == pytest.approx(1.0)
    # profiles 0, 144 and 144: the median bandwidth is sigma^2 = 144
    assert g[0, 2] == pytest.approx(np.exp(-1.0), rel=1e-12)


# ------------------------------------------------------------- affinity


def test_assemble_affinity_blocks_single():
    rng = np.random.default_rng(3)
    P = rng.uniform(size=(3, 4))
    R = rng.uniform(size=(3, 4))
    aff = assemble_affinity(P, R)
    assert aff.W.shape == (7, 7)
    assert np.array_equal(aff.W[:3, 3:], P * R)
    assert np.array_equal(aff.W[3:, :3], (P * R).T)
    assert np.all(aff.W[:3, :3] == 0.0)
    assert np.all(aff.W[3:, 3:] == 0.0)


def test_assemble_affinity_blocks_sptemp():
    rng = np.random.default_rng(4)
    P = rng.uniform(size=(4, 5))
    R = rng.uniform(size=(4, 5))
    S = spatial_similarity(rng.uniform(0, 50, size=(4, 2)))
    aff = assemble_affinity(P, R, S)
    # without G the query block is S itself, the bits an all-ones G gives
    assert np.array_equal(aff.W[:4, :4], S)
    assert np.all(aff.W[4:, 4:] == 0.0)
    assert aff.W.tobytes() == assemble_affinity(P, R, S, np.ones((4, 4))).W.tobytes()


def test_assemble_affinity_validation():
    with pytest.raises(ShapeMismatch):
        assemble_affinity(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):  # a temporal kernel without a spatial one
        assemble_affinity(np.ones((2, 2)), np.ones((2, 2)), G=np.ones((2, 2)))


def test_affinity_matrix_rejects_bad_input():
    w = np.zeros((3, 3))
    w[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        AffinityMatrix(w, 2, 1)
    w2 = np.zeros((3, 3))
    w2[2, 2] = 0.5  # model-model edge
    with pytest.raises(ValueError):
        AffinityMatrix(w2, 2, 1)
    with pytest.raises(ShapeMismatch):
        AffinityMatrix(np.zeros((2, 2)), 2, 1)


# ------------------------------------------------------------ embedding


def stacked(emb):
    """Query rows then model rows of an embedding, one (p + q, dim) array."""
    return np.vstack([emb.query, emb.model])


def embedding_objective(affinity, z):
    """sum_ij ||z_i - z_j||^2 W_ij for stacked coordinates z."""
    return float(np.sum(pairwise_sq_dists(z, z) * affinity.W))


def generalized_residual(aff, emb):
    w = aff.W
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    z = stacked(emb)
    worst = 0.0
    for j, lam in enumerate(emb.eigenvalues):
        r = lap @ z[:, j] - lam * deg * z[:, j]
        worst = max(worst, np.linalg.norm(r) / max(np.linalg.norm(z[:, j]), 1e-300))
    return worst


def test_solve_embedding_eigen_residual():
    rng = np.random.default_rng(6)
    aff = random_affinity(rng, 8, 10)
    emb = solve_embedding(aff, dim=5)
    assert emb.query.shape[1] == emb.model.shape[1] == 5 and not emb.truncated
    assert generalized_residual(aff, emb) < 1e-8
    # Z^T D Z = I over the returned vectors
    z = stacked(emb)
    d = aff.W.sum(axis=1)
    gram = z.T @ (z * d[:, None])
    assert np.allclose(gram, np.eye(5), atol=1e-9)


def test_solve_embedding_objective_identity():
    rng = np.random.default_rng(7)
    aff = random_affinity(rng, 6, 9, with_query_block=True)
    emb = solve_embedding(aff, dim=4)
    obj = embedding_objective(aff, stacked(emb))
    assert obj == pytest.approx(2.0 * emb.eigenvalues.sum(), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(3, 9), q=st.integers(3, 9),
       sptemp=st.booleans())
def test_solve_embedding_properties(seed, p, q, sptemp):
    rng = np.random.default_rng(seed)
    aff = random_affinity(rng, p, q, with_query_block=sptemp)
    dim = min(4, p + q - 1)
    emb = solve_embedding(aff, dim)
    assert generalized_residual(aff, emb) < 1e-8
    assert np.all(emb.eigenvalues > 0.0)
    assert emb.query.shape[0] == p and emb.model.shape[0] == q
    obj = embedding_objective(aff, stacked(emb))
    assert obj == pytest.approx(2.0 * emb.eigenvalues.sum(), rel=1e-8, abs=1e-12)


def test_solve_embedding_zero_degree_rows():
    P = np.array([[0.9, 0.0], [0.8, 0.0]])
    R = np.array([[1.0, 0.0], [1.0, 0.0]])
    aff = assemble_affinity(P, R)
    emb = solve_embedding(aff, dim=2)
    # second model keypoint has no edges: flagged and sent to the origin
    assert emb.zero_degree.tolist() == [False, False, False, True]
    assert np.all(emb.model[1] == 0.0)


def test_solve_embedding_truncates_small_graphs():
    aff = assemble_affinity(np.array([[0.7]]), np.array([[0.9]]))
    emb = solve_embedding(aff, dim=60)
    assert emb.truncated
    assert 1 <= emb.query.shape[1] == emb.model.shape[1] == len(emb.eigenvalues) < 60


def test_solve_embedding_degenerate():
    aff = AffinityMatrix(np.zeros((4, 4)), 2, 2)
    with pytest.raises(DegenerateInput):
        solve_embedding(aff, dim=2)


def laplacian_reference(w, nz, inv_sqrt):
    """The symmetric normalized Laplacian as solve_embedding built it with
    one (m, m) temporary per step."""
    sym = w[np.ix_(nz, nz)] * inv_sqrt[:, None] * inv_sqrt[None, :]
    lap = np.eye(int(nz.sum())) - sym
    return (lap + lap.T) / 2.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("zero_rows", [False, True])
def test_in_place_laplacian_equals_the_temporaries_formula_bitwise(seed, zero_rows):
    rng = np.random.default_rng(seed)
    p, q = rng.integers(2, 30, size=2)
    P = rng.uniform(0.0, 1.0, size=(p, q))
    # exact zeros off the diagonal, whose sign the in-place form must keep
    P[rng.uniform(size=P.shape) < 0.3] = 0.0
    P[:, P.max(axis=0) == 0.0] = 0.5
    if zero_rows:
        P[:, rng.choice(q, size=max(1, q // 4), replace=False)] = 0.0
    S = spatial_similarity(rng.uniform(0, 100, size=(p, 2))) if seed % 2 else None
    if zero_rows and S is None:
        P[rng.integers(p)] = 0.0  # a query row with no edge either
    aff = assemble_affinity(P, rng.uniform(0.0, 1.0, size=(p, q)), S)
    deg = aff.W.sum(axis=1)
    nz = deg > 0.0
    assert nz.all() != zero_rows
    inv_sqrt = 1.0 / np.sqrt(deg[nz])
    got = _normalized_laplacian(aff.W, nz, inv_sqrt)
    want = laplacian_reference(aff.W, nz, inv_sqrt)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
