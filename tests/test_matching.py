import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoreg.embedding import pairwise_sq_dists
from egoreg.errors import EmptyInput
from egoreg.features import Keypoint, descriptors, positions
from egoreg.geometry import PixelPoint
from egoreg.matching import (
    MODES,
    MatchConfig,
    MatchPair,
    _query,
    hungarian,
    match_frame_to_shortlist,
    match_nearest_neighbor,
    match_single_frame,
    match_spatiotemporal,
    ratio_filter,
)

DESC_DIM = 128
CTX_DIM = 8256


def make_keypoints(rng, n, desc_noise=0.0, base=None, spread=40.0):
    """Keypoints with random unit descriptors and weak-noise contexts.

    With `base` given, descriptors are noisy copies of base rows, so two
    sets built from one base are in ground-truth correspondence by index.
    """
    if base is None:
        base = rng.normal(size=(n, DESC_DIM))
    desc = base + desc_noise * rng.normal(size=(n, DESC_DIM))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    # context from a fixed projection of the shared base, so sets built from
    # one base agree on contexts (up to the same noise)
    proj = np.random.default_rng(12345).normal(size=(DESC_DIM, CTX_DIM))
    ctx = (base + desc_noise * rng.normal(size=(n, DESC_DIM))) @ proj / DESC_DIM
    kps = []
    for i in range(n):
        kps.append(Keypoint(
            pos=PixelPoint(float(20 + spread * (i % 8)), float(20 + spread * (i // 8))),
            scale=2.0,
            orientation=0.0,
            descriptor=desc[i],
            context=ctx[i],
        ))
    return kps, base


# ------------------------------------------------------------- hungarian


def brute_force_assignment(cost):
    p, q = cost.shape
    best, best_pairs = np.inf, None
    if p <= q:
        for perm in itertools.permutations(range(q), p):
            total = sum(cost[i, j] for i, j in enumerate(perm))
            if total < best:
                best, best_pairs = total, [(i, j) for i, j in enumerate(perm)]
    else:
        for perm in itertools.permutations(range(p), q):
            total = sum(cost[i, j] for j, i in enumerate(perm))
            if total < best:
                best, best_pairs = total, [(i, j) for j, i in enumerate(perm)]
    return best, best_pairs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 7), q=st.integers(1, 7))
def test_hungarian_matches_enumeration(seed, p, q):
    cost = np.random.default_rng(seed).integers(0, 50, size=(p, q)).astype(float)
    pairs = hungarian(cost)
    assert len(pairs) == min(p, q)
    total = sum(cost[i, j] for i, j in pairs)
    best, _ = brute_force_assignment(cost)
    assert total == pytest.approx(best)


def test_hungarian_identity_on_diagonal_costs():
    cost = np.ones((4, 4)) * 10.0
    np.fill_diagonal(cost, 0.0)
    assert sorted(hungarian(cost)) == [(0, 0), (1, 1), (2, 2), (3, 3)]


# ----------------------------------------------------------- ratio test


def test_ratio_filter_single_model_point():
    zq = np.array([[0.0, 0.0]])
    zm = np.array([[1.0, 0.0]])
    kept = ratio_filter([(0, 0)], zq, zm, threshold=0.8)
    assert len(kept) == 1
    assert kept[0].ratio == 0.0


def test_ratio_filter_drops_ambiguous():
    zq = np.array([[0.0, 0.0]])
    # two model points nearly equidistant: ratio ~ 1, must be dropped
    zm = np.array([[1.0, 0.0], [1.01, 0.0]])
    assert ratio_filter([(0, 0)], zq, zm, threshold=0.8) == []
    # far second neighbor: kept
    zm2 = np.array([[1.0, 0.0], [9.0, 0.0]])
    kept = ratio_filter([(0, 0)], zq, zm2, threshold=0.8)
    assert len(kept) == 1
    assert kept[0].embed_dist == pytest.approx(1.0)
    assert kept[0].ratio == pytest.approx(1.0 / 9.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       t_low=st.floats(0.05, 0.5), t_high=st.floats(0.55, 1.0))
def test_ratio_filter_threshold_monotone(seed, t_low, t_high):
    rng = np.random.default_rng(seed)
    zq = rng.normal(size=(6, 3))
    zm = rng.normal(size=(8, 3))
    assignment = [(i, i) for i in range(6)]
    low = ratio_filter(assignment, zq, zm, threshold=t_low)
    high = ratio_filter(assignment, zq, zm, threshold=t_high)
    assert len(low) <= len(high)
    kept_low = {(m.query_idx, m.model_idx) for m in low}
    kept_high = {(m.query_idx, m.model_idx) for m in high}
    assert kept_low <= kept_high


def ratio_filter_per_row(assignment, zq, zm, threshold):
    """Reference: one difference-form distance row per assigned query."""
    q = zm.shape[0]
    out = []
    for i, j in assignment:
        diff = zm - zq[i]
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        d = float(dists[j])
        if q == 1:
            out.append((i, j, d, 0.0))
            continue
        second = float(np.partition(dists, 1)[1])
        if d < threshold * second:
            out.append((i, j, d, d / second if second > 0.0 else 0.0))
    return out


@pytest.mark.parametrize("p,q,dim", [(1, 1, 3), (5, 1, 4), (1, 6, 2), (12, 9, 5),
                                     (9, 14, 8), (40, 35, 20)])
def test_ratio_filter_matches_per_row_loop(p, q, dim):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        zq, zm = rng.normal(size=(p, dim)), rng.normal(size=(q, dim))
        cost = ((zq[:, None, :] - zm[None, :, :]) ** 2).sum(axis=2)
        for threshold in (0.5, 0.8, 1.0):
            for assignment in (hungarian(cost), []):
                got = ratio_filter(assignment, zq, zm, threshold)
                want = ratio_filter_per_row(assignment, zq, zm, threshold)
                assert [(m.query_idx, m.model_idx) for m in got] == \
                    [(i, j) for i, j, _, _ in want]
                for m, (_, _, d, r) in zip(got, want):
                    assert abs(m.embed_dist - d) <= 1e-12
                    assert abs(m.ratio - r) <= 1e-12


# --------------------------------------------------------- mode pipelines


def test_nearest_neighbor_recovers_identity():
    rng = np.random.default_rng(0)
    model_kps, base = make_keypoints(rng, 10)
    query_kps, _ = make_keypoints(rng, 10, desc_noise=0.01, base=base)
    matches = match_nearest_neighbor(query_kps, model_kps)
    assert len(matches) == 10  # no rejection in the baseline
    assert all(m.query_idx == m.model_idx for m in matches)


def nearest_neighbor_per_row(F, M):
    """One query row at a time: the reference for the array pass."""
    d = np.sqrt(pairwise_sq_dists(descriptors(F), descriptors(M)))
    out = []
    for i in range(d.shape[0]):
        j = int(np.argmin(d[i]))
        best = float(d[i, j])
        second = float(np.partition(d[i], 1)[1]) if d.shape[1] > 1 else 0.0
        out.append(MatchPair(i, j, best, best / second if second > 0.0 else 0.0))
    return out


@pytest.mark.parametrize("q", [1, 2, 9])
def test_nearest_neighbor_equals_per_row_reference(q):
    rng = np.random.default_rng(q)
    model_kps, base = make_keypoints(rng, q)
    query_kps, _ = make_keypoints(rng, 7, desc_noise=0.3, base=base[rng.integers(0, q, 7)])
    # zero descriptors sit at distance exactly 0, so best = second = 0
    zero = [replace(kp, descriptor=np.zeros(DESC_DIM)) for kp in model_kps[:1]]
    for F, M in ((query_kps, model_kps), (query_kps + zero, model_kps + zero + zero)):
        assert match_nearest_neighbor(F, M) == nearest_neighbor_per_row(F, M)
    assert match_nearest_neighbor(zero, zero + zero)[0].ratio == 0.0


def test_match_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="bogus"):
        MatchConfig(mode="bogus")


@pytest.mark.parametrize("mode", MODES)
def test_match_config_derives_contexts_and_tracking_from_mode(mode):
    cfg = MatchConfig(mode=mode)
    assert cfg.needs_contexts == (mode != "nn")
    assert cfg.tracks == (mode == "sptemp")


def test_single_frame_recovers_identity():
    rng = np.random.default_rng(1)
    model_kps, base = make_keypoints(rng, 12)
    query_kps, _ = make_keypoints(rng, 12, desc_noise=0.01, base=base)
    matches = match_single_frame(query_kps, model_kps, MatchConfig(mode="single", embedding_dim=8))
    assert len(matches) >= 8
    assert all(m.query_idx == m.model_idx for m in matches)


def test_spatiotemporal_recovers_identity():
    rng = np.random.default_rng(2)
    model_kps, base = make_keypoints(rng, 12)
    query_kps, _ = make_keypoints(rng, 12, desc_noise=0.01, base=base)
    pos = np.array([[kp.pos.u, kp.pos.v] for kp in query_kps])
    # static three-frame tracks
    tracks = np.repeat(pos[:, None, :], 3, axis=1)
    matches = match_spatiotemporal(query_kps, tracks, model_kps, MatchConfig(embedding_dim=8))
    assert len(matches) >= 6
    assert all(m.query_idx == m.model_idx for m in matches)


def test_matching_is_deterministic():
    rng = np.random.default_rng(3)
    model_kps, base = make_keypoints(rng, 12)
    query_kps, _ = make_keypoints(rng, 12, desc_noise=0.05, base=base)
    cfg = MatchConfig(mode="single", embedding_dim=8)
    a = match_single_frame(query_kps, model_kps, cfg)
    b = match_single_frame(query_kps, model_kps, cfg)
    assert [(m.query_idx, m.model_idx, m.embed_dist) for m in a] == \
        [(m.query_idx, m.model_idx, m.embed_dist) for m in b]


def test_contexts_help_under_brightness_shift():
    # intact contexts must not lose matches relative to flattened ones
    # when descriptors are perturbed
    rng = np.random.default_rng(4)
    model_kps, base = make_keypoints(rng, 14)
    query_kps, _ = make_keypoints(rng, 14, desc_noise=0.35, base=base)
    flat = [Keypoint(kp.pos, kp.scale, kp.orientation, kp.descriptor,
                     np.zeros(CTX_DIM, dtype=np.float32) + 1e-3)
            for kp in query_kps]
    flat_model = [Keypoint(kp.pos, kp.scale, kp.orientation, kp.descriptor,
                           np.zeros(CTX_DIM, dtype=np.float32) + 1e-3)
                  for kp in model_kps]
    cfg = MatchConfig(mode="single", embedding_dim=8)
    with_ctx = match_single_frame(query_kps, model_kps, cfg)
    without_ctx = match_single_frame(flat, flat_model, cfg)
    correct_with = sum(m.query_idx == m.model_idx for m in with_ctx)
    correct_without = sum(m.query_idx == m.model_idx for m in without_ctx)
    assert correct_with >= correct_without


def test_coincident_contexts_leave_descriptors_to_decide():
    # 150 identical contexts (more rows than a float32 mean of them keeps
    # exact) centre to exact zeros, so the context kernel is all ones, as
    # it is for all-zero contexts
    rng = np.random.default_rng(8)
    model_kps, base = make_keypoints(rng, 150)
    query_kps, _ = make_keypoints(rng, 150, desc_noise=0.2, base=base)
    row = rng.normal(size=CTX_DIM).astype(np.float32)
    cfg = MatchConfig(mode="single", embedding_dim=8)

    def with_context(kps, ctx):
        return [Keypoint(kp.pos, kp.scale, kp.orientation, kp.descriptor, ctx) for kp in kps]

    assert not _query(with_context(query_kps, row), None).cq.any()
    same = match_single_frame(with_context(query_kps, row), with_context(model_kps, row), cfg)
    zero = np.zeros(CTX_DIM, dtype=np.float32)
    flat = match_single_frame(with_context(query_kps, zero), with_context(model_kps, zero), cfg)
    assert same == flat
    assert sum(m.query_idx == m.model_idx for m in same) >= 10


def test_empty_query_raises():
    rng = np.random.default_rng(5)
    model_kps, _ = make_keypoints(rng, 5)
    with pytest.raises(EmptyInput):
        match_single_frame([], model_kps)


# ------------------------------------------------------------- shortlist


def test_shortlist_shares_query_side_without_changing_matches():
    # the query side is built once per frame; every image must still get
    # exactly what matching it alone returns
    rng = np.random.default_rng(6)
    query_kps, base = make_keypoints(rng, 20)
    model_a, _ = make_keypoints(rng, 20, desc_noise=0.05, base=base)
    model_b, _ = make_keypoints(rng, 14, desc_noise=0.2, base=base[3:17])
    images = [SimpleNamespace(id=7, keypoints=model_a), SimpleNamespace(id=3, keypoints=[]),
              SimpleNamespace(id=5, keypoints=model_b)]
    pos = positions(query_kps)
    tracks = np.stack([pos + rng.normal(scale=2.0, size=pos.shape), pos], axis=1)
    expected = {
        "single": lambda M: match_single_frame(query_kps, M,
                                               MatchConfig(mode="single", embedding_dim=8)),
        "sp": lambda M: match_spatiotemporal(query_kps, pos[:, None, :], M,
                                             MatchConfig(mode="sp", embedding_dim=8)),
        "sptemp": lambda M: match_spatiotemporal(query_kps, tracks, M,
                                                 MatchConfig(mode="sptemp", embedding_dim=8)),
    }
    for mode, single in expected.items():
        got = match_frame_to_shortlist(query_kps, tracks, images,
                                       MatchConfig(mode=mode, embedding_dim=8))
        assert list(got) == [7, 3, 5]
        assert got[3] == []
        for img in (images[0], images[2]):
            assert got[img.id] == single(img.keypoints)
            assert got[img.id]
