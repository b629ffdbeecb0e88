import itertools
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import concat_tables, match_rows
from egoreg import matching, parallel
from egoreg.embedding import pairwise_sq_dists
from egoreg.errors import DimensionMismatch, EmptyInput
from egoreg.features import KeypointTable, descriptors
from egoreg.matching import (
    MODES,
    MatchConfig,
    MatchTable,
    _embed_and_assign,
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
    i = np.arange(n)
    xy = np.column_stack([20 + spread * (i % 8), 20 + spread * (i // 8)])
    return KeypointTable(xy, np.full(n, 2.0), np.zeros(n), desc, ctx), base


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
    assert pairs.shape == (min(p, q), 2)
    assert (np.diff(pairs[:, 0]) > 0).all()  # sorted by row
    total = sum(cost[i, j] for i, j in pairs)
    best, _ = brute_force_assignment(cost)
    assert total == pytest.approx(best)


def test_hungarian_identity_on_diagonal_costs():
    cost = np.ones((4, 4)) * 10.0
    np.fill_diagonal(cost, 0.0)
    assert hungarian(cost).tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]


# ----------------------------------------------------------- ratio test


def test_ratio_filter_single_model_point():
    zq = np.array([[0.0, 0.0]])
    zm = np.array([[1.0, 0.0]])
    kept = ratio_filter([(0, 0)], zq, zm, threshold=0.8)
    assert len(kept) == 1
    assert kept.ratio.tolist() == [0.0]


def test_ratio_filter_drops_ambiguous():
    zq = np.array([[0.0, 0.0]])
    # two model points nearly equidistant: ratio ~ 1, must be dropped
    zm = np.array([[1.0, 0.0], [1.01, 0.0]])
    assert len(ratio_filter([(0, 0)], zq, zm, threshold=0.8)) == 0
    # far second neighbor: kept
    zm2 = np.array([[1.0, 0.0], [9.0, 0.0]])
    kept = ratio_filter([(0, 0)], zq, zm2, threshold=0.8)
    assert len(kept) == 1
    assert kept.embed_dist[0] == pytest.approx(1.0)
    assert kept.ratio[0] == pytest.approx(1.0 / 9.0)


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
    kept_low = {(q, j) for q, j, _, _ in match_rows(low)}
    kept_high = {(q, j) for q, j, _, _ in match_rows(high)}
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
                assert [(q, j) for q, j, _, _ in match_rows(got)] == \
                    [(i, j) for i, j, _, _ in want]
                for (_, _, gd, gr), (_, _, d, r) in zip(match_rows(got), want):
                    assert abs(gd - d) <= 1e-12
                    assert abs(gr - r) <= 1e-12


# --------------------------------------------------------- mode pipelines


def test_nearest_neighbor_recovers_identity():
    rng = np.random.default_rng(0)
    model_kps, base = make_keypoints(rng, 10)
    query_kps, _ = make_keypoints(rng, 10, desc_noise=0.01, base=base)
    matches = match_nearest_neighbor(query_kps, model_kps)
    assert len(matches) == 10  # no rejection in the baseline
    assert (matches.query_idx == matches.model_idx).all()


def nearest_neighbor_per_row(F, M):
    """One query row at a time: the reference for the array pass."""
    d = np.sqrt(pairwise_sq_dists(descriptors(F), descriptors(M)))
    out = []
    for i in range(d.shape[0]):
        j = int(np.argmin(d[i]))
        best = float(d[i, j])
        second = float(np.partition(d[i], 1)[1]) if d.shape[1] > 1 else 0.0
        out.append((i, j, best, best / second if second > 0.0 else 0.0))
    return out


@pytest.mark.parametrize("q", [1, 2, 9])
def test_nearest_neighbor_equals_per_row_reference(q):
    rng = np.random.default_rng(q)
    model_kps, base = make_keypoints(rng, q)
    query_kps, _ = make_keypoints(rng, 7, desc_noise=0.3, base=base[rng.integers(0, q, 7)])
    # zero descriptors sit at distance exactly 0, so best = second = 0
    zero = replace(model_kps[:1], descriptors=np.zeros((1, DESC_DIM)))
    for F, M in ((query_kps, model_kps),
                 (concat_tables(query_kps, zero), concat_tables(model_kps, zero, zero))):
        got = match_nearest_neighbor(F, M)
        assert isinstance(got, MatchTable) and got.query_idx.dtype == np.int64
        assert match_rows(got) == nearest_neighbor_per_row(F, M)
    assert match_nearest_neighbor(zero, concat_tables(zero, zero)).ratio.tolist() == [0.0]


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
    assert (matches.query_idx == matches.model_idx).all()


def test_spatiotemporal_recovers_identity():
    rng = np.random.default_rng(2)
    model_kps, base = make_keypoints(rng, 12)
    query_kps, _ = make_keypoints(rng, 12, desc_noise=0.01, base=base)
    pos = query_kps.xy
    # static three-frame tracks
    tracks = np.repeat(pos[:, None, :], 3, axis=1)
    matches = match_spatiotemporal(query_kps, tracks, model_kps, MatchConfig(embedding_dim=8))
    assert len(matches) >= 6
    assert (matches.query_idx == matches.model_idx).all()


def test_matching_is_deterministic():
    rng = np.random.default_rng(3)
    model_kps, base = make_keypoints(rng, 12)
    query_kps, _ = make_keypoints(rng, 12, desc_noise=0.05, base=base)
    cfg = MatchConfig(mode="single", embedding_dim=8)
    a = match_single_frame(query_kps, model_kps, cfg)
    b = match_single_frame(query_kps, model_kps, cfg)
    assert match_rows(a) == match_rows(b)


def test_contexts_help_under_brightness_shift():
    # intact contexts must not lose matches relative to flattened ones
    # when descriptors are perturbed
    rng = np.random.default_rng(4)
    model_kps, base = make_keypoints(rng, 14)
    query_kps, _ = make_keypoints(rng, 14, desc_noise=0.35, base=base)
    flat = replace(query_kps, contexts=np.full((len(query_kps), CTX_DIM), 1e-3, dtype=np.float32))
    flat_model = replace(model_kps, contexts=flat.contexts)
    cfg = MatchConfig(mode="single", embedding_dim=8)
    with_ctx = match_single_frame(query_kps, model_kps, cfg)
    without_ctx = match_single_frame(flat, flat_model, cfg)
    correct_with = (with_ctx.query_idx == with_ctx.model_idx).sum()
    correct_without = (without_ctx.query_idx == without_ctx.model_idx).sum()
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
        return replace(kps, contexts=np.tile(ctx, (len(kps), 1)))

    assert not _query(with_context(query_kps, row), False).cq.any()
    same = match_single_frame(with_context(query_kps, row), with_context(model_kps, row), cfg)
    zero = np.zeros(CTX_DIM, dtype=np.float32)
    flat = match_single_frame(with_context(query_kps, zero), with_context(model_kps, zero), cfg)
    assert match_rows(same) == match_rows(flat)
    assert (same.query_idx == same.model_idx).sum() >= 10


def test_empty_query_raises():
    rng = np.random.default_rng(5)
    model_kps, _ = make_keypoints(rng, 5)
    with pytest.raises(EmptyInput):
        match_single_frame(model_kps[:0], model_kps)


# ------------------------------------------------------------- shortlist


def test_shortlist_shares_query_side_without_changing_matches():
    # the query side is built once per frame; every image must still get
    # exactly what matching it alone returns
    rng = np.random.default_rng(6)
    query_kps, base = make_keypoints(rng, 20)
    model_a, _ = make_keypoints(rng, 20, desc_noise=0.05, base=base)
    model_b, _ = make_keypoints(rng, 14, desc_noise=0.2, base=base[3:17])
    images = [SimpleNamespace(id=7, keypoints=model_a),
              SimpleNamespace(id=3, keypoints=model_a[:0]),
              SimpleNamespace(id=5, keypoints=model_b)]
    pos = query_kps.xy
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
        assert len(got[3]) == 0
        for img in (images[0], images[2]):
            assert match_rows(got[img.id]) == match_rows(single(img.keypoints))
            assert len(got[img.id])


def test_no_tracks_build_no_temporal_kernel(monkeypatch):
    # `sp`, and `sptemp` without tracks, use S as it is: the same pairs as
    # K = 0 tracks, whose temporal kernel is all ones
    rng = np.random.default_rng(8)
    query_kps, base = make_keypoints(rng, 20)
    model_kps, _ = make_keypoints(rng, 18, desc_noise=0.05, base=base[:18])
    images = [SimpleNamespace(id=0, keypoints=model_kps)]
    cfg = MatchConfig(mode="sp", embedding_dim=8)
    want = match_rows(match_spatiotemporal(query_kps, query_kps.xy[:, None, :], model_kps, cfg))
    assert len(want)
    kernels = []
    assemble = matching.assemble_affinity

    def recording(P, R, S=None, G=None):
        kernels.append((S is not None, G))
        return assemble(P, R, S, G)

    def no_kernel(track_pos):
        raise AssertionError("no temporal kernel without tracks")

    monkeypatch.setattr(matching, "assemble_affinity", recording)
    monkeypatch.setattr(matching, "temporal_similarity", no_kernel)
    tracks = np.stack([query_kps.xy + 1.0, query_kps.xy], axis=1)
    for mode, track_pos in (("sp", None), ("sp", tracks), ("sptemp", None)):
        got = match_frame_to_shortlist(query_kps, track_pos, images,
                                       MatchConfig(mode=mode, embedding_dim=8))
        assert match_rows(got[0]) == want
    assert kernels == [(True, None)] * 3


def test_contexts_of_any_one_width_match_and_widths_that_differ_raise():
    rng = np.random.default_rng(9)
    query_kps, base = make_keypoints(rng, 12)
    model_kps, _ = make_keypoints(rng, 12, desc_noise=0.05, base=base)
    narrow = [replace(t, contexts=t.contexts[:, :48]) for t in (query_kps, model_kps)]
    got = match_single_frame(*narrow, MatchConfig(mode="single", embedding_dim=8))
    assert (got.query_idx == got.model_idx).sum() >= 8
    images = [SimpleNamespace(id=0, keypoints=model_kps)]
    for mode in ("single", "sp", "sptemp"):
        with pytest.raises(DimensionMismatch, match="48 wide, model contexts 8256"):
            match_frame_to_shortlist(narrow[0], None, images, MatchConfig(mode=mode))


# ------------------------------------------------------- two at a time


def fan_out_scene(rng):
    """A query with tracks, and five model images in shortlist order: two
    that match, one whose rows are disconnected, one without keypoints, and
    one more that matches."""
    query_kps, base = make_keypoints(rng, 20)
    model_a, _ = make_keypoints(rng, 20, desc_noise=0.05, base=base)
    model_b, _ = make_keypoints(rng, 14, desc_noise=0.2, base=base[3:17])
    model_c, _ = make_keypoints(rng, 16, desc_noise=0.1, base=base[2:18])
    # a context far from every query context: its row's kernel underflows
    # to zero, so it has no edge and the image raises EmptyInput
    far = replace(model_b[:1], contexts=np.full((1, CTX_DIM), 1e4, dtype=np.float32))
    images = [SimpleNamespace(id=7, keypoints=model_a),
              SimpleNamespace(id=2, keypoints=concat_tables(far, model_b[1:])),
              SimpleNamespace(id=3, keypoints=model_a[:0]),
              SimpleNamespace(id=5, keypoints=model_b),
              SimpleNamespace(id=4, keypoints=model_c)]
    pos = query_kps.xy
    tracks = np.stack([pos + rng.normal(scale=2.0, size=pos.shape), pos], axis=1)
    return query_kps, tracks, images


@pytest.mark.parametrize("n_images", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", MODES)
def test_shortlist_two_at_a_time_gives_the_same_pairs_in_order(on_both_paths, mode, n_images):
    query_kps, tracks, images = fan_out_scene(np.random.default_rng(6))
    images = images[:n_images]
    cfg = MatchConfig(mode=mode, embedding_dim=8)
    alone, two = on_both_paths(lambda: match_frame_to_shortlist(query_kps, tracks, images, cfg))
    assert list(alone) == list(two) == [img.id for img in images]
    assert {k: match_rows(v) for k, v in alone.items()} == \
        {k: match_rows(v) for k, v in two.items()}
    assert len(alone[7])
    if n_images >= 2 and mode != "nn":
        assert len(alone[2]) == 0  # the disconnected row
    if n_images >= 3:
        assert len(alone[3]) == 0


def test_a_helper_image_error_is_raised_with_its_own_type(monkeypatch):
    query_kps, tracks, images = fan_out_scene(np.random.default_rng(6))
    # the second image lacks contexts, and the helper thread matches it
    images[1] = SimpleNamespace(id=2, keypoints=replace(images[1].keypoints, contexts=None))
    raised_in = []
    embed = matching._embed_and_assign

    def recording(query, M, cfg):
        try:
            return embed(query, M, cfg)
        except ValueError:
            raised_in.append(threading.current_thread() is threading.main_thread())
            raise

    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: True)
    monkeypatch.setattr(matching, "_embed_and_assign", recording)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="without an attached context"):
        match_frame_to_shortlist(query_kps, tracks, images, MatchConfig(embedding_dim=8))
    assert raised_in == [False] and threading.active_count() == threads


def test_one_image_peak_memory_leaves_out_the_context_stack_during_the_solve():
    # 200 x 180 with full-width contexts: the (180, 8256) float32 context
    # stack is the largest temporary; freed before the kernels are
    # assembled, it is not alive with the solve's (380, 380) matrices
    rng = np.random.default_rng(3)
    query_kps, base = make_keypoints(rng, 200, spread=15.0)
    model_kps, _ = make_keypoints(rng, 180, desc_noise=0.1, base=base[:180], spread=15.0)
    pos = query_kps.xy
    query = _query(query_kps, True, np.stack([pos + 1.0, pos], axis=1))
    stack = 180 * CTX_DIM * 4
    square = 380 * 380 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = _embed_and_assign(query, model_kps, MatchConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pairs) > 150
    # measured: the stack plus ~1.0 squares; with the stack alive through
    # the solve it was the stack plus ~6 squares
    assert stack < peak < stack + 1.5 * square
