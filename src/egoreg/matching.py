"""Keypoint assignment between a query frame and model images.

Query and model keypoints are matched one-to-one in the joint embedding
space by minimum-cost bipartite assignment on squared embedded distances,
then filtered with a ratio test: an assignment survives only when its
embedded distance is clearly smaller than the distance to the query's
second-closest model point. A plain nearest-neighbor matcher on raw
descriptors is provided as a baseline; it keeps every query keypoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .embedding import (
    SINGLE_FRAME,
    SPATIO_TEMPORAL,
    KernelConfig,
    assemble_affinity,
    gaussian_kernel,
    median_sigma,  # noqa: F401  (no longer called here; still importable)
    pairwise_sq_dists,
    solve_embedding,
    spatial_similarity,
    temporal_similarity,
)
from .errors import EmptyInput, RaggedTracks
from .features import Keypoint, contexts, descriptors, positions

THREADS_ENV = "EGOREG_THREADS"

MODE_NN = "nn"
MODE_SINGLE = "single"
MODE_SPATIAL = "sp"
MODE_SPATIO_TEMPORAL = "sptemp"
MODES = (MODE_NN, MODE_SINGLE, MODE_SPATIAL, MODE_SPATIO_TEMPORAL)


@dataclass(frozen=True)
class MatchPair:
    """One accepted query-to-model keypoint assignment."""

    query_idx: int
    model_idx: int
    embed_dist: float
    ratio: float


@dataclass(frozen=True)
class MatchConfig:
    mode: str = MODE_SPATIO_TEMPORAL
    ratio_threshold: float = 0.8
    temporal_window: int = 20
    kernel: KernelConfig = field(default_factory=KernelConfig)


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment on a rectangular matrix.

    Returns min(p, q) (row, column) pairs sorted by row. Requires finite,
    non-negative costs.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise EmptyInput("cost matrix must be 2D and non-empty")
    if not np.all(np.isfinite(cost)) or cost.min() < 0.0:
        raise ValueError("costs must be finite and non-negative")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def ratio_filter(assignment: list[tuple[int, int]], zq: np.ndarray, zm: np.ndarray,
                 threshold: float = 0.8) -> list[MatchPair]:
    """Keep assignments whose distance beats the runner-up by `threshold`.

    For each assigned query the runner-up distance is the second-smallest
    embedded distance to any model point; the pair survives only when
    embed_dist < threshold * runner-up. With a single model point there is
    no runner-up and the pair is kept with ratio 0. Distances of all
    assigned rows come from one norms-plus-dot product.
    """
    zq = np.atleast_2d(zq)
    zm = np.atleast_2d(zm)
    if not assignment:
        return []
    rows, cols = np.array(assignment, dtype=np.intp).T
    dists = np.sqrt(pairwise_sq_dists(zq[rows], zm))
    d = dists[np.arange(rows.size), cols]
    if zm.shape[0] == 1:
        return [MatchPair(i, j, float(x), 0.0) for (i, j), x in zip(assignment, d)]
    second = np.partition(dists, 1, axis=1)[:, 1]
    # a kept pair has d >= 0 below threshold * second, so second > 0
    return [MatchPair(i, j, float(x), float(x / y))
            for (i, j), x, y in zip(assignment, d, second) if x < threshold * y]


class _Query(NamedTuple):
    """The query frame's side of matching, the same for every model image.

    `cq` holds the float32 contexts centred on their mean `mu`; model
    contexts are shifted by the same `mu` before the context kernel.
    """

    dq: np.ndarray
    cq: np.ndarray
    mu: np.ndarray
    S: np.ndarray | None
    G: np.ndarray | None
    mode: str


def _query(F: list[Keypoint], track_pos: np.ndarray | None, cfg: MatchConfig) -> _Query:
    """Stack F once; with track positions also build its spatial and temporal kernels."""
    if not F:
        raise EmptyInput("both keypoint sets must be non-empty")
    dq, cq = descriptors(F), contexts(F)
    # a float64 accumulator makes the mean of identical rows exact, so
    # coincident contexts centre to exact zeros
    mu = cq.mean(axis=0, dtype=np.float64).astype(np.float32)
    cq -= mu
    if track_pos is None:
        return _Query(dq, cq, mu, None, None, SINGLE_FRAME)
    tp = np.asarray(track_pos, dtype=np.float64)
    if tp.ndim != 3 or tp.shape[0] != len(F) or tp.shape[2] != 2:
        raise RaggedTracks(
            f"expected ({len(F)}, K+1, 2) track positions, got {tp.shape}")
    S = spatial_similarity(positions(F), cfg.kernel.sigma_s)
    G = temporal_similarity(tp, cfg.kernel.sigma_g)
    return _Query(dq, cq, mu, S, G, SPATIO_TEMPORAL)


def _embed_and_assign(query: _Query, M: list[Keypoint], cfg: MatchConfig) -> list[MatchPair]:
    if not M:
        raise EmptyInput("both keypoint sets must be non-empty")
    P = gaussian_kernel(query.dq, descriptors(M), cfg.kernel.sigma_f)
    cm = contexts(M)
    cm -= query.mu  # in place: contexts() returns a new array on every call
    R = gaussian_kernel(query.cq, cm, cfg.kernel.sigma_c)
    aff = assemble_affinity(P, R, query.S, query.G, mode=query.mode)
    emb = solve_embedding(aff, cfg.kernel.embedding_dim)
    if emb.zero_degree[aff.p:].any():
        # zero-degree model rows sit at the origin; exclude them from costs
        raise EmptyInput("model keypoints disconnected from the graph")
    assignment = hungarian(pairwise_sq_dists(emb.query, emb.model))
    return ratio_filter(assignment, emb.query, emb.model, cfg.ratio_threshold)


def match_single_frame(F: list[Keypoint], M: list[Keypoint],
                       cfg: MatchConfig = MatchConfig(mode=MODE_SINGLE)) -> list[MatchPair]:
    """Match one query frame against one model image, descriptors + contexts only."""
    return _embed_and_assign(_query(F, None, cfg), M, cfg)


def match_spatiotemporal(F: list[Keypoint], track_pos: np.ndarray, M: list[Keypoint],
                         cfg: MatchConfig = MatchConfig()) -> list[MatchPair]:
    """Match with query-side spatial and temporal structure.

    track_pos is (p, K+1, 2) chronological positions for each query
    keypoint, last entry the current frame; callers pass K = 0 tracks
    (current positions only) for spatial-only matching, which makes the
    temporal kernel all-ones. Untrackable keypoints must already be removed.
    """
    return _embed_and_assign(_query(F, track_pos, cfg), M, cfg)


def match_nearest_neighbor(F: list[Keypoint], M: list[Keypoint]) -> list[MatchPair]:
    """Baseline: every query keypoint to its nearest model descriptor.

    No assignment constraint and no rejection; the recorded ratio is the
    informational first-to-second descriptor distance ratio.
    """
    if not F or not M:
        raise EmptyInput("both keypoint sets must be non-empty")
    d = np.sqrt(pairwise_sq_dists(descriptors(F), descriptors(M)))
    out = []
    for i in range(d.shape[0]):
        j = int(np.argmin(d[i]))
        best = float(d[i, j])
        if d.shape[1] > 1:
            second = float(np.partition(d[i], 1)[1])
            ratio = best / second if second > 0.0 else 0.0
        else:
            ratio = 0.0
        out.append(MatchPair(i, j, best, ratio))
    return out


def match_frame_to_shortlist(F: list[Keypoint], track_pos: np.ndarray | None,
                             shortlist: list, cfg: MatchConfig) -> dict[int, list[MatchPair]]:
    """Match one query frame against each shortlisted model image.

    `shortlist` holds objects with `id` and `keypoints` attributes. The
    query side (descriptor and context stacks, spatial and temporal
    kernels) is built once per frame and shared, read-only, by every
    image. Images are then processed independently (optionally in
    parallel, thread count from the EGOREG_THREADS environment variable),
    each with one pairwise product per kernel, and results are keyed by
    model image id in shortlist order. An image that fails to match
    contributes an empty list rather than aborting the frame.
    """
    if cfg.mode not in MODES:
        raise ValueError(f"unknown match mode: {cfg.mode!r}")
    if not F or not shortlist:
        return {img.id: [] for img in shortlist}
    if cfg.mode in (MODE_NN, MODE_SINGLE):
        tp = None
    elif cfg.mode == MODE_SPATIAL or track_pos is None:
        tp = positions(F)[:, None, :]  # K = 0: current positions only
    else:
        tp = track_pos
    query = None if cfg.mode == MODE_NN else _query(F, tp, cfg)

    def run(img) -> list[MatchPair]:
        try:
            if query is None:
                return match_nearest_neighbor(F, img.keypoints)
            return _embed_and_assign(query, img.keypoints, cfg)
        except EmptyInput:
            return []

    workers = max(1, int(os.environ.get(THREADS_ENV, "1")))
    if workers == 1 or len(shortlist) <= 1:
        results = [run(img) for img in shortlist]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, shortlist))
    return {img.id: res for img, res in zip(shortlist, results)}
