"""Keypoint assignment between a query frame and model images.

Query and model keypoints are matched one-to-one in the joint embedding
space by minimum-cost bipartite assignment on squared embedded distances,
then filtered with a ratio test: an assignment survives only when its
embedded distance is clearly smaller than the distance to the query's
second-closest model point. A plain nearest-neighbor matcher on raw
descriptors is provided as a baseline; it keeps every query keypoint.
Both give one `MatchTable` of columns per model image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

# perfbench's tracer wraps the embedding functions, match_single_frame,
# match_spatiotemporal and median_sigma by name in this namespace, so the
# names stay here even where the pipeline does not call them
from .embedding import (
    assemble_affinity,
    gaussian_kernel,
    median_sigma,  # noqa: F401
    pairwise_sq_dists,
    solve_embedding,
    spatial_similarity,
    temporal_similarity,
)
from .errors import DimensionMismatch, EmptyInput, RaggedTracks
from .features import KeypointTable, contexts, descriptors
from .parallel import map_on_two

MODE_NN = "nn"
MODE_SINGLE = "single"
MODE_SPATIAL = "sp"
MODE_SPTEMP = "sptemp"
MODES = (MODE_NN, MODE_SINGLE, MODE_SPATIAL, MODE_SPTEMP)


@dataclass(frozen=True, eq=False)
class MatchTable:
    """Accepted query-to-model keypoint assignments, by ascending query row."""

    query_idx: np.ndarray   # (n,) int64
    model_idx: np.ndarray   # (n,) int64
    embed_dist: np.ndarray  # (n,) float64
    ratio: np.ndarray       # (n,) float64

    def __len__(self) -> int:
        return len(self.query_idx)

    @classmethod
    def empty(cls) -> MatchTable:
        idx, vals = np.zeros(0, dtype=np.int64), np.zeros(0)
        return cls(idx, idx, vals, vals)


@dataclass(frozen=True)
class MatchConfig:
    """How query frames are matched.

    `mode` is one of MODES: `nn` (nearest raw descriptor), `single`
    (descriptors and contexts in the joint embedding), `sp` (plus the
    spatial layout of the query keypoints) or `sptemp` (plus their
    temporal stability over `temporal_window` past frames). Every kernel
    takes its median-heuristic bandwidth.
    """

    mode: str = MODE_SPTEMP
    ratio_threshold: float = 0.8
    temporal_window: int = 20
    embedding_dim: int = 60

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown match mode: {self.mode!r}")

    @property
    def needs_contexts(self) -> bool:
        """Every mode but `nn` embeds covariance contexts."""
        return self.mode != MODE_NN

    @property
    def tracks(self) -> bool:
        """Only `sptemp` tracks query keypoints over past frames."""
        return self.mode == MODE_SPTEMP


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-total-cost one-to-one assignment on a rectangular matrix.

    Returns a (min(p, q), 2) index array of (row, column) pairs sorted by
    row. Requires finite, non-negative costs.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise EmptyInput("cost matrix must be 2D and non-empty")
    if not np.all(np.isfinite(cost)) or cost.min() < 0.0:
        raise ValueError("costs must be finite and non-negative")
    return np.column_stack(linear_sum_assignment(cost))  # rows come sorted


def ratio_filter(assignment: np.ndarray, zq: np.ndarray, zm: np.ndarray,
                 threshold: float) -> MatchTable:
    """Keep assignments whose distance beats the runner-up by `threshold`.

    For each (query row, model row) pair of `assignment`, the runner-up
    distance is the query's second-smallest embedded distance to any model
    point; the pair survives only when embed_dist < threshold * runner-up.
    With a single model point there is no runner-up and the pair is kept
    with ratio 0. Distances of all assigned rows come from one
    norms-plus-dot product.
    """
    zq = np.atleast_2d(zq)
    zm = np.atleast_2d(zm)
    rows, cols = np.asarray(assignment, dtype=np.int64).reshape(-1, 2).T
    dists = np.sqrt(pairwise_sq_dists(zq[rows], zm))
    d = dists[np.arange(rows.size), cols]
    if zm.shape[0] == 1:
        return MatchTable(rows, cols, d, np.zeros_like(d))
    second = np.partition(dists, 1, axis=1)[:, 1]
    # a kept pair has d >= 0 below threshold * second, so second > 0
    keep = d < threshold * second
    return MatchTable(rows[keep], cols[keep], d[keep], d[keep] / second[keep])


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


def _query(F: KeypointTable, spatial: bool, track_pos: np.ndarray | None = None) -> _Query:
    """F's columns, centred once; with `spatial` also its spatial kernel,
    and with track positions its temporal kernel."""
    if not len(F):
        raise EmptyInput("both keypoint sets must be non-empty")
    dq, c = descriptors(F), contexts(F)
    # a float64 accumulator makes the mean of identical rows exact, so
    # coincident contexts centre to exact zeros
    mu = c.mean(axis=0, dtype=np.float64).astype(np.float32)
    cq = c - mu
    S = spatial_similarity(F.xy) if spatial else None
    G = None
    if track_pos is not None:
        tp = np.asarray(track_pos, dtype=np.float64)
        if tp.ndim != 3 or tp.shape[0] != len(F) or tp.shape[2] != 2:
            raise RaggedTracks(
                f"expected ({len(F)}, K+1, 2) track positions, got {tp.shape}")
        G = temporal_similarity(tp)
    return _Query(dq, cq, mu, S, G)


def _embed_and_assign(query: _Query, M: KeypointTable, cfg: MatchConfig) -> MatchTable:
    if not len(M):
        raise EmptyInput("both keypoint sets must be non-empty")
    cm = contexts(M)
    if cm.shape[1] != len(query.mu):
        raise DimensionMismatch(
            f"query contexts are {len(query.mu)} wide, model contexts {cm.shape[1]}")
    P = gaussian_kernel(query.dq, descriptors(M))
    cm = cm - query.mu  # one pass over the column into a new array
    R = gaussian_kernel(query.cq, cm)
    # two images are matched at a time, so neither carries its (q, 8256)
    # centred contexts or its kernels into the solve
    del cm
    aff = assemble_affinity(P, R, query.S, query.G)
    del P, R
    emb = solve_embedding(aff, cfg.embedding_dim)
    if emb.zero_degree[aff.p:].any():
        # zero-degree model rows sit at the origin; exclude them from costs
        raise EmptyInput("model keypoints disconnected from the graph")
    assignment = hungarian(pairwise_sq_dists(emb.query, emb.model))
    return ratio_filter(assignment, emb.query, emb.model, cfg.ratio_threshold)


def match_single_frame(F: KeypointTable, M: KeypointTable,
                       cfg: MatchConfig = MatchConfig(mode=MODE_SINGLE)) -> MatchTable:
    """Match one query frame against one model image, descriptors + contexts only."""
    return _embed_and_assign(_query(F, False), M, cfg)


def match_spatiotemporal(F: KeypointTable, track_pos: np.ndarray, M: KeypointTable,
                         cfg: MatchConfig = MatchConfig()) -> MatchTable:
    """Match with query-side spatial and temporal structure.

    track_pos is (p, K+1, 2) chronological positions for each query
    keypoint, last entry the current frame. K = 0 tracks (current
    positions only) make the temporal kernel all-ones, which matches
    spatially only, as `match_frame_to_shortlist` does without tracks.
    Untrackable keypoints must already be removed.
    """
    return _embed_and_assign(_query(F, True, track_pos), M, cfg)


def match_nearest_neighbor(F: KeypointTable, M: KeypointTable) -> MatchTable:
    """Baseline: every query keypoint to its nearest model descriptor.

    No assignment constraint and no rejection; the recorded ratio is the
    informational first-to-second descriptor distance ratio.
    """
    if not len(F) or not len(M):
        raise EmptyInput("both keypoint sets must be non-empty")
    d = np.sqrt(pairwise_sq_dists(descriptors(F), descriptors(M)))
    j = np.argmin(d, axis=1)
    best = d[np.arange(d.shape[0]), j]
    second = np.partition(d, 1, axis=1)[:, 1] if d.shape[1] > 1 else np.zeros_like(best)
    ratio = np.divide(best, second, out=np.zeros_like(best), where=second > 0.0)
    return MatchTable(np.arange(len(j)), j, best, ratio)


def match_frame_to_shortlist(F: KeypointTable, track_pos: np.ndarray | None,
                             shortlist: list, cfg: MatchConfig) -> dict[int, MatchTable]:
    """Match one query frame against each shortlisted model image.

    `shortlist` holds objects with `id` and `keypoints` attributes. The
    query side (descriptors, centred contexts, spatial and temporal
    kernels) is built once per frame and shared, read-only, by every
    image. Each image is then matched with one pairwise product per
    kernel, and results are keyed by model image id in shortlist order.
    The images go through `map_on_two`; they share only the read-only
    query side, so the pairs are the same bits on one lane or two. An
    image that fails to match (EmptyInput) contributes an empty table
    rather than aborting the frame; any other error is raised here with
    its own type.
    """
    if not len(F) or not shortlist:
        return {img.id: MatchTable.empty() for img in shortlist}
    query = None
    if cfg.needs_contexts:
        # `sp`, and `sptemp` without tracks, weight query pairs by S alone
        query = _query(F, cfg.mode != MODE_SINGLE, track_pos if cfg.tracks else None)

    def run(img) -> MatchTable:
        try:
            if query is None:
                return match_nearest_neighbor(F, img.keypoints)
            return _embed_and_assign(query, img.keypoints, cfg)
        except EmptyInput:
            return MatchTable.empty()

    return dict(zip([img.id for img in shortlist], map_on_two(run, shortlist)))
