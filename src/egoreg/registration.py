"""2D-3D lifting and absolute pose estimation.

Each shortlisted model image's `MatchTable` is lifted to 2D-3D
correspondences through the image's keypoint-to-point links and the
model's `PointTable`, deduplicated into one `Correspondences` table in
embedded-distance order, and fed to a RANSAC loop around a DLT pose
solver with Gauss-Newton refinement. A frame registers when the final
consensus holds `min_inliers` correspondences.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConfiguration,
    EmptyInput,
    IndexModelMismatch,
    TooFewCorrespondences,
)
from .features import (
    ContextConfig,
    DetectorConfig,
    GradientField,
    KeypointTable,
    as_table,
    attach_context,
    context_regions,
    descriptors,
    extract_keypoints,
)
from .geometry import Intrinsics, Pose
from .matching import MatchConfig, MatchTable, match_frame_to_shortlist
from .model import Model3D, ModelImage, Sequence
from .parallel import map_on_two
from .retrieval import DEFAULT_SHORTLIST, InvertedIndex, Vocabulary, shortlist
from .sequence import (LinearPruner, frame_pyramid, frame_quality_feature,  # noqa: F401 (re-export)
                       prune_frames, track_keypoints)

log = logging.getLogger(__name__)

REFERENCE_DIAGONAL = 800.0  # 640x480; reprojection thresholds scale against it
MIN_PNP_POINTS = 6
RANSAC_CONFIDENCE = 0.999  # adaptive stop: P(some sample was all inliers)
RANSAC_MAX_ITERATIONS = 2000
GN_ITERS = 20


@dataclass(frozen=True)
class RansacConfig:
    reproj_threshold: float = 4.0  # px at the 640x480-equivalent scale
    min_inliers: int = 12
    seed: int = 0


def scaled_threshold(px: float, k: Intrinsics) -> float:
    """A pixel threshold given at the 800 px reference diagonal, for `k`'s image."""
    return px * k.diagonal / REFERENCE_DIAGONAL


@dataclass(frozen=True, eq=False)
class Correspondences:
    """n 2D-3D correspondences as columns; `lift_matches` orders the rows by
    (embedded distance, query index, point id), best match first."""

    pixel: np.ndarray      # (n, 2) float64 query pixels
    point: np.ndarray      # (n, 3) float64 world coordinates
    point_id: np.ndarray   # (n,) int64
    query_idx: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.point_id)

    def take(self, rows) -> Correspondences:
        """The given rows (indices or a boolean mask) as a new table."""
        return Correspondences(self.pixel[rows], self.point[rows],
                               self.point_id[rows], self.query_idx[rows])


@dataclass(eq=False)
class PoseEstimate:
    """RANSAC outcome for one frame; `pose` is None when it failed."""

    pose: Pose | None
    inlier_mask: np.ndarray
    mean_reproj: float
    n_correspondences: int

    @classmethod
    def failed(cls, n: int) -> PoseEstimate:
        """No pose for a frame with n correspondences."""
        return cls(None, np.zeros(n, dtype=bool), float("nan"), n)

    @property
    def status(self) -> str:
        """The record's status word: "registered" or "failed"."""
        return "registered" if self.pose is not None else "failed"

    @property
    def n_inliers(self) -> int:
        return int(self.inlier_mask.sum())


@dataclass(eq=False)
class RegistrationRecord:
    """Per-frame registration diagnostics."""

    frame_index: int
    estimate: PoseEstimate
    shortlist_ids: list[int]
    n_keypoints: int
    n_matches: int
    n_unlinked: int


def lift_matches(matches: dict[int, MatchTable], query_kps: KeypointTable,
                 model: Model3D) -> tuple[Correspondences, int]:
    """Turn per-image match tables into one table of unique 2D-3D correspondences.

    Only the matched model rows are looked up in each image's links;
    matches to unlinked model keypoints are dropped and counted. Points come from the model's `PointTable`. Candidates
    are sorted by (embedded distance, query index, point id); a candidate
    is kept when neither its world point nor its query keypoint was claimed
    by an earlier one. So the smallest embedded distance wins, ties resolve
    deterministically, and the table's rows stay in that order.
    """
    cols = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    unlinked = 0
    for image_id, m in matches.items():
        if not len(m):
            continue
        links = model.image(image_id).links
        pids = [links.get(j) for j in m.model_idx.tolist()]
        ok = np.fromiter((pid is not None for pid in pids), bool, len(pids))
        unlinked += len(m) - int(ok.sum())
        cols.append((m.query_idx[ok], np.array([pid for pid in pids if pid is not None],
                                               np.int64), m.embed_dist[ok]))
    query_idx, point_id, dist = map(np.concatenate, zip(*cols))
    order = np.lexsort((point_id, query_idx, dist))
    query_idx, point_id = query_idx[order], point_id[order]
    seen_points, seen_queries = set(), set()
    keep = np.zeros(len(order), dtype=bool)
    for row, (q, pid) in enumerate(zip(query_idx.tolist(), point_id.tolist())):
        if pid not in seen_points and q not in seen_queries:
            seen_points.add(pid)
            seen_queries.add(q)
            keep[row] = True
    query_idx, point_id = query_idx[keep], point_id[keep]
    rows = model.points.rows(point_id)
    if (rows < 0).any():  # a link changed after Model3D checked them
        raise KeyError(f"no world points with ids {point_id[rows < 0].tolist()}")
    corrs = Correspondences(query_kps.xy[query_idx], model.points.xyz[rows], point_id, query_idx)
    return corrs, unlinked


def _rodrigues(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        return np.eye(3)
    k = w / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(theta) * kx + (1 - np.cos(theta)) * (kx @ kx)


def _reproj_errors(rmat: np.ndarray, t: np.ndarray, xyz: np.ndarray,
                   uv: np.ndarray, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    cam = xyz @ rmat.T + t
    z = cam[:, 2]
    safe = np.where(z > 1e-12, z, 1.0)
    pu = k.fx * cam[:, 0] / safe + k.cx
    pv = k.fy * cam[:, 1] / safe + k.cy
    err = np.hypot(pu - uv[:, 0], pv - uv[:, 1])
    err[z <= 1e-12] = np.inf
    return err, z


def _nearest_rotation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rotation nearest to `m` by SVD, and m's singular values."""
    u, sv, vt = np.linalg.svd(m)
    d = np.eye(3)
    d[2, 2] = np.sign(np.linalg.det(u @ vt))
    return u @ d @ vt, sv


def _dlt(xyz: np.ndarray, uv: np.ndarray, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Direct linear transform pose from >= 6 points, orthogonalized by SVD."""
    n = xyz.shape[0]
    ki = np.linalg.inv(k.matrix())
    rays = (np.column_stack([uv, np.ones(n)]) @ ki.T)
    x, y = rays[:, 0], rays[:, 1]

    centroid = xyz.mean(axis=0)
    rms = float(np.sqrt(np.mean(np.sum((xyz - centroid) ** 2, axis=1))))
    if rms < 1e-12:
        raise DegenerateConfiguration("world points coincide")
    f = np.sqrt(3.0) / rms
    xn = (xyz - centroid) * f

    a = np.zeros((2 * n, 12))
    a[0::2, 0:3] = xn
    a[0::2, 3] = 1.0
    a[0::2, 8:11] = -x[:, None] * xn
    a[0::2, 11] = -x
    a[1::2, 4:7] = xn
    a[1::2, 7] = 1.0
    a[1::2, 8:11] = -y[:, None] * xn
    a[1::2, 11] = -y

    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-2] < 1e-12 * max(s[0], 1e-300):
        raise DegenerateConfiguration("point configuration is rank deficient")
    p = vt[-1].reshape(3, 4)

    m = p[:, :3] * f
    t = p[:, 3] - (p[:, :3] * f) @ centroid
    depths = xyz @ m[2] + t[2]
    if float(np.median(depths)) < 0.0:
        m, t = -m, -t

    rmat, sv = _nearest_rotation(m)
    scale = float(sv.mean())
    if scale < 1e-12 or not np.isfinite(scale):
        raise DegenerateConfiguration("degenerate projective scale")
    return rmat, t / scale


def _refine(rmat: np.ndarray, t: np.ndarray, xyz: np.ndarray, uv: np.ndarray,
            k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Up to GN_ITERS Gauss-Newton steps on pixel reprojection error."""
    best_r, best_t = rmat, t
    err, z = _reproj_errors(rmat, t, xyz, uv, k)
    if not np.all(np.isfinite(err)):
        return best_r, best_t
    best_cost = float(err @ err)
    for _ in range(GN_ITERS):
        cam = xyz @ rmat.T + t
        z = cam[:, 2]
        if np.any(z <= 1e-9):
            break
        inv_z = 1.0 / z
        pu = k.fx * cam[:, 0] * inv_z + k.cx
        pv = k.fy * cam[:, 1] * inv_z + k.cy
        r = np.column_stack([pu - uv[:, 0], pv - uv[:, 1]]).ravel()

        n = xyz.shape[0]
        j_uv = np.zeros((n, 2, 3))
        j_uv[:, 0, 0] = k.fx * inv_z
        j_uv[:, 0, 2] = -k.fx * cam[:, 0] * inv_z * inv_z
        j_uv[:, 1, 1] = k.fy * inv_z
        j_uv[:, 1, 2] = -k.fy * cam[:, 1] * inv_z * inv_z

        j_cam = np.zeros((n, 3, 6))
        # left rotation perturbation: d(cam)/dw = -[cam - t]_x
        pc = cam - t
        j_cam[:, 0, 1] = pc[:, 2]
        j_cam[:, 0, 2] = -pc[:, 1]
        j_cam[:, 1, 0] = -pc[:, 2]
        j_cam[:, 1, 2] = pc[:, 0]
        j_cam[:, 2, 0] = pc[:, 1]
        j_cam[:, 2, 1] = -pc[:, 0]
        j_cam[:, :, 3:] = np.broadcast_to(np.eye(3), (n, 3, 3))

        jac = np.einsum("nij,njk->nik", j_uv, j_cam).reshape(2 * n, 6)
        jtj = jac.T @ jac + 1e-9 * np.eye(6)
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj, jtr)
        except np.linalg.LinAlgError:
            break
        w, dt = -step[:3], -step[3:]
        rmat_new = _rodrigues(w) @ rmat
        t_new = t + dt
        err_new, z_new = _reproj_errors(rmat_new, t_new, xyz, uv, k)
        cost = float(err_new @ err_new)
        if not np.isfinite(cost) or cost >= best_cost:
            break
        rmat, t, best_cost = rmat_new, t_new, cost
        best_r, best_t = rmat, t
        if float(np.linalg.norm(step)) < 1e-12:
            break
    return best_r, best_t


def pnp_solve(corrs: Correspondences, k: Intrinsics) -> Pose:
    """Absolute pose from >= 6 table rows, in any order: DLT then Gauss-Newton.

    Raises DegenerateConfiguration when the points do not constrain a
    unique pose (coincident or otherwise rank-deficient configurations).
    """
    if len(corrs) < MIN_PNP_POINTS:
        raise TooFewCorrespondences(
            f"need at least {MIN_PNP_POINTS} correspondences, got {len(corrs)}")
    rmat, t = _dlt(corrs.point, corrs.pixel, k)
    rmat, t = _refine(rmat, t, corrs.point, corrs.pixel, k)
    # re-orthogonalize so the Pose constructor's tolerance always holds
    return Pose(_nearest_rotation(rmat)[0], t)


def ransac_pnp(corrs: Correspondences, k: Intrinsics,
               cfg: RansacConfig = RansacConfig()) -> PoseEstimate:
    """Robust pose estimation with adaptive-iteration RANSAC.

    Seeded samples draw the table's rows uniformly, so the pose depends on
    row order. The inlier threshold is `reproj_threshold` scaled by the
    image diagonal against the 640x480 reference. The final pose refits on
    all inliers of the best hypothesis; the estimate has a pose only when
    the refit consensus reaches `min_inliers`. Fewer rows than
    max(`min_inliers`, 6) raise TooFewCorrespondences.
    """
    n = len(corrs)
    need = max(cfg.min_inliers, MIN_PNP_POINTS)
    if n < need:
        raise TooFewCorrespondences(f"need at least {need} correspondences, got {n}")
    xyz, uv = corrs.point, corrs.pixel
    thresh = scaled_threshold(cfg.reproj_threshold, k)
    rng = np.random.default_rng(cfg.seed)

    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    max_iters = RANSAC_MAX_ITERATIONS
    it = 0
    while it < max_iters:
        it += 1
        sample = rng.choice(n, size=MIN_PNP_POINTS, replace=False)
        try:
            rmat, t = _dlt(xyz[sample], uv[sample], k)
        except DegenerateConfiguration:
            continue
        err, z = _reproj_errors(rmat, t, xyz, uv, k)
        mask = (err < thresh) & (z > 0.0)
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            w = count / n
            denom = np.log1p(-min(w ** MIN_PNP_POINTS, 1.0 - 1e-12))
            if denom < 0.0:
                needed = int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom))
                max_iters = min(RANSAC_MAX_ITERATIONS, max(needed, 1))

    if best_count < need:
        return PoseEstimate.failed(n)
    try:
        pose = pnp_solve(corrs.take(best_mask), k)
    except DegenerateConfiguration:
        return PoseEstimate.failed(n)
    err, z = _reproj_errors(pose.R, pose.t, xyz, uv, k)
    final_mask = (err < thresh) & (z > 0.0)
    if int(final_mask.sum()) < cfg.min_inliers:
        return PoseEstimate.failed(n)
    mean_reproj = float(err[final_mask].mean())
    return PoseEstimate(pose, final_mask, mean_reproj, n)


def ensure_contexts(model: Model3D, ctx_cfg: ContextConfig) -> None:
    """Compute missing model keypoint contexts from stored rasters, in place.

    Keypoints without a context region are removed and links renumbered.
    Every image is checked before any work starts, and the model changes
    only once every image's contexts are computed: a model that is refused
    (an image lacking both contexts and a raster) or whose computation
    raises stays exactly as it was. The images go through one
    `map_on_two`, each with its own `attach_context`; they share nothing,
    so contexts and links are the same bits on one lane or two.
    """
    todo = [img for img in model.images
            if len(img.keypoints) and img.keypoints.contexts is None]
    for img in todo:
        if img.raster is None:
            raise EmptyInput(
                f"model image {img.id} lacks contexts and has no raster to compute them")

    def fill(img: ModelImage) -> tuple[KeypointTable, dict[int, int]]:
        rois = context_regions(img.keypoints, img.raster.width, img.raster.height, ctx_cfg)
        kept = [i for i, roi in enumerate(rois) if roi is not None]
        kps, _ = attach_context(img.raster, img.keypoints.take(kept), ctx_cfg)
        remap = {old: new for new, old in enumerate(kept)}
        return kps, {remap[i]: pid for i, pid in img.links.items() if i in remap}

    for img, (kps, links) in zip(todo, map_on_two(fill, todo)):
        img.keypoints, img.links = kps, links


def _frame_keypoints(frame, det_cfg: DetectorConfig, ctx_cfg: ContextConfig,
                     need_context: bool) -> KeypointTable:
    if frame.keypoints is not None:
        kps = frame.keypoints
        if need_context and len(kps) and kps.contexts is None:
            if frame.image is None:
                raise EmptyInput("precomputed keypoints lack contexts and frame has no raster")
            kps, _ = attach_context(frame.image, kps, ctx_cfg)
        return kps
    if frame.image is None:
        raise EmptyInput("frame has neither raster nor precomputed keypoints")
    grad = GradientField(frame.image)  # shared by detection and contexts
    kps = extract_keypoints(frame.image, det_cfg, field=grad)
    if need_context:
        kps, _ = attach_context(frame.image, kps, ctx_cfg, field=grad)
    return kps


@dataclass(frozen=True)
class FrameMatches:
    """Per-frame matching output, before any pose estimation."""

    frame_index: int
    keypoints: KeypointTable
    matches: dict[int, MatchTable]
    shortlist_ids: list


def _tracking_window(sequence: Sequence, i: int, cfg: MatchConfig) -> range | None:
    """Frames i - k .. i that frame i tracks back through, or None.

    k is `cfg.temporal_window`, fewer at the clip's start; a frame tracks
    only in a mode that uses tracks, and when it and its k past frames all
    carry a raster.
    """
    window = range(i - min(cfg.temporal_window, i), i + 1)
    if (not cfg.tracks or len(window) < 2
            or any(sequence.frames[j].image is None for j in window)):
        return None
    return window


def _map_frames(sequence: Sequence, model: Model3D, vocab: Vocabulary | None,
                index: InvertedIndex | None, match_cfg: MatchConfig, det_cfg: DetectorConfig,
                ctx_cfg: ContextConfig, pruner: LinearPruner | None, shortlist_size: int,
                then: Callable[[FrameMatches], object]) -> list:
    """[then(the FrameMatches of i) for each kept frame i], one `map_on_two`
    item per frame, as `match_sequence` describes; `then` runs in the
    frame's item, once the frame's pyramids are released.

    Frames share only the cache of tracking pyramids, under one lock: the
    first frame that needs a pyramid builds it, once, and it is dropped
    when no unmatched frame's window reaches it any more.
    """
    if shortlist_size < 1:
        raise ValueError(f"shortlist_size must be at least 1, got {shortlist_size}")
    if (vocab is None) != (index is None):
        raise ValueError("shortlisting needs both vocab and index; "
                         f"{'index' if index is None else 'vocab'} is missing")
    if index is not None:
        missing = sorted(set(index.image_ids) - {img.id for img in model.images})
        if missing:
            raise IndexModelMismatch(f"index names model images {missing} the model lacks")
    if not sequence.frames:
        return []
    kept = range(len(sequence.frames))
    if pruner is not None:
        kept = prune_frames([fr.image for fr in sequence.frames], pruner)
    windows = {i: _tracking_window(sequence, i, match_cfg) for i in kept}
    # frame index -> how many unmatched frames' windows reach it
    reach = Counter(j for window in windows.values() for j in window or ())
    pyramids: dict[int, list[np.ndarray]] = {}  # frame index -> frame_pyramid
    pyramids_lock = threading.Lock()

    def window_pyramids(window: range) -> list[list[np.ndarray]]:
        with pyramids_lock:
            for j in window:
                if j not in pyramids:
                    pyramids[j] = frame_pyramid(sequence.frames[j].image)
            return [pyramids[j] for j in window]

    def frame_item(i: int):
        try:
            fm = match_frame(i)
        finally:
            with pyramids_lock:
                for j in windows[i] or ():
                    reach[j] -= 1
                    if not reach[j]:
                        pyramids.pop(j, None)
        return then(fm)

    def match_frame(i: int) -> FrameMatches:
        frame, window = sequence.frames[i], windows[i]
        try:
            kps = _frame_keypoints(frame, det_cfg, ctx_cfg, match_cfg.needs_contexts)
        except EmptyInput as exc:
            log.warning("frame %d: %s", i, exc)
            return FrameMatches(i, as_table([]), {}, [])

        track_pos = None
        if window is not None and len(kps):
            tracks = track_keypoints([sequence.frames[j].image for j in window], kps,
                                     window_pyramids(window))
            keep_idx = [t.keypoint_idx for t in tracks if t.alive]
            if keep_idx:
                kps = kps.take(keep_idx)
                track_pos = np.stack([tracks[j].positions for j in keep_idx])

        if not len(kps):
            return FrameMatches(i, as_table([]), {}, [])

        if index is not None:
            ranked = shortlist(descriptors(kps), vocab, index, shortlist_size)
            images = [model.image(image_id) for image_id, _ in ranked]
        else:
            images = sorted(model.images, key=lambda im: im.id)[:shortlist_size]

        matches = match_frame_to_shortlist(kps, track_pos, images, match_cfg)
        return FrameMatches(i, replace(kps, contexts=None), matches, [img.id for img in images])

    return map_on_two(frame_item, list(kept))


def match_sequence(sequence: Sequence, model: Model3D,
                   vocab: Vocabulary | None = None,
                   index: InvertedIndex | None = None,
                   match_cfg: MatchConfig = MatchConfig(),
                   det_cfg: DetectorConfig = DetectorConfig(),
                   ctx_cfg: ContextConfig = ContextConfig(),
                   pruner: LinearPruner | None = None,
                   shortlist_size: int = DEFAULT_SHORTLIST) -> list[FrameMatches]:
    """Match every kept frame of a sequence against shortlisted model images.

    Orchestrates pruning, feature extraction, backward tracking (in
    spatio-temporal mode, where keypoints whose tracks die are discarded;
    when every track dies, the frame keeps all its keypoints and is matched
    without tracks, by the spatial kernel alone as in `sp` mode),
    retrieval shortlisting, and per-image matching. Frames that fail a stage
    yield an empty record rather than aborting the run. Records hold no
    contexts: nothing after matching reads them.

    All kept frames go through one `map_on_two`, one item per frame. A
    frame shares only the tracking pyramids of the frames its window
    reaches, so the records are the same bits in the same order on one
    lane or two. Two frames in flight hold two frames' features: for a raw
    320x240 frame, its gradient field with the window sums contexts read
    (~7 MB) and its (200, 8256) float32 context column (6.6 MB). Before
    any frame, a `shortlist_size` under 1 or only one of `vocab` and
    `index` raises ValueError; an `index` naming images the model lacks
    raises IndexModelMismatch.
    """
    return _map_frames(sequence, model, vocab, index, match_cfg, det_cfg, ctx_cfg, pruner,
                       shortlist_size, lambda fm: fm)


def register_sequence(sequence: Sequence, model: Model3D,
                      vocab: Vocabulary | None = None,
                      index: InvertedIndex | None = None,
                      match_cfg: MatchConfig = MatchConfig(),
                      det_cfg: DetectorConfig = DetectorConfig(),
                      ctx_cfg: ContextConfig = ContextConfig(),
                      ransac_cfg: RansacConfig = RansacConfig(),
                      pruner: LinearPruner | None = None,
                      shortlist_size: int = DEFAULT_SHORTLIST) -> list[RegistrationRecord]:
    """Register every kept frame of a sequence against the model.

    Each kept frame goes through the matching pipeline of `match_sequence`,
    then its matches are lifted to 2D-3D correspondences and its pose is
    estimated with RANSAC, all in the frame's one `map_on_two` item.
    Frames that fail any stage produce a failed record rather than aborting
    the run. Records come in frame order; each `ransac_pnp` call seeds its
    own generator from `ransac_cfg.seed`, so the poses are the same bits on
    one lane or two.
    """
    def register(fm: FrameMatches) -> RegistrationRecord:
        corrs, unlinked = lift_matches(fm.matches, fm.keypoints, model)
        try:
            est = ransac_pnp(corrs, sequence.frames[fm.frame_index].intrinsics, ransac_cfg)
        except TooFewCorrespondences:  # an empty frame lifts to an empty table
            est = PoseEstimate.failed(len(corrs))
        return RegistrationRecord(fm.frame_index, est, fm.shortlist_ids, len(fm.keypoints),
                                  sum(len(v) for v in fm.matches.values()), unlinked)

    return _map_frames(sequence, model, vocab, index, match_cfg, det_cfg, ctx_cfg, pruner,
                       shortlist_size, register)
