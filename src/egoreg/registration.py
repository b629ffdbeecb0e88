"""2D-3D lifting and absolute pose estimation.

Matches against shortlisted model images are lifted to 2D-3D
correspondences through the model's keypoint-to-point links, deduplicated,
and fed to a RANSAC loop around a direct linear transform pose solver with
Gauss-Newton reprojection refinement. A frame registers when the final
consensus holds at least `min_inliers` correspondences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    EmptyInput,
    TooFewCorrespondences,
)
from .features import (
    ContextConfig,
    DetectorConfig,
    GradientField,
    Keypoint,
    attach_context,
    context_region,
    descriptors,
    extract_keypoints,
)
from .geometry import Intrinsics, Pose
from .matching import MatchConfig, MatchPair, match_frame_to_shortlist
from .model import Model3D, Sequence
from .retrieval import DEFAULT_SHORTLIST, InvertedIndex, Vocabulary, shortlist
from .sequence import LinearPruner, frame_quality_feature, track_keypoints

log = logging.getLogger(__name__)

REFERENCE_DIAGONAL = 800.0  # 640x480; reprojection thresholds scale against it
MIN_PNP_POINTS = 6
GN_ITERS = 20


@dataclass(frozen=True)
class RansacConfig:
    reproj_threshold: float = 4.0  # px at the 640x480-equivalent scale
    confidence: float = 0.999
    max_iterations: int = 2000
    min_inliers: int = 12
    seed: int = 0


@dataclass(frozen=True, eq=False)
class Correspondence2D3D:
    pixel: np.ndarray       # (2,) query pixel
    point: np.ndarray       # (3,) world coordinates
    point_id: int
    query_idx: int
    embed_dist: float


@dataclass(eq=False)
class PoseEstimate:
    """RANSAC outcome for one frame."""

    pose: Pose | None
    inlier_mask: np.ndarray
    mean_reproj: float
    status: str  # "registered" or "failed"
    n_correspondences: int

    @property
    def registered(self) -> bool:
        return self.status == "registered"

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


def lift_matches(matches: dict[int, list[MatchPair]], query_kps: list[Keypoint],
                 model: Model3D) -> tuple[list[Correspondence2D3D], int]:
    """Turn per-image matches into unique 2D-3D correspondences.

    Matches to unlinked model keypoints are dropped and counted. When
    several matches claim the same world point or the same query keypoint,
    the smallest embedded distance wins; ties resolve by query then point
    id so the result is deterministic.
    """
    candidates: list[Correspondence2D3D] = []
    unlinked = 0
    for image_id, pairs in matches.items():
        img = model.image(image_id)
        for pair in pairs:
            pid = img.links.get(pair.model_idx)
            if pid is None:
                unlinked += 1
                continue
            kp = query_kps[pair.query_idx]
            candidates.append(Correspondence2D3D(
                pixel=np.array([kp.pos.u, kp.pos.v]),
                point=model.point(pid).xyz.copy(),
                point_id=pid,
                query_idx=pair.query_idx,
                embed_dist=pair.embed_dist,
            ))
    candidates.sort(key=lambda c: (c.embed_dist, c.query_idx, c.point_id))
    seen_points: set[int] = set()
    seen_queries: set[int] = set()
    out = []
    for c in candidates:
        if c.point_id in seen_points or c.query_idx in seen_queries:
            continue
        seen_points.add(c.point_id)
        seen_queries.add(c.query_idx)
        out.append(c)
    return out, unlinked


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

    u, sv, vt2 = np.linalg.svd(m)
    d = np.eye(3)
    d[2, 2] = np.sign(np.linalg.det(u @ vt2))
    rmat = u @ d @ vt2
    scale = float(sv.mean())
    if scale < 1e-12 or not np.isfinite(scale):
        raise DegenerateConfiguration("degenerate projective scale")
    return rmat, t / scale


def _refine(rmat: np.ndarray, t: np.ndarray, xyz: np.ndarray, uv: np.ndarray,
            k: Intrinsics, iters: int = GN_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton steps on pixel reprojection error."""
    best_r, best_t = rmat, t
    err, z = _reproj_errors(rmat, t, xyz, uv, k)
    if not np.all(np.isfinite(err)):
        return best_r, best_t
    best_cost = float(err @ err)
    for _ in range(iters):
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


def _as_arrays(corrs: list[Correspondence2D3D]) -> tuple[np.ndarray, np.ndarray]:
    return (np.stack([c.point for c in corrs]),
            np.stack([c.pixel for c in corrs]))


def pnp_solve(corrs: list[Correspondence2D3D], k: Intrinsics) -> Pose:
    """Absolute pose from >= 6 correspondences: DLT then Gauss-Newton.

    Raises DegenerateConfiguration when the points do not constrain a
    unique pose (coincident or otherwise rank-deficient configurations).
    """
    if len(corrs) < MIN_PNP_POINTS:
        raise TooFewCorrespondences(
            f"need at least {MIN_PNP_POINTS} correspondences, got {len(corrs)}")
    xyz, uv = _as_arrays(corrs)
    rmat, t = _dlt(xyz, uv, k)
    rmat, t = _refine(rmat, t, xyz, uv, k)
    # re-orthogonalize so the Pose constructor's tolerance always holds
    u, _, vt = np.linalg.svd(rmat)
    d = np.eye(3)
    d[2, 2] = np.sign(np.linalg.det(u @ vt))
    return Pose(u @ d @ vt, t)


def ransac_pnp(corrs: list[Correspondence2D3D], k: Intrinsics,
               cfg: RansacConfig = RansacConfig()) -> PoseEstimate:
    """Robust pose estimation with adaptive-iteration RANSAC.

    The inlier threshold is `reproj_threshold` scaled by the ratio of the
    image diagonal to the 640x480 reference. The final pose refits on all
    inliers of the best hypothesis; `status` is "registered" only when the
    refit consensus reaches `min_inliers`.
    """
    n = len(corrs)
    if n < cfg.min_inliers:
        raise TooFewCorrespondences(
            f"need at least min_inliers={cfg.min_inliers} correspondences, got {n}")
    xyz, uv = _as_arrays(corrs)
    thresh = cfg.reproj_threshold * k.diagonal / REFERENCE_DIAGONAL
    rng = np.random.default_rng(cfg.seed)

    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    max_iters = cfg.max_iterations
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
                needed = int(np.ceil(np.log(1.0 - cfg.confidence) / denom))
                max_iters = min(cfg.max_iterations, max(needed, 1))

    failed = PoseEstimate(None, np.zeros(n, dtype=bool), float("nan"), "failed", n)
    if best_count < max(cfg.min_inliers, MIN_PNP_POINTS):
        return failed
    inlier_corrs = [c for c, m in zip(corrs, best_mask) if m]
    try:
        pose = pnp_solve(inlier_corrs, k)
    except DegenerateConfiguration:
        return failed
    err, z = _reproj_errors(pose.R, pose.t, xyz, uv, k)
    final_mask = (err < thresh) & (z > 0.0)
    if int(final_mask.sum()) < cfg.min_inliers:
        return failed
    mean_reproj = float(err[final_mask].mean())
    return PoseEstimate(pose, final_mask, mean_reproj, "registered", n)


def ensure_contexts(model: Model3D, ctx_cfg: ContextConfig) -> None:
    """Compute missing model keypoint contexts from stored rasters, in place.

    Keypoints without a `context_region` are removed and links renumbered.
    """
    for img in model.images:
        if not img.keypoints or all(kp.context is not None for kp in img.keypoints):
            continue
        if img.raster is None:
            raise EmptyInput(
                f"model image {img.id} lacks contexts and has no raster to compute them")
        w, h = img.raster.width, img.raster.height
        kept = [i for i, kp in enumerate(img.keypoints)
                if context_region(kp, w, h, ctx_cfg) is not None]
        img.keypoints, _ = attach_context(
            img.raster, [img.keypoints[i] for i in kept], ctx_cfg)
        remap = {old: new for new, old in enumerate(kept)}
        img.links = {remap[i]: pid for i, pid in img.links.items() if i in remap}


def _frame_keypoints(frame, det_cfg: DetectorConfig, ctx_cfg: ContextConfig,
                     need_context: bool) -> list[Keypoint]:
    if frame.keypoints is not None:
        kps = frame.keypoints
        if need_context and kps and any(kp.context is None for kp in kps):
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
    keypoints: list
    matches: dict
    shortlist_ids: list


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
    spatio-temporal mode, where keypoints whose tracks die are discarded),
    retrieval shortlisting, and per-image matching. Frames that fail a stage
    yield an empty record rather than aborting the run.
    """
    if not sequence.frames:
        return []
    out: list[FrameMatches] = []

    kept = range(len(sequence.frames))
    if pruner is not None:
        # frames without a raster are kept; a zero-weight pruner needs no feature
        fixed = pruner.fixed_decision()

        def keep(i: int, image) -> bool:
            if fixed is not None:
                return fixed
            prev = sequence.frames[i - 1].image if i > 0 else None
            return pruner.keep(frame_quality_feature(prev, image))

        kept = [i for i, fr in enumerate(sequence.frames) if fr.image is None or keep(i, fr.image)]

    for i in kept:
        frame = sequence.frames[i]
        try:
            kps = _frame_keypoints(frame, det_cfg, ctx_cfg, match_cfg.needs_contexts)
        except EmptyInput as exc:
            log.warning("frame %d: %s", i, exc)
            out.append(FrameMatches(i, [], {}, []))
            continue

        track_pos = None
        if match_cfg.tracks and kps:
            k_eff = min(match_cfg.temporal_window, i)
            past = [sequence.frames[j].image for j in range(i - k_eff, i)]
            if k_eff > 0 and all(im is not None for im in past) and frame.image is not None:
                tracks = track_keypoints(past + [frame.image], kps)
                keep_idx = [t.keypoint_idx for t in tracks if t.alive]
                if keep_idx:
                    kps = [kps[j] for j in keep_idx]
                    track_pos = np.stack([tracks[j].positions for j in keep_idx])

        if not kps:
            out.append(FrameMatches(i, [], {}, []))
            continue

        if vocab is not None and index is not None:
            ranked = shortlist(descriptors(kps), vocab, index, shortlist_size)
            images = [model.image(image_id) for image_id, _ in ranked]
        else:
            images = sorted(model.images, key=lambda im: im.id)[:shortlist_size]

        matches = match_frame_to_shortlist(kps, track_pos, images, match_cfg)
        out.append(FrameMatches(i, kps, matches, [img.id for img in images]))
    return out


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

    Runs the matching pipeline, lifts matches to 2D-3D correspondences,
    and estimates each frame's pose with RANSAC. Frames that fail any stage
    produce a failed record rather than aborting the run.
    """
    frame_matches = match_sequence(
        sequence, model, vocab, index, match_cfg, det_cfg, ctx_cfg,
        pruner, shortlist_size)
    records: list[RegistrationRecord] = []
    for fm in frame_matches:
        if not fm.keypoints:
            failed = PoseEstimate(None, np.zeros(0, dtype=bool), float("nan"), "failed", 0)
            records.append(RegistrationRecord(fm.frame_index, failed, [], 0, 0, 0))
            continue
        frame = sequence.frames[fm.frame_index]
        corrs, unlinked = lift_matches(fm.matches, fm.keypoints, model)
        n_matches = sum(len(v) for v in fm.matches.values())
        try:
            est = ransac_pnp(corrs, frame.intrinsics, ransac_cfg)
        except TooFewCorrespondences:
            est = PoseEstimate(None, np.zeros(len(corrs), dtype=bool),
                               float("nan"), "failed", len(corrs))
        records.append(RegistrationRecord(
            fm.frame_index, est, fm.shortlist_ids, len(fm.keypoints),
            n_matches, unlinked))
    return records
