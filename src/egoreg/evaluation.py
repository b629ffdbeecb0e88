"""Accuracy metrics: pose errors, inlier accounting, sweeps.

Position error compares camera centers; orientation error is the geodesic
rotation angle between estimated and reference orientation. Match quality
is scored against ground truth by lifting matches to 2D-3D correspondences
and checking their reprojection under the reference pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import KeypointTable
from .geometry import Intrinsics, Pose
from .matching import MatchTable
from .model import Model3D
from .registration import _reproj_errors, lift_matches


def pose_errors(estimate: Pose, reference: Pose) -> tuple[float, float]:
    """(position error, orientation error in degrees).

    Position error is the distance between camera centers; orientation
    error is arccos((trace(R_ref^T R_est) - 1) / 2) with the argument
    clamped to [-1, 1].
    """
    pos = float(np.linalg.norm(estimate.center() - reference.center()))
    arg = (float(np.trace(reference.R.T @ estimate.R)) - 1.0) / 2.0
    orient = math.degrees(math.acos(min(1.0, max(-1.0, arg))))
    return pos, orient


@dataclass(eq=False)
class MatchReport:
    """Inlier statistics for a batch of query frames."""

    inliers: np.ndarray   # (n_frames,)
    matches: np.ndarray   # (n_frames,) lifted correspondence counts

    def __post_init__(self):
        if self.inliers.shape != self.matches.shape:
            raise ShapeMismatch("inlier and match counts must align")
        if np.any(self.inliers > self.matches):
            raise ValueError("inliers cannot exceed matches")

    @property
    def ratios(self) -> np.ndarray:
        out = np.zeros_like(self.inliers, dtype=np.float64)
        nz = self.matches > 0
        out[nz] = self.inliers[nz] / self.matches[nz]
        return out

    @property
    def mean_inliers(self) -> float:
        return float(self.inliers.mean()) if self.inliers.size else 0.0

    @property
    def mean_matches(self) -> float:
        return float(self.matches.mean()) if self.matches.size else 0.0

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean()) if self.inliers.size else 0.0


def count_inliers(per_frame_matches: list[dict[int, MatchTable]],
                  per_frame_kps: list[KeypointTable],
                  gt_poses: list[Pose], model: Model3D,
                  per_frame_k: list[Intrinsics],
                  threshold_px: float) -> MatchReport:
    """Score matches against ground truth, one frame's intrinsics each.

    A lifted correspondence is an inlier when its world point reprojects
    (under the reference pose) within threshold_px of the query pixel, with
    positive depth. Match counts are the lifted, deduplicated 2D-3D
    correspondences actually available to pose estimation.
    """
    n = len(per_frame_matches)
    if not (len(per_frame_kps) == len(gt_poses) == len(per_frame_k) == n):
        raise ShapeMismatch("per-frame inputs must align")
    inliers = np.zeros(n, dtype=np.int64)
    matches = np.zeros(n, dtype=np.int64)
    for i in range(n):
        corrs, _ = lift_matches(per_frame_matches[i], per_frame_kps[i], model)
        matches[i] = len(corrs)
        # the error is inf behind the camera, so those never count
        err, _ = _reproj_errors(gt_poses[i].R, gt_poses[i].t, corrs.point, corrs.pixel,
                                per_frame_k[i])
        inliers[i] = int(np.sum(err < threshold_px))
    return MatchReport(inliers, matches)


@dataclass(eq=False)
class RegistrationReport:
    """Per-frame pose errors with aggregate accuracy statistics.

    Aggregates run over registered frames only; an empty registered set
    yields NaN aggregates.
    """

    registered: np.ndarray    # (n,) bool
    pos_errors: np.ndarray    # (n,) NaN where not registered
    orient_errors: np.ndarray

    @property
    def n_registered(self) -> int:
        return int(self.registered.sum())

    def _agg(self, vals: np.ndarray, fn) -> float:
        sel = vals[self.registered]
        return float(fn(sel)) if sel.size else float("nan")

    @property
    def rms_pos(self) -> float:
        return self._agg(self.pos_errors, lambda v: np.sqrt(np.mean(v ** 2)))

    @property
    def median_pos(self) -> float:
        return self._agg(self.pos_errors, np.median)

    @property
    def rms_orient(self) -> float:
        return self._agg(self.orient_errors, lambda v: np.sqrt(np.mean(v ** 2)))

    @property
    def median_orient(self) -> float:
        return self._agg(self.orient_errors, np.median)


def registration_report(estimates: list[Pose | None], references: list[Pose]) -> RegistrationReport:
    """Compare estimated poses (None = not registered) with references."""
    if len(estimates) != len(references):
        raise ShapeMismatch("estimate and reference counts must align")
    n = len(estimates)
    reg = np.zeros(n, dtype=bool)
    pos = np.full(n, np.nan)
    orient = np.full(n, np.nan)
    for i, (est, ref) in enumerate(zip(estimates, references)):
        if est is None:
            continue
        reg[i] = True
        pos[i], orient[i] = pose_errors(est, ref)
    return RegistrationReport(reg, pos, orient)


def registration_curve(report: RegistrationReport,
                       thresholds: list[float]) -> dict[str, list[tuple[float, int]]]:
    """Counts of registered frames within each error threshold, read as
    scene units for position and degrees for orientation.

    Counts are monotonically non-decreasing in the threshold and never
    exceed the number of registered frames.
    """
    return {name: [(float(t), int(np.sum(report.registered & (errors <= t))))
                   for t in thresholds]
            for name, errors in (("position", report.pos_errors),
                                 ("orientation", report.orient_errors))}
