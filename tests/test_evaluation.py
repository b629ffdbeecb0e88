import numpy as np
import pytest

from conftest import random_pose
from egoreg.errors import ShapeMismatch
from egoreg.evaluation import (
    MatchReport,
    count_inliers,
    pose_errors,
    registration_curve,
    registration_report,
)
from egoreg.features import DESCRIPTOR_DIM, Keypoint
from egoreg.geometry import PixelPoint, Pose, WorldPoint, project
from egoreg.matching import MatchPair
from egoreg.model import Model3D, ModelImage


def make_kp(u, v):
    return Keypoint(PixelPoint(u, v), 2.0, 0.0, np.zeros(DESCRIPTOR_DIM, np.float32), None)


# ------------------------------------------------------------- pose errors


def test_pose_errors_identical_poses_are_zero(rng):
    pose = random_pose(rng)
    pos, orient = pose_errors(pose, pose)
    assert pos == 0.0
    # trace(R^T R) rounds a hair below 3, so acos leaves float-level dust
    assert orient == pytest.approx(0.0, abs=1e-5)


def test_pose_errors_pure_translation():
    ref = Pose(np.eye(3), np.zeros(3))
    est = Pose(np.eye(3), np.array([3.0, 4.0, 0.0]))
    pos, orient = pose_errors(est, ref)
    # center = -R^T t, so a translation offset maps directly to center distance
    assert pos == pytest.approx(5.0)
    assert orient == pytest.approx(0.0)


def test_pose_errors_known_rotation_angle():
    angle = np.radians(30.0)
    rz = np.array([
        [np.cos(angle), -np.sin(angle), 0.0],
        [np.sin(angle), np.cos(angle), 0.0],
        [0.0, 0.0, 1.0],
    ])
    pos, orient = pose_errors(Pose(rz, np.zeros(3)), Pose(np.eye(3), np.zeros(3)))
    assert orient == pytest.approx(30.0, abs=1e-9)
    assert pos == pytest.approx(0.0)


def test_pose_errors_orientation_symmetric(rng):
    a, b = random_pose(rng), random_pose(rng)
    assert pose_errors(a, b)[1] == pytest.approx(pose_errors(b, a)[1])


# ------------------------------------------------------------ match report


def test_match_report_ratio_and_means():
    rep = MatchReport(np.array([2, 0, 3]), np.array([4, 0, 3]))
    assert rep.ratios.tolist() == [0.5, 0.0, 1.0]
    assert rep.mean_inliers == pytest.approx(5 / 3)
    assert rep.mean_matches == pytest.approx(7 / 3)
    assert rep.mean_ratio == pytest.approx(0.5)


def test_match_report_rejects_inliers_over_matches():
    with pytest.raises(ValueError):
        MatchReport(np.array([3]), np.array([2]))


def test_count_inliers_hand_built_scene(intrinsics):
    # four world points in front of an identity camera; two model keypoints
    # linked, one unlinked; matches hit one true point, one wrong point,
    # and one unlinked keypoint
    gt = Pose(np.eye(3), np.zeros(3))
    pts = [
        WorldPoint(0, np.array([0.0, 0.0, 5.0])),
        WorldPoint(1, np.array([1.0, 0.0, 5.0])),
        WorldPoint(2, np.array([0.0, 1.0, 5.0])),
    ]
    model_kps = [make_kp(10.0, 10.0), make_kp(20.0, 20.0), make_kp(30.0, 30.0)]
    img = ModelImage(0, gt, intrinsics, model_kps, {0: 0, 1: 1}, None)
    model = Model3D(pts, [img])

    uv0 = project(pts[0], gt, intrinsics)  # (160, 120)
    query_kps = [
        make_kp(uv0.u, uv0.v),          # matches point 0 exactly: inlier
        make_kp(uv0.u + 50.0, uv0.v),   # matched to point 1 but 50 px off: outlier
        make_kp(50.0, 50.0),            # matched to unlinked model kp: dropped
    ]
    matches = {0: [
        MatchPair(0, 0, 0.1, 0.5),
        MatchPair(1, 1, 0.2, 0.5),
        MatchPair(2, 2, 0.3, 0.5),
    ]}
    rep = count_inliers([matches], [query_kps], [gt], model, intrinsics, threshold_px=2.0)
    assert rep.matches.tolist() == [2]   # unlinked match dropped
    assert rep.inliers.tolist() == [1]


def test_count_inliers_threshold_sensitivity(intrinsics):
    gt = Pose(np.eye(3), np.zeros(3))
    pts = [WorldPoint(0, np.array([0.0, 0.0, 5.0]))]
    img = ModelImage(0, gt, intrinsics, [make_kp(0.0, 0.0)], {0: 0}, None)
    model = Model3D(pts, [img])
    uv = project(pts[0], gt, intrinsics)
    query = [make_kp(uv.u + 3.0, uv.v)]  # 3 px reprojection error
    matches = {0: [MatchPair(0, 0, 0.1, 0.5)]}
    lo = count_inliers([matches], [query], [gt], model, intrinsics, threshold_px=2.0)
    hi = count_inliers([matches], [query], [gt], model, intrinsics, threshold_px=4.0)
    assert lo.inliers.tolist() == [0]
    assert hi.inliers.tolist() == [1]


def test_count_inliers_rejects_misaligned_inputs(intrinsics):
    model = Model3D([WorldPoint(0, np.zeros(3) + [0, 0, 5])], [])
    with pytest.raises(ShapeMismatch):
        count_inliers([{}], [[], []], [Pose(np.eye(3), np.zeros(3))], model,
                      intrinsics, 2.0)


# ----------------------------------------------------- registration report


def test_registration_report_aggregates(rng):
    refs = [random_pose(rng) for _ in range(4)]
    # frame 0 exact, frame 1 offset by 0.3 in camera x, frames 2-3 failed
    offset = Pose(refs[1].R, refs[1].t + np.array([0.3, 0.0, 0.0]))
    rep = registration_report([refs[0], offset, None, None], refs)
    assert rep.n_frames == 4
    assert rep.n_registered == 2
    assert rep.registered.tolist() == [True, True, False, False]
    assert rep.pos_errors[0] == pytest.approx(0.0)
    assert rep.pos_errors[1] == pytest.approx(0.3)
    assert np.isnan(rep.pos_errors[2])
    assert rep.median_pos == pytest.approx(0.15)
    assert rep.rms_pos == pytest.approx(np.sqrt(0.09 / 2))


def test_registration_report_all_failed_gives_nan():
    refs = [Pose(np.eye(3), np.zeros(3))]
    rep = registration_report([None], refs)
    assert rep.n_registered == 0
    assert np.isnan(rep.median_pos)
    assert np.isnan(rep.rms_orient)


def test_registration_report_rejects_length_mismatch():
    with pytest.raises(ShapeMismatch):
        registration_report([None], [])


def test_registration_curve_monotone(rng):
    refs = [random_pose(rng) for _ in range(6)]
    ests = []
    for i, ref in enumerate(refs):
        if i == 5:
            ests.append(None)
            continue
        ests.append(Pose(ref.R, ref.t + np.array([0.1 * i, 0.0, 0.0])))
    rep = registration_report(ests, refs)
    curve = registration_curve(rep, [0.05, 0.15, 0.25, 1.0], [0.1, 10.0])
    pos_counts = [c for _, c in curve["position"]]
    assert pos_counts == sorted(pos_counts)
    assert pos_counts[-1] == rep.n_registered
    # thresholds at 0.05/0.15/0.25 catch errors {0.0}/{0.0,0.1}/{0.0,0.1,0.2}
    assert pos_counts[:3] == [1, 2, 3]
    orient_counts = [c for _, c in curve["orientation"]]
    assert orient_counts[-1] == rep.n_registered
