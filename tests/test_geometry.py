import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoreg.geometry import Intrinsics, Pose, project_many

from conftest import random_pose, random_rotation

IDENTITY = Pose(np.eye(3), np.zeros(3))


def test_project_hand_computed(intrinsics):
    # (1, 2, 5) through the identity pose: u = 300*1/5 + 160, v = 300*2/5 + 120
    uv, z = project_many(np.array([1.0, 2.0, 5.0]), IDENTITY, intrinsics)
    assert uv.shape == (1, 2) and z.tolist() == [5.0]
    assert uv[0, 0] == pytest.approx(220.0, abs=1e-12)
    assert uv[0, 1] == pytest.approx(240.0, abs=1e-12)


def test_project_many_matches_scalar(intrinsics):
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    # build world points from camera-frame samples so all land in front
    cam = rng.uniform(-1, 1, size=(20, 3)) + [0.0, 0.0, 5.0]
    xyz = (cam - pose.t) @ pose.R
    uv, z = project_many(xyz, pose, intrinsics)
    assert np.all(z > 0)
    k = intrinsics
    for i in range(len(xyz)):
        x, y, depth = pose.R @ xyz[i] + pose.t
        assert np.allclose(uv[i], [k.fx * x / depth + k.cx, k.fy * y / depth + k.cy],
                           atol=1e-9)


def test_project_many_flags_negative_depth(intrinsics):
    # a point behind the camera or in its plane has a depth callers filter out
    xyz = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    _, z = project_many(xyz, IDENTITY, intrinsics)
    assert z[0] > 0 > z[1]
    assert z[2] < 0 and z[3] == 0


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(reflection, np.zeros(3))


def test_pose_center_and_apply():
    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    # the camera center maps to the camera-frame origin
    assert np.allclose(pose.apply(pose.center()), np.zeros(3), atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(-1.0, 300.0, 160.0, 120.0, 320, 240)
    with pytest.raises(ValueError):
        Intrinsics(300.0, 300.0, 500.0, 120.0, 320, 240)
    k = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    assert k.diagonal == pytest.approx(np.hypot(320, 240))
    assert np.allclose(k.matrix()[2], [0, 0, 1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rotation_factory_is_orthonormal(seed):
    r = random_rotation(np.random.default_rng(seed))
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_apply_invert_round_trip(seed):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    xyz = rng.normal(size=(4, 3))
    back = (pose.apply(xyz) - pose.t) @ pose.R  # R^T (x_cam - t), row by row
    assert np.allclose(back, xyz, atol=1e-9)
