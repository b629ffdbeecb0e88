from dataclasses import replace

import numpy as np
import pytest

from egoreg.geometry import project_many
from egoreg.synth import SynthConfig, look_at, night_preset, synth_scene

SMALL = SynthConfig(n_points=40, n_model_images=3, n_query_frames=4)
SMALL_NIGHT = replace(night_preset(), n_points=40, n_model_images=3, n_query_frames=4)


@pytest.fixture(scope="module")
def small_scene():
    return synth_scene(SMALL)


@pytest.fixture(scope="module")
def small_night_scene():
    return synth_scene(SMALL_NIGHT)


def test_look_at_builds_valid_pose():
    pose = look_at(np.array([1.0, 2.0, -5.0]), np.array([0.0, 0.0, 0.0]))
    assert np.allclose(pose.R @ pose.R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(pose.R) == pytest.approx(1.0)
    # the camera sits at the requested position and the target is in front
    assert np.allclose(pose.center(), [1.0, 2.0, -5.0])
    assert pose.apply(np.zeros(3))[2] > 0


def test_scene_shapes(small_scene):
    assert len(small_scene.model.points) == 40
    assert len(small_scene.model.images) == 3
    assert len(small_scene.day.frames) == 4
    assert len(small_scene.night.frames) == 4


def test_scene_determinism():
    a = synth_scene(SMALL_NIGHT)
    b = synth_scene(SMALL_NIGHT)
    for fa, fb in zip(a.day.frames + a.night.frames, b.day.frames + b.night.frames):
        assert np.array_equal(fa.image.pixels, fb.image.pixels)
    for ia, ib in zip(a.model.images, b.model.images):
        assert np.array_equal(ia.raster.pixels, ib.raster.pixels)
        assert ia.links == ib.links


def test_identity_transform_makes_night_equal_day(small_scene):
    for d, n in zip(small_scene.day.frames, small_scene.night.frames):
        assert np.array_equal(d.image.pixels, n.image.pixels)


def test_night_preset_darkens(small_night_scene):
    for d, n in zip(small_night_scene.day.frames, small_night_scene.night.frames):
        assert not np.array_equal(d.image.pixels, n.image.pixels)
        assert n.image.pixels.mean() < d.image.pixels.mean()


def test_pixels_stay_in_range(small_night_scene):
    for fr in small_night_scene.day.frames + small_night_scene.night.frames:
        assert fr.image.pixels.min() >= 0.0
        assert fr.image.pixels.max() <= 1.0


def test_frames_carry_ground_truth(small_scene):
    for fr in small_scene.day.frames:
        assert fr.gt_pose is not None
        assert fr.intrinsics.width == SMALL.width


def test_model_links_reproject_exactly(small_scene):
    pts = small_scene.model.points.xyz
    for img in small_scene.model.images:
        uv, z = project_many(pts, img.pose, img.intrinsics)
        for kp_idx, pid in img.links.items():
            kp = img.keypoints[kp_idx]
            assert z[pid] > 0
            assert np.hypot(uv[pid, 0] - kp.pos.u, uv[pid, 1] - kp.pos.v) < 1e-9


def test_model_keypoints_have_contexts(small_scene):
    for img in small_scene.model.images:
        assert img.keypoints
        for kp in img.keypoints:
            assert kp.context is not None


def test_full_dropout_leaves_background_only():
    cfg = replace(SMALL_NIGHT, dropout_rate=1.0, noise_sigma=0.0)
    scene = synth_scene(cfg)
    # the night transform of background tones lands at zero after the
    # brightness shift, so a fully dropped-out frame is uniformly dark
    for fr in scene.night.frames:
        assert fr.image.pixels.max() < 0.05
    # day frames keep their splats regardless of dropout
    for fr in scene.day.frames:
        assert fr.image.pixels.max() > 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(extent=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(dropout_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_points=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)
