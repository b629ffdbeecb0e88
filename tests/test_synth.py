from dataclasses import replace

import numpy as np
import pytest

from egoreg import synth
from egoreg.geometry import Pose, project_many
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
        assert fr.intrinsics.width == synth.WIDTH


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
    # 0^0 = 1 would light every black night pixel; a negative power divides by zero
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError, match="gamma must be positive"):
            SynthConfig(gamma=gamma)
    with pytest.raises(ValueError):
        SynthConfig(dropout_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_points=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)


# ------------------------------------------- visibility and motif sampling


def loop_observations(uv, sizes, z):
    """Per-point reference for `_observations`: each candidate against every splat."""
    obs = []
    for i in range(len(uv)):
        if not np.isfinite(sizes[i]):
            continue
        u, v = uv[i]
        if not (synth.LINK_MARGIN_PX <= u <= synth.WIDTH - 1 - synth.LINK_MARGIN_PX
                and synth.LINK_MARGIN_PX <= v <= synth.HEIGHT - 1 - synth.LINK_MARGIN_PX):
            continue
        occluded = False
        for j in range(len(uv)):
            if j == i or not np.isfinite(sizes[j]) or z[j] >= z[i]:
                continue
            if np.hypot(*(uv[j] - uv[i])) < 0.35 * sizes[j]:
                occluded = True
                break
        if not occluded:
            obs.append(i)
    return obs


def four_term_bilinear(m, us, vs):
    """Reference for the motif lookup: bilinear weights written out per
    corner, on a (1, nx) row of texture columns and a (ny, 1) column of rows."""
    side = m.shape[0]
    tx = np.clip(us.ravel(), 0.0, side - 1.0)
    ty = np.clip(vs.ravel(), 0.0, side - 1.0)
    tx0 = np.minimum(tx.astype(int), side - 2)
    ty0 = np.minimum(ty.astype(int), side - 2)
    fx = tx - tx0
    fy = ty - ty0
    return ((m[ty0[:, None], tx0[None, :]] * (1 - fy[:, None]) * (1 - fx[None, :]))
            + (m[ty0[:, None], tx0[None, :] + 1] * (1 - fy[:, None]) * fx[None, :])
            + (m[ty0[:, None] + 1, tx0[None, :]] * fy[:, None] * (1 - fx[None, :]))
            + (m[ty0[:, None] + 1, tx0[None, :] + 1] * fy[:, None] * fx[None, :]))


def views(cfg):
    """The scene's world, and every view synth_scene renders: model images,
    day frames and night frames with their dropout."""
    world = synth._build_world(cfg, np.random.default_rng(cfg.seed))
    out = [(pose, None) for pose in synth._model_poses(cfg)]
    for i, pose in enumerate(synth._query_poses(cfg)):
        draw = np.random.default_rng([cfg.seed, 7, i]).random(len(world.points))
        out += [(pose, None), (pose, draw >= cfg.dropout_rate)]
    return world, out


def along_the_facade(world):
    """A camera at the point nearest the facade's centre, looking along +x:
    the points on its left are behind it, and that point itself sits at
    depth exactly 0 (the rotation only permutes axes, so the arithmetic is
    exact) and projects to +-inf."""
    k = int(np.argmin(np.hypot(world.points[:, 0], world.points[:, 1])))
    r = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    centre = world.points[k] + [0.0, 0.05, 0.05]
    return Pose(r, -(r @ centre))


@pytest.mark.parametrize("seed", [0, 401])
def test_array_passes_match_the_per_point_references(seed, monkeypatch):
    cfg = replace(SMALL_NIGHT, seed=seed)
    world, scene_views = views(cfg)
    behind = along_the_facade(world)
    uv, z = project_many(world.points, behind, synth._INTRINSICS)
    assert np.isinf(uv).all(axis=1).any() and (z < 0).any()
    # seen edge-on from outside, splats line up and hide one another
    edge_on = look_at(np.array([-2.0 * synth.EXTENT, 0.0, 0.0]), np.zeros(3))
    for pose, keep in scene_views + [(behind, None), (edge_on, None)]:
        raster, kept, uv, sizes, z = synth._render(world, pose, keep)
        obs = synth._observations(uv, sizes, z)
        assert obs == loop_observations(uv, sizes, z)
        assert all(type(i) is int for i in obs)
        with monkeypatch.context() as m:
            m.setattr(synth, "bilinear_sample", four_term_bilinear)
            want, want_kept, *_ = synth._render(world, pose, keep)
        assert raster.pixels.tobytes() == want.pixels.tobytes()
        assert kept.pixels.tobytes() == want_kept.pixels.tobytes()
    # neither pose is vacuous: with points behind the camera some stay
    # visible, and edge-on some splat inside the frame is occluded
    assert synth._observations(*synth._render(world, behind)[2:])
    _, _, uv, sizes, z = synth._render(world, edge_on)
    margin = synth.LINK_MARGIN_PX
    far = [synth.WIDTH - 1 - margin, synth.HEIGHT - 1 - margin]
    inside = ((uv >= margin) & (uv <= far)).all(axis=1)
    assert len(synth._observations(uv, sizes, z)) < inside.sum()


def one_canvas_render(world, pose, keep=None):
    """A raster painted with only the splats that `keep` holds (all without
    it), one canvas per call: how a night frame's dropout view was painted
    in a second pass over the splats."""
    uv, z = project_many(world.points, pose, synth._INTRINSICS)
    sizes = np.full(len(uv), np.nan)
    visible = z > 0.1 * synth.EXTENT
    if keep is not None:
        visible &= keep
    sizes[visible] = np.clip(synth.FOCAL * synth.POINT_SIZE / z[visible],
                             synth.MIN_SPLAT_PX, synth.MAX_SPLAT_PX)
    ramp = np.linspace(synth.BACKGROUND_LOW, synth.BACKGROUND_HIGH, synth.HEIGHT)
    img = np.tile(ramp[:, None], (1, synth.WIDTH))
    for i in np.argsort(-z, kind="stable"):
        if not np.isfinite(sizes[i]):
            continue
        s = sizes[i]
        cu, cv = uv[i]
        x0 = max(0, int(np.floor(cu - s / 2.0)))
        x1 = min(synth.WIDTH - 1, int(np.ceil(cu + s / 2.0)))
        y0 = max(0, int(np.floor(cv - s / 2.0)))
        y1 = min(synth.HEIGHT - 1, int(np.ceil(cv + s / 2.0)))
        if x1 < x0 or y1 < y0:
            continue
        dx = (np.arange(x0, x1 + 1, dtype=np.float64) - cu) / s
        dy = (np.arange(y0, y1 + 1, dtype=np.float64) - cv) / s
        r = np.sqrt(dx[None, :] ** 2 + dy[:, None] ** 2)
        patch = img[y0:y1 + 1, x0:x1 + 1]
        if world.is_anchor[i]:
            blob = np.exp(-(r / 0.25) ** 2)
            img[y0:y1 + 1, x0:x1 + 1] = patch * (1.0 - blob) + blob
            continue
        weight = np.cos(np.clip((r - 0.22) / (0.5 - 0.22), 0.0, 1.0) * np.pi / 2.0) ** 2
        weight[r > 0.5] = 0.0
        tex = synth.bilinear_sample(world.motifs[world.motif_ids[i]],
                                    ((dx + 0.5) * (synth.MOTIF_SIDE - 1))[None, :],
                                    ((dy + 0.5) * (synth.MOTIF_SIDE - 1))[:, None])
        value = world.brightness[i] * (0.45 + 0.55 * tex ** 3)
        img[y0:y1 + 1, x0:x1 + 1] = patch * (1.0 - weight) + value * weight
    return np.clip(img, 0.0, 1.0).astype(np.float32).astype(np.float64)


@pytest.mark.parametrize("seed", [0, 401])
def test_one_splat_pass_paints_both_canvases_as_two_renders_did(seed):
    cfg = replace(SMALL_NIGHT, seed=seed)
    world, scene_views = views(cfg)
    n = len(world.points)
    pose = scene_views[-1][0]
    extra = [(pose, np.zeros(n, bool)), (pose, np.ones(n, bool)), (pose, np.arange(n) % 2 == 0)]
    for pose, keep in scene_views + extra:
        day, kept, *_ = synth._render(world, pose, keep)
        assert day.pixels.tobytes() == one_canvas_render(world, pose).tobytes()
        assert kept.pixels.tobytes() == one_canvas_render(world, pose, keep).tobytes()
        if keep is None:
            assert kept is day
