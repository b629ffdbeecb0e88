from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pose
from egoreg import matching
from egoreg.embedding import gaussian_kernel
from egoreg.errors import DegenerateConfiguration, TooFewCorrespondences
from egoreg.evaluation import pose_errors
from egoreg.features import (
    DESCRIPTOR_DIM,
    ContextConfig,
    DetectorConfig,
    GrayImage,
    Keypoint,
    attach_context,
    contexts,
    extract_keypoints,
)
from egoreg.geometry import PixelPoint, Pose, WorldPoint, project_many
from egoreg.matching import MatchConfig, MatchPair
from egoreg.model import Model3D, ModelImage, Sequence, SequenceFrame
from egoreg.registration import (
    Correspondence2D3D,
    RansacConfig,
    ensure_contexts,
    lift_matches,
    match_sequence,
    pnp_solve,
    ransac_pnp,
    register_sequence,
)
from egoreg.sequence import FEATURE_DIM, LinearPruner, track_keypoints
from egoreg.synth import night_preset, synth_scene


def make_kp(u, v):
    return Keypoint(PixelPoint(u, v), 2.0, 0.0, np.zeros(DESCRIPTOR_DIM, np.float32), None)


def scene_correspondences(rng, pose, intrinsics, n, noise_px=0.0, depth=(4.0, 8.0)):
    """Random points in the camera frustum with exact projections."""
    inv_r = pose.R.T
    cam_center = pose.center()
    pts = []
    while len(pts) < n:
        u = rng.uniform(20, intrinsics.width - 20)
        v = rng.uniform(20, intrinsics.height - 20)
        z = rng.uniform(*depth)
        cam = np.array([(u - intrinsics.cx) * z / intrinsics.fx,
                        (v - intrinsics.cy) * z / intrinsics.fy, z])
        pts.append(cam_center + inv_r @ cam if False else inv_r @ (cam - pose.t))
    xyz = np.stack(pts)
    uv, z = project_many(xyz, pose, intrinsics)
    assert np.all(z > 0)
    uv = uv + rng.normal(0.0, noise_px, size=uv.shape) if noise_px > 0 else uv
    return [
        Correspondence2D3D(uv[i].copy(), xyz[i].copy(), i, i, 0.0)
        for i in range(n)
    ]


# ------------------------------------------------------------ lift_matches


def lift_fixture(intrinsics):
    pts = [WorldPoint(i, np.array([float(i), 0.0, 5.0])) for i in range(4)]
    kps = [make_kp(10.0 * i, 5.0) for i in range(4)]
    # keypoints 0,1,2 linked to points 0,1,2; keypoint 3 unlinked
    img = ModelImage(7, Pose(np.eye(3), np.zeros(3)), intrinsics, kps,
                     {0: 0, 1: 1, 2: 2}, None)
    return Model3D(pts, [img])


def test_lift_matches_resolves_links(intrinsics):
    model = lift_fixture(intrinsics)
    query = [make_kp(100.0, 100.0), make_kp(110.0, 100.0)]
    matches = {7: [MatchPair(0, 1, 0.2, 0.5), MatchPair(1, 2, 0.3, 0.6)]}
    corrs, unlinked = lift_matches(matches, query, model)
    assert unlinked == 0
    assert [c.point_id for c in corrs] == [1, 2]
    assert [c.query_idx for c in corrs] == [0, 1]
    assert np.allclose(corrs[0].pixel, [100.0, 100.0])
    assert np.allclose(corrs[0].point, model.point(1).xyz)


def test_lift_matches_counts_unlinked(intrinsics):
    model = lift_fixture(intrinsics)
    query = [make_kp(0.0, 0.0)]
    matches = {7: [MatchPair(0, 3, 0.2, 0.5)]}
    corrs, unlinked = lift_matches(matches, query, model)
    assert corrs == []
    assert unlinked == 1


def test_lift_matches_dedups_by_embedded_distance(intrinsics):
    model = lift_fixture(intrinsics)
    query = [make_kp(0.0, 0.0), make_kp(10.0, 0.0)]
    # both queries claim point 0; the smaller embed_dist wins
    matches = {7: [MatchPair(0, 0, 0.9, 0.5), MatchPair(1, 0, 0.1, 0.5)]}
    corrs, _ = lift_matches(matches, query, model)
    assert len(corrs) == 1
    assert corrs[0].query_idx == 1
    # and one query cannot supply two correspondences
    matches = {7: [MatchPair(0, 0, 0.1, 0.5), MatchPair(0, 1, 0.2, 0.5)]}
    corrs, _ = lift_matches(matches, query, model)
    assert len(corrs) == 1
    assert corrs[0].point_id == 0


# --------------------------------------------------------------------- pnp


def test_pnp_noiseless_recovers_pose(rng, intrinsics):
    for _ in range(10):
        pose = random_pose(rng)
        corrs = scene_correspondences(rng, pose, intrinsics, 12)
        est = pnp_solve(corrs, intrinsics)
        pos, orient = pose_errors(est, pose)
        assert orient < 1e-5
        assert pos < 1e-6


def test_pnp_requires_six_points(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 5)
    with pytest.raises(TooFewCorrespondences):
        pnp_solve(corrs, intrinsics)


def test_pnp_rejects_coincident_points(intrinsics):
    corrs = [Correspondence2D3D(np.array([100.0, 100.0]),
                                np.array([0.0, 0.0, 5.0]), i, i, 0.0)
             for i in range(8)]
    with pytest.raises(DegenerateConfiguration):
        pnp_solve(corrs, intrinsics)


# ------------------------------------------------------------------ ransac


def test_ransac_noiseless_all_inliers(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 30)
    est = ransac_pnp(corrs, intrinsics, RansacConfig(seed=0))
    assert est.registered
    assert est.inlier_mask.all()
    pos, orient = pose_errors(est.pose, pose)
    assert orient < 1e-4
    assert pos < 1e-5


def test_ransac_rejects_planted_outliers(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 40)
    # corrupt the last 12 pixels (30%) far beyond the inlier threshold
    bad = list(range(28, 40))
    for i in bad:
        corrs[i] = Correspondence2D3D(
            corrs[i].pixel + rng.uniform(30, 80, size=2) * rng.choice([-1, 1], size=2),
            corrs[i].point, corrs[i].point_id, corrs[i].query_idx, 0.0)
    est = ransac_pnp(corrs, intrinsics, RansacConfig(seed=1))
    assert est.registered
    assert not est.inlier_mask[bad].any()
    assert est.inlier_mask[:28].sum() >= 27  # at most one true inlier lost
    pos, orient = pose_errors(est.pose, pose)
    assert orient < 0.5


def test_ransac_below_min_inliers_raises(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 8)
    with pytest.raises(TooFewCorrespondences):
        ransac_pnp(corrs, intrinsics, RansacConfig(min_inliers=12))


def test_ransac_fails_without_consensus(rng, intrinsics):
    # pixels decoupled from geometry: no pose explains 12 of them
    corrs = scene_correspondences(rng, random_pose(rng), intrinsics, 20)
    shuffled = [
        Correspondence2D3D(corrs[(i + 7) % 20].pixel, corrs[i].point, i, i, 0.0)
        for i in range(20)
    ]
    est = ransac_pnp(shuffled, intrinsics, RansacConfig(seed=2))
    assert not est.registered
    assert est.status == "failed"


def test_ransac_deterministic_for_fixed_seed(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 25, noise_px=0.5)
    a = ransac_pnp(corrs, intrinsics, RansacConfig(seed=5))
    b = ransac_pnp(corrs, intrinsics, RansacConfig(seed=5))
    assert np.array_equal(a.pose.R, b.pose.R)
    assert np.array_equal(a.pose.t, b.pose.t)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)


# --------------------------------------------------------- ensure_contexts


def test_ensure_contexts_drops_keypoint_without_region(intrinsics):
    rng = np.random.default_rng(3)
    raster = GrayImage(rng.uniform(0, 1, size=(240, 320)))
    desc = np.ones(DESCRIPTOR_DIM, np.float32)
    kps = [Keypoint(PixelPoint(40.0 + 40.0 * i, 60.0 + 20.0 * i), 2.0, 0.0, desc)
           for i in range(6)]
    kps[2] = Keypoint(PixelPoint(120.0, 100.0), 0.4, 0.0, desc)  # region under 16 px
    links = {0: 10, 2: 12, 3: 13, 5: 15}  # keypoint 4 stays unlinked
    pts = [WorldPoint(pid, np.array([float(pid), 0.0, 5.0])) for pid in links.values()]
    img = ModelImage(3, Pose(np.eye(3), np.zeros(3)), intrinsics, list(kps), dict(links), raster)
    ensure_contexts(Model3D(pts, [img]), ContextConfig())
    assert [kp.pos for kp in img.keypoints] == [kp.pos for i, kp in enumerate(kps) if i != 2]
    assert all(kp.context is not None for kp in img.keypoints)
    old_index = {kp.pos: i for i, kp in enumerate(kps)}
    assert {old_index[img.keypoints[i].pos]: pid for i, pid in img.links.items()} == \
        {i: pid for i, pid in links.items() if i != 2}


# ------------------------------------------------- end to end, sptemp mode

# A registered pose counts when its camera center is within POS_TOL scene
# units (the facade is 4 units wide) and its orientation within
# ORIENT_TOL_DEG of the reference.
POS_TOL = 0.05
ORIENT_TOL_DEG = 1.0


@pytest.fixture(scope="module")
def small_day_night_scene():
    return synth_scene(replace(night_preset(0), n_points=200, n_model_images=2,
                               n_query_frames=2))


def registered_within_tolerance(scene, seq):
    records = register_sequence(seq, scene.model, match_cfg=MatchConfig(mode="sptemp"),
                                det_cfg=DetectorConfig(max_keypoints=200))
    assert [r.frame_index for r in records] == list(range(len(seq.frames)))
    ok = []
    for rec in records:
        pose = rec.estimate.pose
        if pose is None:
            ok.append(False)
            continue
        pos, orient = pose_errors(pose, seq.frames[rec.frame_index].gt_pose)
        ok.append(pos <= POS_TOL and orient <= ORIENT_TOL_DEG)
    return ok


def test_sptemp_registers_day_frames(small_day_night_scene):
    scene = small_day_night_scene
    assert all(registered_within_tolerance(scene, scene.day))


@pytest.mark.xfail(strict=True, reason="night frames do not register yet: night "
                   "contexts carry almost no point identity")
def test_sptemp_registers_night_frames(small_day_night_scene):
    scene = small_day_night_scene
    assert any(registered_within_tolerance(scene, scene.night))


# --------------------------------------------- float32 context kernel


def day_frame_query(scene):
    """Second day frame's keypoints with contexts, and its alive tracks."""
    prev, cur = scene.day.frames[0].image, scene.day.frames[1].image
    kps = extract_keypoints(cur, DetectorConfig(max_keypoints=200))
    kps, _ = attach_context(cur, kps, ContextConfig())
    tracks = [t for t in track_keypoints([prev, cur], kps) if t.alive]
    return [kps[t.keypoint_idx] for t in tracks], np.stack([t.positions for t in tracks])


def test_centred_float32_context_kernel_is_close_to_float64(small_day_night_scene):
    scene = small_day_night_scene
    day_kps, _ = day_frame_query(scene)
    for F in (day_kps, scene.model.images[0].keypoints):
        query = matching._query(F, None)
        assert query.cq.dtype == np.float32
        for img in scene.model.images:
            cm = contexts(img.keypoints)
            cm -= query.mu
            r32 = gaussian_kernel(query.cq, cm, None)
            r64 = gaussian_kernel(contexts(F).astype(np.float64),
                                  contexts(img.keypoints).astype(np.float64), None)
            assert np.abs(r32 - r64).max() < 1e-5


def test_float32_contexts_keep_sptemp_day_pairs(small_day_night_scene, monkeypatch):
    scene = small_day_night_scene
    kps, track_pos = day_frame_query(scene)
    cfg = MatchConfig(mode="sptemp")
    got = matching.match_frame_to_shortlist(kps, track_pos, scene.model.images, cfg)
    monkeypatch.setattr(matching, "contexts", lambda ks: contexts(ks).astype(np.float64))
    want = matching.match_frame_to_shortlist(kps, track_pos, scene.model.images, cfg)
    assert list(got) == list(want)
    assert sum(len(pairs) for pairs in want.values()) >= 10
    for image_id, pairs in want.items():
        assert ([(m.query_idx, m.model_idx) for m in got[image_id]]
                == [(m.query_idx, m.model_idx) for m in pairs])


def test_zero_weight_pruner_never_computes_frame_features(monkeypatch, intrinsics):
    from egoreg import registration, sequence

    def no_feature(*args):
        raise AssertionError("a zero-weight pruner must not compute features")

    monkeypatch.setattr(registration, "frame_quality_feature", no_feature)
    monkeypatch.setattr(sequence, "frame_quality_feature", no_feature)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", lambda *a: {})
    rng = np.random.default_rng(1)
    kps = [make_kp(40.0, 50.0), make_kp(90.0, 20.0)]
    raster = GrayImage(rng.uniform(0, 1, (intrinsics.height, intrinsics.width)))
    frames = [SequenceFrame(0.1 * i, intrinsics, None if i == 2 else raster, kps)
              for i in range(4)]
    model = Model3D([], [ModelImage(0, random_pose(rng), intrinsics, kps)])
    for bias, threshold in ((0.0, 0.0), (1.0, -2.0), (-1.0, 0.0), (0.0, 1e-12)):
        pruner = LinearPruner(np.zeros(FEATURE_DIM), bias, threshold)
        got = match_sequence(Sequence(frames), model, match_cfg=MatchConfig(mode="nn"),
                             pruner=pruner)
        # frames without a raster (frame 2) are always kept
        want = [0, 1, 2, 3] if bias >= threshold else [2]
        assert [fm.frame_index for fm in got] == want
