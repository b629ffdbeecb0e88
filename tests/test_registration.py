import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from conftest import keypoints_at, match_rows, match_table, points_at, random_pose
from egoreg import matching, parallel, registration, sequence
from egoreg.embedding import gaussian_kernel
from egoreg.errors import (DegenerateConfiguration, EmptyInput, IndexModelMismatch,
                           TooFewCorrespondences)
from egoreg.evaluation import pose_errors
from egoreg.features import (
    CONTEXT_DIM,
    DESCRIPTOR_DIM,
    ContextConfig,
    DetectorConfig,
    GrayImage,
    Keypoint,
    KeypointTable,
    attach_context,
    context_regions,
    contexts,
    extract_keypoints,
)
from egoreg.geometry import PixelPoint, Pose, project_many
from egoreg.matching import MatchConfig
from egoreg.model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame
from egoreg.registration import (
    Correspondences,
    PoseEstimate,
    RansacConfig,
    RegistrationRecord,
    ensure_contexts,
    lift_matches,
    match_sequence,
    pnp_solve,
    ransac_pnp,
    register_sequence,
)
from egoreg.retrieval import InvertedIndex, Vocabulary
from egoreg.sequence import FEATURE_DIM, LinearPruner, track_keypoints
from egoreg.synth import night_preset, synth_scene


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
    return Correspondences(uv, xyz, np.arange(n), np.arange(n))


# ------------------------------------------------------------ lift_matches


def lift_fixture(intrinsics):
    pts = points_at(*[(float(i), 0.0, 5.0) for i in range(4)])
    kps = keypoints_at(*[(10.0 * i, 5.0) for i in range(4)])
    # keypoints 0,1,2 linked to points 0,1,2; keypoint 3 unlinked
    img = ModelImage(7, Pose(np.eye(3), np.zeros(3)), intrinsics, kps,
                     {0: 0, 1: 1, 2: 2}, None)
    return Model3D(pts, [img])


def test_lift_matches_resolves_links(intrinsics):
    model = lift_fixture(intrinsics)
    query = keypoints_at((100.0, 100.0), (110.0, 100.0))
    matches = {7: match_table((0, 1, 0.2, 0.5), (1, 2, 0.3, 0.6))}
    corrs, unlinked = lift_matches(matches, query, model)
    assert unlinked == 0
    assert corrs.point_id.tolist() == [1, 2]
    assert corrs.query_idx.tolist() == [0, 1]
    assert np.allclose(corrs.pixel[0], [100.0, 100.0])
    assert np.allclose(corrs.point[0], [1.0, 0.0, 5.0])


def test_lift_matches_counts_unlinked(intrinsics):
    model = lift_fixture(intrinsics)
    query = keypoints_at((0.0, 0.0))
    matches = {7: match_table((0, 3, 0.2, 0.5))}
    corrs, unlinked = lift_matches(matches, query, model)
    assert len(corrs) == 0
    assert unlinked == 1
    # a link to a missing point, made after the model checked its links
    model.images[0].links[3] = 99
    with pytest.raises(KeyError, match="99"):
        lift_matches(matches, query, model)


def test_lift_matches_dedups_by_embedded_distance(intrinsics):
    model = lift_fixture(intrinsics)
    query = keypoints_at((0.0, 0.0), (10.0, 0.0))
    # both queries claim point 0; the smaller embed_dist wins
    matches = {7: match_table((0, 0, 0.9, 0.5), (1, 0, 0.1, 0.5))}
    corrs, _ = lift_matches(matches, query, model)
    assert len(corrs) == 1
    assert corrs.query_idx.tolist() == [1]
    # and one query cannot supply two correspondences
    matches = {7: match_table((0, 0, 0.1, 0.5), (0, 1, 0.2, 0.5))}
    corrs, _ = lift_matches(matches, query, model)
    assert len(corrs) == 1
    assert corrs.point_id.tolist() == [0]


def reference_lift(matches, query_kps, model):
    """The per-correspondence lift the table replaced: one record per
    candidate, a key sort, then the greedy first-claim pass."""
    candidates, unlinked = [], 0
    xy = query_kps.xy
    xyz = dict(zip(model.points.ids.tolist(), model.points.xyz))
    for image_id, pairs in matches.items():
        img = model.image(image_id)
        for q, j, d, _ in match_rows(pairs):
            pid = img.links.get(j)
            if pid is None:
                unlinked += 1
                continue
            candidates.append((d, q, pid, xy[q].copy(), xyz[pid].copy()))
    candidates.sort(key=lambda c: c[:3])
    seen_points, seen_queries, out = set(), set(), []
    for c in candidates:
        if c[2] in seen_points or c[1] in seen_queries:
            continue
        seen_points.add(c[2])
        seen_queries.add(c[1])
        out.append(c)
    return out, unlinked


def two_image_lift_fixture(intrinsics):
    """Two model images whose keypoints link to overlapping world points."""
    rng = np.random.default_rng(8)
    pts = PointTable(np.arange(6), [rng.normal(size=3) for _ in range(6)])
    kps = keypoints_at(*[(10.0 * i, 5.0) for i in range(5)])
    images = [ModelImage(7, Pose(np.eye(3), np.zeros(3)), intrinsics, kps,
                         {0: 0, 1: 1, 2: 2, 3: 3}, None),       # keypoint 4 unlinked
              ModelImage(9, Pose(np.eye(3), np.zeros(3)), intrinsics, kps,
                         {0: 5, 1: 0, 2: 4, 4: 2}, None)]       # keypoint 3 unlinked
    query = keypoints_at(*[rng.uniform(0.0, 300.0, size=2) for _ in range(6)])
    return Model3D(pts, images), query


@pytest.mark.parametrize("case", [
    "ties", "point_from_two_images", "query_claims_two_points", "unlinked", "no_matches",
    "random"])
def test_lift_matches_columns_equal_the_per_object_lift(intrinsics, case):
    model, query = two_image_lift_fixture(intrinsics)
    matches = {
        # equal embed_dist: ties break by query index, then point id
        "ties": {7: match_table((3, 1, 0.5, 0.5), (1, 2, 0.5, 0.5),
                                (1, 0, 0.5, 0.5), (0, 3, 0.25, 0.5)),
                 9: match_table((2, 0, 0.5, 0.5), (1, 1, 0.5, 0.5))},
        # world point 0 is model keypoint 0 of image 7 and keypoint 1 of image 9
        "point_from_two_images": {7: match_table((0, 0, 0.4, 0.5)),
                                  9: match_table((1, 1, 0.3, 0.5), (2, 2, 0.1, 0.5))},
        "query_claims_two_points": {7: match_table((4, 0, 0.2, 0.5), (4, 3, 0.1, 0.5)),
                                    9: match_table((4, 0, 0.05, 0.5), (5, 2, 0.3, 0.5))},
        "unlinked": {7: match_table((0, 4, 0.1, 0.5), (1, 1, 0.2, 0.5)),
                     9: match_table((2, 3, 0.1, 0.5), (3, 4, 0.3, 0.5))},
        "no_matches": {7: match_table(), 9: match_table()},
    }.get(case)
    if matches is None:  # many random claims over both images, with repeated distances
        rng = np.random.default_rng(9)
        matches = {image_id: match_table(*zip(rng.integers(0, 6, 40), rng.integers(0, 5, 40),
                                              rng.choice([0.1, 0.2, 0.3, rng.uniform()], 40),
                                              [0.5] * 40))
                   for image_id in (7, 9)}
    got, unlinked = lift_matches(matches, query, model)
    want, want_unlinked = reference_lift(matches, query, model)
    assert unlinked == want_unlinked
    assert len(got) == len(want)
    assert got.point_id.dtype == got.query_idx.dtype == np.int64
    assert got.query_idx.tolist() == [c[1] for c in want]
    assert got.point_id.tolist() == [c[2] for c in want]
    assert got.pixel.shape == (len(want), 2) and got.point.shape == (len(want), 3)
    assert got.pixel.tobytes() == b"".join(c[3].tobytes() for c in want)
    assert got.point.tobytes() == b"".join(c[4].tobytes() for c in want)
    if case != "no_matches":
        assert len(got) > 0


def test_correspondences_len_is_its_row_count(rng, intrinsics):
    # not its field count, as a NamedTuple's would be (an empty table is
    # the no_matches lift above)
    for n in (1, 4, 7):
        assert len(scene_correspondences(rng, random_pose(rng), intrinsics, n)) == n
    corrs = scene_correspondences(rng, random_pose(rng), intrinsics, 7)
    part = corrs.take(np.array([True, False, True, True, False, False, True]))
    assert len(part) == 4 and part.query_idx.tolist() == [0, 2, 3, 6]
    assert np.array_equal(part.point, corrs.point[[0, 2, 3, 6]])


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
    corrs = Correspondences(np.tile([100.0, 100.0], (8, 1)), np.tile([0.0, 0.0, 5.0], (8, 1)),
                            np.arange(8), np.arange(8))
    with pytest.raises(DegenerateConfiguration):
        pnp_solve(corrs, intrinsics)


# ------------------------------------------------------------------ ransac


def test_ransac_noiseless_all_inliers(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 30)
    est = ransac_pnp(corrs, intrinsics, RansacConfig(seed=0))
    assert est.pose is not None
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
        corrs.pixel[i] += rng.uniform(30, 80, size=2) * rng.choice([-1, 1], size=2)
    est = ransac_pnp(corrs, intrinsics, RansacConfig(seed=1))
    assert est.pose is not None
    assert not est.inlier_mask[bad].any()
    assert est.inlier_mask[:28].sum() >= 27  # at most one true inlier lost
    pos, orient = pose_errors(est.pose, pose)
    assert orient < 0.5


def test_ransac_below_min_inliers_raises(rng, intrinsics):
    pose = random_pose(rng)
    corrs = scene_correspondences(rng, pose, intrinsics, 8)
    with pytest.raises(TooFewCorrespondences):
        ransac_pnp(corrs, intrinsics, RansacConfig(min_inliers=12))


def test_ransac_below_six_correspondences_raises(rng, intrinsics):
    # too few rows for a minimal sample, even when min_inliers asks for fewer
    corrs = scene_correspondences(rng, random_pose(rng), intrinsics, 5)
    for min_inliers in (4, 0):
        with pytest.raises(TooFewCorrespondences):
            ransac_pnp(corrs, intrinsics, RansacConfig(min_inliers=min_inliers))


def test_ransac_fails_without_consensus(rng, intrinsics):
    # pixels decoupled from geometry: no pose explains 12 of them
    corrs = scene_correspondences(rng, random_pose(rng), intrinsics, 20)
    shuffled = Correspondences(corrs.pixel[(np.arange(20) + 7) % 20], corrs.point,
                               np.arange(20), np.arange(20))
    est = ransac_pnp(shuffled, intrinsics, RansacConfig(seed=2))
    assert est.pose is None
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
    pts = PointTable(list(links.values()), [(float(pid), 0.0, 5.0) for pid in links.values()])
    img = ModelImage(3, Pose(np.eye(3), np.zeros(3)), intrinsics, list(kps), dict(links), raster)
    ensure_contexts(Model3D(pts, [img]), ContextConfig())
    assert [kp.pos for kp in img.keypoints] == [kp.pos for i, kp in enumerate(kps) if i != 2]
    assert all(kp.context is not None for kp in img.keypoints)
    old_index = {kp.pos: i for i, kp in enumerate(kps)}
    assert {old_index[img.keypoints[i].pos]: pid for i, pid in img.links.items()} == \
        {i: pid for i, pid in links.items() if i != 2}


def context_model(intrinsics):
    """Three images of 10 keypoints on random rasters, without contexts; image 1's
    keypoint 4 has a region under 16 px, so computing contexts drops it."""
    rng = np.random.default_rng(11)
    images, pids = [], []
    for i in range(3):
        xy = rng.uniform(30.0, 200.0, size=(10, 2))
        scale = np.full(10, 2.0)
        if i == 1:
            scale[4] = 0.4
        kps = KeypointTable(xy, scale, np.zeros(10),
                            rng.random((10, DESCRIPTOR_DIM)).astype(np.float32))
        links = {j: 100 * i + j for j in (0, 3, 4, 7, 9)}
        pids += links.values()
        images.append(ModelImage(i, Pose(np.eye(3), np.zeros(3)), intrinsics, kps, links,
                                 GrayImage(rng.uniform(0, 1, size=(240, 320)))))
    pts = PointTable(pids, [(float(p), 0.0, 5.0) for p in pids])
    return Model3D(pts, images)


def test_ensure_contexts_is_per_image_attach_context_on_one_lane_and_two(
        intrinsics, on_both_paths):
    want = []
    for img in context_model(intrinsics).images:
        kept = [j for j, roi in enumerate(context_regions(img.keypoints, 320, 240))
                if roi is not None]
        kps, _ = attach_context(img.raster, img.keypoints.take(kept))
        links = {kept.index(j): pid for j, pid in img.links.items() if j in kept}
        want.append((kps, links))
    assert len(want[1][0]) == 9 and 104 not in want[1][1].values()

    def run():
        model = context_model(intrinsics)
        ensure_contexts(model, ContextConfig())
        return [(img.keypoints, img.links) for img in model.images]

    for got in on_both_paths(run):
        for (kps, links), (want_kps, want_links) in zip(got, want, strict=True):
            assert kps.xy.tobytes() == want_kps.xy.tobytes()
            assert kps.contexts.tobytes() == want_kps.contexts.tobytes()
            assert list(links.items()) == list(want_links.items())


def test_ensure_contexts_refuses_a_model_before_changing_any_image(intrinsics):
    model = context_model(intrinsics)
    model.images[2].raster = None
    before = [(img.keypoints, dict(img.links)) for img in model.images]
    with pytest.raises(EmptyInput, match="model image 2"):
        ensure_contexts(model, ContextConfig())
    for img, (kps, links) in zip(model.images, before):
        assert img.keypoints is kps and img.keypoints.contexts is None
        assert img.links == links


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


def record_fields(rec):
    est = rec.estimate
    pose = None if est.pose is None else (est.pose.R.tobytes(), est.pose.t.tobytes())
    return (rec.frame_index, est.status, pose, est.inlier_mask.tobytes(),
            np.float64(est.mean_reproj).tobytes(), est.n_correspondences,
            rec.shortlist_ids, rec.n_keypoints, rec.n_matches, rec.n_unlinked)


def test_night_clip_registers_the_same_on_one_thread_and_two(small_day_night_scene,
                                                             on_both_paths, monkeypatch):
    # raw night frames: contexts and the shortlist's images both go through
    # the helper thread on the second path
    scene = small_day_night_scene
    seen = []
    lift = registration.lift_matches

    def recording(matches, query_kps, model):
        seen.append((query_kps.xy.tobytes(), {k: match_rows(v) for k, v in matches.items()}))
        return lift(matches, query_kps, model)

    monkeypatch.setattr(registration, "lift_matches", recording)

    def run():
        seen.clear()
        records = register_sequence(scene.night, scene.model,
                                    match_cfg=MatchConfig(mode="sptemp"),
                                    det_cfg=DetectorConfig(max_keypoints=200))
        # frames are lifted on either lane: compare them by their keypoints
        lifted = [matches for _, matches in sorted(seen, key=lambda s: s[0])]
        return [record_fields(r) for r in records], lifted

    (alone, alone_pairs), (two, two_pairs) = on_both_paths(run)
    assert len(alone) == len(scene.night.frames) and alone == two
    assert alone_pairs == two_pairs
    assert sum(len(v) for m in alone_pairs for v in m.values()) > 0


# ---------------------------------------------- frames on one lane or two


@pytest.fixture(scope="module")
def five_frame_clips():
    """Five raw day frames and five night frames with 60 keypoints and
    contexts precomputed, against a two-image model."""
    scene = synth_scene(replace(night_preset(0), n_points=200, n_model_images=2,
                                n_query_frames=5))
    night = []
    for fr in scene.night.frames:
        kps = extract_keypoints(fr.image, DetectorConfig(max_keypoints=60))
        kps, _ = attach_context(fr.image, kps, ContextConfig())
        night.append(replace(fr, keypoints=kps))
    return scene.model, {"day": scene.day, "night": Sequence(night)}


class DropFrame:
    """A pruner that drops the `drop`-th frame it is asked about."""

    def __init__(self, drop):
        self.drop, self.asked = drop, 0

    def fixed_decision(self):
        return None

    def keep(self, feature):
        self.asked += 1
        return self.asked - 1 != self.drop


def match_fields(kps, matches):
    assert kps.contexts is None  # matching's output carries no contexts
    pairs = {image_id: [(q, j, np.float64(d).tobytes(), np.float64(r).tobytes())
                        for q, j, d, r in match_rows(ms)]
             for image_id, ms in matches.items()}
    return kps.xy.tobytes(), pairs


def lanes_agree(on_both_paths, monkeypatch, clip, model, window=3, pruner=None):
    """register_sequence on one lane and on two: records, the matches each
    frame lifts and each frame's contexts agree bit for bit. Returns the
    records and the frames and images the helper lane ran."""
    lifted, contexts_seen, off_main = [], {}, []
    lane = threading.local()  # .frame: the frame this lane last opened
    frame_keypoints = registration._frame_keypoints
    lift = registration.lift_matches
    embed = matching._embed_and_assign

    def noting_lane(frame, *args):
        lane.frame = clip.frames.index(frame)
        if threading.current_thread() is not threading.main_thread():
            off_main.append(lane.frame)
        kps = frame_keypoints(frame, *args)
        contexts_seen[lane.frame] = None if kps.contexts is None else kps.contexts.tobytes()
        return kps

    def recording(matches, query_kps, model):
        # a frame is lifted in the item that matched it, so on the same lane
        # and before that lane opens another frame
        lifted.append((lane.frame, match_fields(query_kps, matches)))
        return lift(matches, query_kps, model)

    def noting_image(query, M, cfg):
        if threading.current_thread() is not threading.main_thread():
            off_main.append("image")
        return embed(query, M, cfg)

    monkeypatch.setattr(registration, "_frame_keypoints", noting_lane)
    monkeypatch.setattr(registration, "lift_matches", recording)
    monkeypatch.setattr(matching, "_embed_and_assign", noting_image)

    def run():
        lifted.clear()
        contexts_seen.clear()
        records = register_sequence(
            clip, model, match_cfg=MatchConfig(mode="sptemp", temporal_window=window),
            det_cfg=DetectorConfig(max_keypoints=60),
            pruner=pruner() if pruner else None)
        return [record_fields(r) for r in records], sorted(lifted), dict(contexts_seen)

    (alone, alone_lifted, alone_ctx), (two, two_lifted, two_ctx) = on_both_paths(run)
    assert alone == two
    assert alone_lifted == two_lifted
    assert [i for i, _ in alone_lifted] == [r[0] for r in alone]  # each kept frame once
    assert [len(np.frombuffer(xy)) // 2 for _, (xy, _) in alone_lifted] == [r[-3] for r in alone]
    assert alone_ctx == two_ctx
    assert sorted(alone_ctx) == [r[0] for r in alone if r[-3] > 0]
    return alone, off_main


@pytest.mark.parametrize("kind, n_frames, window", [
    ("day", 1, 3), ("day", 2, 1), ("day", 3, 3), ("day", 5, 3),
    ("night", 1, 3), ("night", 2, 1), ("night", 3, 3), ("night", 5, 1), ("night", 5, 3),
])
def test_frames_match_the_same_on_one_lane_and_two(five_frame_clips, on_both_paths,
                                                   monkeypatch, kind, n_frames, window):
    model, clips = five_frame_clips
    clip = Sequence(clips[kind].frames[:n_frames])
    records, off_main = lanes_agree(on_both_paths, monkeypatch, clip, model, window)
    assert [r[0] for r in records] == list(range(n_frames))
    assert all(r[-3] > 0 for r in records)  # every frame kept keypoints
    if kind == "day":  # night sptemp frames keep few or no pairs
        assert all(r[-2] > 0 for r in records)
    if n_frames >= 2:  # the helper lane ran some frame or image
        assert off_main


def test_a_pruned_middle_frame_keeps_the_lanes_in_step(five_frame_clips, on_both_paths,
                                                       monkeypatch):
    model, clips = five_frame_clips
    clip = Sequence(clips["day"].frames[:4])
    records, off_main = lanes_agree(on_both_paths, monkeypatch, clip, model,
                                    pruner=lambda: DropFrame(1))
    assert [r[0] for r in records] == [0, 2, 3]
    assert off_main  # the helper lane ran some frame or image


def test_an_empty_frame_on_the_helper_lane_gives_an_empty_record(five_frame_clips,
                                                                 on_both_paths, monkeypatch):
    model, clips = five_frame_clips
    frames = list(clips["day"].frames[:3])
    frames[1] = replace(frames[1], image=None, keypoints=None)
    records, off_main = lanes_agree(on_both_paths, monkeypatch, Sequence(frames), model)
    assert [r[0] for r in records] == [0, 1, 2]
    _, status, pose, *_, shortlist_ids, n_keypoints, n_matches, _ = records[1]
    assert (status, pose, shortlist_ids, n_keypoints, n_matches) == ("failed", None, [], 0, 0)
    assert off_main  # the helper lane ran some frame or image
    assert records[2][-2] > 0  # the frame after it still matches, without tracks


def dead_tracks(frames, kps, pyramids=None):
    """track_keypoints as if every track died."""
    return [sequence.Track(i, np.zeros((len(frames), 2)), False) for i in range(len(kps))]


def two_pass(clip, model, ransac_cfg=RansacConfig(), **kwargs):
    """The two-pass composition register_sequence replaced: match_sequence
    over the whole clip, then each frame's lift and RANSAC."""
    records = []
    for fm in match_sequence(clip, model, **kwargs):
        corrs, unlinked = lift_matches(fm.matches, fm.keypoints, model)
        try:
            est = ransac_pnp(corrs, clip.frames[fm.frame_index].intrinsics, ransac_cfg)
        except TooFewCorrespondences:
            est = PoseEstimate.failed(len(corrs))
        records.append(RegistrationRecord(fm.frame_index, est, fm.shortlist_ids,
                                          len(fm.keypoints),
                                          sum(len(v) for v in fm.matches.values()), unlinked))
    return records


@pytest.mark.parametrize("case", ["day", "night", "pruned", "empty", "tracks_die"])
def test_register_sequence_is_match_sequence_then_lift_and_ransac(five_frame_clips,
                                                                   on_both_paths,
                                                                   monkeypatch, case):
    model, clips = five_frame_clips
    frames = list(clips["night" if case == "night" else "day"].frames[:3])
    if case == "empty":
        frames[1] = replace(frames[1], image=None, keypoints=None)
    if case == "tracks_die":
        monkeypatch.setattr(registration, "track_keypoints", dead_tracks)
    clip = Sequence(frames)
    kwargs = dict(match_cfg=MatchConfig(mode="sptemp", temporal_window=3),
                  det_cfg=DetectorConfig(max_keypoints=60))

    def run():
        pruner = DropFrame(1) if case == "pruned" else None
        got = register_sequence(clip, model, pruner=pruner, **kwargs)
        pruner = DropFrame(1) if case == "pruned" else None
        want = two_pass(clip, model, pruner=pruner, **kwargs)
        return [record_fields(r) for r in got], [record_fields(r) for r in want]

    (alone, alone_want), (two, two_want) = on_both_paths(run)
    assert alone == alone_want == two == two_want
    assert [r[0] for r in alone] == ([0, 2] if case == "pruned" else [0, 1, 2])
    if case != "night":  # day frames register; night sptemp frames do not
        assert any(r[1] == "registered" for r in alone)


def test_register_sequence_maps_once_on_one_helper_thread(five_frame_clips, monkeypatch):
    model, clips = five_frame_clips
    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: True)
    maps, started = [], []
    map_frames, start = registration.map_on_two, threading.Thread.start

    def counting_map(fn, items):
        maps.append(len(items))
        return map_frames(fn, items)

    def counting_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(registration, "map_on_two", counting_map)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    records = register_sequence(Sequence(clips["night"].frames[:3]), model,
                                match_cfg=MatchConfig(mode="sptemp", temporal_window=3))
    assert [r.frame_index for r in records] == [0, 1, 2]
    assert maps == [3]
    assert started == ["egoreg-lane"]


def test_fewer_than_six_correspondences_give_a_failed_record(intrinsics):
    # five linked model keypoints, each the nearest descriptor of one query
    # keypoint: five correspondences, under a min_inliers that allows them
    rng = np.random.default_rng(6)
    pose = random_pose(rng)
    xyz = rng.uniform(-1.0, 1.0, size=(5, 3)) + [0.0, 0.0, 6.0]
    onehot = np.eye(DESCRIPTOR_DIM, dtype=np.float32)
    kps = replace(keypoints_at(*[(40.0 + 50.0 * i, 60.0 + 30.0 * i) for i in range(5)]),
                  descriptors=onehot[:5])
    model = Model3D(points_at(*xyz),
                    [ModelImage(0, pose, intrinsics, kps, {i: i for i in range(5)})])
    clip = Sequence([SequenceFrame(0.0, intrinsics, None, kps)])
    for min_inliers in (4, 0):
        [rec] = register_sequence(clip, model, match_cfg=MatchConfig(mode="nn"),
                                  ransac_cfg=RansacConfig(min_inliers=min_inliers))
        assert (rec.estimate.status, rec.estimate.pose) == ("failed", None)
        assert rec.estimate.n_correspondences == 5 and rec.n_matches == 5
        assert rec.estimate.inlier_mask.tolist() == [False] * 5


@pytest.mark.parametrize("mode", ["sp", "sptemp"])
def test_a_one_keypoint_frame_gives_a_failed_record(five_frame_clips, mode):
    # the spatial kernel of one keypoint is [[1]], so matching runs and
    # lifting gives too few correspondences
    model, clips = five_frame_clips
    frame = clips["night"].frames[0]
    clip = Sequence([replace(frame, keypoints=frame.keypoints.take([0]))])
    [rec] = register_sequence(clip, model, match_cfg=MatchConfig(mode=mode))
    assert (rec.estimate.status, rec.estimate.pose) == ("failed", None)
    assert rec.n_keypoints == 1 and rec.estimate.n_correspondences <= 1


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
    return kps.take([t.keypoint_idx for t in tracks]), np.stack([t.positions for t in tracks])


def test_centred_float32_context_kernel_is_close_to_float64(small_day_night_scene):
    scene = small_day_night_scene
    day_kps, _ = day_frame_query(scene)
    for F in (day_kps, scene.model.images[0].keypoints):
        query = matching._query(F, False)
        assert query.cq.dtype == np.float32
        for img in scene.model.images:
            cm = contexts(img.keypoints) - query.mu
            r32 = gaussian_kernel(query.cq, cm)
            r64 = gaussian_kernel(contexts(F).astype(np.float64),
                                  contexts(img.keypoints).astype(np.float64))
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
        assert got[image_id].query_idx.tolist() == pairs.query_idx.tolist()
        assert got[image_id].model_idx.tolist() == pairs.model_idx.tolist()


def test_an_index_for_another_model_fails_before_any_frame(monkeypatch, intrinsics):
    def no_frame(*args):
        raise AssertionError("no frame may be matched")

    monkeypatch.setattr(registration, "_frame_keypoints", no_frame)
    rng = np.random.default_rng(2)
    kps = keypoints_at((40.0, 50.0), (90.0, 20.0))
    model = Model3D(points_at(), [ModelImage(i, random_pose(rng), intrinsics, kps) for i in (0, 1)])
    clip = Sequence([SequenceFrame(0.0, intrinsics, None, kps)])
    vocab = Vocabulary(np.eye(2, DESCRIPTOR_DIM))
    index = InvertedIndex([0, 5, 1, 3], np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(IndexModelMismatch, match=r"\[3, 5\]"):
        match_sequence(clip, model, vocab, index, MatchConfig(mode="nn"))


@pytest.mark.parametrize("call", [match_sequence, register_sequence])
def test_bad_shortlist_arguments_fail_before_any_frame(monkeypatch, intrinsics, call):
    def no_frame(*args):
        raise AssertionError("no frame may be matched")

    monkeypatch.setattr(registration, "_frame_keypoints", no_frame)
    rng = np.random.default_rng(2)
    kps = keypoints_at((40.0, 50.0), (90.0, 20.0))
    model = Model3D(points_at(), [ModelImage(i, random_pose(rng), intrinsics, kps) for i in (0, 1)])
    clip = Sequence([SequenceFrame(0.0, intrinsics, None, kps)])
    vocab = Vocabulary(np.eye(2, DESCRIPTOR_DIM))
    index = InvertedIndex([0, 1], np.zeros((2, 2)), np.zeros(2))
    for size in (0, -1):  # -1 used to shortlist every image but the last
        with pytest.raises(ValueError, match=f"shortlist_size must be at least 1, got {size}"):
            call(clip, model, vocab, index, MatchConfig(mode="nn"), shortlist_size=size)
    # one of the pair alone used to be ignored, shortlisting by image id
    with pytest.raises(ValueError, match="index is missing"):
        call(clip, model, vocab, None, MatchConfig(mode="nn"))
    with pytest.raises(ValueError, match="vocab is missing"):
        call(clip, model, None, index, MatchConfig(mode="nn"))


def test_zero_weight_pruner_never_computes_frame_features(monkeypatch, intrinsics):
    from egoreg import registration, sequence

    def no_feature(*args):
        raise AssertionError("a zero-weight pruner must not compute features")

    monkeypatch.setattr(registration, "frame_quality_feature", no_feature)
    monkeypatch.setattr(sequence, "frame_quality_feature", no_feature)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", lambda *a: {})
    rng = np.random.default_rng(1)
    kps = keypoints_at((40.0, 50.0), (90.0, 20.0))
    raster = GrayImage(rng.uniform(0, 1, (intrinsics.height, intrinsics.width)))
    frames = [SequenceFrame(0.1 * i, intrinsics, None if i == 2 else raster, kps)
              for i in range(4)]
    model = Model3D(points_at(), [ModelImage(0, random_pose(rng), intrinsics, kps)])
    for bias, threshold in ((0.0, 0.0), (1.0, -2.0), (-1.0, 0.0), (0.0, 1e-12)):
        pruner = LinearPruner(np.zeros(FEATURE_DIM), bias, threshold)
        got = match_sequence(Sequence(frames), model, match_cfg=MatchConfig(mode="nn"),
                             pruner=pruner)
        # frames without a raster (frame 2) are always kept
        want = [0, 1, 2, 3] if bias >= threshold else [2]
        assert [fm.frame_index for fm in got] == want


# ------------------------------------------------------ pyramid reuse


def moving_clip(intrinsics, n_frames):
    """A smooth texture sliding (2, 1) px a frame, with keypoints that carry
    contexts already, and a one-image model."""
    rng = np.random.default_rng(4)
    px = ndimage.gaussian_filter(rng.uniform(0, 1, (intrinsics.height, intrinsics.width)), 2.0)
    kps = keypoints_at(*[(u, v) for u in range(60, 280, 40) for v in range(60, 200, 40)])
    kps = replace(kps, contexts=np.zeros((len(kps), CONTEXT_DIM), np.float32))
    frames = [SequenceFrame(0.1 * i, intrinsics,
                            GrayImage(np.roll(px, (i, 2 * i), axis=(0, 1))), kps)
              for i in range(n_frames)]
    model = Model3D(points_at(), [ModelImage(0, random_pose(rng), intrinsics, kps)])
    return Sequence(frames), model


def test_reused_pyramids_give_the_tracks_of_fresh_ones(monkeypatch, intrinsics):
    clip, model = moving_clip(intrinsics, 6)
    past_frames, alive = [], []

    def checked(frames, kps, pyramids=None):
        assert pyramids is not None
        got = track_keypoints(frames, kps, pyramids)
        want = track_keypoints(frames, kps)
        assert ([(t.keypoint_idx, t.alive, t.positions.tobytes()) for t in got]
                == [(t.keypoint_idx, t.alive, t.positions.tobytes()) for t in want])
        index = next(i for i, fr in enumerate(clip.frames) if fr.image is frames[-1])
        past_frames.append((index, len(frames) - 1))
        alive.append(sum(t.alive for t in got))
        return got

    monkeypatch.setattr(registration, "track_keypoints", checked)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", lambda *a: {})
    match_sequence(clip, model, match_cfg=MatchConfig(temporal_window=3))
    # sorted by frame: the two frames of a pair track concurrently
    assert sorted(past_frames) == [(1, 1), (2, 2), (3, 3), (4, 3), (5, 3)]
    assert min(alive) > 0


def test_a_frame_whose_tracks_all_die_keeps_every_keypoint_and_no_tracks(monkeypatch,
                                                                          intrinsics):
    clip, model = moving_clip(intrinsics, 3)
    matched = []

    def recording(kps, track_pos, images, cfg):
        matched.append((kps, track_pos))
        return {}

    monkeypatch.setattr(registration, "track_keypoints", dead_tracks)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", recording)
    got = match_sequence(clip, model, match_cfg=MatchConfig(temporal_window=3))
    # frame 0 has no past to track through; frames 1 and 2 lose every track
    assert [len(fm.keypoints) for fm in got] == [len(fr.keypoints) for fr in clip.frames]
    assert len(matched) == 3
    for kps, track_pos in matched:
        # the frames share one table, which each is matched with whole
        assert track_pos is None
        assert kps is clip.frames[0].keypoints


def test_match_sequence_builds_each_frame_pyramid_once(monkeypatch, intrinsics):
    clip, model = moving_clip(intrinsics, 6)
    built = []
    pyramid = sequence._pyramid

    def counting(px, levels):
        built.append(px)
        return pyramid(px, levels)

    monkeypatch.setattr(sequence, "_pyramid", counting)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", lambda *a: {})
    match_sequence(clip, model, match_cfg=MatchConfig(temporal_window=3))
    assert len(built) == 6
    assert all(px is fr.image.pixels for px, fr in zip(built, clip.frames))


def test_each_pyramid_is_built_once_and_dropped_after_the_last_window_reaching_it(
        monkeypatch, intrinsics, on_both_paths):
    clip, model = moving_clip(intrinsics, 5)
    built, alive, live = [], [], {}
    pyramid, track = sequence._pyramid, registration.track_keypoints

    def frame_of(px):
        return next(i for i, fr in enumerate(clip.frames) if fr.image.pixels is px)

    def counting(px, levels):
        pyr = pyramid(px, levels)
        built.append(frame_of(px))
        live[built[-1]] = weakref.ref(pyr[1])
        return pyr

    def noting(frames, kps, pyramids):
        alive.append((frame_of(frames[-1].pixels),
                      [j for j, ref in sorted(live.items()) if ref() is not None]))
        return track(frames, kps, pyramids)

    monkeypatch.setattr(sequence, "_pyramid", counting)
    monkeypatch.setattr(registration, "track_keypoints", noting)
    monkeypatch.setattr(registration, "match_frame_to_shortlist", lambda *a: {})

    def run():
        built.clear()
        alive.clear()
        live.clear()
        match_sequence(clip, model, match_cfg=MatchConfig(temporal_window=3))
        return sorted(built), sorted(alive)

    (one_built, one_alive), (two_built, two_alive) = on_both_paths(run)
    assert one_built == two_built == [0, 1, 2, 3, 4]
    # one lane: a frame tracks after every earlier frame finished, so only
    # the pyramids its own window reaches are alive
    assert one_alive == [(i, list(range(max(0, i - 3), i + 1))) for i in range(1, 5)]
    # two lanes: the other open frame is the one before or after it
    assert [i for i, _ in two_alive] == [1, 2, 3, 4]
    assert all(set(js) <= set(range(i - 4, i + 2)) for i, js in two_alive)
