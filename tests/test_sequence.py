import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from egoreg.errors import SingleClass
from egoreg.features import DetectorConfig, GrayImage, bilinear_sample, extract_keypoints
from egoreg.sequence import (
    FEATURE_DIM,
    TRACK_LEVELS,
    TRACK_MAX_ITERS,
    TRACK_RESIDUAL_MAX,
    TRACK_WINDOW,
    LinearPruner,
    blur_metric,
    frame_quality_feature,
    motion_histogram,
    optical_flow,
    prune_frames,
    _align_translation,
    _pyramid,
    _window_samples,
    track_keypoints,
    train_pruner,
)
from egoreg.synth import night_preset, synth_scene


def textured_image(seed=0, h=96, w=128):
    rng = np.random.default_rng(seed)
    px = ndimage.gaussian_filter(rng.uniform(0, 1, size=(h, w)), 2.0)
    px = (px - px.min()) / (px.max() - px.min())
    return GrayImage(px)


def shifted(img: GrayImage, dx: int, dy: int) -> GrayImage:
    return GrayImage(np.roll(img.pixels, (dy, dx), axis=(0, 1)))


# ------------------------------------------------------------------- flow


def test_optical_flow_recovers_integer_shift():
    img = textured_image(0)
    flow = optical_flow(img, shifted(img, 3, -2))
    # interior blocks see the pure translation; borders wrap and may differ
    inner = flow[16:-16, 16:-16]
    vals, counts = np.unique(inner.reshape(-1, 2), axis=0, return_counts=True)
    dominant = vals[np.argmax(counts)]
    assert tuple(dominant) == (3.0, -2.0)
    assert counts.max() / inner[..., 0].size > 0.9


def test_optical_flow_zero_for_identical_frames():
    img = textured_image(1)
    assert np.all(optical_flow(img, img) == 0.0)



def old_optical_flow(prev, curr, block=8, search=8):
    """The per-shift bounds arithmetic that the inf-padded frame replaced."""
    a, b = prev.pixels, curr.pixels
    h, w = a.shape
    by, bx = h // block, w // block
    ha, wa = by * block, bx * block
    shifts = [(dy, dx) for dy in range(-search, search + 1)
              for dx in range(-search, search + 1)]
    shifts.sort(key=lambda s: (s[0] * s[0] + s[1] * s[1], s[0], s[1]))
    best = np.full((by, bx), np.inf)
    flow_block = np.zeros((by, bx, 2), dtype=np.float64)
    for dy, dx in shifts:
        y0, y1 = max(0, -dy), min(ha, h - dy)
        x0, x1 = max(0, -dx), min(wa, w - dx)
        sad = np.full((by, bx), np.inf)
        if y1 > y0 and x1 > x0:
            diff = np.abs(a[y0:y1, x0:x1] - b[y0 + dy:y1 + dy, x0 + dx:x1 + dx])
            full = np.full((ha, wa), np.inf)
            full[y0:y1, x0:x1] = diff
            sad = full.reshape(by, block, bx, block).sum(axis=(1, 3))
        better = sad < best
        if np.any(better):
            best[better] = sad[better]
            flow_block[better] = (dx, dy)
    flow = np.zeros((h, w, 2), dtype=np.float64)
    flow[:ha, :wa] = np.repeat(np.repeat(flow_block, block, axis=0), block, axis=1)
    return flow


def test_optical_flow_is_bitwise_unchanged():
    rng = np.random.default_rng(2)
    img = textured_image(3, h=61, w=77)  # partial tiles on both edges
    noisy = GrayImage(np.clip(shifted(img, -5, 4).pixels + rng.normal(0, 0.02, (61, 77)), 0, 1))
    pairs = [(img, noisy), (img, img), (img, shifted(img, 8, -8)),
             (textured_image(4, h=12, w=20), textured_image(5, h=12, w=20))]
    for (a, b) in pairs:
        assert np.array_equal(optical_flow(a, b), old_optical_flow(a, b))

# -------------------------------------------------------------- histogram


def test_motion_histogram_mass_conservation():
    rng = np.random.default_rng(2)
    flow = rng.normal(scale=3.0, size=(48, 64, 2))
    hist = motion_histogram(flow)
    mag_sum = np.hypot(flow[..., 0], flow[..., 1]).sum()
    assert hist.shape == (144,)
    assert hist.sum() == pytest.approx(2.0 * mag_sum, abs=1e-6 * max(mag_sum, 1.0))


def test_motion_histogram_zero_flow():
    assert np.all(motion_histogram(np.zeros((24, 24, 2))) == 0.0)


def test_motion_histogram_known_direction():
    # uniform rightward flow of magnitude 1.5: orientation bin 0, and with
    # bin edges 0.5, 1.0, 2.0 a value of 1.5 falls in magnitude bin 2
    flow = np.zeros((30, 30, 2))
    flow[..., 0] = 1.5
    hist = motion_histogram(flow)
    per_section = hist.reshape(9, 16)
    for sec in per_section:
        mag_bins, orient_bins = sec[:8], sec[8:]
        assert np.argmax(mag_bins) == 2
        assert np.argmax(orient_bins) == 0
        assert mag_bins.sum() == pytest.approx(orient_bins.sum())


# ------------------------------------------------------------------- blur


def test_blur_metric_monotone_under_repeated_blur():
    img = textured_image(3)
    scores = [blur_metric(img)]
    px = img.pixels
    for _ in range(5):
        px = ndimage.uniform_filter(px, size=5, mode="nearest")
        scores.append(blur_metric(GrayImage(px)))
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))
    assert scores[-1] > scores[0]


def test_blur_metric_constant_image_is_one():
    assert blur_metric(GrayImage(np.full((32, 32), 0.5))) == 1.0


def test_blur_metric_range():
    s = blur_metric(textured_image(4))
    assert 0.0 <= s <= 1.0


# ----------------------------------------------------------------- pruner


def test_train_pruner_separates_sharp_from_blurred():
    feats, labels = [], []
    rng = np.random.default_rng(5)
    for i in range(12):
        img = textured_image(i)
        feats.append(frame_quality_feature(None, img))
        labels.append(1)
        blurred = GrayImage(ndimage.uniform_filter(img.pixels, size=9, mode="nearest"))
        feats.append(frame_quality_feature(None, blurred))
        labels.append(0)
    pruner, acc = train_pruner(feats, labels)
    assert acc >= 0.9
    kept = [pruner.keep(f) for f in feats]
    assert sum(k == bool(l) for k, l in zip(kept, labels)) >= 20


def test_frame_quality_feature_is_motion_histogram_then_blur():
    a, b = textured_image(6), shifted(textured_image(6), 2, 1)
    feat = frame_quality_feature(a, b)
    assert feat.shape == (FEATURE_DIM,)
    assert np.array_equal(feat[:-1], motion_histogram(optical_flow(a, b)))
    assert feat[-1] == blur_metric(b)
    first = frame_quality_feature(None, b)
    assert not first[:-1].any() and first[-1] == blur_metric(b)


def test_train_pruner_single_class_raises():
    feats = [np.append(np.zeros(144), 0.5)] * 4
    with pytest.raises(SingleClass):
        train_pruner(feats, [1, 1, 1, 1])


def test_keep_all_pruner_keeps_everything():
    frames = [textured_image(i) for i in range(3)]
    assert prune_frames(frames, LinearPruner.keep_all()) == [0, 1, 2]


def test_zero_weight_pruner_decides_without_features(monkeypatch):
    import egoreg.sequence as sequence_mod

    def no_feature(*args):
        raise AssertionError("a zero-weight pruner must not compute features")

    monkeypatch.setattr(sequence_mod, "frame_quality_feature", no_feature)
    frames = [textured_image(i) for i in range(3)]
    keep = LinearPruner(np.zeros(FEATURE_DIM), bias=0.5, threshold=0.5)
    drop = LinearPruner(np.zeros(FEATURE_DIM), bias=0.5, threshold=0.75)
    assert keep.fixed_decision() is True and drop.fixed_decision() is False
    assert prune_frames(frames, keep) == [0, 1, 2]
    assert prune_frames(frames, drop) == []
    weighted = LinearPruner(np.eye(FEATURE_DIM)[0], 0.0)
    assert weighted.fixed_decision() is None

def test_prune_frames_keeps_frames_without_a_raster(monkeypatch):
    import egoreg.sequence as sequence_mod

    frames = [textured_image(i) for i in range(4)]
    frames[1] = None
    keep = LinearPruner(np.zeros(FEATURE_DIM), bias=0.5, threshold=0.5)
    drop = LinearPruner(np.zeros(FEATURE_DIM), bias=0.5, threshold=0.75)
    assert prune_frames(frames, keep) == [0, 1, 2, 3]
    assert prune_frames(frames, drop) == [1]
    # a weighted pruner is asked about rasters only; frame 2 follows a
    # missing raster, so it is scored as a first frame
    asked = []
    monkeypatch.setattr(sequence_mod, "frame_quality_feature",
                        lambda prev, cur: asked.append((prev, cur)) or len(asked))

    class DropSecondAsked:
        def fixed_decision(self):
            return None

        def keep(self, feature):
            return feature != 2

    assert prune_frames(frames, DropSecondAsked()) == [0, 1, 3]
    assert asked == [(None, frames[0]), (None, frames[2]), (frames[2], frames[3])]


def test_linear_pruner_validates_weight_length():
    with pytest.raises(ValueError):
        LinearPruner(np.zeros(FEATURE_DIM - 1), 0.0)


# --------------------------------------------------------------- tracking


def track_test_keypoints(img, n=20):
    kps = extract_keypoints(img, DetectorConfig(max_keypoints=n))
    assert len(kps) >= 4, "tracking test needs detectable structure"
    return kps


def test_tracking_static_sequence_stays_put():
    img = textured_image(6)
    kps = track_test_keypoints(img)
    tracks = track_keypoints([img] * 5, kps)
    for tr in tracks:
        assert tr.alive
        drift = np.linalg.norm(tr.positions - tr.positions[-1], axis=1)
        assert drift.max() <= 0.1


def test_tracking_forward_backward_within_one_pixel():
    img = textured_image(7)
    seq = [shifted(img, 2 * i, i) for i in range(4)]
    kps = track_test_keypoints(seq[-1])
    back = track_keypoints(seq, kps)
    # np.roll wraps content across the border, so windows near the seam see
    # corrupted texture; judge consistency only where the track stays interior
    margin = 24.0
    h, w = img.pixels.shape
    checked = 0
    for tr in back:
        if not tr.alive:
            continue
        u, v = tr.positions[:, 0], tr.positions[:, 1]
        if not (
            (u > margin).all()
            and (u < w - margin).all()
            and (v > margin).all()
            and (v < h - margin).all()
        ):
            continue
        start = replace(kps.take([tr.keypoint_idx]), xy=tr.positions[:1])
        fwd = track_keypoints(list(reversed(seq)), start)[0]
        assert fwd.alive
        err = np.linalg.norm(fwd.positions[0] - tr.positions[-1])
        assert err <= 1.0
        checked += 1
    assert checked >= 4


def test_tracking_dies_when_content_vanishes():
    img = textured_image(8)
    black = GrayImage(np.zeros_like(img.pixels))
    kps = track_test_keypoints(img)
    # bright windows against black give a residual far above the death cutoff;
    # dark-extremum windows can legitimately resemble darkness, so skip them
    col, row = np.rint(kps.xy).astype(np.intp).T
    bright = kps.take(np.flatnonzero(img.pixels[row, col] >= 0.7))
    assert len(bright) >= 4
    tracks = track_keypoints([black, img], bright)
    assert all(not tr.alive for tr in tracks)
    # dead tracks freeze their last valid position
    for tr in tracks:
        assert np.array_equal(tr.positions[0], tr.positions[1])


def test_tracking_needs_two_frames():
    img = textured_image(10)
    with pytest.raises(ValueError):
        track_keypoints([img], [])


# ------------------------------------------- one gather per tracker step
#
# The references below are the tracker as it was before each iteration
# sampled its windows with one call: a 2-D gather in `bilinear_sample` and
# five sampling calls per iteration. `bilinear_sample` must agree bitwise;
# the tracker, which now reads one pixel block per window, to round-off.


def reference_bilinear_sample(pixels, us, vs):
    h, w = pixels.shape
    uc = np.clip(np.asarray(us, dtype=np.float64), 0.0, w - 1.0)
    vc = np.clip(np.asarray(vs, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.clip(np.floor(uc).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(vc).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = uc - x0
    fy = vc - y0
    return (
        pixels[y0, x0] * (1 - fy) * (1 - fx)
        + pixels[y0, x1] * (1 - fy) * fx
        + pixels[y1, x0] * fy * (1 - fx)
        + pixels[y1, x1] * fy * fx
    )


def reference_pyramid(px, levels=TRACK_LEVELS):
    pyr = [px]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 2 * TRACK_WINDOW:
            break
        pyr.append(ndimage.gaussian_filter(pyr[-1], 1.0, mode="nearest")[::2, ::2])
    return pyr


def reference_align_translation(src_pyr, dst_pyr, pos):
    """Five sampling calls per iteration; also returns each level's iteration counts."""
    sample = reference_bilinear_sample
    half = TRACK_WINDOW // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    ou = np.broadcast_to(offs[None, :], (TRACK_WINDOW, TRACK_WINDOW))
    ov = np.broadcast_to(offs[:, None], (TRACK_WINDOW, TRACK_WINDOW))

    def windows(px, centers):
        u = centers[:, 0, None, None] + ou
        v = centers[:, 1, None, None] + ov
        return sample(px, u, v), u, v

    n_levels = min(len(src_pyr), len(dst_pyr))
    p = pos / (2.0 ** (n_levels - 1))
    residual = np.full(len(pos), np.inf)
    iterations = []
    for lvl in range(n_levels - 1, -1, -1):
        s, d = src_pyr[lvl], dst_pyr[lvl]
        template, _, _ = windows(s, pos / (2.0 ** lvl))
        moving = np.ones(len(p), dtype=bool)
        count = np.zeros(len(p), dtype=int)
        for _ in range(TRACK_MAX_ITERS):
            if not np.any(moving):
                break
            count[moving] += 1
            win, u, v = windows(d, p[moving])
            gx = sample(d, u + 0.5, v) - sample(d, u - 0.5, v)
            gy = sample(d, u, v + 0.5) - sample(d, u, v - 0.5)
            err = template[moving] - win
            a = (gx * gx).sum(axis=(1, 2)) + 1e-9
            b = (gx * gy).sum(axis=(1, 2))
            c = (gy * gy).sum(axis=(1, 2)) + 1e-9
            r0 = (gx * err).sum(axis=(1, 2))
            r1 = (gy * err).sum(axis=(1, 2))
            det = a * c - b * b
            solvable = det != 0.0
            step = np.zeros((len(a), 2))
            step[solvable, 0] = (c * r0 - b * r1)[solvable] / det[solvable]
            step[solvable, 1] = (a * r1 - b * r0)[solvable] / det[solvable]
            p[moving] += step
            done = ~solvable | (np.hypot(step[:, 0], step[:, 1]) < 0.03)
            moving[np.flatnonzero(moving)[done]] = False
        iterations.append(count)
        final, _, _ = windows(d, p)
        residual = np.mean(np.abs(template - final), axis=(1, 2))
        if lvl > 0:
            p = p * 2.0
    return p, residual, iterations


def test_bilinear_sample_flat_gather_is_bitwise_unchanged():
    rng = np.random.default_rng(31)
    for h, w in [(17, 23), (1, 9), (9, 1), (1, 1), (2, 2)]:
        px = rng.uniform(size=(h, w))
        # in range, on the far borders, and far outside (clamped)
        us = np.concatenate([rng.uniform(-3.0, w + 2.0, 200), [0.0, w - 1.0, -50.0, w + 50.0]])
        vs = np.concatenate([rng.uniform(-3.0, h + 2.0, 200), [h - 1.0, 0.0, h + 50.0, -50.0]])
        for img in (px, px[::-1, ::-1]):  # a strided view samples like a copy
            want = reference_bilinear_sample(img, us, vs)
            assert np.array_equal(bilinear_sample(img, us, vs), want)
            assert np.array_equal(bilinear_sample(img, us.reshape(12, 17), vs.reshape(12, 17)),
                                  want.reshape(12, 17))
    assert bilinear_sample(np.array([[0.25]]), np.array(7.0), np.array(-2.0)) == 0.25


def test_tracker_matches_five_call_reference():
    rng = np.random.default_rng(3)
    src = textured_image(21).pixels
    dst = np.roll(src, (1, 2), axis=(0, 1)) + rng.normal(scale=0.08, size=src.shape)
    dst[:, 96:] = rng.uniform(size=(src.shape[0], 32))  # content that no window finds
    dst = np.clip(dst, 0.0, 1.0)
    pos = np.column_stack([rng.uniform(4.0, 124.0, 60), rng.uniform(4.0, 92.0, 60)])

    want_p, want_r, iterations = reference_align_translation(
        reference_pyramid(src), reference_pyramid(dst), pos.copy())
    got_p, got_r = _align_translation(_pyramid(src, TRACK_LEVELS),
                                      _pyramid(dst, TRACK_LEVELS), pos.copy())
    assert np.abs(got_p - want_p).max() <= 1e-10
    assert np.abs(got_r - want_r).max() <= 1e-12
    assert np.array_equal(got_r > TRACK_RESIDUAL_MAX, want_r > TRACK_RESIDUAL_MAX)
    # the pair exercises every way out of the loop
    counts = np.concatenate(iterations)
    assert len(np.unique(counts)) >= 5
    assert (counts == TRACK_MAX_ITERS).any()
    assert (counts < TRACK_MAX_ITERS).any()
    dies = want_r > TRACK_RESIDUAL_MAX
    assert dies.any() and not dies.all()


# -------------------------------------------------- one block per window


def five_call_windows(px, centers):
    """Windows and half-pixel differences, (row, column, window), via `bilinear_sample`."""
    half = TRACK_WINDOW // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    u = centers[:, 0, None, None] + offs[None, None, :]
    v = centers[:, 1, None, None] + offs[None, :, None]
    u, v = np.broadcast_arrays(u, v)
    out = (bilinear_sample(px, u, v),
           bilinear_sample(px, u + 0.5, v) - bilinear_sample(px, u - 0.5, v),
           bilinear_sample(px, u, v + 0.5) - bilinear_sample(px, u, v - 0.5))
    return tuple(np.moveaxis(a, 0, -1) for a in out)


def test_block_windows_match_bilinear_sample():
    rng = np.random.default_rng(41)
    for h, w in [(1, 300), (300, 1), (1, 1), (2, 2), (11, 15), (270, 300)]:
        px = rng.uniform(size=(h, w))
        # inside, across each border, wholly outside, and where c + k
        # changes exponent (64, 128, 256); fractional offsets at and one
        # ulp or 1e-7 either side of 0.5
        bases = [b + d for b in (64, 128, 256, 0, w - 1, h - 1) for d in range(-6, 7)]
        bases += [-40, w + 40, h + 40]
        coords = np.array([b + f for b in bases
                           for f in (0.0, np.nextafter(0.0, 1.0), 0.5 - 1e-7, 0.5, 0.5 + 1e-7)] +
                          [np.nextafter(b + 0.5, -np.inf) for b in bases] +
                          [np.nextafter(b + 0.5, np.inf) for b in bases])
        other = rng.permutation(coords)
        centers = np.concatenate([np.column_stack([coords, other]),
                                  np.column_stack([other, coords])])
        got = _window_samples(px, centers, gradients=True)
        want = five_call_windows(px, centers)
        assert np.array_equal(_window_samples(px, centers), got[0])
        for g, r in zip(got, want):
            assert g.shape == (TRACK_WINDOW, TRACK_WINDOW, len(centers))
            assert np.abs(g - r).max() <= 1e-12


def test_track_keypoints_matches_five_call_tracker(monkeypatch):
    import egoreg.sequence as sequence_mod

    scene = synth_scene(replace(night_preset(0), n_points=200, n_model_images=2,
                                n_query_frames=2))
    frames = [f.image for f in scene.night.frames]
    kps = extract_keypoints(frames[-1], DetectorConfig(max_keypoints=200))
    start = kps.xy

    def tracks(points):
        out = track_keypoints(frames, replace(kps, xy=points))
        return np.stack([t.positions for t in out]), [t.alive for t in out]

    got, got_alive = tracks(start)
    monkeypatch.setattr(sequence_mod, "_align_translation",
                        lambda s, d, pos: reference_align_translation(s, d, pos)[:2])
    want, want_alive = tracks(start)
    assert got_alive == want_alive
    assert any(got_alive) and not all(got_alive)
    # A window whose normal equations are near singular moves under any
    # round-off: the reference itself moves it when its start moves by one
    # ulp. Every other track must agree to 1e-10 px.
    def off(a, b):
        return np.abs(a - b).max(axis=(1, 2))

    stable = np.ones(len(kps), dtype=bool)
    for direction in (np.inf, -np.inf):
        stable &= off(tracks(np.nextafter(start, direction))[0], want) <= 1e-10
    assert stable.mean() >= 0.9
    assert off(got, want)[stable].max() <= 1e-10


def test_align_translation_peak_memory():
    rng = np.random.default_rng(43)
    src = textured_image(44, h=240, w=320).pixels
    dst = np.clip(np.roll(src, (1, 2), axis=(0, 1)) + rng.normal(scale=0.02, size=src.shape),
                  0.0, 1.0)
    src_pyr, dst_pyr = _pyramid(src, TRACK_LEVELS), _pyramid(dst, TRACK_LEVELS)
    assert len(src_pyr) == 3
    pos = np.column_stack([rng.uniform(0.0, 320.0, 200), rng.uniform(0.0, 240.0, 200)])
    tracemalloc.start()
    try:
        _align_translation(src_pyr, dst_pyr, pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000
