import numpy as np
import pytest
from scipy import ndimage

from egoreg.errors import SingleClass
from egoreg.features import DetectorConfig, GrayImage, Keypoint, bilinear_sample, extract_keypoints
from egoreg.geometry import PixelPoint
from egoreg.sequence import (
    FEATURE_DIM,
    TRACK_LEVELS,
    TRACK_MAX_ITERS,
    TRACK_RESIDUAL_MAX,
    TRACK_WINDOW,
    FrameQualityFeature,
    LinearPruner,
    blur_metric,
    frame_quality_feature,
    motion_histogram,
    optical_flow,
    prune_frames,
    _align_translation,
    _pyramid,
    track_keypoints,
    train_pruner,
)


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
        for block, search in ((8, 8), (8, 3), (5, 12), (8, 0)):
            assert np.array_equal(optical_flow(a, b, block, search),
                                  old_optical_flow(a, b, block, search))

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


def test_train_pruner_single_class_raises():
    feats = [FrameQualityFeature(np.zeros(144), 0.5)] * 4
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
        start = tr.positions[0]
        fwd = track_keypoints(
            list(reversed(seq)),
            [
                Keypoint(
                    pos=PixelPoint(float(start[0]), float(start[1])),
                    scale=kps[tr.keypoint_idx].scale,
                    orientation=0.0,
                    descriptor=kps[tr.keypoint_idx].descriptor,
                )
            ],
        )[0]
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
    bright = [
        k for k in kps if img.pixels[int(round(k.pos.v)), int(round(k.pos.u))] >= 0.7
    ]
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
# five sampling calls per iteration. The library must agree bitwise.


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


def test_tracker_one_gather_per_step_is_bitwise_unchanged():
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
    assert np.array_equal(got_p, want_p)
    assert np.array_equal(got_r, want_r)
    # the pair exercises every way out of the loop
    counts = np.concatenate(iterations)
    assert len(np.unique(counts)) >= 5
    assert (counts == TRACK_MAX_ITERS).any()
    assert (counts < TRACK_MAX_ITERS).any()
    dies = want_r > TRACK_RESIDUAL_MAX
    assert dies.any() and not dies.all()
