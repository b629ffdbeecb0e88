import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.linalg import expm, logm

from egoreg.errors import NotPositiveDefinite, RoiTooSmall, TooFewSamples
from egoreg.features import (
    ContextConfig,
    DetectorConfig,
    GradientField,
    GrayImage,
    Keypoint,
    attach_context,
    bilinear_sample,
    extract_keypoints,
)
from egoreg.features.context import (
    EIGH_CHUNK,
    Roi,
    _covariance,
    _log_euclidean,
    context_region,
    context_roi,
    covariance_descriptor,
    dense_descriptors,
    log_euclidean_vec,
)
from egoreg.features import detector
from egoreg.features.detector import _octave_candidates, _orientations, _solve, finalize_descriptor
from egoreg.geometry import PixelPoint


def blob_image(w=120, h=100, centers=((60.0, 50.0),), sigma=4.0, amp=0.8):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    px = np.full((h, w), 0.1)
    for cu, cv in centers:
        px += amp * np.exp(-((xs - cu) ** 2 + (ys - cv) ** 2) / (2.0 * sigma ** 2))
    return GrayImage(np.clip(px, 0.0, 1.0))


def random_spd(rng, d, max_condition=1e6):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    evals = np.exp(rng.uniform(0.0, np.log(max_condition), size=d))
    evals = evals / evals.max()
    return (q * evals) @ q.T


# ------------------------------------------------------------------ image


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.full((4, 4), 1.5))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(4))
    img = GrayImage(np.zeros((3, 5)))
    assert (img.height, img.width) == (3, 5)
    assert not img.pixels.flags.writeable


def test_bilinear_sample_exact_on_grid_and_midpoint():
    px = np.array([[0.0, 1.0], [0.2, 0.6]])
    assert bilinear_sample(px, np.array(1.0), np.array(0.0)) == pytest.approx(1.0)
    mid = bilinear_sample(px, np.array(0.5), np.array(0.5))
    assert mid == pytest.approx(np.mean(px))
    # outside positions clamp to the border
    assert bilinear_sample(px, np.array(-5.0), np.array(0.0)) == pytest.approx(0.0)


def test_gradient_field_flat_image_is_zero():
    field = GradientField(GrayImage(np.full((20, 20), 0.5)))
    assert np.all(field.magnitude == 0.0)


def test_gradient_field_cell_sums_match_direct():
    rng = np.random.default_rng(0)
    field = GradientField(GrayImage(rng.uniform(0, 1, size=(24, 30))))
    direct = field.cell_sums(np.array(3), np.array(11), np.array(5), np.array(13))
    ii = field.integral
    manual = ii[11, 13] - ii[3, 13] - ii[11, 5] + ii[3, 5]
    assert np.allclose(direct, manual)


# --------------------------------------------------------------- detector


def test_finalize_descriptor_zero_row_is_uniform():
    out = finalize_descriptor(np.zeros(128))
    assert np.array_equal(out, np.full(128, 1.0 / np.sqrt(128.0)))


def test_finalize_descriptor_rows_match_one_at_a_time():
    rng = np.random.default_rng(7)
    spike = np.zeros(128)
    spike[5] = 3.0
    spike[9] = 0.1
    batch = np.stack([np.zeros(128), rng.uniform(0, 1, 128), spike,
                      np.full(128, 1e-16), rng.uniform(0, 5, 128)])
    out = finalize_descriptor(batch)
    assert out.shape == batch.shape
    for row, got in zip(batch, out):
        assert np.allclose(got, finalize_descriptor(row), rtol=0.0, atol=1e-15)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
    assert np.max(out[2]) < 1.0  # the spike was clipped before renormalizing


def test_detector_finds_isolated_blob():
    img = blob_image(centers=((60.0, 50.0),), sigma=4.0)
    kps = extract_keypoints(img, DetectorConfig())
    assert kps, "blob must be detected"
    best = min(kps, key=lambda k: np.hypot(k.pos.u - 60.0, k.pos.v - 50.0))
    assert np.hypot(best.pos.u - 60.0, best.pos.v - 50.0) < 1.0


def test_detector_subpixel_blob():
    img = blob_image(centers=((60.3, 50.7),), sigma=4.0)
    kps = extract_keypoints(img, DetectorConfig())
    best = min(kps, key=lambda k: np.hypot(k.pos.u - 60.3, k.pos.v - 50.7))
    assert np.hypot(best.pos.u - 60.3, best.pos.v - 50.7) < 0.5


def test_detector_descriptors_are_unit_norm():
    img = blob_image(centers=((40.0, 40.0), (80.0, 60.0)), sigma=3.5)
    kps = extract_keypoints(img, DetectorConfig())
    for kp in kps:
        assert np.linalg.norm(kp.descriptor) == pytest.approx(1.0, abs=1e-5)
        assert kp.scale > 0.0
        assert 0.0 <= kp.orientation < 2.0 * np.pi


def test_detector_flat_image_finds_nothing():
    img = GrayImage(np.full((64, 64), 0.4))
    assert extract_keypoints(img, DetectorConfig()) == []


def test_detector_max_keypoints_keeps_strongest():
    img = blob_image(w=200, h=100,
                     centers=((30.0, 30.0), (100.0, 50.0), (170.0, 70.0)), sigma=4.0)
    all_kps = extract_keypoints(img, DetectorConfig())
    capped = extract_keypoints(img, DetectorConfig(max_keypoints=2))
    assert len(capped) == min(2, len(all_kps))
    # detection order is strongest-first, so the cap keeps a prefix
    assert [(k.pos.u, k.pos.v) for k in capped] == \
        [(k.pos.u, k.pos.v) for k in all_kps[: len(capped)]]


def test_detector_deterministic():
    img = blob_image(centers=((40.0, 40.0), (80.0, 60.0)), sigma=4.0)
    a = extract_keypoints(img, DetectorConfig())
    b = extract_keypoints(img, DetectorConfig())
    assert [(k.pos.u, k.pos.v, k.scale) for k in a] == [(k.pos.u, k.pos.v, k.scale) for k in b]


def test_detector_reuses_a_given_gradient_field():
    # a caller that also attaches contexts passes the field it built
    img = blob_image(centers=((40.0, 40.0), (80.0, 60.0)), sigma=4.0)
    a = extract_keypoints(img, DetectorConfig())
    b = extract_keypoints(img, DetectorConfig(), field=GradientField(img))
    assert a
    assert [(k.pos, k.scale, k.orientation) for k in a] == \
        [(k.pos, k.scale, k.orientation) for k in b]
    assert np.array_equal(np.stack([k.descriptor for k in a]),
                          np.stack([k.descriptor for k in b]))


# ---------------------------------------------------------------- context


def make_kp(u, v, scale):
    rng = np.random.default_rng(0)
    d = rng.uniform(size=128).astype(np.float32)
    return Keypoint(PixelPoint(u, v), scale, 0.0, d / np.linalg.norm(d))


def test_context_roi_side_formula():
    # side = epsilon * roi_base * scale_factor * scale = 6 * 4 * 1 * 2 = 48
    roi = context_roi(make_kp(100.0, 80.0, 2.0), 6.0, 320, 240)
    assert roi.side == 48
    assert roi.left == 100 - 24 and roi.top == 80 - 24


def test_context_roi_clamps_to_image():
    roi = context_roi(make_kp(2.0, 2.0, 2.0), 6.0, 320, 240)
    assert roi.left == 0 and roi.top == 0
    big = context_roi(make_kp(100.0, 80.0, 100.0), 6.0, 320, 240)
    assert big.side == 240  # shrunk to the smaller image dimension


def test_context_roi_too_small():
    with pytest.raises(RoiTooSmall):
        context_roi(make_kp(50.0, 50.0, 0.5), 6.0, 320, 240)


def test_dense_grid_count_oracle():
    # side 32, stride 8: nodes inset by half patch -> 3x3 grid
    rng = np.random.default_rng(1)
    field = GradientField(GrayImage(rng.uniform(0, 1, size=(64, 64))))
    descs = dense_descriptors(field, Roi(10, 10, 32), stride=8)
    assert descs.shape == (9, 128)
    for d in descs:
        norm = np.linalg.norm(d)
        assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0


def test_dense_grid_count_default_stride():
    rng = np.random.default_rng(2)
    field = GradientField(GrayImage(rng.uniform(0, 1, size=(80, 80))))
    descs = dense_descriptors(field, Roi(5, 5, 48), stride=4)
    assert descs.shape == (81, 128)  # ((48 - 16) // 4 + 1)^2


def test_covariance_descriptor_properties():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    c = covariance_descriptor(x)
    assert np.array_equal(c, c.T)
    assert np.all(np.linalg.eigvalsh(c) > 0.0)
    # permutation invariance is bitwise thanks to canonical row ordering
    perm = rng.permutation(40)
    assert np.array_equal(c, covariance_descriptor(x[perm]))


def test_covariance_descriptor_too_few_samples():
    with pytest.raises(TooFewSamples):
        covariance_descriptor(np.zeros((1, 4)))


def test_log_euclidean_isometry():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_spd(rng, 6)
        vec = log_euclidean_vec(c)
        lg = logm(c)
        assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(lg, "fro"), abs=1e-9)


def test_log_euclidean_distance_equals_frobenius():
    rng = np.random.default_rng(5)
    c1, c2 = random_spd(rng, 5), random_spd(rng, 5)
    d_vec = np.linalg.norm(log_euclidean_vec(c1) - log_euclidean_vec(c2))
    d_frob = np.linalg.norm(logm(c1) - logm(c2), "fro")
    assert d_vec == pytest.approx(d_frob, rel=1e-9)


def test_log_euclidean_round_trip():
    rng = np.random.default_rng(6)
    c = random_spd(rng, 7)
    vec = log_euclidean_vec(c)
    # rebuild log(C) from the half-vectorization and exponentiate back
    d = 7
    iu, ju = np.triu_indices(d)
    lg = np.zeros((d, d))
    w = np.where(iu == ju, 1.0, np.sqrt(2.0))
    lg[iu, ju] = vec / w
    lg = lg + np.triu(lg, 1).T
    assert np.allclose(expm(lg), c, atol=1e-7)


def test_log_euclidean_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        log_euclidean_vec(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        log_euclidean_vec(np.diag([1.0, np.nan]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 8))
def test_log_euclidean_isometry_property(seed, d):
    c = random_spd(np.random.default_rng(seed), d)
    vec = log_euclidean_vec(c)
    assert vec.shape == (d * (d + 1) // 2,)
    assert np.linalg.norm(vec) == pytest.approx(
        np.linalg.norm(logm(c), "fro"), rel=1e-9, abs=1e-9)


def test_attach_context_shapes_and_drops():
    img = blob_image(w=160, h=120, centers=((60.0, 50.0), (110.0, 70.0)), sigma=4.0)
    kps = extract_keypoints(img, DetectorConfig())
    assert kps
    tiny = Keypoint(PixelPoint(80.0, 60.0), 0.4, 0.0, kps[0].descriptor)
    with_ctx, dropped = attach_context(img, list(kps) + [tiny], ContextConfig())
    assert dropped >= 1  # the sub-minimum region cannot yield a context
    assert len(with_ctx) + dropped == len(kps) + 1
    for kp in with_ctx:
        assert kp.context is not None and kp.context.shape == (8256,)


def test_attach_context_matches_per_keypoint_oracle():
    rng = np.random.default_rng(11)
    img = GrayImage(rng.uniform(0, 1, size=(96, 128)))
    field = GradientField(img)
    cfg = ContextConfig()
    n = 2 * EIGH_CHUNK + 3
    kps = [make_kp(float(u), float(v), float(s)) for u, v, s in zip(
        rng.uniform(0, 128, n), rng.uniform(0, 96, n), rng.uniform(0.9, 3.0, n))]
    # under 16 px, and 17 px (a single grid node): neither can have a context
    kps.insert(n // 2, make_kp(60.0, 40.0, 0.4))
    kps.insert(n // 2 + 3, make_kp(30.0, 50.0, 0.7))
    with_ctx, dropped = attach_context(img, kps, cfg, field=field)
    kept = [kp for kp in kps if context_region(kp, img.width, img.height, cfg) is not None]
    assert dropped == 2 and len(kept) == n
    assert [kp.pos for kp in with_ctx] == [kp.pos for kp in kept]
    for kp, got in zip(kept, with_ctx):
        roi = context_roi(kp, cfg.epsilon, img.width, img.height)
        want = log_euclidean_vec(covariance_descriptor(dense_descriptors(field, roi, cfg.stride)))
        assert got.context.dtype == np.float32
        assert np.allclose(got.context, want, rtol=0.0, atol=1e-5)


# ------------------------------------------- array passes vs the old loops
# Each reference below is the per-keypoint (or per-candidate) code that the
# array passes replaced; the new code must reproduce it bit for bit.


def textured(w=96, h=80, seed=3):
    rng = np.random.default_rng(seed)
    px = ndimage.gaussian_filter(rng.uniform(0, 1, (h, w)), 1.5)
    return GrayImage((px - px.min()) / (px.max() - px.min()))


def test_gray_image_rejects_nan():
    px = np.full((4, 4), 0.5)
    px[1, 2] = np.nan
    with pytest.raises(ValueError):
        GrayImage(px)
    with pytest.raises(ValueError):
        GrayImage(np.full((4, 4), np.nan))


def old_gradient_stack(image):
    px = image.pixels
    gy, gx = np.gradient(px)
    mag = np.hypot(gx, gy)
    pos = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) * (8 / (2.0 * np.pi))
    lo = np.floor(pos).astype(np.intp) % 8
    frac = pos - np.floor(pos)
    stack = np.zeros(px.shape + (8,))
    rows, cols = np.indices(px.shape)
    stack[rows, cols, lo] += mag * (1.0 - frac)
    stack[rows, cols, (lo + 1) % 8] += mag * frac
    return stack


def test_gradient_field_scatter_is_bitwise_unchanged():
    for img in (textured(), blob_image(), GrayImage(np.full((5, 7), 0.3))):
        field = GradientField(img)
        h, w = img.pixels.shape
        want = np.zeros((h + 1, w + 1, 8))
        want[1:, 1:] = old_gradient_stack(img).cumsum(axis=0).cumsum(axis=1)
        assert np.array_equal(field.integral, want)


def old_sample_gradients(field, us, vs):
    """The 2-D gather `sample_gradients` used before it called bilinear_sample."""
    h, w = field.shape
    inside = (us >= 0.0) & (us <= w - 1.0) & (vs >= 0.0) & (vs <= h - 1.0)
    uc = np.clip(us, 0.0, w - 1.0)
    vc = np.clip(vs, 0.0, h - 1.0)
    x0 = np.clip(np.floor(uc).astype(np.intp), 0, w - 2)
    y0 = np.clip(np.floor(vc).astype(np.intp), 0, h - 2)
    fx = uc - x0
    fy = vc - y0

    def bilerp(a):
        return (a[y0, x0] * (1 - fy) * (1 - fx) + a[y0, x0 + 1] * (1 - fy) * fx
                + a[y0 + 1, x0] * fy * (1 - fx) + a[y0 + 1, x0 + 1] * fy * fx)

    return np.where(inside, bilerp(field.gx), 0.0), np.where(inside, bilerp(field.gy), 0.0)


def test_sample_gradients_match_the_2d_gather():
    rng = np.random.default_rng(5)
    for img in (textured(), GrayImage(rng.uniform(0, 1, (2, 9)))):
        field = GradientField(img)
        h, w = img.pixels.shape
        us = rng.uniform(-3.0, w + 2.0, (7, 16, 16))
        vs = rng.uniform(-3.0, h + 2.0, (7, 16, 16))
        # exact borders, inside and out
        us[0, 0, :4] = (0.0, w - 1.0, -1e-12, w - 1.0 + 1e-9)
        vs[0, 0, :4] = (h - 1.0, 0.0, 1.0, 0.5)
        got = field.sample_gradients(us, vs)
        want = old_sample_gradients(field, us, vs)
        for g, wnt in zip(got, want):
            assert g.shape == us.shape
            assert np.array_equal(g, wnt)
        for u, v in ((1.5, 0.25), (-1.0, 0.5)):  # scalars give 0-d arrays
            got = field.sample_gradients(u, v)
            want = old_sample_gradients(field, np.float64(u), np.float64(v))
            assert [g.shape for g in got] == [(), ()]
            assert np.array_equal(got, want)


def old_finalize_descriptor(hist):
    v = np.asarray(hist, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    flat = n < 1e-12
    v = np.minimum(v / np.where(flat, 1.0, n), 0.2)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    flat |= n < 1e-12
    return np.where(flat, 1.0 / np.sqrt(128.0), v / np.where(flat, 1.0, n))


def test_finalize_descriptor_is_bitwise_unchanged():
    rng = np.random.default_rng(9)
    spike = np.zeros(128)
    spike[3] = 7.0
    batch = np.stack([np.zeros(128), rng.uniform(0, 1, 128), spike,
                      np.full(128, 1e-16), rng.uniform(0, 5, 128), rng.exponential(1, 128)])
    for hist in (batch, batch[1], np.zeros(128), rng.uniform(0, 2, (3, 5, 128))):
        before = hist.copy()
        assert np.array_equal(finalize_descriptor(hist), old_finalize_descriptor(hist))
        assert np.array_equal(hist, before)  # the input is not overwritten


def old_orientation_at(field, u, v, scale):
    h, w = field.shape
    r = max(3, int(round(4.0 * scale)))
    x0, x1 = max(0, int(u) - r), min(w, int(u) + r + 1)
    y0, y1 = max(0, int(v) - r), min(h, int(v) + r + 1)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    gx = field.gx[y0:y1, x0:x1]
    gy = field.gy[y0:y1, x0:x1]
    ys, xs = np.mgrid[y0:y1, x0:x1]
    d2 = (xs - u) ** 2 + (ys - v) ** 2
    sig = 1.5 * scale
    wts = np.hypot(gx, gy) * np.exp(-d2 / (2.0 * sig * sig))
    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    bins = np.minimum((ang * (36 / (2.0 * np.pi))).astype(np.intp), 35)
    hist = np.bincount(bins.ravel(), weights=wts.ravel(), minlength=36)
    for _ in range(2):
        hist = (np.roll(hist, 1) + hist + np.roll(hist, -1)) / 3.0
    k = int(np.argmax(hist))
    lo, ce, hi = hist[(k - 1) % 36], hist[k], hist[(k + 1) % 36]
    denom = lo - 2.0 * ce + hi
    off = 0.0 if abs(denom) < 1e-12 else 0.5 * (lo - hi) / denom
    return float(np.mod((k + 0.5 + off) * (2.0 * np.pi / 36), 2.0 * np.pi))


def test_orientations_match_the_per_keypoint_loop(monkeypatch):
    rng = np.random.default_rng(4)
    px = textured(w=90, h=70).pixels.copy()
    px[:, 60:] = 0.5  # a flat strip: zero histogram, zero denominator
    field = GradientField(GrayImage(px))
    uvs = np.column_stack([rng.uniform(0, 90, 40), rng.uniform(0, 70, 40),
                           rng.uniform(0.5, 12.0, 40)])
    uvs = np.vstack([uvs, [
        [1.2, 1.7, 2.0],      # window clipped at the top-left corner
        [88.9, 68.5, 6.0],    # and at the bottom-right
        [45.0, 35.0, 30.0],   # a window larger than the image
        [75.0, 30.0, 1.0],    # inside the flat strip
        [-40.0, 30.0, 2.0],   # a window entirely left of the image
        [30.0, 200.0, 2.0],   # and entirely below it
    ]])
    got = _orientations(field, uvs)
    want = [old_orientation_at(field, u, v, s) for u, v, s in uvs]
    assert np.array_equal(got, want)
    for limit in (1, 20000):  # one window per pass, and a few
        monkeypatch.setattr(detector, "_WINDOW_PIXELS", limit)
        assert np.array_equal(_orientations(field, uvs), want)
    assert got[-3] == pytest.approx(np.pi / 36)  # zero denominator: bin 0 centre
    assert got[-2] == 0.0 and got[-1] == 0.0
    assert _orientations(field, np.zeros((0, 3))).shape == (0,)


def old_octave_candidates(dog, octave, cfg):
    s = cfg.scales_per_octave
    n_levels, h, w = dog.shape
    out = []
    margin = 4
    maxf = ndimage.maximum_filter(dog, size=3, mode="constant", cval=-np.inf)
    minf = ndimage.minimum_filter(dog, size=3, mode="constant", cval=np.inf)
    for lvl in range(1, n_levels - 1):
        c = dog[lvl]
        is_ext = ((c >= maxf[lvl]) | (c <= minf[lvl])) & (np.abs(c) >= 0.8 * cfg.contrast_threshold)
        is_ext[:margin, :] = False
        is_ext[-margin:, :] = False
        is_ext[:, :margin] = False
        is_ext[:, -margin:] = False
        ys, xs = np.nonzero(is_ext)
        for y, x in zip(ys.tolist(), xs.tolist()):
            val = c[y, x]
            dxx = c[y, x + 1] + c[y, x - 1] - 2.0 * val
            dyy = c[y + 1, x] + c[y - 1, x] - 2.0 * val
            dxy = 0.25 * (c[y + 1, x + 1] - c[y + 1, x - 1] - c[y - 1, x + 1] + c[y - 1, x - 1])
            tr = dxx + dyy
            det = dxx * dyy - dxy * dxy
            r = cfg.edge_ratio
            if det <= 0.0 or tr * tr * r >= det * (r + 1.0) ** 2:
                continue
            gx = 0.5 * (c[y, x + 1] - c[y, x - 1])
            gy = 0.5 * (c[y + 1, x] - c[y - 1, x])
            gs = 0.5 * (dog[lvl + 1, y, x] - dog[lvl - 1, y, x])
            dss = dog[lvl + 1, y, x] + dog[lvl - 1, y, x] - 2.0 * val
            dxs = 0.25 * (dog[lvl + 1, y, x + 1] - dog[lvl + 1, y, x - 1]
                          - dog[lvl - 1, y, x + 1] + dog[lvl - 1, y, x - 1])
            dys = 0.25 * (dog[lvl + 1, y + 1, x] - dog[lvl + 1, y - 1, x]
                          - dog[lvl - 1, y + 1, x] + dog[lvl - 1, y - 1, x])
            hess = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
            grad = np.array([gx, gy, gs])
            try:
                off = np.clip(-np.linalg.solve(hess, grad), -0.5, 0.5)
            except np.linalg.LinAlgError:
                off = np.zeros(3)
            response = val + 0.5 * float(grad @ off)
            if abs(response) < cfg.contrast_threshold:
                continue
            scale = cfg.base_sigma * 2.0 ** (octave + (lvl + off[2]) / s)
            out.append((abs(response), (x + off[0]) * 2.0 ** octave,
                        (y + off[1]) * 2.0 ** octave, scale))
    return out


def dog_stack(img, octave, cfg=DetectorConfig()):
    s = cfg.scales_per_octave
    sigmas = [cfg.base_sigma * 2.0 ** (i / s) for i in range(s + 3)]
    cur = ndimage.gaussian_filter(img.pixels, 1.5, mode="nearest")[::2 ** octave, ::2 ** octave]
    levels = [cur]
    for i in range(1, s + 3):
        inc = np.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2)
        levels.append(ndimage.gaussian_filter(levels[-1], inc, mode="nearest"))
    return np.stack([levels[i + 1] - levels[i] for i in range(s + 2)])


def test_octave_candidates_match_the_per_candidate_loop():
    cfg = DetectorConfig()
    rng = np.random.default_rng(8)
    noisy = GrayImage(np.clip(blob_image(w=128, h=96).pixels
                              + rng.normal(0, 0.05, (96, 128)), 0.0, 1.0))
    n = 0
    for img in (noisy, textured(w=128, h=96), blob_image(w=128, h=96)):
        for octave in (0, 1):
            dog = dog_stack(img, octave, cfg)
            got = _octave_candidates(dog, octave, cfg)
            assert got == old_octave_candidates(dog, octave, cfg)
            n += len(got)
    assert n > 40
    # raw noise: many extrema whose refinement term is as large as the value,
    # so a last-bit change in it shows in the response
    dog = rng.normal(0.0, 0.05, (5, 48, 64))
    for octave in (0, 2):
        got = _octave_candidates(dog, octave, cfg)
        assert len(got) > 300 and got == old_octave_candidates(dog, octave, cfg)
    for cfg2 in (DetectorConfig(edge_ratio=3.0), DetectorConfig(contrast_threshold=0.03)):
        dog = dog_stack(noisy, 0, cfg2)
        assert _octave_candidates(dog, 0, cfg2) == old_octave_candidates(dog, 0, cfg2)
    assert _octave_candidates(np.zeros((5, 32, 32)), 0, cfg) == []


def test_octave_candidates_singular_hessian_takes_no_step():
    # levels 1 and 3 equal level 2 at a peak of level 2: the scale row and
    # column of the Hessian vanish, so it is exactly singular
    cfg = DetectorConfig()
    dog = np.zeros((5, 32, 32))
    dog[2, 14:17, 10:13] = 0.05
    dog[2, 15, 11] = 0.1
    dog[1, 15, 11] = dog[3, 15, 11] = 0.1
    dog[2, 20, 22] = 0.2  # a regular peak in the same batch
    got = _octave_candidates(dog, 0, cfg)
    assert got == old_octave_candidates(dog, 0, cfg)
    assert (0.1, 11.0, 15.0, cfg.base_sigma * 2.0 ** (2 / 3)) in got
    assert (0.2, 22.0, 20.0, cfg.base_sigma * 2.0 ** (2 / 3)) in got


def test_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(12)
    for n in (2, 9, 81, 300):
        x = finalize_descriptor(rng.uniform(0, 1, (n, 128)))
        c = _covariance(x.copy())
        assert np.array_equal(c, c.T)
        old = x - x.mean(axis=0)
        old = old.T @ old / (n - 1)
        old = (old + old.T) / 2.0
        old[np.diag_indices(128)] += 1e-6 * float(np.trace(old)) / 128 + 1e-12
        assert np.array_equal(c, old)


def test_log_euclidean_symmetrises_only_what_it_returns():
    rng = np.random.default_rng(13)
    c = np.stack([random_spd(rng, 128, 1e4) for _ in range(3)])
    evals, evecs = np.linalg.eigh(c)
    logm_ = np.matmul(evecs * np.log(evals)[:, None, :], evecs.transpose(0, 2, 1))
    logm_ = (logm_ + logm_.transpose(0, 2, 1)) / 2.0
    iu, ju = np.triu_indices(128)
    want = logm_[:, iu, ju] * np.where(iu == ju, 1.0, np.sqrt(2.0))
    assert np.array_equal(_log_euclidean(c), want)


def test_batched_refinement_solve_matches_one_at_a_time():
    rng = np.random.default_rng(14)
    hess = rng.normal(size=(37, 3, 3))
    grad = rng.normal(size=(37, 3))
    hess[[0, 17, 36]] = 0.0  # exactly singular, among regular systems
    got = _solve(hess, grad)
    for h, g, row in zip(hess, grad, got):
        try:
            want = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            want = np.zeros(3)
        assert np.array_equal(row, want)
    assert _solve(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)
