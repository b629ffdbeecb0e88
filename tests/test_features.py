import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    context_region,
    context_roi,
    covariance_descriptor,
    dense_descriptors,
    log_euclidean_vec,
)
from egoreg.features.detector import finalize_descriptor
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
