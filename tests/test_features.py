import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.linalg import expm, logm

from conftest import concat_tables
from egoreg.errors import NotPositiveDefinite
from egoreg.features import (
    ContextConfig,
    DetectorConfig,
    GradientField,
    GrayImage,
    KeypointTable,
    attach_context,
    bilinear_sample,
    extract_keypoints,
)
from egoreg.features.context import (
    EIGH_CHUNK,
    Roi,
    _covariance,
    _log_euclidean,
    context_regions,
    dense_descriptors,
)
from egoreg import parallel
from egoreg.features import context, detector
from egoreg.features.detector import _finalize_in_place, _octave_candidates, _orientations, _solve


def blob_image(w=120, h=100, centers=((60.0, 50.0),), sigma=4.0, amp=0.8):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    px = np.full((h, w), 0.1)
    for cu, cv in centers:
        px += amp * np.exp(-((xs - cu) ** 2 + (ys - cv) ** 2) / (2.0 * sigma ** 2))
    return GrayImage(np.clip(px, 0.0, 1.0))


def finalize_descriptor(hist):
    """`_finalize_in_place` on a float64 copy of `hist`."""
    return _finalize_in_place(np.array(hist, dtype=np.float64))


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


def test_gradient_field_window_sums_match_direct():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.uniform(0, 1, size=(24, 30)))
    field = GradientField(img)
    stack = old_gradient_stack(img)
    for size in (1, 4, 8):
        sums = field.window_sums(size)
        assert sums.shape == (24 - size + 1, 30 - size + 1, 8)
        for y, x in ((0, 0), (3, 5), (24 - size, 30 - size), (11, 2)):
            direct = stack[y:y + size, x:x + size].sum(axis=(0, 1))
            assert np.allclose(sums[y, x], direct, rtol=1e-12, atol=1e-12)
        assert field.window_sums(size) is sums  # cached


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
    assert len(extract_keypoints(img, DetectorConfig())) == 0


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


def make_table(u, v, scale):
    """Keypoints at (u, v) with the given scales, sharing one unit descriptor."""
    d = np.random.default_rng(0).uniform(size=128).astype(np.float32)
    n = len(u)
    return KeypointTable(np.column_stack([u, v]), scale, np.zeros(n),
                         np.tile(d / np.linalg.norm(d), (n, 1)))


def regions(u, v, scale, cfg=ContextConfig()):
    return context_regions(make_table(u, v, scale), 320, 240, cfg)


def test_context_region_side_formula():
    # side = 24 * scale_factor * scale = 24 * 1 * 2 = 48
    [roi] = regions([100.0], [80.0], [2.0])
    assert roi.side == 48
    assert roi.left == 100 - 24 and roi.top == 80 - 24
    assert regions([100.0], [80.0], [2.0], ContextConfig(scale_factor=1.5))[0].side == 72


def test_context_region_clamps_to_image():
    roi, big = regions([2.0, 100.0], [2.0, 80.0], [2.0, 100.0])
    assert roi.left == 0 and roi.top == 0
    assert big.side == 240  # shrunk to the smaller image dimension


def test_context_region_too_small():
    # side 12 is under 16 px; side 17 holds a single grid node
    small, single, smallest = regions([50.0] * 3, [50.0] * 3, [0.5, 0.7, 20 / 24])
    assert small is None and single is None
    assert smallest.side == 20


def old_context_region(kp, width, height, scale_factor=1.0):
    """The per-keypoint arithmetic that `context_regions` replaced."""
    side = int(round(24.0 * scale_factor * kp.scale))
    side = min(side, width, height)
    if side - 16 < 4:
        return None
    left = int(round(kp.pos.u - side / 2.0))
    top = int(round(kp.pos.v - side / 2.0))
    return Roi(min(max(left, 0), width - side), min(max(top, 0), height - side), side)


def test_context_regions_match_the_per_keypoint_formula():
    rng = np.random.default_rng(16)
    n = 300
    u = rng.uniform(-10.0, 330.0, n)
    v = rng.uniform(-10.0, 250.0, n)
    scale = rng.uniform(0.3, 12.0, n)
    # exact halves: the side and the corners round half to even
    u[:40] = np.round(u[:40]) + 0.5
    scale[:20] = (2 * np.arange(20) + 41) / 48.0  # 24 * scale = k + 0.5
    kps = make_table(u, v, scale)
    for factor in (1.0, 1.5, 0.7):
        cfg = ContextConfig(scale_factor=factor)
        got = context_regions(kps, 320, 240, cfg)
        want = [old_context_region(kp, 320, 240, factor) for kp in kps]
        assert got == want
        assert got == [context_regions(kps[i:i + 1], 320, 240, cfg)[0] for i in range(n)]
        assert any(r is None for r in got) and any(r is not None for r in got)
    assert context_regions(kps[:0], 320, 240) == []


def test_dense_grid_count_oracle():
    # side 32, stride 4: nodes inset by half patch -> 5x5 grid
    rng = np.random.default_rng(1)
    field = GradientField(GrayImage(rng.uniform(0, 1, size=(64, 64))))
    descs = dense_descriptors(field, Roi(10, 10, 32))
    assert descs.shape == (25, 128)
    for d in descs:
        norm = np.linalg.norm(d)
        assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0


def test_dense_grid_count_default_stride():
    rng = np.random.default_rng(2)
    field = GradientField(GrayImage(rng.uniform(0, 1, size=(80, 80))))
    descs = dense_descriptors(field, Roi(5, 5, 48))
    assert descs.shape == (81, 128)  # ((48 - 16) // 4 + 1)^2


def test_covariance_descriptor_properties():
    rng = np.random.default_rng(3)
    # the ridge keeps the covariance positive definite with more samples
    # than dimensions and with fewer
    for n in (40, 4):
        c = _covariance(rng.normal(size=(n, 6)))
        assert np.array_equal(c, c.T)
        assert np.all(np.linalg.eigvalsh(c) > 0.0)


def test_log_euclidean_isometry():
    rng = np.random.default_rng(4)
    cs = np.stack([random_spd(rng, 6) for _ in range(10)])
    for c, vec in zip(cs, _log_euclidean(cs)):
        lg = logm(c)
        assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(lg, "fro"), abs=1e-9)


def test_log_euclidean_distance_equals_frobenius():
    rng = np.random.default_rng(5)
    c1, c2 = random_spd(rng, 5), random_spd(rng, 5)
    v1, v2 = _log_euclidean(np.stack([c1, c2]))
    d_vec = np.linalg.norm(v1 - v2)
    d_frob = np.linalg.norm(logm(c1) - logm(c2), "fro")
    assert d_vec == pytest.approx(d_frob, rel=1e-9)


def test_log_euclidean_round_trip():
    rng = np.random.default_rng(6)
    c = random_spd(rng, 7)
    vec = _log_euclidean(c[None])[0]
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
        _log_euclidean(np.diag([1.0, -0.5])[None])
    # one indefinite matrix in a stack fails the whole stack
    with pytest.raises(NotPositiveDefinite):
        _log_euclidean(np.stack([np.eye(2), np.diag([1.0, 0.0])]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 8))
def test_log_euclidean_isometry_property(seed, d):
    c = random_spd(np.random.default_rng(seed), d)
    vec = _log_euclidean(c[None])[0]
    assert vec.shape == (d * (d + 1) // 2,)
    assert np.linalg.norm(vec) == pytest.approx(
        np.linalg.norm(logm(c), "fro"), rel=1e-9, abs=1e-9)


def test_attach_context_shapes_and_drops():
    img = blob_image(w=160, h=120, centers=((60.0, 50.0), (110.0, 70.0)), sigma=4.0)
    kps = extract_keypoints(img, DetectorConfig())
    assert kps
    tiny = KeypointTable([(80.0, 60.0)], [0.4], [0.0], kps.descriptors[:1])
    with_ctx, dropped = attach_context(img, concat_tables(kps, tiny), ContextConfig())
    assert dropped >= 1  # the sub-minimum region cannot yield a context
    assert len(with_ctx) + dropped == len(kps) + 1
    for kp in with_ctx:
        assert kp.context is not None and kp.context.shape == (8256,)


def oracle_scene(n):
    """An image, and n keypoints that have a context with two that do not."""
    rng = np.random.default_rng(11)
    img = GrayImage(rng.uniform(0, 1, size=(96, 128)))
    u, v, scale = rng.uniform(0, 128, n), rng.uniform(0, 96, n), rng.uniform(0.9, 3.0, n)
    # under 16 px, and 17 px (a single grid node): neither can have a context
    for at, (u0, v0, s0) in ((n // 2, (60.0, 40.0, 0.4)), (n // 2 + 3, (30.0, 50.0, 0.7))):
        u, v, scale = np.insert(u, at, u0), np.insert(v, at, v0), np.insert(scale, at, s0)
    return img, make_table(u, v, scale)


def test_attach_context_matches_per_keypoint_oracle(on_both_paths):
    # five chunks, the last one short: the helper thread takes two of them
    n = 4 * EIGH_CHUNK + 3
    img, kps = oracle_scene(n)
    cfg = ContextConfig()
    # a fresh field each time, so the helper path fills its own cache
    (with_ctx, dropped), (threaded, dropped_threaded) = on_both_paths(
        lambda: attach_context(img, kps, cfg, field=GradientField(img)))
    rois = context_regions(kps, img.width, img.height, cfg)
    kept = [i for i, roi in enumerate(rois) if roi is not None]
    assert dropped == dropped_threaded == 2 and len(kept) == n
    assert [kp.pos for kp in with_ctx] == [kp.pos for kp in threaded] == \
        [kp.pos for kp in kps.take(kept)]
    assert all(np.array_equal(a.context, b.context) for a, b in zip(with_ctx, threaded))
    field = GradientField(img)
    for i, got in zip(kept, with_ctx):
        # the per-keypoint composition, with grid rows in sorted order
        rows = dense_descriptors(field, rois[i])
        want = _log_euclidean(_covariance(rows[np.lexsort(rows.T[::-1])])[None])[0]
        assert got.context.dtype == np.float32
        assert np.allclose(got.context, want, rtol=0.0, atol=1e-5)


def test_attach_context_raises_a_helper_chunk_error_and_joins_the_helper(monkeypatch):
    img, kps = oracle_scene(4 * EIGH_CHUNK)
    raised_in = []

    def failing_off_the_caller(c):
        if threading.current_thread() is not threading.main_thread():
            raised_in.append(threading.current_thread().name)
            raise NotPositiveDefinite("helper chunk")
        return _log_euclidean(c)

    monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: True)
    monkeypatch.setattr(context, "_log_euclidean", failing_off_the_caller)
    threads = threading.active_count()
    with pytest.raises(NotPositiveDefinite, match="helper chunk"):
        attach_context(img, kps)
    assert raised_in and threading.active_count() == threads


@pytest.mark.parametrize("env, cpus, want", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({}, 2, False),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "2"}, 2, False),
    # the first variable set decides, as in OpenBLAS
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
], ids=["openblas-1", "openblas-2", "unset", "omp-1-alone", "omp-2-alone",
        "openblas-before-omp", "goto-before-omp", "one-cpu"])
def test_helper_thread_needs_two_cpus_and_a_single_threaded_blas(monkeypatch, env, cpus, want):
    for name in parallel.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert parallel._helper_thread_pays() is want


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
        stack = old_gradient_stack(img)
        ii = np.zeros((h + 1, w + 1, 8))
        ii[1:, 1:] = stack.cumsum(axis=0).cumsum(axis=1)
        for size in (1, 3, 4):
            lo, hi = slice(None, -size), slice(size, None)
            want = ii[hi, hi] - ii[lo, hi] - ii[hi, lo] + ii[lo, lo]
            got = field.window_sums(size)
            assert np.array_equal(got, want)
            direct = np.array([[stack[y:y + size, x:x + size].sum(axis=(0, 1))
                                for x in range(w - size + 1)]
                               for y in range(h - size + 1)])
            np.testing.assert_allclose(got, direct, rtol=1e-9, atol=1e-9)


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
        assert np.array_equal(finalize_descriptor(hist), old_finalize_descriptor(hist))


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


def old_octave_candidates(dog, octave):
    # the thresholds are read at call time, so a monkeypatch applies to both
    s = detector.SCALES_PER_OCTAVE
    contrast, r = detector.CONTRAST_THRESHOLD, detector.EDGE_RATIO
    n_levels, h, w = dog.shape
    out = []
    margin = 4
    maxf = ndimage.maximum_filter(dog, size=3, mode="constant", cval=-np.inf)
    minf = ndimage.minimum_filter(dog, size=3, mode="constant", cval=np.inf)
    for lvl in range(1, n_levels - 1):
        c = dog[lvl]
        is_ext = ((c >= maxf[lvl]) | (c <= minf[lvl])) & (np.abs(c) >= 0.8 * contrast)
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
            if abs(response) < contrast:
                continue
            scale = detector.BASE_SIGMA * 2.0 ** (octave + (lvl + off[2]) / s)
            out.append((abs(response), (x + off[0]) * 2.0 ** octave,
                        (y + off[1]) * 2.0 ** octave, scale))
    return out


def dog_stack(img, octave):
    s = detector.SCALES_PER_OCTAVE
    sigmas = [detector.BASE_SIGMA * 2.0 ** (i / s) for i in range(s + 3)]
    cur = ndimage.gaussian_filter(img.pixels, 1.5, mode="nearest")[::2 ** octave, ::2 ** octave]
    levels = [cur]
    for i in range(1, s + 3):
        inc = np.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2)
        levels.append(ndimage.gaussian_filter(levels[-1], inc, mode="nearest"))
    return np.stack([levels[i + 1] - levels[i] for i in range(s + 2)])


def test_octave_candidates_match_the_per_candidate_loop(monkeypatch):
    rng = np.random.default_rng(8)
    noisy = GrayImage(np.clip(blob_image(w=128, h=96).pixels
                              + rng.normal(0, 0.05, (96, 128)), 0.0, 1.0))
    n = 0
    for img in (noisy, textured(w=128, h=96), blob_image(w=128, h=96)):
        for octave in (0, 1):
            dog = dog_stack(img, octave)
            got = _octave_candidates(dog, octave)
            assert got == old_octave_candidates(dog, octave)
            n += len(got)
    assert n > 40
    # raw noise: many extrema whose refinement term is as large as the value,
    # so a last-bit change in it shows in the response
    dog = rng.normal(0.0, 0.05, (5, 48, 64))
    for octave in (0, 2):
        got = _octave_candidates(dog, octave)
        assert len(got) > 300 and got == old_octave_candidates(dog, octave)
    dog = dog_stack(noisy, 0)
    base = _octave_candidates(dog, 0)
    for name, value in (("EDGE_RATIO", 3.0), ("CONTRAST_THRESHOLD", 0.03)):
        with monkeypatch.context() as m:
            m.setattr(detector, name, value)
            got = _octave_candidates(dog, 0)
            assert got != base and got == old_octave_candidates(dog, 0)
    assert _octave_candidates(np.zeros((5, 32, 32)), 0) == []


def test_octave_candidates_singular_hessian_takes_no_step():
    # levels 1 and 3 equal level 2 at a peak of level 2: the scale row and
    # column of the Hessian vanish, so it is exactly singular
    dog = np.zeros((5, 32, 32))
    dog[2, 14:17, 10:13] = 0.05
    dog[2, 15, 11] = 0.1
    dog[1, 15, 11] = dog[3, 15, 11] = 0.1
    dog[2, 20, 22] = 0.2  # a regular peak in the same batch
    got = _octave_candidates(dog, 0)
    assert got == old_octave_candidates(dog, 0)
    assert (0.1, 11.0, 15.0, detector.BASE_SIGMA * 2.0 ** (2 / 3)) in got
    assert (0.2, 22.0, 20.0, detector.BASE_SIGMA * 2.0 ** (2 / 3)) in got


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


def old_log_euclidean(c):
    """`_log_euclidean` as it read the half-vector with 2-D fancy indexing."""
    evals, evecs = np.linalg.eigh(c)
    logm_ = np.matmul(evecs * np.log(evals)[:, None, :], evecs.transpose(0, 2, 1))
    iu, ju = np.triu_indices(c.shape[-1])
    out = logm_[:, iu, ju]
    out += logm_[:, ju, iu]
    out /= 2.0
    out *= np.where(iu == ju, 1.0, np.sqrt(2.0))
    return out


def test_log_euclidean_flat_gathers_are_bitwise_unchanged():
    rng = np.random.default_rng(15)
    for d, k in ((128, EIGH_CHUNK), (128, 3), (7, 5), (1, 2)):
        c = np.stack([random_spd(rng, d, 1e4) for _ in range(k)])
        got = _log_euclidean(c)
        assert got.shape == (k, d * (d + 1) // 2)
        assert np.array_equal(got, old_log_euclidean(c))


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


def old_dense_descriptors(field, roi, stride=4):
    """The broadcast fancy-index gather that the strided view replaced."""
    n_axis = (roi.side - 16) // stride + 1
    offs = stride * np.arange(n_axis)[:, None] + 4 * np.arange(4)[None, :]
    y0 = (roi.top + offs)[:, None, :, None]
    x0 = (roi.left + offs)[None, :, None, :]
    sums = field.window_sums(4)[y0, x0]
    return finalize_descriptor(sums.reshape(n_axis * n_axis, 128))


def test_dense_descriptors_strided_view_is_bitwise_unchanged():
    field = GradientField(textured(w=70, h=53, seed=8))
    cached = field.window_sums(4).copy()
    for roi in (Roi(0, 0, 16), Roi(3, 5, 45), Roi(54, 37, 16), Roi(30, 10, 40), Roi(0, 0, 53)):
        assert np.array_equal(dense_descriptors(field, roi), old_dense_descriptors(field, roi))
    # the cached window sums are read, never written
    assert np.array_equal(field.window_sums(4), cached)


def old_deduplicate(candidates, radius, limit):
    """The candidates-times-kept loop that the grid buckets replaced."""
    kept = []
    for cand in candidates:
        _, u, v, _ = cand
        ok = True
        for _, ku, kv, _ in kept:
            if (u - ku) ** 2 + (v - kv) ** 2 < radius ** 2:
                ok = False
                break
        if ok:
            kept.append(cand)
            if limit and len(kept) >= limit:
                break
    return kept


def test_deduplicate_matches_the_pairwise_loop():
    rng = np.random.default_rng(21)
    n = 600
    uv = np.concatenate([rng.uniform(0.0, 60.0, (n, 2)),
                         np.round(rng.uniform(0.0, 30.0, (n, 2))),  # on a lattice: exact ties
                         rng.uniform(-4.0, 4.0, (40, 2))])           # around the origin
    uv = np.concatenate([uv, uv[:50]])                               # coincident pairs
    cands = [(float(r), float(u), float(v), 1.6) for r, (u, v)
             in zip(rng.permutation(len(uv)), uv)]
    for radius in (2.0, 1.0, 0.75, 3.3, 0.0, -2.0):
        for limit in (0, 1, 7, 150):
            got = detector._deduplicate(cands, radius, limit)
            assert got == old_deduplicate(cands, radius, limit)
            if limit:
                assert len(got) <= limit
    # exactly one radius apart is no duplicate; coincident is
    ties = [(3.0, 0.0, 0.0, 1.6), (2.0, 2.0, 0.0, 1.6), (1.5, -3.0, 4.0, 1.6),
            (1.0, 2.0, 0.0, 1.6), (0.5, 1.0, 1.0, 1.6)]
    assert detector._deduplicate(ties, 2.0, 0) == ties[:3]
    assert detector._deduplicate(ties, 5.0, 0) == [ties[0], ties[2]]
    assert detector._deduplicate(ties, 2.0, 2) == ties[:2]


def old_compute_descriptors(field, pos, scales, spacing_per_scale=0.75):
    """compute_descriptors as it binned with two np.add.at calls."""
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    n = pos.shape[0]
    u, v = pos[:, 0, None, None], pos[:, 1, None, None]
    step = np.maximum(0.6, spacing_per_scale * np.asarray(scales, np.float64)).reshape(n, 1, 1)
    offs = np.arange(16) - 7.5
    us, vs = np.broadcast_arrays(u + offs[None, None, :] * step, v + offs[None, :, None] * step)
    gx, gy = field.sample_gradients(us, vs)
    mag = np.hypot(gx, gy)
    half = 8.0 * step
    r2 = (us - u) ** 2 + (vs - v) ** 2
    mag = mag * np.exp(-r2 / (2.0 * half * half))
    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    bins = ang * (8 / (2.0 * np.pi))
    lo = np.floor(bins).astype(np.intp) % 8
    frac = bins - np.floor(bins)
    hi = (lo + 1) % 8
    cell = np.repeat(np.arange(4), 4)
    idx = (np.arange(n)[:, None, None], cell[None, :, None], cell[None, None, :])
    hist = np.zeros((n, 4, 4, 8), dtype=np.float64)
    np.add.at(hist, idx + (lo,), mag * (1.0 - frac))
    np.add.at(hist, idx + (hi,), mag * frac)
    return finalize_descriptor(hist.reshape(n, 128)).astype(np.float32)


def test_compute_descriptors_bincount_is_bitwise_unchanged():
    rng = np.random.default_rng(22)
    field = GradientField(textured(w=90, h=70, seed=9))
    pos = np.column_stack([rng.uniform(-5.0, 95.0, 80), rng.uniform(-5.0, 75.0, 80)])
    scales = rng.uniform(0.5, 12.0, 80)
    for k in (0, 1, 80):
        got = detector.compute_descriptors(field, pos[:k], scales[:k])
        assert got.shape == (k, 128)
        assert np.array_equal(got, old_compute_descriptors(field, pos[:k], scales[:k]))
