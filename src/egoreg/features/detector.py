"""Blob keypoint detection and local descriptors.

Detection runs a difference-of-Gaussians scale pyramid: per-octave extrema
of the DoG stack are contrast- and edge-filtered, refined to sub-pixel
position with one quadratic step, deduplicated across octaves, and sorted by
response. Descriptors are 4x4 cells of 8-bin gradient-orientation histograms
(128 values) sampled at a spacing proportional to the keypoint scale. The
sampling grid stays axis-aligned: the stored orientation describes the
dominant local gradient but does not rotate the descriptor, which favors
repeatability in footage without in-plane roll.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import ImageTooSmall
from ..geometry import PixelPoint
from .image import GradientField, GrayImage
from .keypoint import DESCRIPTOR_DIM, Keypoint

MIN_IMAGE_SIDE = 32
_N_CELLS = 4
_PATCH_SAMPLES = 16
_CLIP = 0.2


@dataclass(frozen=True)
class DetectorConfig:
    base_sigma: float = 1.6
    scales_per_octave: int = 3
    n_octaves: int = 0  # 0 = derive from image size
    contrast_threshold: float = 0.01
    edge_ratio: float = 10.0
    max_keypoints: int = 0  # 0 = unlimited
    dedup_radius: float = 2.0
    descriptor_spacing: float = 0.75  # sample spacing per unit scale


def finalize_descriptor(hist: np.ndarray) -> np.ndarray:
    """Normalize, clip large components, renormalize each row of a (..., 128) array.

    A row with no gradient energy maps to the uniform unit vector so that
    featureless patches still produce a valid descriptor.
    """
    v = np.asarray(hist, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    flat = n < 1e-12
    v = np.minimum(v / np.where(flat, 1.0, n), _CLIP)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    flat |= n < 1e-12
    return np.where(flat, 1.0 / math.sqrt(DESCRIPTOR_DIM), v / np.where(flat, 1.0, n))


def compute_descriptors(field: GradientField, pos: np.ndarray, scales: np.ndarray,
                        spacing_per_scale: float = 0.75) -> np.ndarray:
    """Axis-aligned descriptors at given positions/scales, (n, 128) float32."""
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    n = pos.shape[0]
    u, v = pos[:, 0, None, None], pos[:, 1, None, None]
    step = np.maximum(0.6, spacing_per_scale * np.asarray(scales, np.float64)).reshape(n, 1, 1)
    offs = np.arange(_PATCH_SAMPLES) - (_PATCH_SAMPLES - 1) / 2.0
    us, vs = np.broadcast_arrays(u + offs[None, None, :] * step, v + offs[None, :, None] * step)
    gx, gy = field.sample_gradients(us, vs)
    mag = np.hypot(gx, gy)
    half = (_PATCH_SAMPLES / 2.0) * step
    r2 = (us - u) ** 2 + (vs - v) ** 2
    mag = mag * np.exp(-r2 / (2.0 * half * half))

    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    bins = ang * (8 / (2.0 * np.pi))
    lo = np.floor(bins).astype(np.intp) % 8
    frac = bins - np.floor(bins)
    hi = (lo + 1) % 8

    # (keypoint, cell row, cell column) of every sample
    cell = np.repeat(np.arange(_N_CELLS), _PATCH_SAMPLES // _N_CELLS)
    idx = (np.arange(n)[:, None, None], cell[None, :, None], cell[None, None, :])
    hist = np.zeros((n, _N_CELLS, _N_CELLS, 8), dtype=np.float64)
    np.add.at(hist, idx + (lo,), mag * (1.0 - frac))
    np.add.at(hist, idx + (hi,), mag * frac)
    return finalize_descriptor(hist.reshape(n, DESCRIPTOR_DIM)).astype(np.float32)


def _orientation_at(field: GradientField, u: float, v: float, scale: float) -> float:
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
    # circular smoothing, twice
    for _ in range(2):
        hist = (np.roll(hist, 1) + hist + np.roll(hist, -1)) / 3.0
    k = int(np.argmax(hist))
    lo, ce, hi = hist[(k - 1) % 36], hist[k], hist[(k + 1) % 36]
    denom = lo - 2.0 * ce + hi
    off = 0.0 if abs(denom) < 1e-12 else 0.5 * (lo - hi) / denom
    return float(np.mod((k + 0.5 + off) * (2.0 * np.pi / 36), 2.0 * np.pi))


def _octave_candidates(dog: np.ndarray, octave: int, cfg: DetectorConfig) -> list[tuple]:
    """Scan one octave's DoG stack for refined extrema.

    Returns tuples (response, u, v, scale) in full-resolution coordinates.
    """
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
            # one quadratic refinement step over (x, y, level)
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
            out.append((abs(response),
                        (x + off[0]) * 2.0 ** octave,
                        (y + off[1]) * 2.0 ** octave,
                        scale))
    return out


def extract_keypoints(image: GrayImage, cfg: DetectorConfig = DetectorConfig()) -> list[Keypoint]:
    """Detect scale-space blob keypoints, strongest response first.

    Raises ImageTooSmall for images under 32 pixels on a side. A uniform
    image yields an empty list. Output order is deterministic: descending
    response, ties broken by (v, u, scale).
    """
    h, w = image.height, image.width
    if h < MIN_IMAGE_SIDE or w < MIN_IMAGE_SIDE:
        raise ImageTooSmall(f"need at least {MIN_IMAGE_SIDE}px per side, got {w}x{h}")

    s = cfg.scales_per_octave
    n_oct = cfg.n_octaves
    if n_oct <= 0:
        n_oct = max(1, min(4, int(math.log2(min(h, w) / 24.0)) + 1))

    sigmas = [cfg.base_sigma * 2.0 ** (i / s) for i in range(s + 3)]
    base = ndimage.gaussian_filter(
        image.pixels, math.sqrt(max(cfg.base_sigma ** 2 - 0.25, 0.01)), mode="nearest")

    candidates: list[tuple] = []
    current = base
    for o in range(n_oct):
        if min(current.shape) < 16:
            break
        levels = [current]
        for i in range(1, s + 3):
            inc = math.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2)
            levels.append(ndimage.gaussian_filter(levels[-1], inc, mode="nearest"))
        dog = np.stack([levels[i + 1] - levels[i] for i in range(s + 2)])
        candidates.extend(_octave_candidates(dog, o, cfg))
        current = levels[s][::2, ::2]

    candidates.sort(key=lambda t: (-t[0], t[2], t[1], t[3]))
    kept: list[tuple] = []
    for cand in candidates:
        _, u, v, scale = cand
        ok = True
        for _, ku, kv, _ in kept:
            if (u - ku) ** 2 + (v - kv) ** 2 < cfg.dedup_radius ** 2:
                ok = False
                break
        if ok:
            kept.append(cand)
            if cfg.max_keypoints and len(kept) >= cfg.max_keypoints:
                break

    field = GradientField(image)
    uvs = np.array([c[1:] for c in kept], dtype=np.float64).reshape(-1, 3)
    descs = compute_descriptors(field, uvs[:, :2], uvs[:, 2], cfg.descriptor_spacing)
    return [Keypoint(PixelPoint(float(u), float(v)), float(scale),
                     _orientation_at(field, u, v, scale), desc)
            for (_, u, v, scale), desc in zip(kept, descs)]
