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
_WINDOW_PIXELS = 1 << 18  # orientation window pixels per pass, ~20 MB of temporaries


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
    return _finalize_in_place(np.array(hist, dtype=np.float64))


def _finalize_in_place(v: np.ndarray) -> np.ndarray:
    """`finalize_descriptor` on a float64 array the caller owns, overwriting it.

    Needs one more buffer, for the squares.
    """
    sq = np.empty_like(v)

    def norms():
        return np.sqrt(np.multiply(v, v, out=sq).sum(axis=-1, keepdims=True))

    n = norms()
    flat = n < 1e-12
    n[flat] = 1.0
    v /= n
    np.minimum(v, _CLIP, out=v)
    n = norms()
    flat |= n < 1e-12
    n[flat] = 1.0
    v /= n
    v[flat[..., 0]] = 1.0 / math.sqrt(DESCRIPTOR_DIM)
    return v


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
    return _finalize_in_place(hist.reshape(n, DESCRIPTOR_DIM)).astype(np.float32)


def _orientations(field: GradientField, uvs: np.ndarray) -> np.ndarray:
    """Dominant gradient direction of each (u, v, scale) row, radians.

    Each keypoint's 36-bin histogram sums its magnitude- and Gaussian-weighted
    window (radius max(3, 4 * scale), clipped to the image) in row-major
    order. Windows are laid end to end, _WINDOW_PIXELS at most per pass, and
    binned by one bincount over keypoint * 36 + bin, which keeps every
    row's summation order. The peak is refined by a parabola through it and
    its neighbours; a keypoint whose window lies outside the image gets 0.
    """
    h, w = field.shape
    n = uvs.shape[0]
    u, v, scale = uvs.T
    r = np.maximum(3, np.round(4.0 * scale).astype(np.intp))
    iu, iv = u.astype(np.intp), v.astype(np.intp)  # truncation, as int()
    x0, x1 = np.maximum(0, iu - r), np.minimum(w, iu + r + 1)
    y0, y1 = np.maximum(0, iv - r), np.minimum(h, iv + r + 1)
    ww, wh = np.maximum(x1 - x0, 0), np.maximum(y1 - y0, 0)
    sizes = ww * wh
    # windows overlap, so each pixel's bin is found once for the image
    bins = np.minimum((field.angle * (36 / (2.0 * np.pi))).astype(np.intp), 35).ravel()

    hist = np.empty((n, 36))
    step = max(1, _WINDOW_PIXELS // max(int(sizes.max(initial=0)), 1))
    for first in range(0, n, step):
        part = slice(first, first + step)
        kid = np.repeat(np.arange(first, min(first + step, n)), sizes[part])
        local = np.arange(kid.size) - np.repeat(np.cumsum(sizes[part]) - sizes[part], sizes[part])
        ys = y0[kid] + local // ww[kid]
        xs = x0[kid] + local % ww[kid]
        d2 = (xs - u[kid]) ** 2 + (ys - v[kid]) ** 2
        sig = 1.5 * scale[kid]
        flat = ys * w + xs
        wts = field.magnitude.ravel()[flat] * np.exp(-d2 / (2.0 * sig * sig))
        hist[part] = np.bincount((kid - first) * 36 + bins[flat], weights=wts,
                                 minlength=hist[part].size).reshape(-1, 36)
    # circular smoothing, twice
    for _ in range(2):
        hist = (np.roll(hist, 1, axis=1) + hist + np.roll(hist, -1, axis=1)) / 3.0
    k = np.argmax(hist, axis=1)
    rows = np.arange(n)
    lo, ce, hi = hist[rows, (k - 1) % 36], hist[rows, k], hist[rows, (k + 1) % 36]
    denom = lo - 2.0 * ce + hi
    tiny = np.abs(denom) < 1e-12
    off = np.where(tiny, 0.0, 0.5 * (lo - hi) / np.where(tiny, 1.0, denom))
    theta = np.mod((k + 0.5 + off) * (2.0 * np.pi / 36), 2.0 * np.pi)
    return np.where(sizes > 0, theta, 0.0)


def _octave_candidates(dog: np.ndarray, octave: int, cfg: DetectorConfig) -> list[tuple]:
    """Scan one octave's DoG stack for refined extrema.

    Returns tuples (response, u, v, scale) in full-resolution coordinates,
    ordered by level, then row-major position. All extrema of the octave
    are edge-tested and refined together with array operations.
    """
    s = cfg.scales_per_octave
    margin = 4
    maxf = ndimage.maximum_filter(dog, size=3, mode="constant", cval=-np.inf)
    minf = ndimage.minimum_filter(dog, size=3, mode="constant", cval=np.inf)
    inner = (slice(1, -1), slice(margin, -margin), slice(margin, -margin))
    c = dog[inner]
    is_ext = ((c >= maxf[inner]) | (c <= minf[inner])) & \
        (np.abs(c) >= 0.8 * cfg.contrast_threshold)
    lvl, y, x = np.nonzero(is_ext)
    lvl += 1
    y += margin
    x += margin

    def at(dl, dy, dx):
        return dog[lvl + dl, y + dy, x + dx]

    val = at(0, 0, 0)
    dxx = at(0, 0, 1) + at(0, 0, -1) - 2.0 * val
    dyy = at(0, 1, 0) + at(0, -1, 0) - 2.0 * val
    dxy = 0.25 * (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1))
    tr = dxx + dyy
    det = dxx * dyy - dxy * dxy
    r = cfg.edge_ratio
    ok = (det > 0.0) & (tr * tr * r < det * (r + 1.0) ** 2)
    lvl, y, x, val, dxx, dyy, dxy = (a[ok] for a in (lvl, y, x, val, dxx, dyy, dxy))

    # one quadratic refinement step over (x, y, level)
    grad = np.stack([0.5 * (at(0, 0, 1) - at(0, 0, -1)),
                     0.5 * (at(0, 1, 0) - at(0, -1, 0)),
                     0.5 * (at(1, 0, 0) - at(-1, 0, 0))], axis=-1)
    dss = at(1, 0, 0) + at(-1, 0, 0) - 2.0 * val
    dxs = 0.25 * (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1))
    dys = 0.25 * (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0))
    hess = np.stack([dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss], axis=-1).reshape(-1, 3, 3)
    off = np.clip(-_solve(hess, grad), -0.5, 0.5)
    # a BLAS dot per candidate: einsum or a written-out sum rounds differently
    response = val + 0.5 * np.matmul(grad[:, None, :], off[:, :, None])[:, 0, 0]
    keep = np.abs(response) >= cfg.contrast_threshold
    lvl, y, x, off, response = lvl[keep], y[keep], x[keep], off[keep], response[keep]
    step = 2.0 ** octave
    # scalar pow: numpy's vectorised pow may differ in the last bit
    scales = [cfg.base_sigma * 2.0 ** e for e in (octave + (lvl + off[:, 2]) / s).tolist()]
    return list(zip(np.abs(response).tolist(), ((x + off[:, 0]) * step).tolist(),
                    ((y + off[:, 1]) * step).tolist(), scales))


def _solve(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Batched hess^-1 grad; an exactly singular system takes no step."""
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # bisect down to the singular systems
        if len(hess) == 1:
            return np.zeros_like(grad)
        m = len(hess) // 2
        return np.concatenate([_solve(hess[:m], grad[:m]), _solve(hess[m:], grad[m:])])


def extract_keypoints(image: GrayImage, cfg: DetectorConfig = DetectorConfig(),
                      field: GradientField | None = None) -> list[Keypoint]:
    """Detect scale-space blob keypoints, strongest response first.

    Raises ImageTooSmall for images under 32 pixels on a side. A uniform
    image yields an empty list. Output order is deterministic: descending
    response, ties broken by (v, u, scale). A caller that also attaches
    contexts passes the image's GradientField as `field` to share it.
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

    if field is None:
        field = GradientField(image)
    uvs = np.array([c[1:] for c in kept], dtype=np.float64).reshape(-1, 3)
    descs = compute_descriptors(field, uvs[:, :2], uvs[:, 2], cfg.descriptor_spacing)
    thetas = _orientations(field, uvs)
    return [Keypoint(PixelPoint(float(u), float(v)), float(scale), float(theta), desc)
            for (_, u, v, scale), theta, desc in zip(kept, thetas, descs)]
