"""Frame quality screening and short-horizon keypoint tracking.

Pruning decides per frame whether it is worth registering: a dense
block-matching flow field and a perceptual blur score are folded into a
145-dimensional quality feature and passed through a trained linear rule.
Tracking follows frame-T keypoints backward through the preceding frames
with pyramidal translation-only template alignment; keypoints that cannot
be followed are flagged dead and excluded from temporal matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ImageTooSmall, SingleClass, SizeMismatch
from .features import GrayImage, Keypoint, bilinear_sample

BLOCK = 8
SEARCH = 8
MAG_BIN_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
N_SECTIONS = 3
FEATURE_DIM = N_SECTIONS * N_SECTIONS * 16 + 1  # 145

TRACK_WINDOW = 11
TRACK_LEVELS = 3
TRACK_MAX_ITERS = 30
TRACK_RESIDUAL_MAX = 0.25


@dataclass(frozen=True, eq=False)
class FrameQualityFeature:
    """Motion histogram (144) plus blur score (1) for one frame."""

    motion: np.ndarray
    blur: float

    def vector(self) -> np.ndarray:
        return np.concatenate([self.motion, [self.blur]])


@dataclass(frozen=True, eq=False)
class LinearPruner:
    """Keep a frame when weights . feature + bias >= threshold."""

    weights: np.ndarray
    bias: float
    threshold: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != FEATURE_DIM:
            raise ValueError(f"weights must have length {FEATURE_DIM}")
        object.__setattr__(self, "weights", w)

    def keep(self, feature: FrameQualityFeature) -> bool:
        return float(self.weights @ feature.vector()) + self.bias >= self.threshold

    def fixed_decision(self) -> bool | None:
        """`keep`'s answer for every feature when all weights are zero, else None.

        Features are finite (images hold no NaN), so the weighted sum is then
        exactly zero and the feature need not be computed.
        """
        return None if self.weights.any() else self.bias >= self.threshold

    @classmethod
    def keep_all(cls) -> "LinearPruner":
        return cls(np.zeros(FEATURE_DIM), 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Track:
    """Chronological positions of one keypoint over frames T-K .. T."""

    keypoint_idx: int
    positions: np.ndarray  # (K+1, 2)
    alive: bool


def optical_flow(prev: GrayImage, curr: GrayImage,
                 block: int = BLOCK, search: int = SEARCH) -> np.ndarray:
    """Dense block-matching flow from prev to curr, (h, w, 2) as (vx, vy).

    Each block-aligned 8x8 tile of prev is compared against shifted tiles of
    curr within +-search pixels by sum of absolute differences; every pixel
    of the tile gets the winning displacement. Shifts are scanned from small
    to large displacement so exact ties resolve toward zero motion. Pixels
    in partial tiles at the right/bottom edges keep zero flow.
    """
    if prev.pixels.shape != curr.pixels.shape:
        raise SizeMismatch(f"frame sizes differ: {prev.pixels.shape} vs {curr.pixels.shape}")
    a, b = prev.pixels, curr.pixels
    h, w = a.shape
    by, bx = h // block, w // block
    if by == 0 or bx == 0:
        raise ImageTooSmall(f"need at least one {block}x{block} block")

    ha, wa = by * block, bx * block
    shifts = [(dy, dx)
              for dy in range(-search, search + 1)
              for dx in range(-search, search + 1)]
    shifts.sort(key=lambda s: (s[0] * s[0] + s[1] * s[1], s[0], s[1]))

    # curr padded with inf: a tile that leaves the frame sums to inf
    b = np.pad(b, search, constant_values=np.inf)
    a = a[:ha, :wa]
    diff = np.empty((ha, wa))
    best = np.full((by, bx), np.inf)
    flow_block = np.zeros((by, bx, 2), dtype=np.float64)
    for dy, dx in shifts:
        np.subtract(a, b[search + dy:search + dy + ha, search + dx:search + dx + wa], out=diff)
        sad = np.abs(diff, out=diff).reshape(by, block, bx, block).sum(axis=(1, 3))
        better = sad < best
        if np.any(better):
            best[better] = sad[better]
            flow_block[better] = (dx, dy)

    flow = np.zeros((h, w, 2), dtype=np.float64)
    flow[:ha, :wa] = np.repeat(np.repeat(flow_block, block, axis=0), block, axis=1)
    return flow


def motion_histogram(flow: np.ndarray) -> np.ndarray:
    """144-vector: per 3x3 section, 8 magnitude bins + 8 orientation bins.

    Both halves are weighted by flow magnitude, so the histogram's total
    mass is exactly twice the summed flow magnitude. Magnitude bins are
    log-spaced with upper edges 0.5..64 px; values beyond 64 px land in the
    last bin. Orientation uses 8 uniform bins over [0, 2*pi).
    """
    f = np.asarray(flow, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError("flow must be (h, w, 2)")
    h, w = f.shape[:2]
    rows = np.linspace(0, h, N_SECTIONS + 1).astype(int)
    cols = np.linspace(0, w, N_SECTIONS + 1).astype(int)
    out = np.zeros(N_SECTIONS * N_SECTIONS * 16, dtype=np.float64)
    edges = np.asarray(MAG_BIN_EDGES[:-1])
    sec = 0
    for r in range(N_SECTIONS):
        for c in range(N_SECTIONS):
            vx = f[rows[r]:rows[r + 1], cols[c]:cols[c + 1], 0].ravel()
            vy = f[rows[r]:rows[r + 1], cols[c]:cols[c + 1], 1].ravel()
            mag = np.hypot(vx, vy)
            mbin = np.minimum(np.digitize(mag, edges), 7)
            mh = np.bincount(mbin, weights=mag, minlength=8)
            ang = np.mod(np.arctan2(vy, vx), 2.0 * np.pi)
            obin = np.minimum((ang * (8 / (2.0 * np.pi))).astype(np.intp), 7)
            oh = np.bincount(obin, weights=mag, minlength=8)
            out[sec * 16:sec * 16 + 8] = mh
            out[sec * 16 + 8:sec * 16 + 16] = oh
            sec += 1
    return out


def blur_metric(image: GrayImage) -> float:
    """Perceptual blur estimate in [0, 1]; 0 is sharp, 1 is fully blurred.

    Re-blurs the image with strong 1D averaging filters and measures how
    much neighboring-pixel variation survives: an already-blurred image
    loses almost nothing, a sharp one loses a lot. A constant image has no
    variation to lose and scores 1.
    """
    px = image.pixels
    if px.shape[0] < 16 or px.shape[1] < 16:
        raise ImageTooSmall("blur metric needs at least 16x16 pixels")

    def one_direction(axis: int) -> float:
        size = [1, 1]
        size[axis] = 9
        blurred = ndimage.uniform_filter(px, size=size, mode="nearest")
        d_sharp = np.abs(np.diff(px, axis=axis))
        d_blur = np.abs(np.diff(blurred, axis=axis))
        lost = np.maximum(d_sharp - d_blur, 0.0)
        total = float(d_sharp.sum())
        if total <= 0.0:
            return 1.0
        return (total - float(lost.sum())) / total

    return float(np.clip(max(one_direction(0), one_direction(1)), 0.0, 1.0))


def frame_quality_feature(prev: GrayImage | None, curr: GrayImage) -> FrameQualityFeature:
    """Quality feature for one frame given its predecessor (None for the first)."""
    if prev is None:
        motion = np.zeros(N_SECTIONS * N_SECTIONS * 16, dtype=np.float64)
    else:
        motion = motion_histogram(optical_flow(prev, curr))
    return FrameQualityFeature(motion, blur_metric(curr))


def prune_frames(frames: list[GrayImage], pruner: LinearPruner) -> list[int]:
    """Indices of frames the pruner keeps, ascending. Empty input, empty output."""
    fixed = pruner.fixed_decision()
    if fixed is not None:
        return list(range(len(frames))) if fixed else []
    return [i for i, frame in enumerate(frames)
            if pruner.keep(frame_quality_feature(frames[i - 1] if i > 0 else None, frame))]


def train_pruner(features: list[FrameQualityFeature], labels: list[int],
                 l2: float = 1e-3, iters: int = 500, lr: float = 1.0,
                 seed: int = 0, threshold: float = 0.0) -> tuple[LinearPruner, float]:
    """Fit the linear keep/discard rule with plain gradient descent.

    Features are standardized for optimization and the affine map is folded
    back into the returned weights, so the pruner applies to raw features.
    Labels are 1 = keep, 0 = discard; both classes must be present. Returns
    the pruner and its training accuracy.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(set(y.tolist())) < 2:
        raise SingleClass("training labels must contain both classes")
    x = np.stack([f.vector() for f in features])
    if x.shape[0] != y.shape[0]:
        raise SizeMismatch("features and labels must align")

    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    xs = (x - mu) / sd

    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1e-6, FEATURE_DIM)
    b = 0.0
    n = xs.shape[0]
    for _ in range(iters):
        z = xs @ w + b
        pred = 1.0 / (1.0 + np.exp(-z))
        err = pred - y
        gw = xs.T @ err / n + l2 * w
        gb = float(err.mean())
        w = w - lr * gw
        b = b - lr * gb

    decision = xs @ w + b
    accuracy = float(np.mean((decision >= 0.0) == (y > 0.5)))
    w_raw = w / sd
    b_raw = b - float((w * (mu / sd)).sum())
    return LinearPruner(w_raw, b_raw, threshold), accuracy


def _pyramid(px: np.ndarray, levels: int) -> list[np.ndarray]:
    pyr = [px]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 2 * TRACK_WINDOW:
            break
        smooth = ndimage.gaussian_filter(pyr[-1], 1.0, mode="nearest")
        # contiguous, so bilinear_sample's flat gather reads it without a copy
        pyr.append(np.ascontiguousarray(smooth[::2, ::2]))
    return pyr


def _align_translation(src_pyr: list[np.ndarray], dst_pyr: list[np.ndarray],
                       pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate in dst the src windows centered at pos (n, 2).

    Returns (positions (n, 2), residuals (n,)). Both images arrive as
    prebuilt pyramids (see _pyramid), so repeated alignments against the
    same frame pair share the smoothing work. All windows advance together;
    a window stops refining once its own update drops below 0.03 px. Each
    iteration samples the moving windows and the half-pixel offsets of
    their central-difference gradients with one `bilinear_sample` call.
    """
    half = TRACK_WINDOW // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    ou = np.broadcast_to(offs[None, :], (TRACK_WINDOW, TRACK_WINDOW))
    ov = np.broadcast_to(offs[:, None], (TRACK_WINDOW, TRACK_WINDOW))

    def grid(centers):
        return centers[:, 0, None, None] + ou, centers[:, 1, None, None] + ov

    n_levels = min(len(src_pyr), len(dst_pyr))
    p = pos / (2.0 ** (n_levels - 1))
    residual = np.full(len(pos), np.inf)
    for lvl in range(n_levels - 1, -1, -1):
        s, d = src_pyr[lvl], dst_pyr[lvl]
        template = bilinear_sample(s, *grid(pos / (2.0 ** lvl)))
        moving = np.ones(len(p), dtype=bool)
        for _ in range(TRACK_MAX_ITERS):
            if not np.any(moving):
                break
            u, v = grid(p[moving])
            # the window and its four half-pixel neighbours in one gather
            win, east, west, south, north = bilinear_sample(
                d, np.stack([u, u + 0.5, u - 0.5, u, u]),
                np.stack([v, v, v, v + 0.5, v - 0.5]))
            gx = east - west
            gy = south - north
            err = template[moving] - win
            # per-window 2x2 normal equations, solved in closed form
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
        final = bilinear_sample(d, *grid(p))
        residual = np.mean(np.abs(template - final), axis=(1, 2))
        if lvl > 0:
            p = p * 2.0
    return p, residual


def track_keypoints(frames: list[GrayImage], kps: list[Keypoint]) -> list[Track]:
    """Follow frame-T keypoints backward through frames T-K .. T-1.

    `frames` is chronological and ends with the frame the keypoints belong
    to; it must hold at least two frames of identical size. A track dies
    when the aligned window's mean absolute intensity difference exceeds
    0.25 or the point leaves the image; dead tracks keep their last valid
    position for the remaining (earlier) frames.
    """
    if len(frames) < 2:
        raise ValueError("tracking needs the current frame plus at least one past frame")
    shape = frames[-1].pixels.shape
    for f in frames:
        if f.pixels.shape != shape:
            raise SizeMismatch("all frames must share one size")
    h, w = shape
    k = len(frames) - 1
    pyramids = [_pyramid(f.pixels, TRACK_LEVELS) for f in frames]

    n = len(kps)
    positions = np.zeros((n, k + 1, 2), dtype=np.float64)
    positions[:, k] = [(kp.pos.u, kp.pos.v) for kp in kps] if kps else \
        np.zeros((0, 2))
    alive = np.ones(n, dtype=bool)
    for t in range(k, 0, -1):
        positions[:, t - 1] = positions[:, t]
        if np.any(alive):
            idx = np.flatnonzero(alive)
            p_new, residual = _align_translation(
                pyramids[t], pyramids[t - 1], positions[idx, t].copy())
            inside = ((p_new[:, 0] >= 0.0) & (p_new[:, 0] <= w - 1.0)
                      & (p_new[:, 1] >= 0.0) & (p_new[:, 1] <= h - 1.0))
            ok = (residual <= TRACK_RESIDUAL_MAX) & inside
            positions[idx[ok], t - 1] = p_new[ok]
            alive[idx[~ok]] = False
    return [Track(i, positions[i], bool(alive[i])) for i in range(n)]
