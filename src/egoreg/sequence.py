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
from .features import GrayImage, KeypointTable

BLOCK = 8
SEARCH = 8
MAG_BIN_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
N_SECTIONS = 3
FEATURE_DIM = N_SECTIONS * N_SECTIONS * 16 + 1  # 145
TRAIN_ITERS = 500
TRAIN_L2 = 1e-3

TRACK_WINDOW = 11
TRACK_LEVELS = 3
TRACK_MAX_ITERS = 30
TRACK_RESIDUAL_MAX = 0.25


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

    def keep(self, feature: np.ndarray) -> bool:
        """The rule on one `frame_quality_feature` vector."""
        return float(self.weights @ feature) + self.bias >= self.threshold

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


def optical_flow(prev: GrayImage, curr: GrayImage) -> np.ndarray:
    """Dense block-matching flow from prev to curr, (h, w, 2) as (vx, vy).

    Each block-aligned BLOCK x BLOCK (8x8) tile of prev is compared against
    shifted tiles of curr within +-SEARCH (8) pixels by sum of absolute
    differences; every pixel of the tile gets the winning displacement.
    Shifts are scanned from small to large displacement so exact ties
    resolve toward zero motion. Pixels in partial tiles at the right/bottom
    edges keep zero flow.
    """
    if prev.shape != curr.shape:
        raise SizeMismatch(f"frame sizes differ: {prev.shape} vs {curr.shape}")
    a, b = prev.pixels, curr.pixels
    h, w = a.shape
    by, bx = h // BLOCK, w // BLOCK
    if by == 0 or bx == 0:
        raise ImageTooSmall(f"need at least one {BLOCK}x{BLOCK} block")

    ha, wa = by * BLOCK, bx * BLOCK
    shifts = [(dy, dx)
              for dy in range(-SEARCH, SEARCH + 1)
              for dx in range(-SEARCH, SEARCH + 1)]
    shifts.sort(key=lambda s: (s[0] * s[0] + s[1] * s[1], s[0], s[1]))

    # curr padded with inf: a tile that leaves the frame sums to inf
    b = np.pad(b, SEARCH, constant_values=np.inf)
    a = a[:ha, :wa]
    diff = np.empty((ha, wa))
    best = np.full((by, bx), np.inf)
    flow_block = np.zeros((by, bx, 2), dtype=np.float64)
    for dy, dx in shifts:
        np.subtract(a, b[SEARCH + dy:SEARCH + dy + ha, SEARCH + dx:SEARCH + dx + wa], out=diff)
        sad = np.abs(diff, out=diff).reshape(by, BLOCK, bx, BLOCK).sum(axis=(1, 3))
        better = sad < best
        if np.any(better):
            best[better] = sad[better]
            flow_block[better] = (dx, dy)

    flow = np.zeros((h, w, 2), dtype=np.float64)
    flow[:ha, :wa] = np.repeat(np.repeat(flow_block, BLOCK, axis=0), BLOCK, axis=1)
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


def frame_quality_feature(prev: GrayImage | None, curr: GrayImage) -> np.ndarray:
    """Quality feature of one frame given its predecessor (None for the
    first): its motion histogram (144 values, zero for the first frame),
    then its blur score, (145,)."""
    if prev is None:
        motion = np.zeros(N_SECTIONS * N_SECTIONS * 16, dtype=np.float64)
    else:
        motion = motion_histogram(optical_flow(prev, curr))
    return np.concatenate([motion, [blur_metric(curr)]])


def prune_frames(frames: list[GrayImage | None], pruner: LinearPruner) -> list[int]:
    """Indices of frames the pruner keeps, ascending; a frame without a raster
    (None) is always kept. Empty input, empty output."""
    fixed = pruner.fixed_decision()
    return [i for i, frame in enumerate(frames) if frame is None or (
        fixed if fixed is not None
        else pruner.keep(frame_quality_feature(frames[i - 1] if i > 0 else None, frame)))]


def train_pruner(features: list[np.ndarray], labels: list[int]) -> tuple[LinearPruner, float]:
    """Fit the linear keep/discard rule to `frame_quality_feature` vectors.

    Logistic regression by TRAIN_ITERS unit steps of plain gradient descent
    with L2 weight TRAIN_L2, from small weights drawn with a generator
    seeded 0. Features are standardized for optimization and
    the affine map is folded back into the returned weights, so the pruner
    (threshold 0) applies to raw features. Labels are 1 = keep, 0 =
    discard; both classes must be present. Returns the pruner and its
    training accuracy.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(set(y.tolist())) < 2:
        raise SingleClass("training labels must contain both classes")
    x = np.stack(features)
    if x.shape[0] != y.shape[0]:
        raise SizeMismatch("features and labels must align")

    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    xs = (x - mu) / sd

    w = np.random.default_rng(0).normal(0.0, 1e-6, FEATURE_DIM)
    b = 0.0
    n = xs.shape[0]
    for _ in range(TRAIN_ITERS):
        z = xs @ w + b
        pred = 1.0 / (1.0 + np.exp(-z))
        err = pred - y
        gw = xs.T @ err / n + TRAIN_L2 * w
        gb = float(err.mean())
        w = w - gw
        b = b - gb

    decision = xs @ w + b
    accuracy = float(np.mean((decision >= 0.0) == (y > 0.5)))
    w_raw = w / sd
    b_raw = b - float((w * (mu / sd)).sum())
    return LinearPruner(w_raw, b_raw), accuracy


def frame_pyramid(frame: GrayImage) -> list[np.ndarray]:
    """The tracker's Gaussian pyramid of one frame, as `track_keypoints` takes it."""
    return _pyramid(frame.pixels, TRACK_LEVELS)


def _pyramid(px: np.ndarray, levels: int) -> list[np.ndarray]:
    pyr = [px]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 2 * TRACK_WINDOW:
            break
        smooth = ndimage.gaussian_filter(pyr[-1], 1.0, mode="nearest")
        # contiguous, so _window_samples' flat gather reads it without a copy
        pyr.append(np.ascontiguousarray(smooth[::2, ::2]))
    return pyr


# A window's samples and their half-pixel neighbours read pixels -6 .. +7
# around floor(centre) on each axis.
_REACH = TRACK_WINDOW // 2 + 1
_BLOCK_STEPS = np.arange(TRACK_WINDOW + 3) - _REACH


def _at_offsets(taps: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Samples at offsets f - 5 .. f + 5 along axis 0 of the pixels -6 .. +7."""
    return taps[1:TRACK_WINDOW + 1] * (1.0 - f) + taps[2:TRACK_WINDOW + 2] * f


def _at_half_offsets(taps: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Samples at offsets f - 5.5 .. f + 5.5 along axis 0 of the pixels -6 .. +7.

    Offset f + j + 0.5 reads pixels j, j + 1 at weight f + 0.5 when
    f < 0.5, else pixels j + 1, j + 2 at weight f - 0.5.
    """
    shift = f >= 0.5
    pair = np.where(shift, taps[1:], taps[:-1])
    wt = f + 0.5 - shift
    return pair[:-1] * (1.0 - wt) + pair[1:] * wt


def _window_samples(px: np.ndarray, centers: np.ndarray, gradients: bool = False
                    ) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear samples of the 11x11 windows centred at `centers` (n, 2).

    Each window lies on the integer grid around its centre, so it is read
    from one 14x14 pixel block around floor(centre), with indices clamped
    to the image (which clamps the samples as `bilinear_sample` does), and
    interpolated with the window's own fractional offset (fx, fy), first
    along rows and then along columns. Arrays are (row, column, window):
    the windows (11, 11, n) and, with `gradients`, the half-pixel central
    differences gx, gy, each the difference of 12 half-offset samples
    along its axis.
    """
    h, w = px.shape
    # a centre beyond this reads only border pixels; the clip keeps its floor in range
    c = np.clip(centers, -_REACH - 1.0, (w + _REACH, h + _REACH))
    base = np.floor(c)
    fx, fy = (c - base).T
    base = base.astype(np.intp)
    cols = np.clip(base[:, 0] + _BLOCK_STEPS[:, None], 0, w - 1)
    rows = np.clip(base[:, 1] + _BLOCK_STEPS[:, None], 0, h - 1)
    block = px.ravel().take(rows[:, None] * w + cols)
    along_rows = _at_offsets(block.swapaxes(0, 1), fx).swapaxes(0, 1)  # (14, 11, n)
    win = _at_offsets(along_rows, fy)
    if not gradients:
        return win
    ew = _at_offsets(_at_half_offsets(block.swapaxes(0, 1), fx).swapaxes(0, 1), fy)
    ns = _at_half_offsets(along_rows, fy)
    return win, ew[:, 1:] - ew[:, :-1], ns[1:] - ns[:-1]


def _align_translation(src_pyr: list[np.ndarray], dst_pyr: list[np.ndarray],
                       pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate in dst the src windows centered at pos (n, 2).

    Returns (positions (n, 2), residuals (n,)). Both images arrive as
    prebuilt pyramids (see _pyramid), so repeated alignments against the
    same frame pair share the smoothing work. All windows advance together;
    a window stops refining once its own update drops below 0.03 px. Each
    iteration reads every moving window, with the half-pixel central
    differences of the warped image, from one pixel block per window (see
    _window_samples); templates and final residual windows use the same
    path.
    """
    n_levels = min(len(src_pyr), len(dst_pyr))
    p = pos / (2.0 ** (n_levels - 1))
    residual = np.full(len(pos), np.inf)
    for lvl in range(n_levels - 1, -1, -1):
        s, d = src_pyr[lvl], dst_pyr[lvl]
        template = _window_samples(s, pos / (2.0 ** lvl))
        moving = np.ones(len(p), dtype=bool)
        for _ in range(TRACK_MAX_ITERS):
            if not np.any(moving):
                break
            win, gx, gy = _window_samples(d, p[moving], gradients=True)
            err = template[:, :, moving] - win
            # per-window 2x2 normal equations, solved in closed form
            a = (gx * gx).sum(axis=(0, 1)) + 1e-9
            b = (gx * gy).sum(axis=(0, 1))
            c = (gy * gy).sum(axis=(0, 1)) + 1e-9
            r0 = (gx * err).sum(axis=(0, 1))
            r1 = (gy * err).sum(axis=(0, 1))
            det = a * c - b * b
            solvable = det != 0.0
            step = np.zeros((len(a), 2))
            step[solvable, 0] = (c * r0 - b * r1)[solvable] / det[solvable]
            step[solvable, 1] = (a * r1 - b * r0)[solvable] / det[solvable]
            p[moving] += step
            done = ~solvable | (np.hypot(step[:, 0], step[:, 1]) < 0.03)
            moving[np.flatnonzero(moving)[done]] = False
        final = _window_samples(d, p)
        residual = np.mean(np.abs(template - final), axis=(0, 1))
        if lvl > 0:
            p = p * 2.0
    return p, residual


def track_keypoints(frames: list[GrayImage], kps: KeypointTable,
                    pyramids: list[list[np.ndarray]] | None = None) -> list[Track]:
    """Follow frame-T keypoints backward through frames T-K .. T-1.

    `frames` is chronological and ends with the frame the keypoints belong
    to; it must hold at least two frames of identical size. A track dies
    when the aligned window's mean absolute intensity difference exceeds
    0.25 or the point leaves the image; dead tracks keep their last valid
    position for the remaining (earlier) frames. `pyramids`, when given,
    holds each frame's `frame_pyramid`, so a caller tracking consecutive
    frames builds each pyramid once; the tracks are the same bits.
    """
    if len(frames) < 2:
        raise ValueError("tracking needs the current frame plus at least one past frame")
    shape = frames[-1].shape
    for f in frames:
        if f.shape != shape:
            raise SizeMismatch("all frames must share one size")
    h, w = shape
    k = len(frames) - 1
    if pyramids is None:
        pyramids = [frame_pyramid(f) for f in frames]
    elif len(pyramids) != len(frames):
        raise ValueError(f"{len(pyramids)} pyramids for {len(frames)} frames")

    n = len(kps)
    positions = np.zeros((n, k + 1, 2), dtype=np.float64)
    positions[:, k] = kps.xy
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
