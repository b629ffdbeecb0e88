"""Grayscale image container and cached gradient structures.

The gradient field precomputes, once per image, everything the descriptor
machinery needs: per-pixel gradients, magnitudes and orientations, and a
magnitude-weighted soft assignment of orientations to 8 bins, plus a 2D
integral of that 8-channel stack so axis-aligned rectangular cell sums cost
O(1) lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ORIENT_BINS = 8


@dataclass(frozen=True, eq=False)
class GrayImage:
    """A (height, width) float image with values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2D array")
        if px.size == 0:
            raise ValueError("pixels must be non-empty")
        # NaN fails both comparisons, so it is rejected too
        if not (float(px.min()) >= 0.0 and float(px.max()) <= 1.0):
            raise ValueError("pixel values must be numbers in [0, 1]")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


class GradientField:
    """Per-image cache of gradients and binned-orientation integrals."""

    def __init__(self, image: GrayImage):
        px = image.pixels
        gy, gx = np.gradient(px)
        mag = np.hypot(gx, gy)
        ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)

        # Soft assignment of each pixel's orientation to its two nearest bins,
        # weighted by gradient magnitude.
        pos = ang * (N_ORIENT_BINS / (2.0 * np.pi))
        lo = np.floor(pos).astype(np.intp) % N_ORIENT_BINS
        frac = pos - np.floor(pos)
        hi = (lo + 1) % N_ORIENT_BINS

        h, w = px.shape
        stack = np.zeros((h, w, N_ORIENT_BINS), dtype=np.float64)
        np.put_along_axis(stack, lo[..., None], (mag * (1.0 - frac))[..., None], axis=2)
        np.put_along_axis(stack, hi[..., None], (mag * frac)[..., None], axis=2)

        integral = np.zeros((h + 1, w + 1, N_ORIENT_BINS), dtype=np.float64)
        np.cumsum(stack, axis=0, out=integral[1:, 1:])
        np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])

        self.image = image
        self.gx = gx
        self.gy = gy
        self.magnitude = mag
        self.angle = ang  # radians in [0, 2*pi)
        self.integral = integral
        self._windows: dict[int, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.image.pixels.shape

    def cell_sums(self, y0, y1, x0, x1) -> np.ndarray:
        """Summed orientation-bin weights over [y0, y1) x [x0, x1) windows.

        Accepts broadcastable integer index arrays; returns (..., 8).
        """
        ii = self.integral
        return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]

    def window_sums(self, size: int) -> np.ndarray:
        """`cell_sums` of all size x size windows by top-left pixel, cached."""
        if size not in self._windows:
            lo, hi = slice(None, -size), slice(size, None)
            self._windows[size] = self.cell_sums(lo, hi, lo, hi)
        return self._windows[size]

    def sample_gradients(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bilinearly sampled (gx, gy) at continuous pixel positions.

        Positions outside the image sample as zero gradient.
        """
        h, w = self.shape
        us = np.asarray(us, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        inside = (us >= 0.0) & (us <= w - 1.0) & (vs >= 0.0) & (vs <= h - 1.0)
        return (np.where(inside, bilinear_sample(self.gx, us, vs), 0.0),
                np.where(inside, bilinear_sample(self.gy, us, vs), 0.0))


def bilinear_sample(pixels: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Bilinearly sample an intensity image at continuous positions.

    Positions outside the image clamp to the border value; a 1-pixel-wide
    (or -tall) image interpolates along its only column (or row).
    """
    h, w = pixels.shape
    fx = np.clip(np.asarray(us, dtype=np.float64), 0.0, w - 1.0)
    fy = np.clip(np.asarray(vs, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.clip(np.floor(fx).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(fy).astype(np.intp), 0, max(h - 2, 0))
    # in place, and one index array: a tracker step samples ~1e5 positions,
    # so every full-size temporary adds ~1 MB to its peak memory
    fx -= x0
    fy -= y0
    i00 = y0 * w + x0
    del x0, y0
    flat = pixels.ravel()
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    return (
        flat[i00] * (1 - fy) * (1 - fx)
        + flat[i00 + dx] * (1 - fy) * fx
        + flat[i00 + dy] * fy * (1 - fx)
        + flat[i00 + (dy + dx)] * fy * fx
    )
