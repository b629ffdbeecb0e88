"""Grayscale image container and cached gradient structures.

The gradient field precomputes, once per image, everything the descriptor
machinery needs: per-pixel gradients, magnitudes, and a magnitude-weighted
soft assignment of orientations to 8 bins, plus a 2D integral of that
8-channel stack so axis-aligned rectangular cell sums cost O(1) lookups.
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
        if float(px.min()) < 0.0 or float(px.max()) > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
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
        rows, cols = np.indices((h, w))
        stack[rows, cols, lo] += mag * (1.0 - frac)
        stack[rows, cols, hi] += mag * frac

        integral = np.zeros((h + 1, w + 1, N_ORIENT_BINS), dtype=np.float64)
        np.cumsum(stack, axis=0, out=integral[1:, 1:])
        np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])

        self.image = image
        self.gx = gx
        self.gy = gy
        self.magnitude = mag
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
        uc = np.clip(us, 0.0, w - 1.0)
        vc = np.clip(vs, 0.0, h - 1.0)
        x0 = np.clip(np.floor(uc).astype(np.intp), 0, w - 2) if w > 1 else np.zeros_like(uc, dtype=np.intp)
        y0 = np.clip(np.floor(vc).astype(np.intp), 0, h - 2) if h > 1 else np.zeros_like(vc, dtype=np.intp)
        fx = uc - x0
        fy = vc - y0

        def bilerp(a):
            return (
                a[y0, x0] * (1 - fy) * (1 - fx)
                + a[y0, x0 + 1] * (1 - fy) * fx
                + a[y0 + 1, x0] * fy * (1 - fx)
                + a[y0 + 1, x0 + 1] * fy * fx
            )

        gx = np.where(inside, bilerp(self.gx), 0.0)
        gy = np.where(inside, bilerp(self.gy), 0.0)
        return gx, gy


def bilinear_sample(pixels: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Bilinearly sample an intensity image at continuous positions.

    Positions outside the image clamp to the border value.
    """
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
