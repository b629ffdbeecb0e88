"""Grayscale image container and cached gradient structures.

The gradient field precomputes, once per image, the per-pixel gradients,
magnitudes and orientations the descriptor machinery needs. Its window
sums, cached per window size, read a magnitude-weighted soft assignment of
orientations to 8 bins off the 2D integral of that 8-channel stack, so
axis-aligned rectangular cell sums cost O(1) lookups.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

N_ORIENT_BINS = 8


def frozen(arr: np.ndarray, source) -> np.ndarray:
    """`arr`, converted from `source`, made read-only with at most one copy.

    A read-only array is kept as it is when its memory is sealed, and so
    is an array that the conversion from `source` already made new. Memory
    is sealed when nothing in this process can write it: the array's base
    chain (through `memoryview`s to the object they view) ends in an
    immutable `bytes` object, in a read-only file mapping
    (`mmap.ACCESS_READ`, as a load makes), or in a read-only array (one
    that `KeypointTable.adopt` or an earlier call sealed). A read-only
    mapping is not sealed against other writers of its file: one that
    rewrites the file in place changes the kept array under it (see
    `egoreg.io`). Anything else, a writable mapping included, may alias
    memory that its owner can still write, so it is copied.

    `GrayImage` applies this to the array it stores, float32 when given
    float32: a loaded raster stays a view of the mapping. Its float64
    pixels are made later, on first access, not here.
    """
    root = arr
    while True:
        if isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        elif isinstance(root, memoryview):
            root = root.obj
        else:
            break
    if isinstance(root, mmap.mmap):
        with memoryview(root) as whole:
            sealed = whole.readonly
    else:
        sealed = isinstance(root, bytes) or (isinstance(root, np.ndarray)
                                             and not root.flags.writeable)
    immutable = sealed and not arr.flags.writeable
    if not immutable and np.may_share_memory(arr, source):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """A (height, width) image with values in [0, 1].

    `stored` holds the pixels as given when they are float32, made
    read-only by `frozen`: a raster that `egoreg.io` loads stays a view of
    the file mapping, so a load copies no pixels. Any other input is stored
    as float64, converted as `np.asarray` does. The checks (2-D, non-empty,
    every value in [0, 1]) run on the stored array.

    `pixels` is the float64 image every consumer reads. For float64 input
    it is `stored` itself; float32 pixels are widened (exactly) on the first
    access and the result is kept, so an image nothing reads is never
    widened. Size and shape read `stored` and widen nothing.
    """

    stored: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.stored)
        if px.dtype != np.float32:
            px = np.asarray(self.stored, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2D array")
        if px.size == 0:
            raise ValueError("pixels must be non-empty")
        # NaN fails both comparisons, so it is rejected too
        if not (float(px.min()) >= 0.0 and float(px.max()) <= 1.0):
            raise ValueError("pixel values must be numbers in [0, 1]")
        object.__setattr__(self, "stored", frozen(px, self.stored))

    @property
    def pixels(self) -> np.ndarray:
        """The image as a read-only float64 array, made once and kept."""
        px = self.__dict__.get("_pixels")
        if px is None:
            px = self.stored.astype(np.float64, copy=False)  # float64 is kept as is
            px.flags.writeable = False
            # Two lanes may widen one image at once: the first store wins
            # and both return that array (one atomic dict operation).
            px = self.__dict__.setdefault("_pixels", px)
        return px

    @property
    def shape(self) -> tuple[int, int]:
        return self.stored.shape

    @property
    def height(self) -> int:
        return self.stored.shape[0]

    @property
    def width(self) -> int:
        return self.stored.shape[1]


class GradientField:
    """Per-image cache of gradients and orientation-bin window sums."""

    def __init__(self, image: GrayImage):
        gy, gx = np.gradient(image.pixels)
        self.image = image
        self.gx = gx
        self.gy = gy
        self.magnitude = np.hypot(gx, gy)
        self.angle = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)  # radians in [0, 2*pi)
        self._windows: dict[int, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.image.shape

    def window_sums(self, size: int) -> np.ndarray:
        """Summed orientation-bin weights of every size x size window, cached.

        Entry (y, x) holds the (8,) sums over rows y .. y + size - 1 and
        columns x .. x + size - 1, read off the (h + 1, w + 1, 8) integral of
        the soft-binned orientation stack in four lookups; the array is
        (h - size + 1, w - size + 1, 8). The integral is built here and not
        kept, so a field holds ~5 MB less at 320x240 and detection alone
        builds none. The cache checks, then stores, with no lock: call this
        once for a size before threads share the field (as `attach_context`
        does).
        """
        if size not in self._windows:
            # Soft assignment of each pixel's orientation to its two nearest
            # bins, weighted by gradient magnitude, scattered and summed in place.
            pos = self.angle * (N_ORIENT_BINS / (2.0 * np.pi))
            lo_bin = np.floor(pos).astype(np.intp) % N_ORIENT_BINS
            frac = pos - np.floor(pos)
            hi_bin = (lo_bin + 1) % N_ORIENT_BINS

            h, w = self.shape
            ii = np.zeros((h + 1, w + 1, N_ORIENT_BINS), dtype=np.float64)
            stack = ii[1:, 1:]
            mag = self.magnitude
            np.put_along_axis(stack, lo_bin[..., None], (mag * (1.0 - frac))[..., None], axis=2)
            np.put_along_axis(stack, hi_bin[..., None], (mag * frac)[..., None], axis=2)
            np.cumsum(stack, axis=0, out=stack)
            np.cumsum(stack, axis=1, out=stack)

            lo, hi = slice(None, -size), slice(size, None)
            sums = ii[hi, hi] - ii[lo, hi]
            sums -= ii[hi, lo]
            sums += ii[lo, lo]
            self._windows[size] = sums
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
    # in place, and one index array: descriptors sample 256 positions per
    # keypoint, so every full-size temporary adds ~0.4 MB per 200 keypoints
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
