"""Covariance region descriptors around keypoints.

Each keypoint gets a context vector summarizing the appearance of a square
region around it: local descriptors are sampled on a dense grid inside the
region, their sample covariance (made symmetric positive definite by a small
trace-scaled ridge) is mapped through the matrix logarithm, and the
log-matrix is half-vectorized with sqrt(2)-weighted off-diagonals. That
weighting makes the Euclidean norm of the vector equal the Frobenius norm
of the log-matrix, so vector distances reproduce the log-Euclidean metric
between covariance matrices exactly.

`attach_context` maps EIGH_CHUNK covariances at a time through one batched
eigendecomposition, so a chunk bounds its memory: 128 KiB per 128x128
matrix, a few (EIGH_CHUNK, 128, 128) stacks in flight. It feeds grid rows
in their fixed row-major order; the row sort that makes the public
`covariance_descriptor` bitwise invariant to sample order lives only there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NotPositiveDefinite, RoiTooSmall, TooFewSamples
from .detector import _finalize_in_place
from .image import GradientField, GrayImage
from .keypoint import DESCRIPTOR_DIM, Keypoint

PATCH = 16
MIN_ROI_SIDE = PATCH
RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12
EIGH_CHUNK = 8  # keypoints per batched eigendecomposition


@dataclass(frozen=True)
class ContextConfig:
    """Region-of-interest sizing and sampling for context extraction.

    The region side is epsilon * roi_base * scale_factor times the keypoint
    scale; scale_factor is the sweep knob and leaves the default geometry
    unchanged at 1.0.
    """

    epsilon: float = 6.0
    roi_base: float = 4.0
    scale_factor: float = 1.0
    stride: int = 4


@dataclass(frozen=True)
class Roi:
    """An axis-aligned square pixel region, fully inside its image."""

    left: int
    top: int
    side: int

    @property
    def center(self) -> tuple[float, float]:
        return (self.left + self.side / 2.0, self.top + self.side / 2.0)


def context_roi(kp: Keypoint, epsilon: float, width: int, height: int,
                roi_base: float = 4.0, scale_factor: float = 1.0) -> Roi:
    """Square region centered on the keypoint, side proportional to its scale.

    The square is clamped to the image: first its side shrinks to the smaller
    image dimension if necessary, then it shifts inward so it fits entirely.
    Raises RoiTooSmall when the resulting side is under 16 px.
    """
    side = int(round(epsilon * roi_base * scale_factor * kp.scale))
    side = min(side, width, height)
    if side < MIN_ROI_SIDE:
        raise RoiTooSmall(f"side {side} is under the {MIN_ROI_SIDE}px minimum")
    left = int(round(kp.pos.u - side / 2.0))
    top = int(round(kp.pos.v - side / 2.0))
    left = min(max(left, 0), width - side)
    top = min(max(top, 0), height - side)
    return Roi(left, top, side)


def context_region(kp: Keypoint, width: int, height: int,
                   cfg: ContextConfig = ContextConfig()) -> Roi | None:
    """The keypoint's context region, or None when it cannot have a context.

    That is when there is no `context_roi` or its grid has under two nodes.
    """
    try:
        roi = context_roi(kp, cfg.epsilon, width, height,
                          roi_base=cfg.roi_base, scale_factor=cfg.scale_factor)
    except RoiTooSmall:
        return None
    return roi if roi.side - PATCH >= cfg.stride else None


def dense_descriptors(field: GradientField, roi: Roi, stride: int = 4) -> np.ndarray:
    """Descriptors on a dense grid inside the region, (n, 128) float64.

    Grid nodes are inset by half a patch from the region border and spaced
    by `stride`, giving ((side - 16) // stride + 1)^2 nodes. Each node's
    descriptor is the plain (unweighted) 4x4-cell orientation histogram of
    its fixed 16x16 pixel patch, normalized like any other descriptor.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    h, w = field.shape
    if roi.side < MIN_ROI_SIDE:
        raise RoiTooSmall(f"side {roi.side} is under the {MIN_ROI_SIDE}px minimum")
    if roi.left < 0 or roi.top < 0 or roi.left + roi.side > w or roi.top + roi.side > h:
        raise RoiTooSmall("region extends outside the image")

    n_axis = (roi.side - PATCH) // stride + 1
    cell = PATCH // 4
    # top-left corner of each node's 4x4 cells, per node and cell
    offs = stride * np.arange(n_axis)[:, None] + cell * np.arange(4)[None, :]  # (n, 4)
    y0 = (roi.top + offs)[:, None, :, None]                        # ny,1,4,1
    x0 = (roi.left + offs)[None, :, None, :]                       # 1,nx,1,4
    sums = field.window_sums(cell)[y0, x0]                         # ny,nx,4,4,8
    return _finalize_in_place(sums.reshape(n_axis * n_axis, DESCRIPTOR_DIM))


def _covariance(x: np.ndarray) -> np.ndarray:
    """Regularized sample covariance of (n, d) rows, in the given row order.

    Centres `x` in place, so callers pass an array they own. `x.T @ x`
    takes BLAS's symmetric rank-k path, so the product is exactly symmetric
    without averaging it with its transpose.
    """
    n, d = x.shape
    x -= x.mean(axis=0)
    c = x.T @ x
    c /= n - 1
    c.flat[::d + 1] += RIDGE_SCALE * float(np.trace(c)) / d + RIDGE_FLOOR
    return c


def covariance_descriptor(samples: np.ndarray) -> np.ndarray:
    """Regularized sample covariance of descriptor rows, (d, d) float64.

    Rows are lexicographically sorted before the core that `attach_context`
    shares, so the result is bitwise invariant to input permutation. The
    ridge added to the diagonal is 1e-6 * trace/d + 1e-12, which keeps the
    matrix positive definite even when there are fewer samples than
    dimensions.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be a 2D array")
    if x.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 samples, got {x.shape[0]}")
    return _covariance(x[np.lexsort(x.T[::-1])])


def _log_euclidean(c: np.ndarray) -> np.ndarray:
    """Half-vectorized matrix logarithms of a (k, d, d) SPD stack, (k, d(d+1)/2)."""
    evals, evecs = np.linalg.eigh(c)
    if evals[:, 0].min() <= 0.0:
        raise NotPositiveDefinite(f"minimum eigenvalue {evals[:, 0].min():.6g}")
    logm = np.matmul(evecs * np.log(evals)[:, None, :], evecs.transpose(0, 2, 1))
    iu, ju = np.triu_indices(c.shape[-1])
    # symmetrised only where the half-vector reads
    out = logm[:, iu, ju]
    out += logm[:, ju, iu]
    out /= 2.0
    out *= np.where(iu == ju, 1.0, math.sqrt(2.0))
    return out


def log_euclidean_vec(c: np.ndarray) -> np.ndarray:
    """Half-vectorized matrix logarithm of an SPD matrix.

    Output is the upper triangle of log(C) in row-major order with
    off-diagonal entries scaled by sqrt(2), length d*(d+1)/2. With that
    scaling ||vec(log C1) - vec(log C2)|| equals ||log C1 - log C2||_F.
    Raises NotPositiveDefinite when C has a non-positive eigenvalue.
    """
    c = np.asarray_chkfinite(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("input must be a square matrix")
    return _log_euclidean(c[None])[0]


def attach_context(image: GrayImage, kps: list[Keypoint],
                   cfg: ContextConfig = ContextConfig(),
                   field: GradientField | None = None) -> tuple[list[Keypoint], int]:
    """Attach a context vector to each keypoint.

    Keypoints for which `context_region` finds no region are dropped and
    counted by the second return value; the others come back in input
    order. Contexts equal the per-keypoint composition dense_descriptors ->
    covariance_descriptor -> log_euclidean_vec up to round-off, and are
    computed EIGH_CHUNK at a time (see the module docstring for memory).
    """
    if field is None:
        field = GradientField(image)
    rois = [context_region(kp, image.width, image.height, cfg) for kp in kps]
    kept = [i for i, roi in enumerate(rois) if roi is not None]
    out: list[Keypoint] = []
    for start in range(0, len(kept), EIGH_CHUNK):
        chunk = kept[start:start + EIGH_CHUNK]
        covs = np.stack([_covariance(dense_descriptors(field, rois[i], cfg.stride))
                         for i in chunk])
        out += [kps[i].with_context(v) for i, v in zip(chunk, _log_euclidean(covs))]
    return out, len(kps) - len(kept)
