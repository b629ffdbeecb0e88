"""Covariance region descriptors around keypoints.

Each keypoint gets a context vector summarizing the appearance of a square
region around it: local descriptors are sampled on a dense grid inside the
region, their sample covariance (made symmetric positive definite by a small
trace-scaled ridge) is mapped through the matrix logarithm, and the
log-matrix is half-vectorized with sqrt(2)-weighted off-diagonals. That
weighting makes the Euclidean norm of the vector equal the Frobenius norm
of the log-matrix, so vector distances reproduce the log-Euclidean metric
between covariance matrices exactly.

The region is a square of side ROI_SIDE_PER_SCALE (24) x
`ContextConfig.scale_factor` x keypoint scale, clamped to the image, and
its grid nodes are STRIDE (4) px apart, each reading one PATCH (16) px
square; a region with under two nodes gives no context.

`attach_context` maps EIGH_CHUNK covariances at a time through one batched
eigendecomposition, so a chunk bounds its memory: 128 KiB per 128x128
matrix, a few (EIGH_CHUNK, 128, 128) stacks in flight. Grid rows enter
the covariance in their fixed row-major order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import NotPositiveDefinite, RoiTooSmall
from ..parallel import map_on_two
from .detector import _finalize_in_place
from .image import GradientField, GrayImage
from .keypoint import DESCRIPTOR_DIM, KeypointTable

PATCH = 16
CELL = PATCH // 4  # a patch is 4x4 histogram cells
MIN_ROI_SIDE = PATCH
ROI_SIDE_PER_SCALE = 24.0  # region side per unit keypoint scale at scale_factor 1
STRIDE = 4  # grid node spacing, px
RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12
EIGH_CHUNK = 8  # keypoints per batched eigendecomposition
# the half-vectorized 128x128 log-matrix: the width of every context made here
CONTEXT_DIM = (DESCRIPTOR_DIM * DESCRIPTOR_DIM + DESCRIPTOR_DIM) // 2  # 8256


@dataclass(frozen=True)
class ContextConfig:
    """Region sizing for context extraction.

    The region side is ROI_SIDE_PER_SCALE (24) x scale_factor x the keypoint
    scale; scale_factor is the `sweep roi` knob and leaves the default
    geometry unchanged at 1.0. The grid stride is the fixed STRIDE (4 px).
    """

    scale_factor: float = 1.0


@dataclass(frozen=True)
class Roi:
    """An axis-aligned square pixel region, fully inside its image."""

    left: int
    top: int
    side: int


def context_regions(table: KeypointTable, width: int, height: int,
                    cfg: ContextConfig = ContextConfig()) -> list[Roi | None]:
    """Each keypoint's context region, or None where it cannot have a context.

    The square is centred on the keypoint with side ROI_SIDE_PER_SCALE *
    scale_factor * scale, clamped to the image: first its side shrinks to
    the smaller image dimension if necessary, then it shifts inward so it
    fits entirely. None when the side is under 16 px or its grid has under
    two nodes. Sides and corners round half to even, as `round` does; the
    whole table is sized in one array pass.
    """
    side = np.rint(ROI_SIDE_PER_SCALE * cfg.scale_factor * table.scale).astype(np.int64)
    side = np.minimum(side, min(width, height))
    left = np.rint(table.xy[:, 0] - side / 2.0).astype(np.int64)
    top = np.rint(table.xy[:, 1] - side / 2.0).astype(np.int64)
    left = np.minimum(np.maximum(left, 0), width - side)
    top = np.minimum(np.maximum(top, 0), height - side)
    fits = side - PATCH >= STRIDE
    return [Roi(lt, tp, sd) if ok else None for lt, tp, sd, ok
            in zip(left.tolist(), top.tolist(), side.tolist(), fits.tolist())]


def dense_descriptors(field: GradientField, roi: Roi) -> np.ndarray:
    """Descriptors on a dense grid inside the region, (n, 128) float64.

    Grid nodes are inset by half a patch from the region border and spaced
    by STRIDE, giving ((side - 16) // STRIDE + 1)^2 nodes. Each node's
    descriptor is the plain (unweighted) 4x4-cell orientation histogram of
    its fixed 16x16 pixel patch, normalized like any other descriptor.
    """
    h, w = field.shape
    if roi.side < MIN_ROI_SIDE:
        raise RoiTooSmall(f"side {roi.side} is under the {MIN_ROI_SIDE}px minimum")
    if roi.left < 0 or roi.top < 0 or roi.left + roi.side > w or roi.top + roi.side > h:
        raise RoiTooSmall("region extends outside the image")

    n_axis = (roi.side - PATCH) // STRIDE + 1
    # node (i, j), cell (a, b) reads the window at (top + STRIDE*i + CELL*a,
    # left + STRIDE*j + CELL*b): a read-only strided view, copied once
    sums = field.window_sums(CELL)
    sy, sx, sb = sums.strides
    view = np.lib.stride_tricks.as_strided(
        sums[roi.top:, roi.left:], shape=(n_axis, n_axis, 4, 4, sums.shape[2]),
        strides=(STRIDE * sy, STRIDE * sx, CELL * sy, CELL * sx, sb), writeable=False)
    return _finalize_in_place(view.copy().reshape(n_axis * n_axis, DESCRIPTOR_DIM))


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


@functools.cache
def _half_vector(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of a d x d matrix's upper triangle in row-major order,
    of the mirrored lower-triangle entries, and the half-vector weights."""
    iu, ju = np.triu_indices(d)
    out = iu * d + ju, ju * d + iu, np.where(iu == ju, 1.0, math.sqrt(2.0))
    for a in out:
        a.flags.writeable = False
    return out


def _log_euclidean(c: np.ndarray) -> np.ndarray:
    """Half-vectorized matrix logarithms of a (k, d, d) SPD stack, (k, d(d+1)/2).

    Each row is the upper triangle of log(C) in row-major order with the
    off-diagonal entries scaled by sqrt(2). Raises NotPositiveDefinite when
    some C has a non-positive eigenvalue.
    """
    evals, evecs = np.linalg.eigh(c)
    if evals[:, 0].min() <= 0.0:
        raise NotPositiveDefinite(f"minimum eigenvalue {evals[:, 0].min():.6g}")
    logm = np.matmul(evecs * np.log(evals)[:, None, :], evecs.transpose(0, 2, 1))
    upper, lower, weight = _half_vector(c.shape[-1])
    # symmetrised only where the half-vector reads, one gather per triangle
    flat = logm.reshape(len(logm), -1)
    out = flat.take(upper, axis=1)
    out += flat.take(lower, axis=1)
    out /= 2.0
    out *= weight
    return out


def attach_context(image: GrayImage, kps: KeypointTable,
                   cfg: ContextConfig = ContextConfig(),
                   field: GradientField | None = None) -> tuple[KeypointTable, int]:
    """The keypoints that can have a context, with their contexts attached.

    Keypoints for which `context_regions` finds no region are dropped and
    counted by the second return value; the others come back in input
    order, with any contexts they had replaced. Each context is the
    half-vectorized matrix logarithm of the regularized covariance of the
    keypoint's `dense_descriptors`, computed EIGH_CHUNK keypoints at a time
    into one (n, 8256) float32 column. The chunks go through `map_on_two`;
    they share the frame's gradient field, whose window sums are filled
    before they start, and write disjoint rows, so the contexts are the
    same bits on one lane or two.
    """
    if field is None:
        field = GradientField(image)
    rois = context_regions(kps, image.width, image.height, cfg)
    kept = [i for i, roi in enumerate(rois) if roi is not None]
    out = np.empty((len(kept), CONTEXT_DIM), dtype=np.float32)

    def fill(start: int) -> None:
        chunk = kept[start:start + EIGH_CHUNK]
        covs = np.stack([_covariance(dense_descriptors(field, rois[i])) for i in chunk])
        out[start:start + len(chunk)] = _log_euclidean(covs)

    if kept:
        # filled here: the cache's check-then-store must not race a helper thread
        field.window_sums(CELL)
    map_on_two(fill, list(range(0, len(kept), EIGH_CHUNK)))
    out.flags.writeable = False
    return replace(kps.take(kept), contexts=out), len(kps) - len(kept)
