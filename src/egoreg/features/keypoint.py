"""Keypoint container and array packing helpers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..geometry import PixelPoint
from .image import frozen

DESCRIPTOR_DIM = 128
CONTEXT_DIM = (DESCRIPTOR_DIM * DESCRIPTOR_DIM + DESCRIPTOR_DIM) // 2  # 8256


@dataclass(frozen=True, eq=False)
class Keypoint:
    """A detected image feature.

    pos          sub-pixel location
    scale        characteristic radius in pixels at full resolution
    orientation  dominant gradient direction, radians in [0, 2*pi)
    descriptor   L2-normalized 128-vector (float32)
    context      8256-vector region descriptor (float32), None until attached

    Descriptor and context are read-only. They may be views of a loaded
    file (see `egoreg.io`); arrays a caller can still write are copied.
    """

    pos: PixelPoint
    scale: float
    orientation: float
    descriptor: np.ndarray
    context: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.descriptor, dtype=np.float32).reshape(-1)
        if d.shape[0] != DESCRIPTOR_DIM:
            raise ValueError(f"descriptor must have length {DESCRIPTOR_DIM}")
        object.__setattr__(self, "descriptor", frozen(d, self.descriptor))
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.context is not None:
            c = np.asarray(self.context, dtype=np.float32).reshape(-1)
            if c.shape[0] != CONTEXT_DIM:
                raise ValueError(f"context must have length {CONTEXT_DIM}")
            object.__setattr__(self, "context", frozen(c, self.context))

    def with_context(self, context: np.ndarray) -> "Keypoint":
        return replace(self, context=context)


def positions(kps: list[Keypoint]) -> np.ndarray:
    """(n, 2) array of keypoint (u, v) positions."""
    if not kps:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([[k.pos.u, k.pos.v] for k in kps], dtype=np.float64)


def descriptors(kps: list[Keypoint]) -> np.ndarray:
    """(n, 128) float64 stack of descriptors."""
    if not kps:
        return np.zeros((0, DESCRIPTOR_DIM), dtype=np.float64)
    return np.stack([k.descriptor for k in kps]).astype(np.float64)


def contexts(kps: list[Keypoint]) -> np.ndarray:
    """(n, 8256) float32 stack of context vectors; raises if any is missing.

    The stack keeps the storage precision and is a new array on every call.
    Context kernels take their pairwise product in float32 (see
    `embedding.gaussian_kernel`); descriptors stay float64 because their
    128-column product is cheap next to the 8256-column one.
    """
    if not kps:
        return np.zeros((0, CONTEXT_DIM), dtype=np.float32)
    if any(k.context is None for k in kps):
        raise ValueError("keypoint without an attached context")
    return np.stack([k.context for k in kps])
