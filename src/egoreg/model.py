"""In-memory containers for 3D models and query sequences."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptTable
from .features import GrayImage, KeypointTable, as_table
from .geometry import Intrinsics, Pose, WorldPoint


@dataclass(eq=False)
class ModelImage:
    """One registered image of the model: pose, keypoints, and 2D-3D links.

    `links` maps keypoint index to world point id. Raster and context data
    are optional; matching needs contexts, region-size sweeps need rasters
    to recompute them. `keypoints` is a table; this and `SequenceFrame` are
    the only entries that also take a list of Keypoints (see `as_table`).
    """

    id: int
    pose: Pose
    intrinsics: Intrinsics
    keypoints: KeypointTable
    links: dict[int, int] = field(default_factory=dict)
    raster: GrayImage | None = None

    def __post_init__(self):
        self.keypoints = as_table(self.keypoints)


@dataclass(eq=False)
class Model3D:
    """A point cloud with the registered images it was built from."""

    points: list[WorldPoint]
    images: list[ModelImage]

    def __post_init__(self):
        self._point_by_id = {p.id: p for p in self.points}
        if len(self._point_by_id) != len(self.points):
            raise CorruptTable("duplicate world point ids")
        for img in self.images:
            for kp_idx, pid in img.links.items():
                if pid not in self._point_by_id:
                    raise CorruptTable(
                        f"image {img.id} links keypoint {kp_idx} to missing point {pid}")
                if not (0 <= kp_idx < len(img.keypoints)):
                    raise CorruptTable(
                        f"image {img.id} links out-of-range keypoint {kp_idx}")

    def point(self, pid: int) -> WorldPoint:
        return self._point_by_id[pid]

    def image(self, image_id: int) -> ModelImage:
        for img in self.images:
            if img.id == image_id:
                return img
        raise KeyError(f"no model image with id {image_id}")

    def extent(self) -> float:
        """Diagonal of the world-point bounding box, in scene units."""
        if not self.points:
            return 0.0
        xyz = np.stack([p.xyz for p in self.points])
        return float(np.linalg.norm(xyz.max(axis=0) - xyz.min(axis=0)))


@dataclass(eq=False)
class SequenceFrame:
    """One query video frame; raster and precomputed keypoints are optional.

    Precomputed keypoints are a table; this and `ModelImage` are the only
    entries that also take a list of Keypoints, which becomes a table here.
    """

    timestamp: float
    intrinsics: Intrinsics
    image: GrayImage | None = None
    keypoints: KeypointTable | None = None
    gt_pose: Pose | None = None

    def __post_init__(self):
        if self.keypoints is not None:
            self.keypoints = as_table(self.keypoints)


@dataclass(eq=False)
class Sequence:
    frames: list[SequenceFrame]

    def __post_init__(self):
        ts = [f.timestamp for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise CorruptTable("frame timestamps must increase strictly")

    def __len__(self) -> int:
        return len(self.frames)
