"""In-memory containers for 3D models and query sequences.

A model's world points are one `PointTable` of columns, and `Model3D`
checks each image's links against it as arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptTable
from .features import GrayImage, KeypointTable, as_table
from .geometry import Intrinsics, Pose


@dataclass(frozen=True, eq=False)
class PointTable:
    """n world points as read-only columns copied in: unique int64 `ids`
    (n,) and float64 `xyz` (n, 3). The ids are sorted once, for `rows`."""

    ids: np.ndarray
    xyz: np.ndarray

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64).reshape(-1)
        order = np.argsort(ids)
        if (np.diff(ids[order]) == 0).any():
            raise CorruptTable("duplicate world point ids")
        xyz = np.array(self.xyz, dtype=np.float64).reshape(len(ids), 3)
        for name, col in (("ids", ids), ("xyz", xyz), ("_order", order)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids) -> np.ndarray:
        """The row of each of `ids`, -1 where the table has no such id."""
        ids = np.asarray(ids, dtype=np.int64)
        if not len(self):
            return np.full(ids.shape, -1)
        pos = np.searchsorted(self.ids, ids, sorter=self._order)
        rows = self._order[np.minimum(pos, len(self) - 1)]
        return np.where(self.ids[rows] == ids, rows, -1)


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
    """A point cloud with the registered images it was built from.

    Image ids are unique, and every link names a keypoint of its image and
    a point of the table; CorruptTable otherwise.
    """

    points: PointTable
    images: list[ModelImage]

    def __post_init__(self):
        dup = sorted(i for i, n in Counter(img.id for img in self.images).items() if n > 1)
        if dup:
            raise CorruptTable(f"duplicate model image ids {dup}")
        for img in self.images:
            n = len(img.links)
            kp_idx = np.fromiter(img.links, np.int64, n)
            pids = np.fromiter(img.links.values(), np.int64, n)
            missing = self.points.rows(pids) < 0
            bad = np.flatnonzero(missing | (kp_idx < 0) | (kp_idx >= len(img.keypoints)))
            if not bad.size:
                continue
            i = bad[0]  # the first bad link, in link order
            if missing[i]:
                raise CorruptTable(
                    f"image {img.id} links keypoint {kp_idx[i]} to missing point {pids[i]}")
            raise CorruptTable(f"image {img.id} links out-of-range keypoint {kp_idx[i]}")

    def image(self, image_id: int) -> ModelImage:
        for img in self.images:
            if img.id == image_id:
                return img
        raise KeyError(f"no model image with id {image_id}")


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
