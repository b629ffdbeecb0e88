"""Camera geometry primitives: intrinsics, rigid poses, projection.

Conventions: poses map world coordinates into camera coordinates,
x_cam = R @ x_world + t, with the camera looking down +z. Pixel
coordinates are (u, v) with u along image columns and v along rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class PixelPoint:
    u: float
    v: float


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera parameters in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]],
            dtype=np.float64,
        )

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera rigid transform: x_cam = R @ x_world + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64).reshape(3, 3).copy()
        t = np.asarray(self.t, dtype=np.float64).reshape(3).copy()
        if np.linalg.norm(R.T @ R - np.eye(3)) > ORTHONORMALITY_TOL:
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError("det(R) must be +1")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def center(self) -> np.ndarray:
        """Camera position in world coordinates, -R^T t."""
        return -self.R.T @ self.t

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        """Transform (n, 3) or (3,) world coordinates into camera coordinates."""
        xyz = np.asarray(xyz, dtype=np.float64)
        return xyz @ self.R.T + self.t


def project_many(xyz: np.ndarray, pose: Pose, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project an (n, 3) array of world points.

    Returns ((n, 2) pixel coordinates, (n,) camera depths). Rows with
    non-positive depth carry meaningless pixels; callers filter on depth.
    """
    cam = pose.apply(np.atleast_2d(xyz))
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack(
            [k.fx * cam[:, 0] / z + k.cx, k.fy * cam[:, 1] / z + k.cy], axis=1
        )
    return uv, z
