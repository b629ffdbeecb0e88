"""Keypoint tables, their row views, and array accessors.

A `KeypointTable` stores a set of keypoints as read-only columns, checked
once per table; it is the one keypoint type library functions take, from
detection through contexts, tracking, matching and files. A `Keypoint` is
one keypoint on its own: indexing or iterating a table yields Keypoints
whose descriptor and context are views of the table's rows. A list of
Keypoints becomes a table only on entry, in `ModelImage` and
`SequenceFrame`, through `as_table`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from ..geometry import PixelPoint
from .image import frozen

DESCRIPTOR_DIM = 128


@dataclass(frozen=True, eq=False)
class Keypoint:
    """A detected image feature.

    pos          sub-pixel location
    scale        characteristic radius in pixels at full resolution
    orientation  dominant gradient direction, radians in [0, 2*pi)
    descriptor   L2-normalized 128-vector (float32)
    context      region descriptor vector (float32), None until attached

    Descriptor and context are read-only. A Keypoint read from a
    `KeypointTable` is a row view: they are views of the table's columns,
    which store the data (and may in turn be views of a loaded file, see
    `egoreg.io`). A Keypoint built directly checks its values and copies
    arrays a caller can still write.
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
            object.__setattr__(self, "context", frozen(c, self.context))

    def with_context(self, context: np.ndarray | None) -> "Keypoint":
        return replace(self, context=context)


def _row_view(u: float, v: float, scale: float, orientation: float,
              descriptor: np.ndarray, context: np.ndarray | None) -> Keypoint:
    """A Keypoint over values a table has already checked."""
    kp = object.__new__(Keypoint)
    kp.__dict__.update(pos=PixelPoint(u, v), scale=scale, orientation=orientation,
                       descriptor=descriptor, context=context)
    return kp


def _column(name: str, values, dtype, ndim: int, width: int | None = None) -> np.ndarray:
    """A read-only column of `ndim` dimensions, `width` wide unless None."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != ndim or (width is not None and arr.shape[1] != width):
        shape = "(n,)" if ndim == 1 else f"(n, {'w' if width is None else width})"
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return frozen(arr, values)


@dataclass(frozen=True, eq=False)
class KeypointTable:
    """n keypoints as columns; the table stores the data.

    xy           (n, 2) float64 sub-pixel (u, v) positions
    scale        (n,) float64, positive
    orientation  (n,) float64 radians
    descriptors  (n, 128) float32
    contexts     (n, w) float32 of any width w (8256 from `attach_context`),
                 or None when the keypoints have none

    Columns are read-only to this process. The constructor checks shapes
    and scales once for the whole table and copies a column only when its
    caller can still write it; a loaded table's descriptor and context
    columns stay views of the mapped file, so another writer that rewrites
    that file in place changes them (see `egoreg.io`), and `adopt` takes
    arrays a producer has just made. `len`, indexing and iteration see the
    rows as `Keypoint` row views; a slice or `take` selects rows as a new
    table.
    """

    xy: np.ndarray
    scale: np.ndarray
    orientation: np.ndarray
    descriptors: np.ndarray
    contexts: np.ndarray | None = None

    def __post_init__(self):
        cols = {"xy": _column("xy", self.xy, np.float64, 2, 2),
                "scale": _column("scale", self.scale, np.float64, 1),
                "orientation": _column("orientation", self.orientation, np.float64, 1),
                "descriptors": _column("descriptors", self.descriptors, np.float32, 2,
                                       DESCRIPTOR_DIM)}
        if self.contexts is not None:
            cols["contexts"] = _column("contexts", self.contexts, np.float32, 2)
        n = len(cols["xy"])
        if any(len(col) != n for col in cols.values()):
            raise ValueError("columns differ in length")
        if (cols["scale"] <= 0.0).any():
            raise ValueError("scale must be positive")
        for name, col in cols.items():
            object.__setattr__(self, name, col)

    @classmethod
    def adopt(cls, xy: np.ndarray, scale: np.ndarray, orientation: np.ndarray,
              descriptors: np.ndarray, contexts: np.ndarray | None = None) -> "KeypointTable":
        """A table over arrays the caller has just made and will not write:
        they are made read-only in place instead of being copied."""
        for col in (xy, scale, orientation, descriptors, contexts):
            if col is not None:
                col.flags.writeable = False
        return cls(xy, scale, orientation, descriptors, contexts)

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]  # IndexError past either end
        u, v = self.xy[i].tolist()
        return _row_view(u, v, self.scale[i].item(), self.orientation[i].item(),
                         self.descriptors[i],
                         None if self.contexts is None else self.contexts[i])

    def __iter__(self) -> Iterator[Keypoint]:
        ctx = [None] * len(self) if self.contexts is None else self.contexts
        for (u, v), s, o, d, c in zip(self.xy.tolist(), self.scale.tolist(),
                                      self.orientation.tolist(), self.descriptors, ctx):
            yield _row_view(u, v, s, o, d, c)

    def take(self, rows) -> "KeypointTable":
        """The given rows in the given order; the table itself when every
        row is kept in order."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if len(rows) == len(self) and np.array_equal(rows, np.arange(len(self))):
            return self
        return KeypointTable.adopt(
            self.xy[rows], self.scale[rows], self.orientation[rows], self.descriptors[rows],
            None if self.contexts is None else self.contexts[rows])


def as_table(kps: KeypointTable | Iterable[Keypoint]) -> KeypointTable:
    """`kps` as a table: a table as it is, Keypoints stacked once.

    The table has contexts only when every Keypoint has one, as a saved
    table does.
    """
    if isinstance(kps, KeypointTable):
        return kps
    kps = list(kps)
    n = len(kps)
    descs = (np.stack([kp.descriptor for kp in kps]) if kps
             else np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32))
    have_ctx = bool(kps) and all(kp.context is not None for kp in kps)
    return KeypointTable.adopt(
        np.array([(kp.pos.u, kp.pos.v) for kp in kps], dtype=np.float64).reshape(n, 2),
        np.array([kp.scale for kp in kps], dtype=np.float64),
        np.array([kp.orientation for kp in kps], dtype=np.float64),
        descs, np.stack([kp.context for kp in kps]) if have_ctx else None)


def descriptors(table: KeypointTable) -> np.ndarray:
    """(n, 128) float64 copy of the descriptors."""
    return table.descriptors.astype(np.float64)


def contexts(table: KeypointTable) -> np.ndarray:
    """(n, w) float32 context column, read-only; raises if contexts are missing.

    Context kernels take their pairwise product in float32 (see
    `embedding.gaussian_kernel`) on a centred copy, `contexts(table) - mu`,
    which is a new aligned array even where the column is an unaligned
    view of a file; descriptors stay float64 because their 128-column
    product is cheap next to the 8256-column one.
    """
    if table.contexts is None:
        raise ValueError("keypoint without an attached context")
    return table.contexts
