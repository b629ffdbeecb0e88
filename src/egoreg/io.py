"""Binary file formats for models, sequences, retrieval indexes, pruners.

All multi-byte values are little-endian. Geometry (points, poses, keypoint
tables) is stored as 64-bit floats; descriptor, context, and raster blobs
as 32-bit floats, which keeps multi-megabyte context tables compact.
Save -> load round-trips are bitwise exact for data that is already
float32-valued where the format stores float32.

A load maps a regular file read-only (`mmap.ACCESS_READ`) and closes the
file (the mapping keeps a descriptor of its own until it is unmapped). It
copies no keypoint table out of the mapping: each loads as one
`KeypointTable`, checked once, whose descriptor and context columns are
read-only views of the mapping (its small geometry columns are copied
out), and the `Keypoint` rows a table yields are views of those views.
The retrieval index's tables are views the same way. A model's world
points load as one `PointTable`, copied out of their 28-byte records.
Rasters load as `GrayImage`s that store read-only float32 views of the
mapping, so a load makes no bulk copy; an image's float64 pixels are made
on their first use, and a save writes the stored float32 values as they
are. A page of the file counts toward resident memory only once it is
read. The mapping stays alive, with one open file descriptor, while any
view of it does (or the traceback of a failed load); when the last goes,
the file is unmapped and its pages are given back. A file that cannot be
mapped (an empty file, which mmap refuses, or a pipe or device, which
report no size) is read whole into memory instead, so an empty file fails
the header check like any other short file. A float32 column starts one
byte after a flags field, so it is unaligned; the context kernels read it
through a centred copy.

"Read-only" means read-only to this process. A file must never be
rewritten in place while a load of it is alive, by this process or any
other (`cp` over it, `rsync --inplace`): the loaded tables would change
under their readers, and a read of a page the rewrite truncated away
kills the process with SIGBUS. Replacing the file by a rename is safe.

Saves here never rewrite in place. A save streams its parts, one table at
a time and each column as it is stored, to a new file in the directory of
the target (symlinks resolved, so a link keeps pointing at the saved
file), and then `os.replace`s the target with it. A live load keeps
reading the file it mapped, and a reader of the path sees the old file or
the new one whole. The new file gets the mode of the file it replaces, or
that of a plain `open(path, "wb")` (0666 less the umask) when there was
none; being new, it is owned by the saving user and shares no hard links
of the old one. A save checks what it can refuse (a point id that does not
fit 32 bits, contexts that are not CONTEXT_DIM wide, which v1 could not
read back) before it writes a byte; a save that fails part-way deletes its
temporary file and leaves the target as it was. A target that exists and
is not a regular file (a device, a FIFO) is written through in place, as
`open(path, "wb")` would, so a refused save sends it no byte. Nothing is
fsynced: the replace is atomic for readers, not across a power loss.
"""

from __future__ import annotations

import json
import mmap
import os
import stat
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import BadMagic, CorruptTable, DimensionMismatch, VersionUnsupported
from .features import CONTEXT_DIM, DESCRIPTOR_DIM, GrayImage, KeypointTable
from .geometry import Intrinsics, Pose
from .model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame
from .retrieval import InvertedIndex, Vocabulary
from .sequence import FEATURE_DIM, LinearPruner

MODEL_MAGIC = b"EMRG"
SEQUENCE_MAGIC = b"ESEQ"
INDEX_MAGIC = b"ERIX"
FORMAT_VERSION = 1

# keypoint tables: which per-keypoint float32 tables follow
_FLAG_DESCRIPTORS = 1
_FLAG_CONTEXTS = 2
# sequence frames: which optional parts follow
_FRAME_RASTER = 1
_FRAME_KEYPOINTS = 2
_FRAME_GT_POSE = 8

# one world point: its id and (x, y, z)
_POINT_RECORD = np.dtype([("id", "<u4"), ("xyz", "<f8", 3)])


class _Reader:
    """Reads a file's bytes in order, at offsets into its one mapping."""

    def __init__(self, path: str | Path):
        with open(path, "rb") as f:
            # mmap refuses an empty file, and a pipe or device has no size
            st = os.fstat(f.fileno())
            self.data = (mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                         if stat.S_ISREG(st.st_mode) and st.st_size else f.read())
        self.off = 0
        self.path = str(path)

    def skip(self, n: int) -> int:
        """Move past the next `n` bytes and return the offset they start at."""
        if self.off + n > len(self.data):
            raise CorruptTable(
                f"{self.path}: needed {n} bytes at offset {self.off}, "
                f"file has {len(self.data)}")
        self.off += n
        return self.off - n

    def take(self, n: int) -> bytes:
        off = self.skip(n)
        return self.data[off:off + n]

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """The next `count` values, as a read-only view of the file."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.data, dtype, count, self.skip(dtype.itemsize * count))

    def done(self):
        if self.off != len(self.data):
            raise CorruptTable(
                f"{self.path}: {len(self.data) - self.off} trailing bytes at offset {self.off}")


def _check_header(r: _Reader, magic: bytes):
    got = r.take(4)
    if got != magic:
        raise BadMagic(f"{r.path}: expected magic {magic!r}, got {got!r}")
    (version,) = r.unpack("I")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{r.path}: format version {version} is not supported")


def _pack_pose(pose: Pose) -> bytes:
    return np.concatenate([pose.R.reshape(9), pose.t]).astype("<f8").tobytes()


def _read_pose(r: _Reader) -> Pose:
    vals = r.array("<f8", 12)
    try:
        return Pose(vals[:9].reshape(3, 3), vals[9:])
    except ValueError as exc:
        raise CorruptTable(f"{r.path}: invalid pose near offset {r.off}: {exc}") from exc


def _pack_intrinsics(k: Intrinsics) -> bytes:
    return struct.pack("<4d2I", k.fx, k.fy, k.cx, k.cy, k.width, k.height)


def _read_intrinsics(r: _Reader) -> Intrinsics:
    fx, fy, cx, cy, w, h = r.unpack("4d2I")
    try:
        return Intrinsics(fx, fy, cx, cy, w, h)
    except ValueError as exc:
        raise CorruptTable(f"{r.path}: invalid intrinsics near offset {r.off}: {exc}") from exc


def _table(values, dtype) -> memoryview:
    """The bytes of `values` as a contiguous little-endian table, copied only
    when they are not one already."""
    return memoryview(np.ascontiguousarray(values, dtype=dtype))


def _check_context_widths(tables: Iterable[KeypointTable | None]) -> None:
    """Refuse contexts v1 cannot read back, before a save writes its first byte.

    v1 stores no width; a load reads CONTEXT_DIM values a row.
    """
    for kps in tables:
        if kps is None or not len(kps) or kps.contexts is None:
            continue
        if kps.contexts.shape[1] != CONTEXT_DIM:
            raise DimensionMismatch(f"format v1 stores contexts {CONTEXT_DIM} wide, "
                                    f"got {kps.contexts.shape[1]}")


def _pack_keypoints(kps: KeypointTable) -> Iterator[bytes | memoryview]:
    n = len(kps)
    yield struct.pack("<I", n)
    # rows of (u, v, scale, orientation)
    yield _table(np.column_stack([kps.xy, kps.scale, kps.orientation]), "<f8")
    have_ctx = n > 0 and kps.contexts is not None
    yield struct.pack("<B", (_FLAG_DESCRIPTORS if n else 0) | (_FLAG_CONTEXTS if have_ctx else 0))
    if n:
        yield _table(kps.descriptors, "<f4")
    if have_ctx:
        yield _table(kps.contexts, "<f4")


def _read_keypoints(r: _Reader) -> KeypointTable:
    (n,) = r.unpack("I")
    geo = r.array("<f8", 4 * n).reshape(n, 4)
    (flags,) = r.unpack("B")
    descs = np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32)
    ctxs = None
    if flags & _FLAG_DESCRIPTORS:
        descs = r.array("<f4", n * DESCRIPTOR_DIM).reshape(n, DESCRIPTOR_DIM)
    elif n:
        raise CorruptTable(f"{r.path}: keypoint table without descriptors")
    if flags & _FLAG_CONTEXTS:
        ctxs = r.array("<f4", n * CONTEXT_DIM).reshape(n, CONTEXT_DIM)
    try:
        return KeypointTable.adopt(geo[:, :2].copy(), geo[:, 2].copy(), geo[:, 3].copy(),
                                   descs, ctxs)
    except ValueError as exc:
        raise CorruptTable(f"{r.path}: invalid keypoint table: {exc}") from exc


def _pack_raster(img: GrayImage | None) -> Iterator[bytes | memoryview]:
    yield struct.pack("<B", img is not None)
    if img is not None:
        yield from _pack_raster_body(img)


def _pack_raster_body(img: GrayImage) -> Iterator[bytes | memoryview]:
    """Size and float32 pixels of a raster known to be present."""
    yield struct.pack("<2I", img.height, img.width)
    yield _table(img.stored, "<f4")


def _read_raster(r: _Reader) -> GrayImage | None:
    (have,) = r.unpack("B")
    return _read_raster_body(r) if have else None


def _read_raster_body(r: _Reader) -> GrayImage:
    """Size, float32 pixels and validation of a raster known to be present."""
    h, w = r.unpack("2I")
    if h == 0 or w == 0 or h * w > 1 << 28:
        raise CorruptTable(f"{r.path}: implausible raster size {w}x{h}")
    try:
        return GrayImage(r.array("<f4", h * w).reshape(h, w))
    except ValueError as exc:
        raise CorruptTable(f"{r.path}: invalid raster: {exc}") from exc


def _write(path: str | Path, parts: Iterable[bytes | memoryview]) -> None:
    """Write `parts` to a new file beside `path`, then replace `path` with it
    (a target that is not a regular file is written through in place)."""
    path = Path(os.path.realpath(path))
    try:
        old_mode = os.stat(path).st_mode
    except FileNotFoundError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with open(path, "wb") as f:
            f.writelines(parts)
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    # a new file's mode is a plain open's; a replaced file's is set before
    # any byte is written, so the data is never readable more widely
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                 0o666 if old_mode is None else 0o600)
    try:
        with open(fd, "wb") as f:
            if old_mode is not None:
                os.fchmod(f.fileno(), stat.S_IMODE(old_mode))
            f.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _model_parts(model: Model3D) -> Iterator[bytes | memoryview]:
    ids = model.points.ids
    # assigning the column would wrap an id outside 32 bits silently
    if len(ids) and (ids.min() < 0 or ids.max() > np.iinfo(np.uint32).max):
        raise OverflowError(f"world point ids {ids.min()}..{ids.max()} do not fit 32 bits")
    _check_context_widths(img.keypoints for img in model.images)
    records = np.empty(len(ids), dtype=_POINT_RECORD)
    records["id"], records["xyz"] = ids, model.points.xyz
    yield MODEL_MAGIC
    yield struct.pack("<I", FORMAT_VERSION)
    yield struct.pack("<2I", len(ids), len(model.images))
    yield memoryview(records)
    for img in model.images:
        yield struct.pack("<I", img.id)
        yield _pack_pose(img.pose)
        yield _pack_intrinsics(img.intrinsics)
        yield from _pack_keypoints(img.keypoints)
        yield struct.pack("<I", len(img.links))
        yield memoryview(np.array(sorted(img.links.items()), dtype="<u4"))
        yield from _pack_raster(img.raster)


def save_model(model: Model3D, path: str | Path) -> None:
    _write(path, _model_parts(model))


def load_model(path: str | Path) -> Model3D:
    r = _Reader(path)
    _check_header(r, MODEL_MAGIC)
    n_points, n_images = r.unpack("2I")
    records = r.array(_POINT_RECORD, n_points)
    images = []
    for _ in range(n_images):
        (iid,) = r.unpack("I")
        pose = _read_pose(r)
        intr = _read_intrinsics(r)
        kps = _read_keypoints(r)
        (n_links,) = r.unpack("I")
        links = dict(r.array("<u4", 2 * n_links).reshape(n_links, 2).tolist())
        raster = _read_raster(r)
        images.append(ModelImage(iid, pose, intr, kps, links, raster))
    r.done()
    try:
        return Model3D(PointTable(records["id"], records["xyz"]), images)
    except CorruptTable as exc:
        raise CorruptTable(f"{path}: {exc}") from exc


def _sequence_parts(seq: Sequence) -> Iterator[bytes | memoryview]:
    _check_context_widths(fr.keypoints for fr in seq.frames)
    yield SEQUENCE_MAGIC
    yield struct.pack("<I", FORMAT_VERSION)
    yield struct.pack("<I", len(seq.frames))
    for fr in seq.frames:
        yield struct.pack("<d", fr.timestamp)
        yield _pack_intrinsics(fr.intrinsics)
        flags = 0
        if fr.image is not None:
            flags |= _FRAME_RASTER
        if fr.keypoints is not None:
            flags |= _FRAME_KEYPOINTS
        if fr.gt_pose is not None:
            flags |= _FRAME_GT_POSE
        yield struct.pack("<B", flags)
        if fr.image is not None:
            yield from _pack_raster_body(fr.image)
        if fr.keypoints is not None:
            yield from _pack_keypoints(fr.keypoints)
        if fr.gt_pose is not None:
            yield _pack_pose(fr.gt_pose)


def save_sequence(seq: Sequence, path: str | Path) -> None:
    _write(path, _sequence_parts(seq))


def load_sequence(path: str | Path) -> Sequence:
    r = _Reader(path)
    _check_header(r, SEQUENCE_MAGIC)
    (n_frames,) = r.unpack("I")
    frames = []
    for _ in range(n_frames):
        (ts,) = r.unpack("d")
        intr = _read_intrinsics(r)
        (flags,) = r.unpack("B")
        image = _read_raster_body(r) if flags & _FRAME_RASTER else None
        kps = _read_keypoints(r) if flags & _FRAME_KEYPOINTS else None
        gt = _read_pose(r) if flags & _FRAME_GT_POSE else None
        frames.append(SequenceFrame(ts, intr, image, kps, gt))
    r.done()
    try:
        return Sequence(frames)
    except CorruptTable as exc:
        raise CorruptTable(f"{path}: {exc}") from exc


def save_index(vocab: Vocabulary, index: InvertedIndex, path: str | Path) -> None:
    k, d = vocab.centers.shape
    _write(path, [
        INDEX_MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<2I", k, d),
        _table(vocab.centers, "<f8"), _table(index.idf, "<f8"),
        struct.pack("<I", len(index.image_ids)), _table(index.image_ids, "<u4"),
        _table(index.vectors, "<f8"),
    ])


def load_index(path: str | Path) -> tuple[Vocabulary, InvertedIndex]:
    r = _Reader(path)
    _check_header(r, INDEX_MAGIC)
    k, d = r.unpack("2I")
    if k < 2 or d == 0 or k * d > 1 << 28:
        raise CorruptTable(f"{path}: implausible vocabulary shape {k}x{d}")
    centers = r.array("<f8", k * d).reshape(k, d)
    idf = r.array("<f8", k)
    (n_images,) = r.unpack("I")
    ids = r.array("<u4", n_images).astype(int).tolist()
    vectors = r.array("<f8", n_images * k).reshape(n_images, k)
    r.done()
    try:
        return Vocabulary(centers), InvertedIndex(ids, vectors, idf)
    except ValueError as exc:
        raise CorruptTable(f"{path}: {exc}") from exc


def save_pruner(pruner: LinearPruner, path: str | Path) -> None:
    payload = {
        "weights": [float(x) for x in pruner.weights],
        "bias": float(pruner.bias),
        "threshold": float(pruner.threshold),
    }
    _write(path, [(json.dumps(payload, sort_keys=True, indent=0) + "\n").encode()])


def load_pruner(path: str | Path) -> LinearPruner:
    try:
        payload = json.loads(Path(path).read_text())
        weights = np.asarray(payload["weights"], dtype=np.float64)
        pruner = LinearPruner(weights, float(payload["bias"]), float(payload["threshold"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptTable(f"{path}: invalid pruner file: {exc}") from exc
    if pruner.weights.shape[0] != FEATURE_DIM:
        raise CorruptTable(f"{path}: pruner weights must have length {FEATURE_DIM}")
    return pruner
