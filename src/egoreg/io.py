"""Binary file formats for models, sequences, retrieval indexes, pruners.

All multi-byte values are little-endian. Geometry (points, poses, keypoint
tables) is stored as 64-bit floats; descriptor, context, and raster blobs
as 32-bit floats, which keeps multi-megabyte context tables compact.
Save -> load round-trips are bitwise exact for data that is already
float32-valued where the format stores float32.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, CorruptTable, VersionUnsupported
from .features import CONTEXT_DIM, DESCRIPTOR_DIM, GrayImage, Keypoint
from .geometry import Intrinsics, PixelPoint, Pose, WorldPoint
from .model import Model3D, ModelImage, Sequence, SequenceFrame
from .retrieval import InvertedIndex, Vocabulary
from .sequence import FEATURE_DIM, LinearPruner

MODEL_MAGIC = b"EMRG"
SEQUENCE_MAGIC = b"ESEQ"
INDEX_MAGIC = b"ERIX"
FORMAT_VERSION = 1

_FLAG_DESCRIPTORS = 1
_FLAG_CONTEXTS = 2
_FLAG_RASTER = 4
_FLAG_KEYPOINTS = 2  # sequence frames
_FLAG_GT_POSE = 8


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise CorruptTable(
                f"{self.path}: needed {n} bytes at offset {self.off}, "
                f"file has {len(self.data)}")
        chunk = self.data[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        nbytes = int(np.dtype(dtype).itemsize) * count
        return np.frombuffer(self.take(nbytes), dtype=dtype).copy()

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


def _pack_keypoints(kps: list[Keypoint]) -> bytes:
    parts = [struct.pack("<I", len(kps))]
    geo = np.array(
        [[kp.pos.u, kp.pos.v, kp.scale, kp.orientation] for kp in kps],
        dtype="<f8").reshape(len(kps), 4)
    parts.append(geo.tobytes())
    have_desc = bool(kps)
    have_ctx = bool(kps) and all(kp.context is not None for kp in kps)
    flags = (_FLAG_DESCRIPTORS if have_desc else 0) | (_FLAG_CONTEXTS if have_ctx else 0)
    parts.append(struct.pack("<B", flags))
    if have_desc:
        parts.append(np.stack([kp.descriptor for kp in kps]).astype("<f4").tobytes())
    if have_ctx:
        parts.append(np.stack([kp.context for kp in kps]).astype("<f4").tobytes())
    return b"".join(parts)


def _read_keypoints(r: _Reader) -> list[Keypoint]:
    (n,) = r.unpack("I")
    geo = r.array("<f8", 4 * n).reshape(n, 4)
    (flags,) = r.unpack("B")
    descs = None
    ctxs = None
    if flags & _FLAG_DESCRIPTORS:
        descs = r.array("<f4", n * DESCRIPTOR_DIM).reshape(n, DESCRIPTOR_DIM)
    if flags & _FLAG_CONTEXTS:
        ctxs = r.array("<f4", n * CONTEXT_DIM).reshape(n, CONTEXT_DIM)
    kps = []
    for i in range(n):
        if descs is None:
            raise CorruptTable(f"{r.path}: keypoint table without descriptors")
        try:
            kps.append(Keypoint(
                PixelPoint(float(geo[i, 0]), float(geo[i, 1])),
                float(geo[i, 2]), float(geo[i, 3]),
                descs[i], ctxs[i] if ctxs is not None else None))
        except ValueError as exc:
            raise CorruptTable(f"{r.path}: invalid keypoint {i}: {exc}") from exc
    return kps


def _pack_raster(img: GrayImage | None) -> bytes:
    if img is None:
        return struct.pack("<B", 0)
    return struct.pack("<B", 1) + _pack_raster_body(img)


def _pack_raster_body(img: GrayImage) -> bytes:
    """Size and float32 pixels of a raster known to be present."""
    return struct.pack("<2I", img.height, img.width) + img.pixels.astype("<f4").tobytes()


def _read_raster(r: _Reader) -> GrayImage | None:
    (have,) = r.unpack("B")
    return _read_raster_body(r) if have else None


def _read_raster_body(r: _Reader) -> GrayImage:
    """Size, float32 pixels and validation of a raster known to be present."""
    h, w = r.unpack("2I")
    if h == 0 or w == 0 or h * w > 1 << 28:
        raise CorruptTable(f"{r.path}: implausible raster size {w}x{h}")
    px = r.array("<f4", h * w).reshape(h, w).astype(np.float64)
    try:
        return GrayImage(px)
    except ValueError as exc:
        raise CorruptTable(f"{r.path}: invalid raster: {exc}") from exc


def save_model(model: Model3D, path: str | Path) -> None:
    parts = [MODEL_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    parts.append(struct.pack("<2I", len(model.points), len(model.images)))
    for p in model.points:
        parts.append(struct.pack("<I", p.id) + p.xyz.astype("<f8").tobytes())
    for img in model.images:
        parts.append(struct.pack("<I", img.id))
        parts.append(_pack_pose(img.pose))
        parts.append(_pack_intrinsics(img.intrinsics))
        parts.append(_pack_keypoints(img.keypoints))
        parts.append(struct.pack("<I", len(img.links)))
        for kp_idx in sorted(img.links):
            parts.append(struct.pack("<2I", kp_idx, img.links[kp_idx]))
        parts.append(_pack_raster(img.raster))
    Path(path).write_bytes(b"".join(parts))


def load_model(path: str | Path) -> Model3D:
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r, MODEL_MAGIC)
    n_points, n_images = r.unpack("2I")
    points = []
    for _ in range(n_points):
        (pid,) = r.unpack("I")
        xyz = r.array("<f8", 3)
        points.append(WorldPoint(pid, xyz))
    images = []
    for _ in range(n_images):
        (iid,) = r.unpack("I")
        pose = _read_pose(r)
        intr = _read_intrinsics(r)
        kps = _read_keypoints(r)
        (n_links,) = r.unpack("I")
        links = {}
        for _ in range(n_links):
            kp_idx, pid = r.unpack("2I")
            links[kp_idx] = pid
        raster = _read_raster(r)
        images.append(ModelImage(iid, pose, intr, kps, links, raster))
    r.done()
    try:
        return Model3D(points, images)
    except CorruptTable as exc:
        raise CorruptTable(f"{path}: {exc}") from exc


def save_sequence(seq: Sequence, path: str | Path) -> None:
    parts = [SEQUENCE_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    parts.append(struct.pack("<I", len(seq.frames)))
    for fr in seq.frames:
        parts.append(struct.pack("<d", fr.timestamp))
        parts.append(_pack_intrinsics(fr.intrinsics))
        flags = 0
        if fr.image is not None:
            flags |= 1
        if fr.keypoints is not None:
            flags |= _FLAG_KEYPOINTS
        if fr.gt_pose is not None:
            flags |= _FLAG_GT_POSE
        parts.append(struct.pack("<B", flags))
        if fr.image is not None:
            parts.append(_pack_raster_body(fr.image))
        if fr.keypoints is not None:
            parts.append(_pack_keypoints(fr.keypoints))
        if fr.gt_pose is not None:
            parts.append(_pack_pose(fr.gt_pose))
    Path(path).write_bytes(b"".join(parts))


def load_sequence(path: str | Path) -> Sequence:
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r, SEQUENCE_MAGIC)
    (n_frames,) = r.unpack("I")
    frames = []
    for _ in range(n_frames):
        (ts,) = r.unpack("d")
        intr = _read_intrinsics(r)
        (flags,) = r.unpack("B")
        image = _read_raster_body(r) if flags & 1 else None
        kps = _read_keypoints(r) if flags & _FLAG_KEYPOINTS else None
        gt = _read_pose(r) if flags & _FLAG_GT_POSE else None
        frames.append(SequenceFrame(ts, intr, image, kps, gt))
    r.done()
    try:
        return Sequence(frames)
    except CorruptTable as exc:
        raise CorruptTable(f"{path}: {exc}") from exc


def save_index(vocab: Vocabulary, index: InvertedIndex, path: str | Path) -> None:
    parts = [INDEX_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    k, d = vocab.centers.shape
    parts.append(struct.pack("<2I", k, d))
    parts.append(vocab.centers.astype("<f8").tobytes())
    parts.append(index.idf.astype("<f8").tobytes())
    parts.append(struct.pack("<I", len(index.image_ids)))
    parts.append(np.asarray(index.image_ids, dtype="<u4").tobytes())
    parts.append(index.vectors.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_index(path: str | Path) -> tuple[Vocabulary, InvertedIndex]:
    r = _Reader(Path(path).read_bytes(), str(path))
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
    return Vocabulary(centers), InvertedIndex(ids, vectors, idf)


def save_pruner(pruner: LinearPruner, path: str | Path) -> None:
    payload = {
        "weights": [float(x) for x in pruner.weights],
        "bias": float(pruner.bias),
        "threshold": float(pruner.threshold),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=0) + "\n")


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
