import mmap
import os
import re
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import egoreg
from conftest import random_pose
from egoreg.errors import (
    BadMagic,
    CorruptTable,
    DimensionMismatch,
    SizeMismatch,
    VersionUnsupported,
)
from egoreg.features import CONTEXT_DIM, DESCRIPTOR_DIM, GrayImage, Keypoint, KeypointTable
from egoreg.features.image import frozen
from egoreg.geometry import Intrinsics, PixelPoint
from egoreg.io import (
    load_index,
    load_model,
    load_pruner,
    load_sequence,
    save_index,
    save_model,
    save_pruner,
    save_sequence,
)
from egoreg.model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame
from egoreg.retrieval import InvertedIndex, Vocabulary
from egoreg.sequence import FEATURE_DIM, LinearPruner, optical_flow, track_keypoints


def make_keypoint(rng, with_context=True):
    desc = rng.random(DESCRIPTOR_DIM).astype(np.float32)
    ctx = rng.random(CONTEXT_DIM).astype(np.float32) if with_context else None
    return Keypoint(
        PixelPoint(float(rng.uniform(0, 320)), float(rng.uniform(0, 240))),
        float(rng.uniform(1, 8)),
        float(rng.uniform(-np.pi, np.pi)),
        desc,
        ctx,
    )


def make_model(rng, with_context=True, with_raster=True, n_keypoints=4):
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    points = PointTable(np.arange(6), [rng.normal(size=3) for _ in range(6)])
    images = []
    for iid in range(2):
        kps = [make_keypoint(rng, with_context) for _ in range(n_keypoints)]
        links = {0: 2, 3: 5}
        raster = GrayImage(rng.random((24, 32), dtype=np.float32)) if with_raster else None
        images.append(ModelImage(iid, random_pose(rng), intr, kps, links, raster))
    return Model3D(points, images)


def assert_keypoints_equal(a, b):
    assert len(a) == len(b)
    for ka, kb in zip(a, b):
        assert ka.pos.u == kb.pos.u and ka.pos.v == kb.pos.v
        assert ka.scale == kb.scale and ka.orientation == kb.orientation
        assert np.array_equal(ka.descriptor, kb.descriptor)
        if ka.context is None:
            assert kb.context is None
        else:
            assert np.array_equal(ka.context, kb.context)


# ------------------------------------------------------------------- model


def test_model_round_trip_bitwise(rng, tmp_path):
    model = make_model(rng)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.points.ids.tolist() == model.points.ids.tolist()
    assert loaded.points.xyz.tobytes() == model.points.xyz.tobytes()
    for ia, ib in zip(model.images, loaded.images):
        assert ia.id == ib.id
        assert np.array_equal(ia.pose.R, ib.pose.R)
        assert np.array_equal(ia.pose.t, ib.pose.t)
        assert ia.links == ib.links
        assert_keypoints_equal(ia.keypoints, ib.keypoints)
        assert np.array_equal(ia.raster.pixels, ib.raster.pixels)


def test_model_round_trip_without_optionals(rng, tmp_path):
    model = make_model(rng, with_context=False, with_raster=False)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.images[0].raster is None
    assert loaded.images[0].keypoints[0].context is None


def test_model_save_is_deterministic(rng, tmp_path):
    model = make_model(rng)
    save_model(model, tmp_path / "a.bin")
    save_model(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_model_rejects_wrong_magic(rng, tmp_path):
    path = tmp_path / "model.bin"
    save_model(make_model(rng), path)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(BadMagic):
        load_model(path)


def test_model_rejects_future_version(rng, tmp_path):
    path = tmp_path / "model.bin"
    save_model(make_model(rng), path)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionUnsupported):
        load_model(path)


def test_model_rejects_truncation_and_trailing(rng, tmp_path):
    path = tmp_path / "model.bin"
    save_model(make_model(rng), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(CorruptTable):
        load_model(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(CorruptTable):
        load_model(path)


# ---------------------------------------------------------------- sequence


def make_sequence(rng, n_keypoints=3):
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    frames = [
        SequenceFrame(
            0.0, intr,
            image=GrayImage(rng.random((24, 32), dtype=np.float32)),
            keypoints=[make_keypoint(rng) for _ in range(n_keypoints)],
            gt_pose=random_pose(rng),
        ),
        # frame with every optional absent
        SequenceFrame(0.5, intr),
    ]
    return Sequence(frames)


def test_sequence_round_trip_bitwise(rng, tmp_path):
    seq = make_sequence(rng)
    path = tmp_path / "seq.bin"
    save_sequence(seq, path)
    loaded = load_sequence(path)
    assert len(loaded.frames) == 2
    fa, fb = seq.frames[0], loaded.frames[0]
    assert fa.timestamp == fb.timestamp
    assert np.array_equal(fa.image.pixels, fb.image.pixels)
    assert_keypoints_equal(fa.keypoints, fb.keypoints)
    assert np.array_equal(fa.gt_pose.R, fb.gt_pose.R)
    assert np.array_equal(fa.gt_pose.t, fb.gt_pose.t)
    empty = loaded.frames[1]
    assert empty.image is None and empty.keypoints is None and empty.gt_pose is None


def test_sequence_rejects_wrong_magic(rng, tmp_path):
    path = tmp_path / "seq.bin"
    save_sequence(make_sequence(rng), path)
    data = path.read_bytes()
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(BadMagic):
        load_sequence(path)


def test_sequence_rejects_truncation(rng, tmp_path):
    path = tmp_path / "seq.bin"
    save_sequence(make_sequence(rng), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptTable):
        load_sequence(path)



def test_sequence_rejects_nan_pixels(tmp_path):
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    px = np.full((24, 32), 0.25)
    px[3, 5] = 0.75  # the only pixel with this float32 pattern
    path = tmp_path / "seq.bin"
    save_sequence(Sequence([SequenceFrame(0.0, intr, image=GrayImage(px))]), path)
    data = path.read_bytes()
    marker = np.float32(0.75).tobytes()
    assert data.count(marker) == 1
    path.write_bytes(data.replace(marker, np.float32(np.nan).tobytes()))
    with pytest.raises(CorruptTable):
        load_sequence(path)

# ------------------------------------------------------------------- index


def test_index_round_trip_bitwise(rng, tmp_path):
    vocab = Vocabulary(rng.normal(size=(5, 3)))
    vectors = rng.random((4, 5))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    index = InvertedIndex([3, 1, 4, 7], vectors, rng.random(5))
    path = tmp_path / "index.bin"
    save_index(vocab, index, path)
    vocab2, index2 = load_index(path)
    assert np.array_equal(vocab.centers, vocab2.centers)
    assert index.image_ids == index2.image_ids
    assert np.array_equal(index.vectors, index2.vectors)
    assert np.array_equal(index.idf, index2.idf)


def test_index_rejects_wrong_magic(rng, tmp_path):
    vocab = Vocabulary(rng.normal(size=(3, 2)))
    index = InvertedIndex([0], rng.random((1, 3)), rng.random(3))
    path = tmp_path / "index.bin"
    save_index(vocab, index, path)
    path.write_bytes(b"JUNK" + path.read_bytes()[4:])
    with pytest.raises(BadMagic):
        load_index(path)


# ------------------------------------------- saved bytes and loaded views
# The packers that joined every part into one bytes object before writing:
# the reference that the streaming savers must match byte for byte.


def old_pack_pose(pose):
    return np.concatenate([pose.R.reshape(9), pose.t]).astype("<f8").tobytes()


def old_pack_intrinsics(k):
    return struct.pack("<4d2I", k.fx, k.fy, k.cx, k.cy, k.width, k.height)


def old_pack_keypoints(kps):
    parts = [struct.pack("<I", len(kps))]
    geo = np.array(
        [[kp.pos.u, kp.pos.v, kp.scale, kp.orientation] for kp in kps],
        dtype="<f8").reshape(len(kps), 4)
    parts.append(geo.tobytes())
    have_desc = bool(kps)
    have_ctx = bool(kps) and all(kp.context is not None for kp in kps)
    flags = (1 if have_desc else 0) | (2 if have_ctx else 0)
    parts.append(struct.pack("<B", flags))
    if have_desc:
        parts.append(np.stack([kp.descriptor for kp in kps]).astype("<f4").tobytes())
    if have_ctx:
        parts.append(np.stack([kp.context for kp in kps]).astype("<f4").tobytes())
    return b"".join(parts)


def old_pack_raster_body(img):
    return struct.pack("<2I", img.height, img.width) + img.pixels.astype("<f4").tobytes()


def old_model_bytes(model):
    parts = [b"EMRG", struct.pack("<I", 1)]
    parts.append(struct.pack("<2I", len(model.points.ids), len(model.images)))
    for pid, xyz in zip(model.points.ids.tolist(), model.points.xyz):
        parts.append(struct.pack("<I", pid) + xyz.astype("<f8").tobytes())
    for img in model.images:
        parts.append(struct.pack("<I", img.id))
        parts.append(old_pack_pose(img.pose))
        parts.append(old_pack_intrinsics(img.intrinsics))
        parts.append(old_pack_keypoints(img.keypoints))
        parts.append(struct.pack("<I", len(img.links)))
        for kp_idx in sorted(img.links):
            parts.append(struct.pack("<2I", kp_idx, img.links[kp_idx]))
        if img.raster is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(struct.pack("<B", 1) + old_pack_raster_body(img.raster))
    return b"".join(parts)


def old_sequence_bytes(seq):
    parts = [b"ESEQ", struct.pack("<I", 1)]
    parts.append(struct.pack("<I", len(seq.frames)))
    for fr in seq.frames:
        parts.append(struct.pack("<d", fr.timestamp))
        parts.append(old_pack_intrinsics(fr.intrinsics))
        flags = 0
        if fr.image is not None:
            flags |= 1
        if fr.keypoints is not None:
            flags |= 2
        if fr.gt_pose is not None:
            flags |= 8
        parts.append(struct.pack("<B", flags))
        if fr.image is not None:
            parts.append(old_pack_raster_body(fr.image))
        if fr.keypoints is not None:
            parts.append(old_pack_keypoints(fr.keypoints))
        if fr.gt_pose is not None:
            parts.append(old_pack_pose(fr.gt_pose))
    return b"".join(parts)


def old_index_bytes(vocab, index):
    parts = [b"ERIX", struct.pack("<I", 1)]
    k, d = vocab.centers.shape
    parts.append(struct.pack("<2I", k, d))
    parts.append(vocab.centers.astype("<f8").tobytes())
    parts.append(index.idf.astype("<f8").tobytes())
    parts.append(struct.pack("<I", len(index.image_ids)))
    parts.append(np.asarray(index.image_ids, dtype="<u4").tobytes())
    parts.append(index.vectors.astype("<f8").tobytes())
    return b"".join(parts)


def model_variants(rng):
    """Models with and without contexts and rasters, mixed, and an empty image."""
    full = make_model(rng)
    bare = make_model(rng, with_context=False, with_raster=False)
    mixed = make_model(rng, with_raster=False)
    img = mixed.images[1]
    rows = list(img.keypoints)
    rows[2] = make_keypoint(rng, with_context=False)  # one missing context
    mixed.images[1] = ModelImage(img.id, img.pose, img.intrinsics, rows, img.links, img.raster)
    mixed.images.append(ModelImage(7, img.pose, img.intrinsics, [], {}, full.images[0].raster))
    return [full, bare, Model3D(mixed.points, mixed.images)]


def test_saved_bytes_match_the_joined_packers(rng, tmp_path):
    path = tmp_path / "out.bin"
    for model in model_variants(rng):
        save_model(model, path)
        assert path.read_bytes() == old_model_bytes(model)
        path.write_bytes(old_model_bytes(model))
        loaded = load_model(path)
        for ia, ib in zip(model.images, loaded.images):
            assert ia.links == ib.links
            # a table stores contexts only when every keypoint has one
            kept = all(kp.context is not None for kp in ia.keypoints)
            assert_keypoints_equal([kp if kept else kp.with_context(None) for kp in ia.keypoints],
                                   ib.keypoints)
        assert loaded.points.ids.tolist() == model.points.ids.tolist()
        assert loaded.points.xyz.tobytes() == model.points.xyz.tobytes()
    seq = make_sequence(rng)
    intr = seq.frames[0].intrinsics
    # keypoints without a raster, a frame with no keypoints at all, and a
    # raster or a pose alone
    seq.frames += [SequenceFrame(1.0, intr, keypoints=[make_keypoint(rng, False)]),
                   SequenceFrame(1.5, intr, keypoints=[]),
                   SequenceFrame(2.0, intr, image=seq.frames[0].image),
                   SequenceFrame(2.5, intr, gt_pose=random_pose(rng))]
    save_sequence(seq, path)
    assert path.read_bytes() == old_sequence_bytes(seq)
    # every frame flag reads back: the loaded sequence saves to the same bytes
    again = tmp_path / "again.bin"
    save_sequence(load_sequence(path), again)
    assert again.read_bytes() == path.read_bytes()
    vocab = Vocabulary(rng.normal(size=(5, 3)))
    index = InvertedIndex([3, 1, 4, 7], rng.random((4, 5)), rng.random(5))
    save_index(vocab, index, path)
    assert path.read_bytes() == old_index_bytes(vocab, index)


def test_point_table_finds_rows_by_id():
    xyz = np.arange(12.0).reshape(4, 3)
    ids = np.array([7, 2, 2**40, 0])
    points = PointTable(ids, xyz)
    ids[0] = 99  # the table holds its own read-only copies
    assert points.ids.tolist() == [7, 2, 2**40, 0]
    assert not points.ids.flags.writeable and not points.xyz.flags.writeable
    assert points.rows([0, 7, 2**40, 7]).tolist() == [3, 0, 2, 0]
    assert points.rows(np.zeros(0, np.int64)).tolist() == []
    assert points.rows([2, 5, -1, 2**41]).tolist() == [1, -1, -1, -1]
    assert PointTable([], []).rows([0, 1]).tolist() == [-1, -1]
    with pytest.raises(CorruptTable, match="duplicate world point ids"):
        PointTable([1, 2, 1], np.zeros((3, 3)))


def test_loaded_links_and_ids_keep_the_model_checks(rng, tmp_path):
    model = make_model(rng)
    path = tmp_path / "model.bin"
    img = model.images[0]

    def with_links(links):
        return SimpleNamespace(points=model.points, images=[
            ModelImage(img.id, img.pose, img.intrinsics, img.keypoints, links, img.raster)])

    def with_points(ids):
        # a PointTable refuses duplicate ids, so these columns go round it
        xyz = np.zeros((len(ids), 3))
        xyz[:len(model.points)] = model.points.xyz
        return SimpleNamespace(points=SimpleNamespace(ids=ids, xyz=xyz), images=model.images)

    cases = [
        (with_points(np.append(model.points.ids, 0)), "duplicate world point ids"),
        (with_links({0: 99}), "missing point 99"),
        (with_links({4: 2}), "out-of-range keypoint 4"),
    ]
    for broken, message in cases:
        save_model(broken, path)
        assert path.read_bytes() == old_model_bytes(broken)
        with pytest.raises(CorruptTable, match=message):
            load_model(path)


def test_duplicate_model_image_ids_are_refused_in_memory_and_on_load(rng, tmp_path):
    # matches are keyed by image id, so a twin's matches would replace the
    # first image's and lift through the first image's links
    model = make_model(rng)
    first, second = model.images
    twin = ModelImage(first.id, second.pose, second.intrinsics, second.keypoints,
                      second.links, second.raster)
    with pytest.raises(CorruptTable, match=r"^duplicate model image ids \[0\]$"):
        Model3D(model.points, [first, twin])
    path = tmp_path / "model.bin"
    save_model(SimpleNamespace(points=model.points, images=[first, twin]), path)
    with pytest.raises(CorruptTable,
                       match=rf"^{re.escape(str(path))}: duplicate model image ids \[0\]$"):
        load_model(path)


def test_an_index_file_with_duplicate_image_ids_is_refused(rng, tmp_path):
    vocab = Vocabulary(rng.normal(size=(3, 2)))
    crafted = SimpleNamespace(image_ids=[5, 2, 5], vectors=rng.random((3, 3)), idf=rng.random(3))
    path = tmp_path / "index.bin"
    save_index(vocab, crafted, path)
    with pytest.raises(CorruptTable,
                       match=rf"^{re.escape(str(path))}: duplicate image ids \[5\]$"):
        load_index(path)


def test_corrupt_files_name_what_was_read(rng, tmp_path):
    model = make_model(rng)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(BadMagic, match=r"got b'XXXX'$"):
        load_model(path)
    start = data.find(model.images[0].keypoints[0].context.tobytes())
    assert start > 0
    path.write_bytes(data[:start + 1000])  # inside the first context block
    with pytest.raises(CorruptTable, match=f"needed {4 * 4 * CONTEXT_DIM} bytes at offset {start}"):
        load_model(path)


def test_loaded_tables_are_read_only_views_of_the_file(rng, tmp_path):
    save_model(make_model(rng), tmp_path / "model.bin")
    save_sequence(make_sequence(rng), tmp_path / "seq.bin")
    tables = [img.keypoints for img in load_model(tmp_path / "model.bin").images]
    tables.append(load_sequence(tmp_path / "seq.bin").frames[0].keypoints)
    for kps in tables:
        root = kps[0].context
        while isinstance(root, np.ndarray):
            root = root.base
        # numpy views a mapping through a memoryview of it
        assert isinstance(root, memoryview) and root.readonly
        mapping = root.obj
        assert isinstance(mapping, mmap.mmap)
        with pytest.raises(TypeError):
            mapping[0] = 0
        with pytest.raises(TypeError):
            mapping.write(b"X")
        buffer = np.frombuffer(mapping, np.uint8)
        for kp in kps:
            assert np.shares_memory(kp.context, buffer)
            assert np.shares_memory(kp.descriptor, buffer)
            for arr in (kp.descriptor, kp.context):
                with pytest.raises(ValueError):
                    arr[0] = 1.0


def read_only_view(a):
    v = a.view()
    v.flags.writeable = False
    return v


@pytest.mark.parametrize("view", [lambda a: a, read_only_view], ids=["writeable", "read-only view"])
def test_constructors_copy_arrays_their_caller_can_write(rng, view):
    desc = rng.random(DESCRIPTOR_DIM).astype(np.float32)
    ctx = rng.random(CONTEXT_DIM).astype(np.float32)
    px = rng.random((6, 8))
    kp = Keypoint(PixelPoint(1.0, 2.0), 1.0, 0.0, view(desc), view(ctx))
    img = GrayImage(view(px))
    kept = [a.copy() for a in (desc, ctx, px)]
    for a in (desc, ctx, px):
        a[...] = 0.5
    for a, b in zip((kp.descriptor, kp.context, img.pixels), kept):
        assert np.array_equal(a, b) and not a.flags.writeable


def test_frozen_copies_at_most_once():
    src = np.arange(6, dtype=np.float32)
    converted = np.asarray(src, dtype=np.float64)
    assert frozen(converted, src) is converted  # the conversion made it new
    file_view = np.frombuffer(src.tobytes(), np.float32)
    assert frozen(file_view, file_view) is file_view
    for arr in (src, read_only_view(src)):
        out = frozen(arr, arr)
        assert not np.shares_memory(out, src) and not out.flags.writeable


def test_frozen_keeps_read_only_mappings_and_copies_writable_ones(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(np.arange(8, dtype=np.float32).tobytes())
    with open(path, "r+b") as f:
        maps = {access: mmap.mmap(f.fileno(), 0, access=access)
                for access in (mmap.ACCESS_READ, mmap.ACCESS_WRITE, mmap.ACCESS_COPY)}
    view = np.frombuffer(maps[mmap.ACCESS_READ], np.float32)[2:]
    assert frozen(view, view) is view
    for access in (mmap.ACCESS_WRITE, mmap.ACCESS_COPY):
        # read-only views, directly or through a read-only memoryview, of
        # a mapping its owner can still write
        views = [read_only_view(np.frombuffer(maps[access], np.float32)[2:]),
                 np.frombuffer(memoryview(maps[access]).toreadonly(), np.float32)[2:]]
        for arr in views:
            assert not arr.flags.writeable
            out = frozen(arr, arr)
            assert not np.shares_memory(out, arr) and not out.flags.writeable
            assert np.array_equal(out, np.arange(2, 8))


def _traced_peak(call):
    """(call(), the peak heap bytes it allocated under tracemalloc)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_memory_stays_near_file_size(tmp_path):
    # 2 images x 40 keypoints x 33 KB of contexts: ~2.6 MB per file, mapped,
    # so the heap a load allocates is its geometry columns (2.5 KB here)
    # plus a few objects per image, rasters being views of the mapping;
    # measured peaks were 20 KB and 14 KB
    rng = np.random.default_rng(5)
    cases = [(save_model, load_model, make_model(rng, n_keypoints=40)),
             (save_sequence, load_sequence, make_sequence(rng, n_keypoints=80))]
    for save, load, obj in cases:
        path = tmp_path / "data.bin"
        save(obj, path)
        assert path.stat().st_size > 2_000_000
        loaded, peak = _traced_peak(lambda: load(path))
        parts = loaded.images if hasattr(loaded, "images") else loaded.frames
        tables = [p.keypoints for p in parts if p.keypoints is not None]
        heap = sum(t.xy.nbytes + t.scale.nbytes + t.orientation.nbytes for t in tables)
        assert peak <= heap + 40_000, (load.__name__, peak, heap)


def test_rasters_load_as_views_and_widen_once_on_first_use(tmp_path):
    rng = np.random.default_rng(7)
    h, w = 240, 320
    wide = h * w * 8  # one float64 raster
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, w, h)
    frames = [SequenceFrame(float(i), intr, GrayImage(rng.random((h, w), dtype=np.float32)))
              for i in range(4)]
    path = tmp_path / "clip.eseq"
    save_sequence(Sequence(frames), path)

    seq, peak = _traced_peak(lambda: load_sequence(path))
    assert peak < wide, peak
    images = [fr.image for fr in seq.frames]
    mapping = images[0].stored.base
    while not isinstance(mapping, mmap.mmap):
        mapping = mapping.obj if isinstance(mapping, memoryview) else mapping.base
    buffer = np.frombuffer(mapping, np.uint8)
    for img, fr in zip(images, frames):
        assert img.stored.dtype == np.float32 and not img.stored.flags.writeable
        assert np.shares_memory(img.stored, buffer)
        assert img.stored.tobytes() == fr.image.stored.tobytes()

    # size checks and a save read the stored float32 and widen nothing
    small = GrayImage(np.zeros((8, 8), dtype=np.float32))
    kps = KeypointTable.adopt(np.zeros((1, 2)), np.ones(1), np.zeros(1),
                              np.zeros((1, DESCRIPTOR_DIM), dtype=np.float32), None)

    def read_sizes():
        assert [(img.height, img.width, img.shape) for img in images] == [(h, w, (h, w))] * 4
        with pytest.raises(SizeMismatch):
            track_keypoints([images[0], small], kps)
        with pytest.raises(SizeMismatch):
            optical_flow(images[1], small)
        save_sequence(seq, tmp_path / "again.eseq")

    assert _traced_peak(read_sizes)[1] < wide
    assert (tmp_path / "again.eseq").read_bytes() == path.read_bytes()

    # the first access widens (one float64 raster), later ones return it
    px, peak = _traced_peak(lambda: images[0].pixels)
    assert peak >= wide
    assert px.dtype == np.float64 and not px.flags.writeable
    assert np.array_equal(px, images[0].stored)
    same, peak = _traced_peak(lambda: images[0].pixels)
    assert same is px and peak < wide

    # lanes (more than the cores) that reach an image's first access
    # together all get the one array it keeps
    lanes = 4
    barrier = threading.Barrier(lanes, timeout=10)
    seen = [[] for _ in range(lanes)]

    def lane(k):
        for img in images[1:]:
            barrier.wait()
            seen[k].append(img.pixels)

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(lanes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(got) == len(images) - 1 for got in seen)
    for img, *got in zip(images[1:], *seen):
        assert all(px is img.pixels for px in got)
        assert img.pixels.tobytes() == img.stored.astype(np.float64).tobytes()


# ------------------------------------------------------------- atomic saves


def test_saving_over_a_loaded_file_leaves_the_load_intact(rng, tmp_path):
    # in a child process: a save that rewrote the mapped file in place would
    # fail reading its own truncated mapping (EFAULT) or, saving a shorter
    # file, leave reads of the load to die with SIGBUS, which must fail this
    # test and not kill the run
    save_model(make_model(rng, n_keypoints=40), tmp_path / "model.bin")
    save_model(make_model(rng, with_context=False), tmp_path / "small.bin")
    (tmp_path / "keep.bin").write_bytes((tmp_path / "model.bin").read_bytes())
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from egoreg.io import load_model, save_model
        path, small, keep = sys.argv[1:]
        model = load_model(path)
        save_model(model, path)
        ref = load_model(keep)
        with open(path, "rb") as f, open(keep, "rb") as g:
            assert f.read() == g.read()
        for overwrite in (None, small):
            if overwrite:
                save_model(load_model(overwrite), path)  # a much shorter file
            for a, b in zip(model.images, ref.images):
                assert np.array_equal(a.keypoints.contexts, b.keypoints.contexts)
                assert np.array_equal(a.keypoints.descriptors, b.keypoints.descriptors)
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(egoreg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script] + [str(tmp_path / n) for n in ("model.bin", "small.bin",
                                                                       "keep.bin")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-2000:]


def test_a_failing_save_leaves_the_old_file_and_no_temporary(rng, tmp_path):
    model = make_model(rng)
    path = tmp_path / "model.bin"
    save_model(model, path)
    before = path.read_bytes()
    # a column assignment would store 2**32 as 0 and -1 as 2**32 - 1
    for bad_id in (2**32, -1):
        broken = Model3D(PointTable(np.append(model.points.ids, bad_id),
                                    np.vstack([model.points.xyz, np.zeros(3)])), model.images)
        with pytest.raises(OverflowError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]


def test_contexts_v1_cannot_read_back_are_refused_and_leave_the_file(rng, tmp_path):
    model = make_model(rng)
    narrow = [ModelImage(img.id, img.pose, img.intrinsics,
                         replace(img.keypoints, contexts=img.keypoints.contexts[:, :48]),
                         img.links, img.raster) for img in model.images]
    clip = Sequence([SequenceFrame(0.0, narrow[0].intrinsics, keypoints=narrow[0].keypoints)])
    for save, obj, good in ((save_model, Model3D(model.points, narrow), model),
                            (save_sequence, clip, Sequence([]))):
        path = tmp_path / "file.bin"
        save(good, path)
        before = path.read_bytes()
        with pytest.raises(DimensionMismatch, match=f"{CONTEXT_DIM} wide, got 48"):
            save(obj, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["file.bin"]


def test_a_saved_file_gets_the_mode_of_a_plain_open(rng, tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain.bin", "wb"):
            pass
        save_model(make_model(rng), tmp_path / "model.bin")
        save_pruner(LinearPruner.keep_all(), tmp_path / "pruner.json")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode)
    assert mode == 0o640  # 0600 would be a mkstemp file's
    for name in ("model.bin", "pruner.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_saving_over_an_existing_file_keeps_its_mode(rng, tmp_path):
    # a plain open(path, "wb") keeps an existing file's mode, whatever the umask
    old = os.umask(0o022)
    try:
        for mode in (0o600, 0o664):
            path = tmp_path / f"{mode:o}.bin"
            path.write_bytes(b"old")
            path.chmod(mode)
            save_model(make_model(rng), path)
            assert stat.S_IMODE(path.stat().st_mode) == mode
            assert path.read_bytes()[:4] == b"EMRG"
    finally:
        os.umask(old)


def test_saving_through_a_symlink_replaces_the_file_it_points_at(rng, tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "model.bin"
    target.write_bytes(b"old")
    link = tmp_path / "model.bin"
    link.symlink_to(target)
    model = make_model(rng)
    save_model(model, link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    save_model(model, tmp_path / "plain.bin")
    assert target.read_bytes() == (tmp_path / "plain.bin").read_bytes()
    assert sorted(os.listdir(tmp_path / "real")) == ["model.bin"]


def _in_thread(fn):
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    return t, out


def test_saving_to_a_fifo_writes_through_it(rng, tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader, got = _in_thread(fifo.read_bytes)
    model = make_model(rng)
    save_model(model, fifo)
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    save_model(model, tmp_path / "plain.bin")
    assert got == [(tmp_path / "plain.bin").read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["out.fifo", "plain.bin"]


def test_a_refused_save_sends_a_fifo_no_byte(rng, tmp_path):
    # the bad table is the last one, after every table v1 could store
    model = make_model(rng)
    last = model.images[-1]
    narrow = ModelImage(last.id, last.pose, last.intrinsics,
                        replace(last.keypoints, contexts=last.keypoints.contexts[:, :48]),
                        last.links, last.raster)
    frames = [SequenceFrame(float(t), img.intrinsics, keypoints=img.keypoints)
              for t, img in enumerate(model.images[:-1] + [narrow])]
    for save, obj in ((save_model, Model3D(model.points, model.images[:-1] + [narrow])),
                      (save_sequence, Sequence(frames))):
        fifo = tmp_path / f"{save.__name__}.fifo"
        os.mkfifo(fifo)
        reader, got = _in_thread(fifo.read_bytes)
        with pytest.raises(DimensionMismatch, match=f"{CONTEXT_DIM} wide, got 48"):
            save(obj, fifo)
        reader.join(timeout=30)
        assert got == [b""]


def test_a_model_loads_through_a_pipe(rng, tmp_path):
    # a pipe reports size 0, like an empty file, but has bytes to read
    path = tmp_path / "model.bin"
    save_model(make_model(rng, n_keypoints=40), path)
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer, _ = _in_thread(lambda: fifo.write_bytes(path.read_bytes()))
    loaded = load_model(fifo)
    writer.join(timeout=30)
    save_model(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_empty_files_raise_typed_errors_naming_the_path(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    for load in (load_model, load_sequence, load_index):
        with pytest.raises(CorruptTable,
                           match=f"^{re.escape(str(path))}: needed 4 bytes at offset 0, file has 0$"):
            load(path)


# ------------------------------------------------------------------ pruner


def test_pruner_round_trip(rng, tmp_path):
    pruner = LinearPruner(rng.normal(size=FEATURE_DIM), 0.25, -0.5)
    path = tmp_path / "pruner.json"
    save_pruner(pruner, path)
    loaded = load_pruner(path)
    assert np.array_equal(pruner.weights, loaded.weights)
    assert pruner.bias == loaded.bias
    assert pruner.threshold == loaded.threshold


def test_pruner_rejects_garbage_and_bad_length(tmp_path):
    path = tmp_path / "pruner.json"
    path.write_text("not json at all")
    with pytest.raises(CorruptTable):
        load_pruner(path)
    path.write_text('{"weights": [1.0, 2.0], "bias": 0.0, "threshold": 0.0}')
    with pytest.raises(CorruptTable):
        load_pruner(path)
