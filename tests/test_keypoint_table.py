import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pose
from egoreg import io, matching
from egoreg.errors import CorruptTable
from egoreg.features import (
    CONTEXT_DIM,
    DESCRIPTOR_DIM,
    ContextConfig,
    GrayImage,
    Keypoint,
    KeypointTable,
    as_table,
    attach_context,
    contexts,
    descriptors,
)
from egoreg.geometry import Intrinsics, PixelPoint
from egoreg.matching import MatchConfig
from egoreg.model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame

INTR = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)


def make_keypoints(rng, n, with_context=True):
    return [Keypoint(PixelPoint(float(rng.uniform(40, 280)), float(rng.uniform(40, 200))),
                     float(rng.uniform(1, 3)), float(rng.uniform(0, 2 * np.pi)),
                     rng.random(DESCRIPTOR_DIM).astype(np.float32),
                     rng.random(CONTEXT_DIM).astype(np.float32) if with_context else None)
            for _ in range(n)]


def make_model(rng, n_keypoints=(5, 0), with_context=True):
    points = PointTable(np.arange(4), [rng.normal(size=3) for _ in range(4)])
    images = [ModelImage(iid, random_pose(rng), INTR, make_keypoints(rng, n, with_context),
                         {0: 1} if n else {}, None)
              for iid, n in enumerate(n_keypoints)]
    return Model3D(points, images)


def make_sequence(rng):
    return Sequence([
        SequenceFrame(0.0, INTR, keypoints=make_keypoints(rng, 4)),
        SequenceFrame(0.5, INTR, keypoints=make_keypoints(rng, 3, with_context=False)),
        SequenceFrame(1.0, INTR, keypoints=[]),  # n = 0
        SequenceFrame(1.5, INTR, gt_pose=random_pose(rng)),  # no keypoints at all
    ])


def assert_rows_equal(table, kps):
    assert len(table) == len(kps)
    for got, want in zip(table, kps):
        assert got.pos == want.pos
        assert (got.scale, got.orientation) == (want.scale, want.orientation)
        assert np.array_equal(got.descriptor, want.descriptor)
        assert (got.context is None) == (want.context is None)
        if want.context is not None:
            assert np.array_equal(got.context, want.context)


# ------------------------------------------------------------ the table


def test_take_selects_rows_bitwise_and_keeps_a_full_table():
    rng = np.random.default_rng(1)
    kps = make_keypoints(rng, 6)
    table = as_table(kps)
    for rows in ([4, 0, 5], [], [2, 2], list(range(5))):
        got = table.take(rows)
        assert_rows_equal(got, [kps[i] for i in rows])
        assert np.array_equal(got.contexts, table.contexts[rows])
        assert np.array_equal(got.xy, table.xy[rows])
    assert table.take(range(6)) is table
    assert table.take(np.arange(6)) is table
    assert_rows_equal(table[1:4], kps[1:4])
    assert_rows_equal([table[-1], table[0]], [kps[-1], kps[0]])
    with pytest.raises(IndexError):
        table[6]


def test_columns_are_read_only_and_rows_are_views():
    rng = np.random.default_rng(2)
    table = as_table(make_keypoints(rng, 4))
    for col in (table.xy, table.scale, table.orientation, table.descriptors, table.contexts):
        with pytest.raises(ValueError):
            col[0] = 1.0
    assert table.descriptors.dtype == np.float32 and table.contexts.dtype == np.float32
    assert table.xy.dtype == np.float64 and table.xy.shape == (4, 2)
    row = table[2]
    assert np.shares_memory(row.descriptor, table.descriptors)
    assert np.shares_memory(row.context, table.contexts)
    assert row.pos == PixelPoint(*table.xy[2].tolist())


def test_constructor_copies_writeable_columns_and_checks_them_once():
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 100, (3, 2))
    desc = rng.random((3, DESCRIPTOR_DIM)).astype(np.float32)
    table = KeypointTable(xy, np.ones(3), np.zeros(3), desc)
    xy[0] = -1.0
    desc[0] = 0.0
    assert table.xy[0, 0] != -1.0 and table.descriptors[0].any()
    assert table.contexts is None
    assert all(kp.context is None for kp in table)
    with pytest.raises(ValueError, match="scale must be positive"):
        KeypointTable(xy, np.array([1.0, 0.0, 2.0]), np.zeros(3), desc)
    with pytest.raises(ValueError, match="descriptors must have shape"):
        KeypointTable(xy, np.ones(3), np.zeros(3), desc[:, :64])
    with pytest.raises(ValueError, match="columns differ in length"):
        KeypointTable(xy, np.ones(2), np.zeros(3), desc)


@pytest.mark.parametrize("width", [48, 528, CONTEXT_DIM])
def test_a_context_column_takes_any_width(width):
    rng = np.random.default_rng(5)
    ctx = rng.random((3, width)).astype(np.float32)
    table = KeypointTable(rng.uniform(0, 100, (3, 2)), np.ones(3), np.zeros(3),
                          rng.random((3, DESCRIPTOR_DIM)).astype(np.float32), ctx)
    assert contexts(table).shape == (3, width) and np.array_equal(contexts(table), ctx)
    assert all(kp.context.shape == (width,) for kp in table)
    assert as_table(list(table)).contexts.shape == (3, width)
    with pytest.raises(ValueError, match=r"contexts must have shape \(n, w\)"):
        replace(table, contexts=ctx[0])
    with pytest.raises(ValueError, match="columns differ in length"):
        replace(table, contexts=ctx[:2])
    # an empty table without contexts has none either
    with pytest.raises(ValueError, match="without an attached context"):
        contexts(replace(table, contexts=None)[:0])


def test_a_list_with_a_missing_context_becomes_a_table_without_contexts():
    rng = np.random.default_rng(4)
    kps = make_keypoints(rng, 3)
    kps[1] = kps[1].with_context(None)
    assert as_table(kps).contexts is None
    assert len(as_table([])) == 0 and as_table([]).descriptors.shape == (0, DESCRIPTOR_DIM)


# ------------------------------------------------------------------- io


def test_loads_build_no_keypoint(monkeypatch, tmp_path):
    rng = np.random.default_rng(5)
    model, seq = make_model(rng), make_sequence(rng)
    io.save_model(model, tmp_path / "m.emrg")
    io.save_sequence(seq, tmp_path / "s.eseq")

    def no_keypoint(self):
        raise AssertionError("a load built a Keypoint")

    monkeypatch.setattr(Keypoint, "__post_init__", no_keypoint)
    loaded = io.load_model(tmp_path / "m.emrg")
    frames = io.load_sequence(tmp_path / "s.eseq").frames
    assert [len(img.keypoints) for img in loaded.images] == [5, 0]
    assert [None if fr.keypoints is None else len(fr.keypoints) for fr in frames] == [4, 3, 0, None]
    assert all(isinstance(img.keypoints, KeypointTable) for img in loaded.images)


@pytest.mark.parametrize("with_context", [True, False], ids=["contexts", "no-contexts"])
def test_save_load_save_gives_the_same_bytes(tmp_path, with_context):
    rng = np.random.default_rng(6)
    model = make_model(rng, (5, 0, 2), with_context)
    first, second = tmp_path / "a.emrg", tmp_path / "b.emrg"
    io.save_model(model, first)
    loaded = io.load_model(first)
    io.save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for img, back in zip(model.images, loaded.images):
        assert_rows_equal(back.keypoints, list(img.keypoints))
    seq = make_sequence(rng)
    io.save_sequence(seq, first)
    loaded = io.load_sequence(first)
    io.save_sequence(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for fr, back in zip(seq.frames[:3], loaded.frames):
        assert_rows_equal(back.keypoints, list(fr.keypoints))


def test_saves_write_loaded_columns_without_copying_them(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    io.save_model(make_model(rng), tmp_path / "m.emrg")
    table = io.load_model(tmp_path / "m.emrg").images[0].keypoints
    written = list(io._pack_keypoints(table))
    assert np.shares_memory(np.asarray(written[3]), table.descriptors)
    assert np.shares_memory(np.asarray(written[4]), table.contexts)


def corrupt(data: bytes, table: KeypointTable, offset_in_geometry: int, value: bytes) -> bytes:
    geometry = np.column_stack([table.xy, table.scale, table.orientation]).tobytes()
    start = data.find(geometry)
    assert start > 0
    at = start + offset_in_geometry
    return data[:at] + value + data[at + len(value):]


def test_a_corrupt_table_still_raises_corrupt_table(tmp_path):
    rng = np.random.default_rng(8)
    model = make_model(rng)
    path = tmp_path / "m.emrg"
    io.save_model(model, path)
    data = path.read_bytes()
    table = model.images[0].keypoints
    # keypoint 1's scale, the third float of its (u, v, scale, orientation) row
    path.write_bytes(corrupt(data, table, 32 + 16, struct.pack("<d", 0.0)))
    with pytest.raises(CorruptTable, match="scale must be positive"):
        io.load_model(path)
    # the flags byte after the geometry: contexts but no descriptors
    path.write_bytes(corrupt(data, table, 32 * len(table), struct.pack("<B", 2)))
    with pytest.raises(CorruptTable, match="without descriptors"):
        io.load_model(path)


# ---------------------------------------------- what the benchmark calls


def test_the_api_the_benchmark_uses(tmp_path):
    rng = np.random.default_rng(9)
    model = make_model(rng)
    io.save_model(model, tmp_path / "m.emrg")
    loaded = io.load_model(tmp_path / "m.emrg")
    table = loaded.images[0].keypoints
    assert np.array_equal(descriptors(table), table.descriptors.astype(np.float64))
    assert descriptors(table).dtype == np.float64
    rows = list(table)
    assert all(kp.context is not None for kp in rows)
    assert np.array_equal(np.stack([kp.context for kp in rows]), table.contexts)
    stripped = [kp.with_context(None) for kp in rows]
    assert all(kp.context is None for kp in stripped)
    img = loaded.images[0]
    raw = ModelImage(img.id, img.pose, img.intrinsics, stripped, dict(img.links), img.raster)
    assert isinstance(raw.keypoints, KeypointTable) and raw.keypoints.contexts is None
    assert_rows_equal(raw.keypoints, stripped)
    px = np.random.default_rng(10).uniform(0, 1, (240, 320))
    tiny = Keypoint(PixelPoint(80.0, 60.0), 0.4, 0.0, rows[0].descriptor)
    got, dropped = attach_context(GrayImage(px), as_table(stripped + [tiny]), ContextConfig())
    assert isinstance(got, KeypointTable) and dropped == 1
    assert len(got) == len(stripped) and got.contexts.shape == (len(stripped), CONTEXT_DIM)


def test_context_kernel_operands_of_a_loaded_table_are_new_aligned_arrays(tmp_path,
                                                                           monkeypatch):
    rng = np.random.default_rng(11)
    io.save_model(make_model(rng, (12, 9)), tmp_path / "m.emrg")
    query_table, model_table = (img.keypoints for img in io.load_model(tmp_path / "m.emrg").images)
    # the file puts a flags byte before each float32 table
    assert not query_table.contexts.flags.aligned and not model_table.contexts.flags.aligned
    operands = []
    kernel = matching.gaussian_kernel

    def recording(a, b):
        operands.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(matching, "gaussian_kernel", recording)
    query = matching._query(query_table, False)
    matching._embed_and_assign(query, model_table, MatchConfig(mode="single", embedding_dim=4))
    (dq, dm), (cq, cm) = operands
    for arr, column in ((dq, query_table.descriptors), (dm, model_table.descriptors),
                        (cq, query_table.contexts), (cm, model_table.contexts)):
        assert arr.flags.aligned and arr.flags.c_contiguous and arr.flags.owndata
        assert not np.shares_memory(arr, column)
    assert cq.dtype == cm.dtype == np.float32
