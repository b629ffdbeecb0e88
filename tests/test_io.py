import numpy as np
import pytest

from conftest import random_pose
from egoreg.errors import BadMagic, CorruptTable, VersionUnsupported
from egoreg.features import CONTEXT_DIM, DESCRIPTOR_DIM, GrayImage, Keypoint
from egoreg.geometry import Intrinsics, PixelPoint, WorldPoint
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
from egoreg.model import Model3D, ModelImage, Sequence, SequenceFrame
from egoreg.retrieval import InvertedIndex, Vocabulary
from egoreg.sequence import FEATURE_DIM, LinearPruner


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


def make_model(rng, with_context=True, with_raster=True):
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    points = [WorldPoint(i, rng.normal(size=3)) for i in range(6)]
    images = []
    for iid in range(2):
        kps = [make_keypoint(rng, with_context) for _ in range(4)]
        links = {0: 2, 3: 5}
        raster = GrayImage(rng.random((24, 32)).astype(np.float32).astype(np.float64)) \
            if with_raster else None
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
    assert len(loaded.points) == len(model.points)
    for pa, pb in zip(model.points, loaded.points):
        assert pa.id == pb.id and np.array_equal(pa.xyz, pb.xyz)
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


def make_sequence(rng):
    intr = Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    frames = [
        SequenceFrame(
            0.0, intr,
            image=GrayImage(rng.random((24, 32)).astype(np.float32).astype(np.float64)),
            keypoints=[make_keypoint(rng) for _ in range(3)],
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
