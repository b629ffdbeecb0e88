import os
import sys

# One BLAS thread, as the benchmark runs; numpy reads it once, when it loads.
# With a BLAS thread per CPU, a test beside a second test run on a 2-CPU host
# took 30-40x longer (a 4 s lane test: 130-175 s, at switch intervals of 1e-6,
# 1e-5 and 1e-4 alike); with one thread it took 4-6 s.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from egoreg import parallel
from egoreg.features import DESCRIPTOR_DIM, KeypointTable
from egoreg.geometry import Intrinsics, Pose
from egoreg.matching import MatchTable
from egoreg.model import PointTable


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR with a positive diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> Pose:
    return Pose(random_rotation(rng), rng.normal(scale=t_scale, size=3))


def keypoints_at(*uv) -> KeypointTable:
    """Keypoints at the given (u, v) positions: scale 2, orientation 0,
    zero descriptors, no contexts."""
    n = len(uv)
    return KeypointTable(np.array(uv, dtype=np.float64).reshape(n, 2), np.full(n, 2.0),
                         np.zeros(n), np.zeros((n, DESCRIPTOR_DIM), np.float32))


def concat_tables(*tables: KeypointTable) -> KeypointTable:
    """The rows of `tables`, in order, as one table; with contexts when
    every table has them."""
    cols = [np.concatenate([getattr(t, name) for t in tables])
            for name in ("xy", "scale", "orientation", "descriptors")]
    if all(t.contexts is not None for t in tables):
        cols.append(np.concatenate([t.contexts for t in tables]))
    return KeypointTable(*cols)


def match_table(*rows) -> MatchTable:
    """Matches from (query_idx, model_idx, embed_dist, ratio) rows."""
    cols = np.array(rows, dtype=np.float64).reshape(len(rows), 4).T
    return MatchTable(cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2], cols[3])


def match_rows(m: MatchTable) -> list[tuple]:
    """The rows of `m` as (query_idx, model_idx, embed_dist, ratio) tuples."""
    return list(zip(m.query_idx.tolist(), m.model_idx.tolist(), m.embed_dist.tolist(),
                    m.ratio.tolist()))


def points_at(*xyz) -> PointTable:
    """World points 0, 1, ... at the given coordinates."""
    return PointTable(np.arange(len(xyz)), np.array(xyz, dtype=np.float64).reshape(len(xyz), 3))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def intrinsics():
    return Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)


@pytest.fixture
def on_both_paths(monkeypatch):
    """run(call) -> (call() on one thread, call() with a helper thread).

    The second call has `parallel.map_on_two` share its items with a
    helper thread; both run under a tiny switch interval, so the threads
    interleave as finely as they can.
    """
    def run(call):
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for helper in (False, True):
                monkeypatch.setattr(parallel, "_helper_thread_pays", lambda: helper)
                out[helper] = call()
        finally:
            sys.setswitchinterval(interval)
        return out[False], out[True]
    return run
