"""The three workloads, their correctness checks, and the traced targets.

Each workload loads its generated files through `egoreg.io` in `setup`
and serves one closed-loop request per `step`: a clip through
`register_sequence` for the query workloads, one model build and a query
against it for map_ingest. Calls go through the module namespaces (`registration.X`,
`io.X`, ...) so the tracer's patches are seen and its restores undone.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from egoreg import evaluation, io, matching, registration, retrieval
from egoreg.features import ContextConfig, DetectorConfig, descriptors
from egoreg.matching import MatchConfig
from egoreg.model import Sequence
from egoreg.registration import RansacConfig
from egoreg.sequence import LinearPruner

from tracer import Span, Target, Tracer, root_of, self_times

# A registered frame is correct when its camera center lies within
# POS_TOL scene units (the facade is 4 units wide) and its orientation
# within ORIENT_TOL_DEG degrees of the reference pose.
POS_TOL = 0.05
ORIENT_TOL_DEG = 1.0
DAY_SHORTLIST = 3
# map_ingest's stored contexts must equal the generator's to float32 noise
CONTEXT_ATOL = 1e-5


@dataclass
class Tally:
    """Outcome counts and request timings for one run."""

    attempted: int = 0
    failed: int = 0
    frames: int = 0              # query frames attempted, any step
    registered: int = 0          # of those, registered within tolerance
    images: int = 0              # model images ingested, any step
    clip_s: list = field(default_factory=list)         # untraced clips
    clip_frames: int = 0
    clip_images: int = 0         # model images matched in untraced clips
    traced_clip_s: list = field(default_factory=list)
    traced_clip_frames: int = 0
    ingest_s: list = field(default_factory=list)       # untraced ingests
    ingest_images: int = 0
    traced_images: int = 0
    serve_failed: int = 0        # map_ingest: served frames that failed
    notes: list = field(default_factory=list)

    def add_clip(self, seconds: float, n_frames: int, records, traced: bool) -> None:
        if traced:
            self.traced_clip_s.append(seconds)
            self.traced_clip_frames += n_frames
        else:
            self.clip_s.append(seconds)
            self.clip_frames += n_frames
            self.clip_images += sum(len(r.shortlist_ids) for r in records or ())


def _clips(seq: Sequence, size: int) -> list[Sequence]:
    return [Sequence(seq.frames[i:i + size]) for i in range(0, len(seq.frames), size)]


def _check_clip(tally: Tally, clip: Sequence, records, clip_id: str) -> None:
    """Count frames of one clip; a frame fails on a pose outside tolerance."""
    n = len(clip.frames)
    tally.attempted += n
    tally.frames += n
    if records is None:
        tally.failed += n
        return
    seen = set()
    for rec in records:
        seen.add(rec.frame_index)
        pose = rec.estimate.pose
        if pose is None:
            continue
        pos, orient = evaluation.pose_errors(pose, clip.frames[rec.frame_index].gt_pose)
        if pos > POS_TOL or orient > ORIENT_TOL_DEG:
            tally.failed += 1
            tally.notes.append(f"{clip_id} frame {rec.frame_index}: pose off by "
                               f"{pos:.4g} units, {orient:.4g} deg")
        else:
            tally.registered += 1
    missing = n - len(seen & set(range(n)))
    if missing:
        tally.failed += missing
        tally.notes.append(f"{clip_id}: {missing} frames without a record")


def _request(tracer: Tracer | None, root: str, request: str):
    """The root span of one traced request, or nothing when untraced."""
    return nullcontext() if tracer is None else tracer.root(root, request)


def _register(tally: Tally, tracer: Tracer | None, clip: Sequence, clip_id: str,
              model, vocab, index, det_cfg: DetectorConfig, shortlist: int, pruner,
              root: str) -> None:
    """Time one register_sequence call on one clip, then check its output."""
    records = None
    t0 = time.perf_counter()
    try:
        with _request(tracer, root, clip_id):
            records = registration.register_sequence(
                clip, model, vocab, index, MatchConfig(mode="sptemp"),
                det_cfg, ContextConfig(), RansacConfig(), pruner, shortlist)
    except Exception as exc:  # a raising call is a failed request, not a crash
        tally.notes.append(f"{clip_id}: {type(exc).__name__}: {exc}")
    tally.add_clip(time.perf_counter() - t0, len(clip.frames), records, tracer is not None)
    _check_clip(tally, clip, records, clip_id)


class QueryWorkload:
    """Clips registered one after another against a prebuilt model."""

    def __init__(self, name: str, inputs: Path, seq_file: str, clip_key: str,
                 shortlist: int | None, pruner: LinearPruner | None):
        self.name = name
        self.inputs = inputs
        self.seq_file = seq_file
        meta = json.loads((inputs / "meta.json").read_text())
        self.clip_size = meta[clip_key]
        self.det_cfg = DetectorConfig(max_keypoints=meta["max_keypoints"])
        self.shortlist_size = shortlist
        self.pruner = pruner

    def setup(self) -> None:
        """Load model, index and sequence."""
        self.model = io.load_model(self.inputs / "model.emrg")
        self.vocab, self.index = io.load_index(self.inputs / "index.erix")
        self.clips = _clips(io.load_sequence(self.inputs / self.seq_file), self.clip_size)
        if self.shortlist_size is None:
            self.shortlist_size = len(self.model.images)

    def step(self, k: int, tally: Tally, tracer: Tracer | None) -> None:
        i = k % len(self.clips)
        _register(tally, tracer, self.clips[i], f"clip{i}", self.model, self.vocab,
                  self.index, self.det_cfg, self.shortlist_size, self.pruner, "bench.clip")


class IngestWorkload:
    """Model builds from a context-less model file, each then queried.

    One request loads model_raw.emrg, computes contexts, builds the
    vocabulary and index, and saves model and index. The saved model is
    then reloaded, checked image by image against the generator's
    contexts, and serves the night clip through register_sequence.
    """

    name = "map_ingest"

    def __init__(self, inputs: Path, work: Path):
        self.inputs = inputs
        self.work = work
        meta = json.loads((inputs / "meta.json").read_text())
        self.vocab_k = meta["vocab_k"]
        self.seed = meta["seed"]
        self.serve_clip = meta["night_clip"]
        self.reference = io.load_model(inputs / "model.emrg")

    def setup(self) -> None:
        """Load the model to build (to validate it) and the clips to serve."""
        self.n_images = len(io.load_model(self.inputs / "model_raw.emrg").images)
        self.clips = _clips(io.load_sequence(self.inputs / "night.eseq"), self.serve_clip)
        self.work.mkdir(parents=True, exist_ok=True)

    def _ingest(self):
        model = io.load_model(self.inputs / "model_raw.emrg")
        registration.ensure_contexts(model, ContextConfig())
        ids = [img.id for img in model.images]
        descs = [descriptors(img.keypoints) for img in model.images]
        vocab = retrieval.build_vocabulary(np.vstack(descs), self.vocab_k, self.seed)
        index = retrieval.index_images(ids, descs, vocab)
        io.save_model(model, self.work / "model.emrg")
        io.save_index(vocab, index, self.work / "index.erix")

    def _check_model(self, tally: Tally, model) -> None:
        ref = {img.id: img for img in self.reference.images}
        for img in model.images:
            want = ref.get(img.id)
            ok = (want is not None and len(img.keypoints) == len(want.keypoints)
                  and img.links == want.links
                  and all(kp.context is not None for kp in img.keypoints))
            if ok:
                got = np.stack([kp.context for kp in img.keypoints])
                exp = np.stack([kp.context for kp in want.keypoints])
                ok = bool(np.allclose(got, exp, rtol=0.0, atol=CONTEXT_ATOL))
            if not ok:
                tally.failed += 1
                tally.notes.append(f"ingest: model image {img.id} differs from reference")
        missing = len(ref) - len(model.images)
        if missing:
            tally.failed += missing
            tally.notes.append(f"ingest: {missing} model images lost")

    def step(self, k: int, tally: Tally, tracer: Tracer | None) -> None:
        traced = tracer is not None
        tally.attempted += self.n_images
        tally.images += self.n_images
        t0 = time.perf_counter()
        try:
            with _request(tracer, "bench.ingest", f"ingest{k}"):
                self._ingest()
        except Exception as exc:  # a raising build fails all its images
            tally.failed += self.n_images
            tally.notes.append(f"ingest{k}: {type(exc).__name__}: {exc}")
            return
        if traced:
            tally.traced_images += self.n_images
        else:
            tally.ingest_s.append(time.perf_counter() - t0)
            tally.ingest_images += self.n_images

        model = io.load_model(self.work / "model.emrg")
        vocab, index = io.load_index(self.work / "index.erix")
        self._check_model(tally, model)
        # served frames are not map_ingest operations: a wrong pose from the
        # freshly built map is reported as an incorrect output on its own
        i = k % len(self.clips)
        attempted, failed = tally.attempted, tally.failed
        _register(tally, tracer, self.clips[i], f"serve{k}.clip{i}", model, vocab,
                  index, DetectorConfig(), len(model.images), None, "bench.serve")
        tally.serve_failed += tally.failed - failed
        tally.attempted, tally.failed = attempted, failed


def make(name: str, inputs: Path, work: Path):
    if name == "day_raw":
        return QueryWorkload(name, inputs, "day.eseq", "day_clip", DAY_SHORTLIST,
                             LinearPruner.keep_all())
    if name == "night_prekeyed":
        return QueryWorkload(name, inputs, "night.eseq", "night_clip", None, None)
    if name == "map_ingest":
        return IngestWorkload(inputs, work)
    raise ValueError(f"unknown workload {name!r}")



# ---------------------------------------------------------------- tracing

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _obs_extract(c, a, kw, out):
    c["features.extract_keypoints.keypoints"] += len(out)


def _obs_context(c, a, kw, out):
    c["features.attach_context.in"] += len(_arg(a, kw, 1, "kps"))
    c["features.attach_context.dropped"] += out[1]


def _obs_track(c, a, kw, out):
    c["sequence.track.tracks"] += len(out)
    c["sequence.track.alive"] += sum(t.alive for t in out)
    c["sequence.track.past_frames"] += len(_arg(a, kw, 0, "frames")) - 1


def _obs_shortlist(c, a, kw, out):
    c["retrieval.shortlist.images"] += len(out)


def _obs_lift(c, a, kw, out):
    c["registration.lift_matches.in"] += sum(
        len(v) for v in _arg(a, kw, 0, "matches").values())
    c["registration.lift_matches.unlinked"] += out[1]


def _obs_ransac(c, a, kw, out):
    c["registration.ransac_pnp.correspondences"] += out.n_correspondences
    c["registration.ransac_pnp.inliers"] += out.n_inliers


def _obs_embedding(c, a, kw, out):
    aff = _arg(a, kw, 0, "affinity")
    c["embedding.solve_embedding.vertices"] += aff.p + aff.q
    c["embedding.solve_embedding.truncated"] += bool(out.truncated)


def _obs_ratio(c, a, kw, out):
    c["matching.ratio_filter.in"] += len(_arg(a, kw, 0, "assignment"))
    c["matching.ratio_filter.kept"] += len(out)


def targets() -> list[Target]:
    """Every wrapped name, in the namespace the pipeline calls it through."""
    reg = [
        ("register_sequence", "registration", None),
        ("match_sequence", "registration", None),
        ("extract_keypoints", "features", _obs_extract),
        ("attach_context", "features", _obs_context),
        ("frame_quality_feature", "sequence", None),
        ("track_keypoints", "sequence", _obs_track),
        ("shortlist", "retrieval", _obs_shortlist),
        ("match_frame_to_shortlist", "matching", None),
        ("lift_matches", "registration", _obs_lift),
        ("ransac_pnp", "registration", _obs_ransac),
        ("ensure_contexts", "registration", None),
    ]
    mat = [
        ("match_spatiotemporal", "matching", None),
        ("match_single_frame", "matching", None),
        ("median_sigma", "embedding", None),
        ("gaussian_kernel", "embedding", None),
        ("spatial_similarity", "embedding", None),
        ("temporal_similarity", "embedding", None),
        ("assemble_affinity", "embedding", None),
        ("solve_embedding", "embedding", _obs_embedding),
        ("hungarian", "matching", None),
        ("ratio_filter", "matching", _obs_ratio),
    ]
    out = [Target(registration, a, layer, obs) for a, layer, obs in reg]
    out += [Target(matching, a, layer, obs) for a, layer, obs in mat]
    out += [Target(retrieval, a, "retrieval") for a in ("build_vocabulary", "index_images")]
    out += [Target(io, a, "io") for a in ("load_model", "load_sequence", "load_index",
                                          "save_model", "save_index")]
    return out


LAYERS = ("features", "sequence", "retrieval", "embedding", "matching",
          "registration", "io")
ROOTS = ("bench.clip", "bench.ingest", "bench.serve")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(tracer: Tracer, tally: Tally) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced run."""
    spans: list[Span] = tracer.spans
    selfs = self_times(spans)
    roots = root_of(spans)
    c = tracer.counters
    ops = tally.traced_images if tally.images else tally.traced_clip_frames

    # self time per call counts every call, set-up included; calls per
    # operation count only calls made while serving requests
    root_ids = {sp.id for sp in spans if sp.parent is None and sp.name in ROOTS}
    by_name: dict[str, list[float]] = {}
    in_requests: dict[str, int] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(selfs[sp.id])
        if roots[sp.id] in root_ids:
            in_requests[sp.name] = in_requests.get(sp.name, 0) + 1

    out: dict[str, tuple[float, str]] = {}
    for t in targets():
        vals = by_name.get(t.name, [])
        out[f"{t.name}.self_s"] = (statistics.fmean(vals) if vals else 0.0, "s")
        out[f"{t.name}.calls"] = (_ratio(in_requests.get(t.name, 0), ops), "1/op")

    # shares of request wall time, over spans under the benchmark's roots
    wall = sum(spans[i].duration for i in root_ids)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for sp in spans:
        if roots[sp.id] not in root_ids:
            continue
        if sp.id in root_ids:
            unattributed += selfs[sp.id]
        else:
            layer_s[sp.name.split(".", 1)[0]] += selfs[sp.id]
    for layer in LAYERS:
        out[f"trace.{layer}.share"] = (_ratio(layer_s[layer], wall), "frac")
    out["trace.unattributed.share"] = (_ratio(unattributed, wall), "frac")

    n_extract = len(by_name.get("features.extract_keypoints", []))
    n_track = len(by_name.get("sequence.track_keypoints", []))
    n_solve = len(by_name.get("embedding.solve_embedding", []))
    n_short = len(by_name.get("retrieval.shortlist", []))
    out["features.keypoints_per_frame"] = (
        _ratio(c["features.extract_keypoints.keypoints"], n_extract), "count")
    out["features.attach_context.dropped_frac"] = (
        _ratio(c["features.attach_context.dropped"], c["features.attach_context.in"]), "frac")
    out["sequence.track.alive_frac"] = (
        _ratio(c["sequence.track.alive"], c["sequence.track.tracks"]), "frac")
    out["sequence.track.frames_tracked"] = (
        _ratio(c["sequence.track.past_frames"], n_track), "count")
    out["embedding.solve_embedding.vertices"] = (
        _ratio(c["embedding.solve_embedding.vertices"], n_solve), "count")
    out["embedding.solve_embedding.truncated"] = (
        _ratio(c["embedding.solve_embedding.truncated"], n_solve), "frac")
    out["matching.ratio_filter.kept_frac"] = (
        _ratio(c["matching.ratio_filter.kept"], c["matching.ratio_filter.in"]), "frac")
    out["registration.lift_matches.unlinked_frac"] = (
        _ratio(c["registration.lift_matches.unlinked"], c["registration.lift_matches.in"]),
        "frac")
    out["registration.ransac_pnp.inlier_frac"] = (
        _ratio(c["registration.ransac_pnp.inliers"],
               c["registration.ransac_pnp.correspondences"]), "frac")
    out["retrieval.shortlist.images"] = (
        _ratio(c["retrieval.shortlist.images"], n_short), "count")
    out["registered_frac"] = (_ratio(tally.registered, tally.frames), "frac")

    traced_fps = _ratio(tally.traced_clip_frames, sum(tally.traced_clip_s))
    untraced_fps = _ratio(tally.clip_frames, sum(tally.clip_s))
    out["trace.frames_per_s"] = (traced_fps, "1/s")
    out["trace.overhead_frames_per_s"] = (traced_fps - untraced_fps, "1/s")
    return out
