"""The benchmark must keep working against the library.

`perfbench/workloads.py:targets()` wraps library functions by name
(`getattr` on the module the pipeline calls them through), so a clean-up
that deletes or moves one of them breaks `perfbench/run.py --trace 1`.
`gen.py` and `workloads.py` also build configs and call the library
directly, which the benchmark's own tests exercise.
"""

import inspect
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from egoreg.features import DetectorConfig
from egoreg.matching import MatchConfig
from egoreg.registration import register_sequence
from egoreg.synth import night_preset, synth_scene

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.targets()
    assert targets
    missing = [t.name for t in targets if not callable(getattr(t.module, t.attr, None))]
    assert missing == []


def test_the_benchmark_suite_passes():
    # a session of its own: in this one, perfbench/tests/conftest.py would
    # shadow tests/conftest.py
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_observers_count_what_the_library_returns(monkeypatch):
    # the tracer's observers read each call's arguments and result; fed the
    # calls of one real register_sequence, every counter must equal the
    # count read off the library's own values
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    observers = {"attach_context": workloads._obs_context,
                 "track_keypoints": workloads._obs_track,
                 "solve_embedding": workloads._obs_embedding,
                 "ratio_filter": workloads._obs_ratio,
                 "lift_matches": workloads._obs_lift}
    calls = defaultdict(list)  # name -> [(args, kwargs, bound arguments, result)]
    for t in workloads.targets():
        if t.attr in observers:
            fn = getattr(t.module, t.attr)

            def recording(*args, _fn=fn, _name=t.attr, **kwargs):
                out = _fn(*args, **kwargs)
                bound = inspect.signature(_fn).bind(*args, **kwargs).arguments
                calls[_name].append((args, kwargs, bound, out))
                return out

            monkeypatch.setattr(t.module, t.attr, recording)

    scene = synth_scene(replace(night_preset(0), n_points=40, n_model_images=2,
                                n_query_frames=3))
    register_sequence(scene.day, scene.model,
                      match_cfg=MatchConfig(mode="sptemp", temporal_window=2),
                      det_cfg=DetectorConfig(max_keypoints=30))

    def expected(name, arg, out):
        if name == "attach_context":
            return {"features.attach_context.in": len(arg["kps"]),
                    "features.attach_context.dropped": len(arg["kps"]) - len(out[0])}
        if name == "track_keypoints":
            return {"sequence.track.tracks": len(arg["kps"]),
                    "sequence.track.alive": int(np.count_nonzero([t.alive for t in out])),
                    "sequence.track.past_frames": len(arg["frames"]) - 1}
        if name == "solve_embedding":
            return {"embedding.solve_embedding.vertices": len(out.query) + len(out.model),
                    "embedding.solve_embedding.truncated": int(out.truncated)}
        if name == "ratio_filter":
            # one assigned pair per query or model row, whichever are fewer
            return {"matching.ratio_filter.in": min(len(arg["zq"]), len(arg["zm"])),
                    "matching.ratio_filter.kept": out.query_idx.size}
        return {"registration.lift_matches.in":
                sum(m.query_idx.size for m in arg["matches"].values()),
                "registration.lift_matches.unlinked": out[1]}

    for name, observe in observers.items():
        assert calls[name], name
        for args, kwargs, bound, out in calls[name]:
            counters = defaultdict(float)
            observe(counters, args, kwargs, out)
            assert dict(counters) == expected(name, bound, out), name
    # the counts are not all trivially equal: matching assigned more than
    # two pairs per image, and the ratio test dropped some of them
    assigned = [min(len(b["zq"]), len(b["zm"])) for _, _, b, _ in calls["ratio_filter"]]
    assert min(assigned) > 2
    assert sum(len(out) for *_, out in calls["ratio_filter"]) < sum(assigned)
