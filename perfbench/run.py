"""egoreg benchmark: registration and map building through the library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from
`src/egoreg` of the checkout this file sits in. Without those sources the
benchmark prints an error to stderr and exits with status 2.

Inputs: `gen.py` builds one synthetic night-preset scene per seed in a
child process and caches its files under `perfbench/_work/inputs`, keyed
by the seed and a content hash of `src/egoreg` (and of `gen.py`), so a
change to the program regenerates them. The run itself only reads those
files back through `egoreg.io`.

Load: one client in a closed loop, in this process: the next request is
submitted only when the previous one has returned. A request is one clip
through `register_sequence` (day_raw, night_prekeyed) or one model build
followed by a query against the new map (map_ingest). Requests repeat in
order until `--seconds` have passed; the request running then completes.
Query frames carry at most the 200 strongest keypoints (see `gen.py`).

End-to-end metrics (`--trace 0`, tracing off):
  frames_per_s        query frames per second of register_sequence time
  clip_p50_s          median register_sequence time of one clip
  model_images_per_s  model images processed per second of request time:
                      made match-ready by map_ingest's builds, matched
                      against by the query workloads' clips
  setup_s             median of 15 set-ups (load model, index, sequences)
  peak_rss_mb         peak resident memory of this process
On map_ingest the frame metrics come from the night clips served against
each freshly built map.

Per-layer metrics (`--trace 1`): requests alternate untraced and traced
(the same request twice); the tracer in `tracer.py` patches the pipeline's
public functions only around the traced ones. `<layer>.<fn>.self_s` is the
mean self time per call, `.calls` the calls per operation (query frame, or
model image on map_ingest), `trace.<layer>.share` the layer's share of
request wall time, plus the counters and ratios in `workloads.py`.
`registered_frac` is reported here and on a comment line of every run, as
measured; it is no end-to-end metric because it reads 0 on night_prekeyed
(night frames do not register) and end-to-end metrics must never be 0.
Spans are written as JSON to `perfbench/_work/out` when the run ends.

Correctness: an operation is a query frame, or a model image on
map_ingest. A frame fails when its call raises or it registers with a pose
outside the tolerance in `workloads.py`; a model image fails when its
stored contexts differ from the generator's. The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("day_raw", "night_prekeyed", "map_ingest")
SETUP_REPEATS = 15
# The pipeline runs on one core (one client, EGOREG_THREADS=1). OpenBLAS
# would otherwise use every core for each small 128x128 eigh; on a shared
# 2-core host that made context computation ~3.5x slower and its timing
# vary by a third between runs.
BLAS_THREADS = 1
GEN_TIMEOUT_S = 150
CACHED_SEEDS = 24


def code_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "egoreg").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    h.update((HERE / "gen.py").read_bytes())
    return h.hexdigest()[:16]


def inputs_for(seed: int) -> Path:
    """The cached input directory for `seed`, generating it when missing."""
    key = code_hash()
    base = WORK / "inputs"
    target = base / f"seed{seed}-{key}"
    if (target / "meta.json").is_file():
        return target
    base.mkdir(parents=True, exist_ok=True)
    # inputs of other program versions are stale; keep ~50 MB per seed
    # for at most CACHED_SEEDS seeds, dropping the least recently made
    entries = sorted(base.iterdir(), key=lambda d: d.stat().st_mtime)
    fresh = [d for d in entries if d.name.endswith(key)]
    for old in [d for d in entries if not d.name.endswith(key)] + \
            fresh[:max(0, len(fresh) - CACHED_SEEDS + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    tmp = base / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    # gen.py starts a process of its own; its own session lets a timeout
    # stop both of them
    proc = subprocess.Popen([sys.executable, str(HERE / "gen.py"), "--seed", str(seed),
                             "--out", str(tmp)], stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=GEN_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"gen.py exited with {code}")
    tmp.rename(target)
    return target


def _blas_threads() -> dict[str, int]:
    """OpenBLAS thread count of the copies bundled with numpy and scipy."""
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[mod.__name__] = int(fn())
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "EGOREG_THREADS": os.environ.get("EGOREG_THREADS", "1 (unset)"),
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _directions() -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        inputs: Path | None = None, work: Path = WORK,
        max_requests: int | None = None) -> dict:
    """One benchmark run; `max_requests` replaces the time limit (for tests)."""
    import workloads as wl
    from tracer import Tracer

    if inputs is None:
        inputs = inputs_for(seed)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    workload = wl.make(workload_name, inputs, work / "ingest")
    tracer = Tracer() if trace else None
    targets = wl.targets()

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.request = "setup"
            with tracer.installed(targets):
                workload.setup()
        else:
            workload.setup()
        setup_s.append(time.perf_counter() - t0)

    tally = wl.Tally()
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is None:
            workload.step(k, tally, None)
        elif k % 2:
            with tracer.installed(targets):
                workload.step(k // 2, tally, tracer)
        else:
            workload.step(k // 2, tally, None)
        k += 1
        if max_requests is not None:
            done = k >= max_requests
        else:
            done = time.perf_counter() - start >= seconds
        if done and (tracer is None or k % 2 == 0):
            break
    elapsed = time.perf_counter() - start

    print(f"# {workload_name} seed {seed}: closed loop, 1 client, {k} requests in "
          f"{elapsed:.2f} s ({'alternately traced' if trace else 'untraced'})")
    print(f"# clips timed {len(tally.clip_s)} ({tally.clip_frames} frames); "
          f"ingests timed {len(tally.ingest_s)} ({tally.ingest_images} model images); "
          f"set-ups {len(setup_s)}")
    print(f"# registered_frac {_div(tally.registered, tally.frames):.4f} "
          f"({tally.registered}/{tally.frames} frames within {wl.POS_TOL} units and "
          f"{wl.ORIENT_TOL_DEG} deg)")
    print(f"# operations attempted {tally.attempted} failed {tally.failed}"
          + (f"; served frames failed {tally.serve_failed}" if tally.serve_failed else ""))
    for note in tally.notes[:20]:
        print(f"# note {note}")

    if trace:
        metrics = wl.per_layer_metrics(tracer, tally)
    else:
        if tally.ingest_s:
            images_per_s = _div(tally.ingest_images, sum(tally.ingest_s))
        else:
            images_per_s = _div(tally.clip_images, sum(tally.clip_s))
        metrics = {
            "frames_per_s": (_div(tally.clip_frames, sum(tally.clip_s)), "1/s"),
            "clip_p50_s": (statistics.median(tally.clip_s), "s"),
            "model_images_per_s": (images_per_s, "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    better = _directions()
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit} {better.get(name, '?')}")

    result = {
        "correct": tally.failed == 0 and tally.serve_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env, "result": result, "notes": tally.notes,
              "spans": [sp.as_dict() for sp in tracer.spans] if tracer else []}
    (out / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "egoreg" / "__init__.py").is_file():
        print(f"perfbench: no egoreg sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    # before numpy loads: see BLAS_THREADS
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
