"""Generate one seed's benchmark inputs with `egoreg.synth`.

Run as a script: python3 perfbench/gen.py --seed N --out DIR

One night-preset scene per seed (320x240, 200 facade points, 4 model
images) yields every workload's files:

    model.emrg      model with keypoint contexts (what query workloads load)
    model_raw.emrg  the same model with contexts stripped (map_ingest input)
    index.erix      retrieval vocabulary and index over the model
    day.eseq        day frames as rasters only, with reference poses
    night.eseq      night frames with keypoints and contexts precomputed
    meta.json       scene size and clip lengths the runner reads back

Everything here runs outside the timed runs; the runner calls it in a
child process so its memory never counts toward the run's peak RSS. The
night keypoints are computed in a second process while the first builds
the model: both synthesize the same scene (frames do not depend on the
number of model images), and the rasters are compared before returning.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The preset's 200 facade points with four model images. Query frames keep
# their 200 strongest keypoints (night ones here, day ones when the runner
# detects them): a model image has at most 200, and 200 x 200 x 8256 stays
# under median_sigma's 5e8-element dense-product limit. Uncapped, day frames
# (~380-440 keypoints) always and night frames (~300-340) sometimes take its
# gather path, which flips run time (2x) and peak RSS (1.5 GB vs 0.3 GB)
# from seed to seed; every seed detects more than 200, so the cap always
# binds and a frame costs the same work on every seed. Contexts cost ~8 ms
# per keypoint on one core; this file runs before every run with a new
# seed, so the model and the one precomputed night clip are kept small
# enough to generate in about ten seconds.
N_POINTS = 200
N_MODEL_IMAGES = 4
N_QUERY_FRAMES = 12
N_NIGHT_FRAMES = 3
MAX_KEYPOINTS = 200
DAY_CLIP = 2
NIGHT_CLIP = 3
VOCAB_K = 1024


def _config(seed: int, n_points: int, n_model_images: int, n_query_frames: int):
    from egoreg import night_preset
    return replace(night_preset(seed), n_points=n_points,
                   n_model_images=n_model_images, n_query_frames=n_query_frames)


def _night_prekeyed(seed: int, out: Path, n_points: int, n_query_frames: int,
                    n_night_frames: int) -> None:
    """Write night.eseq: night frames with keypoints and contexts attached."""
    sys.path.insert(0, str(ROOT / "src"))
    from egoreg import (DetectorConfig, Sequence, SequenceFrame, attach_context,
                        extract_keypoints, save_sequence, synth_scene)
    from egoreg.features import ContextConfig

    scene = synth_scene(_config(seed, n_points, 1, n_query_frames))
    night = []
    for fr in scene.night.frames[:n_night_frames]:
        kps = extract_keypoints(fr.image, DetectorConfig(max_keypoints=MAX_KEYPOINTS))
        kps, _ = attach_context(fr.image, kps, ContextConfig())
        night.append(SequenceFrame(fr.timestamp, fr.intrinsics, fr.image, kps, fr.gt_pose))
    save_sequence(Sequence(night), out / "night.eseq")


def generate(seed: int, out: Path, n_points: int = N_POINTS,
             n_model_images: int = N_MODEL_IMAGES, n_query_frames: int = N_QUERY_FRAMES,
             n_night_frames: int = N_NIGHT_FRAMES, vocab_k: int = VOCAB_K) -> None:
    """Write one seed's input files to `out`; sizes default to the benchmark's."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from egoreg import (ModelImage, Model3D, build_vocabulary, index_images,
                        load_sequence, save_index, save_model, save_sequence,
                        synth_scene)
    from egoreg.features import descriptors

    out.mkdir(parents=True, exist_ok=True)
    night_proc = multiprocessing.get_context("spawn").Process(
        target=_night_prekeyed,
        args=(seed, out, n_points, n_query_frames, n_night_frames))
    night_proc.start()
    try:
        cfg = _config(seed, n_points, n_model_images, n_query_frames)
        scene = synth_scene(cfg)
        model = scene.model
        save_model(model, out / "model.emrg")

        raw = Model3D(model.points, [
            ModelImage(img.id, img.pose, img.intrinsics,
                       [kp.with_context(None) for kp in img.keypoints],
                       dict(img.links), img.raster)
            for img in model.images])
        save_model(raw, out / "model_raw.emrg")

        descs = [descriptors(img.keypoints) for img in model.images]
        # the CLI's vocabulary size, capped so k-means always has enough points
        vocab_k = min(vocab_k, sum(len(d) for d in descs))
        vocab = build_vocabulary(np.vstack(descs), vocab_k, seed)
        save_index(vocab, index_images([img.id for img in model.images], descs, vocab),
                   out / "index.erix")
        save_sequence(scene.day, out / "day.eseq")
    finally:
        night_proc.join()
    if night_proc.exitcode != 0:
        raise RuntimeError(f"night keypoint process exited with {night_proc.exitcode}")

    night = load_sequence(out / "night.eseq")
    for mine, theirs in zip(scene.night.frames, night.frames):
        if not np.array_equal(mine.image.pixels, theirs.image.pixels):
            raise RuntimeError("night frames differ between the two generator processes")

    meta = {
        "seed": seed,
        "scene": asdict(cfg),
        "day_clip": DAY_CLIP,
        "night_clip": NIGHT_CLIP,
        "max_keypoints": MAX_KEYPOINTS,
        "vocab_k": vocab_k,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
