"""Command line front end.

Subcommands cover the whole pipeline: scene synthesis, retrieval index
construction, frame pruning, matching, registration, evaluation, and the
two parameter sweeps. All record outputs are line oriented with a
`# egoreg-<command> v1` header and a `# columns:` line naming the fields;
`evaluate` consumes exactly what `register` emits.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no frame registered.
A `--config` file holds `key=value` lines mirroring the long flags
(without the leading dashes); explicit flags win over config values.

Model, sequence and index files are mapped, not copied, while a command
reads them. Do not rewrite such a file in place while a command uses it
(`cp` over it, `rsync --inplace`): the command may read changed tables or
die with SIGBUS. Write a new file and rename it over the old one, as
egoreg's own saves do.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import CorruptTable, EgoregError
from .evaluation import count_inliers, registration_curve, registration_report
from .features import ContextConfig, DetectorConfig, descriptors
from .geometry import Pose
from .io import (load_index, load_model, load_pruner, load_sequence,
                 save_index, save_model, save_sequence)
from .matching import MODES, MatchConfig
from .registration import RansacConfig, match_sequence, register_sequence, scaled_threshold
from .retrieval import DEFAULT_SHORTLIST, build_vocabulary, index_images
from .sequence import prune_frames
from .synth import SynthConfig, night_preset, synth_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_RESULT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def __init__(self, *args, **kwargs):
        # exact long flags only, so config merging can spot explicit ones
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an int of at least `low`."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type of a value that does not parse
    return parse


def _positive(at_most: float = math.inf):
    """An argparse type: a finite float above 0 and at most `at_most`."""
    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and 0.0 < value <= at_most):
            most = f" and at most {at_most:g}" if at_most < math.inf else ""
            raise argparse.ArgumentTypeError(f"must be finite, above 0{most}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


def _comma_list(item):
    """An argparse type: a comma list, each entry parsed by `item`."""
    def parse(text: str) -> list:
        return [item(x) for x in text.split(",")]
    parse.__name__ = "comma list"
    return parse


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_config(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorruptTable(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(args: argparse.Namespace, command_parser: argparse.ArgumentParser,
                  argv: list[str]) -> None:
    """Fill in values from the --config file for flags not given on argv."""
    values = _read_config(args.config)
    by_dest = {a.dest: a for a in command_parser._actions if a.option_strings}
    unknown = sorted(set(values) - set(by_dest))
    if unknown:
        raise CorruptTable(f"{args.config}: unknown keys: {', '.join(unknown)}")
    explicit = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, raw in values.items():
        action = by_dest[key]
        if explicit & set(action.option_strings):
            continue
        try:
            value = action.type(raw) if callable(action.type) else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CorruptTable(f"{args.config}: {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise CorruptTable(
                f"{args.config}: {key} must be one of {sorted(action.choices)}")
        setattr(args, key, value)


def _add_match_flags(p: argparse.ArgumentParser):
    match, ctx = MatchConfig(), ContextConfig()
    p.add_argument("--index", help="retrieval index file; omit to shortlist by image id")
    p.add_argument("--mode", choices=sorted(MODES), default=match.mode)
    p.add_argument("--dim", type=_at_least(1), default=match.embedding_dim,
                   help="embedding dimension")
    p.add_argument("--topk", type=_at_least(1), default=DEFAULT_SHORTLIST, help="shortlist size")
    p.add_argument("--ratio", type=_positive(1.0), default=match.ratio_threshold,
                   help="ratio test threshold")
    p.add_argument("--temporal-window", type=_at_least(0), default=match.temporal_window,
                   help="past frames tracked per query frame")
    p.add_argument("--roi-scale", type=_positive(), default=ctx.scale_factor,
                   help="context region scale factor")


def _match_configs(args) -> tuple[MatchConfig, ContextConfig]:
    return (MatchConfig(args.mode, args.ratio, args.temporal_window, args.dim),
            ContextConfig(scale_factor=args.roi_scale))


def _ransac_config(args) -> RansacConfig:
    return RansacConfig(args.reproj_px, args.min_inliers, args.seed)


def _load_index_arg(args):
    if args.index is None:
        return None, None
    return load_index(args.index)


def _out_stream(args):
    if getattr(args, "out", None) is None:
        return sys.stdout
    return open(args.out, "w")


def _cmd_synth(args) -> int:
    if args.preset == "day-night-default":
        cfg = night_preset(args.seed)
    else:
        cfg = SynthConfig(seed=args.seed)
    scene = synth_scene(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.emrg"
    day_path = out / "day.eseq"
    night_path = out / "night.eseq"
    save_model(scene.model, model_path)
    save_sequence(scene.day, day_path)
    save_sequence(scene.night, night_path)
    print("# egoreg-synth v1")
    print(f"wrote model {model_path} points {len(scene.model.points)} "
          f"images {len(scene.model.images)}")
    print(f"wrote day {day_path} frames {len(scene.day.frames)}")
    print(f"wrote night {night_path} frames {len(scene.night.frames)}")
    return EXIT_OK


def _cmd_build_index(args) -> int:
    model = load_model(args.model)
    ids = [img.id for img in model.images]
    descs = [descriptors(img.keypoints) for img in model.images]
    vocab = build_vocabulary(np.vstack(descs), args.vocab_size, args.seed)
    index = index_images(ids, descs, vocab)
    save_index(vocab, index, args.out)
    print("# egoreg-build-index v1")
    print(f"wrote index {args.out} images {len(ids)} vocab {args.vocab_size}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    seq = load_sequence(args.sequence)
    pruner = load_pruner(args.pruner)
    images = [fr.image for fr in seq.frames]
    if any(im is None for im in images):
        raise CorruptTable(f"{args.sequence}: pruning needs embedded rasters")
    kept = prune_frames(images, pruner)
    print("# egoreg-prune v1")
    for i in kept:
        print(f"kept {i}")
    print(f"total {len(images)} kept {len(kept)}")
    return EXIT_OK


def _cmd_match(args) -> int:
    seq = load_sequence(args.sequence)
    model = load_model(args.model)
    vocab, index = _load_index_arg(args)
    match_cfg, ctx_cfg = _match_configs(args)
    frames = match_sequence(seq, model, vocab, index, match_cfg,
                            DetectorConfig(), ctx_cfg,
                            shortlist_size=args.topk)
    stream = _out_stream(args)
    try:
        print("# egoreg-match v1", file=stream)
        print("# columns: match frame model_image query_idx model_idx "
              "embed_dist ratio", file=stream)
        for fm in frames:
            n = sum(len(v) for v in fm.matches.values())
            print(f"frame {fm.frame_index} keypoints {len(fm.keypoints)} "
                  f"matches {n}", file=stream)
            for image_id, m in fm.matches.items():
                for q, j, d, r in zip(m.query_idx.tolist(), m.model_idx.tolist(),
                                      m.embed_dist.tolist(), m.ratio.tolist()):
                    print(f"match {fm.frame_index} {image_id} {q} {j} {_fmt(d)} {_fmt(r)}",
                          file=stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EXIT_OK


_POSE_COLUMNS = ("r00 r01 r02 r10 r11 r12 r20 r21 r22 t0 t1 t2").split()


def _cmd_register(args) -> int:
    seq = load_sequence(args.sequence)
    model = load_model(args.model)
    vocab, index = _load_index_arg(args)
    match_cfg, ctx_cfg = _match_configs(args)
    pruner = load_pruner(args.pruner) if args.pruner else None
    records = register_sequence(seq, model, vocab, index, match_cfg,
                                DetectorConfig(), ctx_cfg, _ransac_config(args),
                                pruner, args.topk)
    stream = _out_stream(args)
    registered = 0
    try:
        print("# egoreg-register v1", file=stream)
        print("# columns: frame index status keypoints matches correspondences "
              "inliers reproj " + " ".join(_POSE_COLUMNS), file=stream)
        for rec in records:
            est = rec.estimate
            fields = [f"frame {rec.frame_index} {est.status} {rec.n_keypoints} "
                      f"{rec.n_matches} {est.n_correspondences} {est.n_inliers} "
                      f"{_fmt(est.mean_reproj)}"]
            if est.pose is not None:
                registered += 1
                vals = list(est.pose.R.reshape(9)) + list(est.pose.t)
            else:
                vals = [float("nan")] * 12
            fields.extend(_fmt(v) for v in vals)
            print(" ".join(fields), file=stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    if registered == 0:
        print("no frame registered", file=sys.stderr)
        return EXIT_NO_RESULT
    return EXIT_OK


def _parse_register_output(path: str, n_frames: int) -> list[Pose | None]:
    estimates: list[Pose | None] = [None] * n_frames
    seen: set[int] = set()
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "# egoreg-register v1":
        raise CorruptTable(f"{path}: not an egoreg-register v1 file")
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "frame" or len(parts) != 8 + 12:
            raise CorruptTable(f"{path}:{lineno}: malformed record")
        try:
            idx = int(parts[1])
        except ValueError:
            raise CorruptTable(
                f"{path}:{lineno}: frame index {parts[1]!r} is not an integer") from None
        if not 0 <= idx < n_frames:
            raise CorruptTable(f"{path}:{lineno}: frame {idx} outside sequence")
        if idx in seen:
            raise CorruptTable(f"{path}:{lineno}: second record for frame {idx}")
        seen.add(idx)
        if parts[2] != "registered":
            continue
        try:
            vals = np.array([float(x) for x in parts[8:]])
        except ValueError as exc:
            raise CorruptTable(f"{path}:{lineno}: non-numeric pose value: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise CorruptTable(f"{path}:{lineno}: registered frame with non-finite pose")
        try:
            estimates[idx] = Pose(vals[:9].reshape(3, 3), vals[9:])
        except ValueError as exc:
            raise CorruptTable(f"{path}:{lineno}: invalid pose: {exc}") from exc
    return estimates


def _cmd_evaluate(args) -> int:
    gt_seq = load_sequence(args.ground_truth)
    refs = [fr.gt_pose for fr in gt_seq.frames]
    if any(p is None for p in refs):
        raise CorruptTable(f"{args.ground_truth}: every frame needs a reference pose")
    estimates = _parse_register_output(args.results, len(refs))
    report = registration_report(estimates, refs)
    curve = registration_curve(report, args.thresholds)
    print("# egoreg-evaluate v1")
    for i in range(len(refs)):
        if report.registered[i]:
            print(f"frame {i} pos_err {_fmt(report.pos_errors[i])} "
                  f"orient_err {_fmt(report.orient_errors[i])}")
        else:
            print(f"frame {i} unregistered")
    print(f"summary registered {report.n_registered} total {len(refs)}")
    print(f"summary pos_rms {_fmt(report.rms_pos)} pos_median {_fmt(report.median_pos)} "
          f"orient_rms {_fmt(report.rms_orient)} orient_median {_fmt(report.median_orient)}")
    for tau, count in curve["position"]:
        print(f"curve position {_fmt(tau)} {count}")
    for tau, count in curve["orientation"]:
        print(f"curve orientation {_fmt(tau)} {count}")
    return EXIT_OK


def _gt_poses(seq) -> list[Pose]:
    poses = [fr.gt_pose for fr in seq.frames]
    if any(p is None for p in poses):
        raise CorruptTable("sweeps need a reference pose on every frame")
    return poses


def _sweep_report(seq, model, vocab, index, match_cfg, ctx_cfg, args):
    frames = match_sequence(seq, model, vocab, index, match_cfg,
                            DetectorConfig(), ctx_cfg, shortlist_size=args.topk)
    gt = _gt_poses(seq)
    per_matches = [fm.matches for fm in frames]
    per_kps = [fm.keypoints for fm in frames]
    poses = [gt[fm.frame_index] for fm in frames]
    intrs = [seq.frames[fm.frame_index].intrinsics for fm in frames]
    thr = scaled_threshold(args.inlier_px, seq.frames[0].intrinsics)
    return count_inliers(per_matches, per_kps, poses, model, intrs, thr)


def _cmd_sweep(args) -> int:
    seq = load_sequence(args.sequence)
    model = load_model(args.model)
    vocab, index = _load_index_arg(args)
    print(f"# egoreg-sweep-{args.axis} v1")
    print("# columns: point mean_inliers mean_matches mean_ratio")
    match_cfg, ctx_cfg = _match_configs(args)
    if args.axis == "dim":
        for dim in args.dims:
            rep = _sweep_report(seq, model, vocab, index,
                                replace(match_cfg, embedding_dim=dim), ctx_cfg, args)
            print(f"dim {dim} mean_inliers {_fmt(rep.mean_inliers)} "
                  f"mean_matches {_fmt(rep.mean_matches)} mean_ratio {_fmt(rep.mean_ratio)}")
    else:
        for factor in args.factors:
            rep = _sweep_report(seq, model, vocab, index, match_cfg,
                                ContextConfig(scale_factor=factor), args)
            print(f"factor {_fmt(factor)} mean_inliers {_fmt(rep.mean_inliers)} "
                  f"mean_matches {_fmt(rep.mean_matches)} mean_ratio {_fmt(rep.mean_ratio)}")
    return EXIT_OK


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="egoreg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic day/night scene")
    p.add_argument("--preset", choices=["day-night-default", "identity"],
                   default="day-night-default")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_synth, needs_out=True)

    p = sub.add_parser("build-index", help="build the retrieval index for a model")
    p.add_argument("model")
    p.add_argument("--vocab-size", type=_at_least(2), default=1024)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_index, needs_out=True)

    p = sub.add_parser("prune", help="list frames a pruner keeps")
    p.add_argument("sequence")
    p.add_argument("--pruner", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("match", help="match sequence frames to model images")
    p.add_argument("sequence")
    p.add_argument("model")
    _add_match_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("register", help="estimate a pose for every frame")
    p.add_argument("sequence")
    p.add_argument("model")
    _add_match_flags(p)
    ransac = RansacConfig()
    p.add_argument("--reproj-px", type=_positive(), default=ransac.reproj_threshold,
                   help="inlier threshold at the 800px reference diagonal")
    p.add_argument("--min-inliers", type=_at_least(1), default=ransac.min_inliers)
    p.add_argument("--seed", type=_at_least(0), default=ransac.seed)
    p.add_argument("--pruner")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("evaluate", help="score register output against references")
    p.add_argument("results", help="output of `egoreg register`")
    p.add_argument("ground_truth", help="sequence file with reference poses")
    p.add_argument("--thresholds", type=_comma_list(_positive()), default="0.25,0.5,1,2,4",
                   help="comma list, meters for position and degrees for orientation")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="inlier counts along one parameter axis")
    p.add_argument("axis", choices=["dim", "roi"])
    p.add_argument("sequence")
    p.add_argument("model")
    _add_match_flags(p)
    p.add_argument("--dims", type=_comma_list(_at_least(1)), default="20,40,60,80,100")
    p.add_argument("--factors", type=_comma_list(_positive()),
                   default="0.7,0.8,0.9,1,1.1,1.5,2.5,5.5,10")
    p.add_argument("--inlier-px", type=_positive(), default=4.0,
                   help="reference-reprojection inlier threshold at the 800px diagonal")
    p.set_defaults(func=_cmd_sweep)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="key=value file mirroring the long flags")
    return parser, dict(sub.choices)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(args, commands[args.command], argv)
        if getattr(args, "needs_out", False) and args.out is None:
            commands[args.command].error("the --out flag is required")
        return args.func(args)
    except EgoregError as exc:
        print(f"egoreg: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"egoreg: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
