import subprocess
import sys

import pytest

from egoreg.cli import _build_parser, _match_configs, _ransac_config, main
from egoreg.features import ContextConfig
from egoreg.io import load_index, load_model, load_sequence, save_pruner, save_sequence
from egoreg.matching import MatchConfig
from egoreg.model import Sequence
from egoreg.registration import RansacConfig
from egoreg.retrieval import DEFAULT_SHORTLIST
from egoreg.sequence import LinearPruner


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """One full synth run shared by every CLI test, plus 2-frame cuts."""
    d = tmp_path_factory.mktemp("cli_scene")
    code = main(["synth", "--preset", "day-night-default", "--seed", "0",
                 "--out", str(d)])
    assert code == 0
    day = load_sequence(d / "day.eseq")
    save_sequence(Sequence(day.frames[:2]), d / "day2.eseq")
    night = load_sequence(d / "night.eseq")
    save_sequence(Sequence(night.frames[:2]), d / "night2.eseq")
    return d


# ------------------------------------------------------------------- synth


def test_synth_outputs_load(scene_dir, capsys):
    model = load_model(scene_dir / "model.emrg")
    assert len(model.points) > 0 and len(model.images) == 10
    day = load_sequence(scene_dir / "day.eseq")
    assert len(day.frames) == 10
    assert day.frames[0].gt_pose is not None


def test_synth_requires_out(capsys):
    code, _, err = run_cli(["synth"], capsys)
    assert code == 1
    assert "--out" in err


# ------------------------------------------------------------- build-index


def test_build_index_and_load(scene_dir, tmp_path, capsys):
    out = tmp_path / "index.erix"
    code, stdout, _ = run_cli(["build-index", str(scene_dir / "model.emrg"),
                               "--vocab-size", "32", "--out", str(out)], capsys)
    assert code == 0
    assert stdout.startswith("# egoreg-build-index v1")
    vocab, index = load_index(out)
    assert vocab.k == 32
    assert len(index.image_ids) == 10


# ------------------------------------------------------------------- prune


def test_prune_lists_kept_frames(scene_dir, tmp_path, capsys):
    pruner_path = tmp_path / "pruner.json"
    save_pruner(LinearPruner.keep_all(), pruner_path)
    code, out, _ = run_cli(["prune", str(scene_dir / "day2.eseq"),
                            "--pruner", str(pruner_path)], capsys)
    assert code == 0
    assert "kept 0" in out and "kept 1" in out
    assert "total 2 kept 2" in out


# ---------------------------------------------------------- match/register


def test_match_register_evaluate_pipeline(scene_dir, tmp_path, capsys):
    match_out = tmp_path / "matches.txt"
    code, _, _ = run_cli(["match", str(scene_dir / "day2.eseq"),
                          str(scene_dir / "model.emrg"),
                          "--mode", "nn", "--out", str(match_out)], capsys)
    assert code == 0
    lines = match_out.read_text().splitlines()
    assert lines[0] == "# egoreg-match v1"
    assert any(line.startswith("match 0 ") for line in lines)

    reg_out = tmp_path / "poses.txt"
    code, _, _ = run_cli(["register", str(scene_dir / "day2.eseq"),
                          str(scene_dir / "model.emrg"),
                          "--mode", "nn", "--out", str(reg_out)], capsys)
    assert code == 0
    assert reg_out.read_text().startswith("# egoreg-register v1")

    code, out, _ = run_cli(["evaluate", str(reg_out),
                            str(scene_dir / "day2.eseq")], capsys)
    assert code == 0
    assert "# egoreg-evaluate v1" in out
    assert "summary registered" in out


_IDENTITY = "1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0"


@pytest.mark.parametrize("records, reason", [
    ([f"frame abc registered 9 9 9 9 0.5 {_IDENTITY}"], "frame index 'abc'"),
    ([f"frame 0 registered 9 9 9 9 0.5 {_IDENTITY.replace('0.0', 'x', 1)}"],
     "non-numeric pose value"),
    ([f"frame 1 registered 9 9 9 9 0.5 {_IDENTITY}",
      f"frame 1 failed 0 0 0 0 nan {' '.join(['nan'] * 12)}"], "second record for frame 1"),
], ids=["frame-index", "pose-value", "two-records"])
def test_malformed_results_are_exit_2(scene_dir, tmp_path, capsys, records, reason):
    results = tmp_path / "poses.txt"
    results.write_text("\n".join(["# egoreg-register v1", *records]) + "\n")
    code, out, err = run_cli(["evaluate", str(results), str(scene_dir / "day2.eseq")], capsys)
    assert code == 2
    assert f"{results}:{len(records) + 1}: " in err and reason in err
    assert "Traceback" not in err and out == ""


def test_match_deterministic_bytes(scene_dir, tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(["match", str(scene_dir / "day2.eseq"),
                              str(scene_dir / "model.emrg"),
                              "--mode", "nn", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_register_no_frames_is_exit_3(scene_dir, tmp_path, capsys):
    # an impossible consensus requirement forces every frame to fail
    code, _, err = run_cli(["register", str(scene_dir / "day2.eseq"),
                            str(scene_dir / "model.emrg"),
                            "--mode", "nn", "--min-inliers", "500",
                            "--out", str(tmp_path / "p.txt")], capsys)
    assert code == 3
    assert "no frame registered" in err


# ------------------------------------------------------------------ config


def test_config_file_fills_flags_and_explicit_wins(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=nn\ntopk=5\n")
    out1 = tmp_path / "via_config.txt"
    code, _, _ = run_cli(["match", str(scene_dir / "day2.eseq"),
                          str(scene_dir / "model.emrg"),
                          "--config", str(cfg), "--out", str(out1)], capsys)
    assert code == 0
    out2 = tmp_path / "via_flags.txt"
    code, _, _ = run_cli(["match", str(scene_dir / "day2.eseq"),
                          str(scene_dir / "model.emrg"),
                          "--mode", "nn", "--topk", "5", "--out", str(out2)], capsys)
    assert code == 0
    assert out1.read_text() == out2.read_text()
    # explicit --topk overrides the config value; a bad config value errors
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode=warp\n")
    code, _, err = run_cli(["match", str(scene_dir / "day2.eseq"),
                            str(scene_dir / "model.emrg"),
                            "--config", str(bad), "--out", str(tmp_path / "x.txt")],
                           capsys)
    assert code == 2
    assert "mode" in err
    # a value that fails its type names its key
    for line, key in (("dim=abc\n", "dim"), ("dim=0\n", "dim"), ("topk=x\n", "topk")):
        bad.write_text(line)
        code, _, err = run_cli(["match", str(scene_dir / "day2.eseq"),
                                str(scene_dir / "model.emrg"),
                                "--config", str(bad), "--out", str(tmp_path / "x.txt")],
                               capsys)
        assert code == 2
        assert f": {key}: " in err and "Traceback" not in err


def test_config_rejects_unknown_keys(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_speed=9\n")
    code, _, err = run_cli(["match", str(scene_dir / "day2.eseq"),
                            str(scene_dir / "model.emrg"),
                            "--config", str(cfg), "--out", str(tmp_path / "x.txt")],
                           capsys)
    assert code == 2
    assert "warp_speed" in err


def test_flag_defaults_are_the_library_defaults():
    parser, _ = _build_parser()
    for argv in (["match"], ["register"], ["sweep", "dim"], ["sweep", "roi"]):
        args = parser.parse_args(argv + ["a.eseq", "b.emrg"])
        assert _match_configs(args) == (MatchConfig(), ContextConfig())
        assert args.topk == DEFAULT_SHORTLIST
    assert _ransac_config(parser.parse_args(["register", "a.eseq", "b.emrg"])) == RansacConfig()


# ------------------------------------------------------------- exit codes


def test_usage_errors_are_exit_1(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1
    code, _, _ = run_cli(["register", "a.eseq", "b.emrg", "--no-such-flag"], capsys)
    assert code == 1
    code, _, _ = run_cli(["sweep", "sideways", "a.eseq", "b.emrg"], capsys)
    assert code == 1
    # bad values fail before any file is read: none of these files exist
    for argv, flag in ((["sweep", "dim", "a.eseq", "b.emrg", "--dims", "20,abc"], "--dims"),
                       (["sweep", "roi", "a.eseq", "b.emrg", "--factors", "1,x"], "--factors"),
                       (["evaluate", "r.txt", "a.eseq", "--thresholds", "1,x"], "--thresholds"),
                       (["match", "a.eseq", "b.emrg", "--dim", "0"], "--dim"),
                       (["match", "a.eseq", "b.emrg", "--topk", "-1"], "--topk"),
                       (["build-index", "b.emrg", "--vocab-size", "1", "--out", "i.erix"],
                        "--vocab-size"),
                       (["register", "a.eseq", "b.emrg", "--seed", "-1"], "--seed")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage:") and flag in err


@pytest.mark.parametrize("command, flag, value", [
    ("register", "--temporal-window", "-2"),  # used to switch tracking off
    ("register", "--min-inliers", "-5"),
    ("register", "--min-inliers", "0"),
    ("register", "--ratio", "-1"),  # used to run the whole clip, then exit 3
    ("register", "--ratio", "0"),
    ("register", "--ratio", "1.5"),
    ("register", "--ratio", "nan"),
    ("register", "--reproj-px", "-1"),
    ("register", "--reproj-px", "inf"),
    ("register", "--roi-scale", "0"),
    ("register", "--roi-scale", "nan"),  # used to fail on a huge negative side
    ("match", "--temporal-window", "-1"),
    ("sweep roi", "--factors", "1,0"),
    ("sweep roi", "--factors", "1,nan"),
    ("sweep roi", "--inlier-px", "-1"),
    ("evaluate", "--thresholds", "-1"),  # used to print a curve row for each
    ("evaluate", "--thresholds", "0"),
    ("evaluate", "--thresholds", "nan"),
    ("evaluate", "--thresholds", "inf"),
])
def test_out_of_range_numbers_are_usage_errors(scene_dir, tmp_path, capsys, command, flag,
                                               value):
    argv = command.split() + [str(scene_dir / "day2.eseq"), str(scene_dir / "model.emrg")]
    out = tmp_path / "out.txt"
    if command in ("match", "register"):  # sweep and evaluate write to stdout only
        argv += ["--out", str(out)]
    code, stdout, err = run_cli(argv + [flag, value], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("usage:") and flag in err
    assert not out.exists()
    # the same value from a config file is a data error naming its key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    code, stdout, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert (code, stdout) == (2, "")
    assert f": {flag[2:].replace('-', '_')}: " in err and "Traceback" not in err
    assert not out.exists()


def test_missing_files_are_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["register", str(tmp_path / "none.eseq"),
                            str(tmp_path / "none.emrg")], capsys)
    assert code == 2
    assert "error" in err


def test_corrupt_model_is_exit_2(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.emrg"
    data = (scene_dir / "model.emrg").read_bytes()
    bad.write_bytes(data[:len(data) // 2])
    code, _, err = run_cli(["match", str(scene_dir / "day2.eseq"), str(bad),
                            "--mode", "nn", "--out", str(tmp_path / "x.txt")], capsys)
    assert code == 2


# ------------------------------------------------------------------- sweep


def test_sweep_dim_smoke(scene_dir, capsys):
    code, out, _ = run_cli(["sweep", "dim", str(scene_dir / "day2.eseq"),
                            str(scene_dir / "model.emrg"),
                            "--mode", "single", "--dims", "20"], capsys)
    assert code == 0
    assert out.startswith("# egoreg-sweep-dim v1")
    assert any(line.startswith("dim 20 ") for line in out.splitlines())


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "egoreg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "egoreg" in proc.stdout
