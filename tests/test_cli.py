import subprocess
import sys

import pytest

from egoreg.cli import main
from egoreg.io import load_index, load_model, load_sequence, save_pruner, save_sequence
from egoreg.model import Sequence
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


def test_config_rejects_unknown_keys(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_speed=9\n")
    code, _, err = run_cli(["match", str(scene_dir / "day2.eseq"),
                            str(scene_dir / "model.emrg"),
                            "--config", str(cfg), "--out", str(tmp_path / "x.txt")],
                           capsys)
    assert code == 2
    assert "warp_speed" in err


# ------------------------------------------------------------- exit codes


def test_usage_errors_are_exit_1(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1
    code, _, _ = run_cli(["register", "a.eseq", "b.emrg", "--no-such-flag"], capsys)
    assert code == 1
    code, _, _ = run_cli(["sweep", "sideways", "a.eseq", "b.emrg"], capsys)
    assert code == 1


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
