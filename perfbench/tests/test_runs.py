"""Whole runs on a tiny scene: determinism and the metric names promised."""

import json
from pathlib import Path

import pytest

import gen
import run

TINY = dict(n_points=24, n_model_images=2, n_query_frames=2, n_night_frames=3, vocab_k=8)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("inputs")
    gen.generate(3, out, **TINY)
    return out


def _run(tmp_path, inputs, workload, trace, requests):
    return run.run(workload, 3, 0.0, trace, inputs=inputs, work=tmp_path,
                   max_requests=requests)


@pytest.mark.parametrize("workload", ["day_raw", "map_ingest"])
def test_untraced_runs_repeat_exactly(tmp_path, tiny_inputs, workload):
    a = _run(tmp_path, tiny_inputs, workload, False, 1)
    b = _run(tmp_path, tiny_inputs, workload, False, 1)
    assert (a["correct"], a["attempted"], a["failed"]) == \
        (b["correct"], b["attempted"], b["failed"])
    assert a["attempted"] > 0


def test_registered_frac_repeats_exactly(tmp_path, tiny_inputs, capsys):
    fracs = []
    for _ in range(2):
        _run(tmp_path, tiny_inputs, "day_raw", False, 1)
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("# registered_frac"))
        fracs.append(line)
    assert fracs[0] == fracs[1]


def test_metric_names_match_benchmark_spec(tmp_path, tiny_inputs):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    untraced = _run(tmp_path, tiny_inputs, "night_prekeyed", False, 1)
    traced = _run(tmp_path, tiny_inputs, "night_prekeyed", True, 2)
    for key, result in (("end_to_end", untraced), ("per_layer", traced)):
        names = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == names
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
