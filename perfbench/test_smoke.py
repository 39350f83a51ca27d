"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits every declared metric with its unit, that
the traced mode emits every per-layer metric, and that a deliberately
corrupted output trips the check that guards it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import oracles  # noqa: E402
from gatedepth import cli, evaluation, gating  # noqa: E402

DETAILS = {
    "train": {"simulate_s": "s", "preprocess_s": "s", "train_s": "s", "gridsearch_s": "s",
              "val_mae_m": "m"},
    "infer": {"baseline_frame_ms.p50": "ms", "baseline_frame_ms.tail": "ms",
              "network_frame_ms.p50": "ms", "network_frame_ms.tail": "ms",
              "eval_s": "s", "probe_s": "s"},
    "trapezoid": {"synth_s": "s", "rip_s": "s", "render_s": "s"},
}
# Per-pass call counts that must be non-zero exactly on these workloads.
CALLED_ON = {
    "gating.gated_response.calls": {"trapezoid"},
    "pipeline.load_samples.calls": {"train", "infer"},
    "network.train.calls": {"train"},
    "network.probe_learned_function.calls": {"infer"},
    "estimators.baseline_estimate.calls": {"infer"},
    "cli.main.calls": {"train", "infer"},
}


def run_toy(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_work" / workload / "result.json").read_text(encoding="utf-8"))
    assert result == record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, record = run_toy(workload, 0)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {d["name"]: d["unit"] for d in record["details"]} == DETAILS[workload]
    assert record["output_sha256"]
    env_keys = {"commit", "python", "numpy", "blas", "thread_settings", "nproc", "seed", "sizes"}
    assert env_keys <= set(record["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = run_toy(workload, 1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, workloads in CALLED_ON.items():
        assert (result["metrics"][name]["value"] > 0) == (workload in workloads), name
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def _failed_checks(workload):
    record = harness.run(workload, 5, 0.5, 0, "toy", ROOT)
    assert not record["result"]["correct"]
    return {c["name"] for c in record["checks"] if not c["ok"]}


def test_corrupted_overlap_trips_oracle(monkeypatch):
    exact = gating.gated_response
    monkeypatch.setattr(gating, "gated_response", lambda *a: exact(*a) * (1 + 1e-5))
    assert "sampled overlaps match the dense trapezoid rule" in _failed_checks("trapezoid")


def test_corrupted_depth_map_trips_decode_check(monkeypatch):
    write = evaluation.DepthMap.write_pgm
    monkeypatch.setattr(evaluation.DepthMap, "write_pgm",
                        lambda self, path: write(evaluation.DepthMap(self.depth + 0.01), path))
    assert "depth PGMs decode to the estimator arrays" in _failed_checks("infer")


def test_corrupted_report_trips_recount(monkeypatch):
    counts = cli.prefilter_counts

    def one_low_contrast_too_many(data):
        saturated, low, kept = counts(data)
        return saturated, low + 1, kept

    monkeypatch.setattr(cli, "prefilter_counts", one_low_contrast_too_many)
    assert "preprocess report matches recount" in _failed_checks("train")


def test_probe_oracle_matches_pinned_count():
    assert oracles.probe_triple_count(230, oracles.CONTRAST_FLOOR) == 8_117_200


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
