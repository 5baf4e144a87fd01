"""Smoke test of the benchmark harness on tiny inputs; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_BOUNDS = (
    "--max-r", "2", "--max-s", "2", "--genus-cap", "33",
    "--branch-order-cap", "8", "--base-genera", "1,1", "--workers", "1",
)
TINY_SWEEP = {
    "kind": "classify",
    "setup": "isoprod.cli",
    "ops": [run.sweep_op(s, TINY_BOUNDS) for s in ("ab:2,2", "sym:3")],
}
TINY_CHARTAB = {"kind": "chartab", "setup": "isoprod.cli", "ops": [run.chartab_op("sym:3")]}
SYM3_TABLE = {"exit": 0, "order": 6, "classes": 3, "degrees": [1, 1, 2], "burnside": True}


def _facts(workload):
    report, _setup, _numpy, error = run.run_pass(workload, workload["ops"], False, 60)
    assert error is None, error
    return {op["name"]: op["facts"] for op in report["ops"]}


def test_chartab_facts_are_the_known_table():
    assert _facts(TINY_CHARTAB) == {"sym:3": SYM3_TABLE}


def test_every_end_to_end_metric_appears():
    result, info = run.run_workload(TINY_CHARTAB, {"sym:3": SYM3_TABLE}, 1, 0.1, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["wall_s"]["samples"] >= 1


def test_every_per_layer_metric_appears():
    expected = _facts(TINY_SWEEP)
    assert all(f["exit"] == 0 for f in expected.values())
    result, info = run.run_workload(TINY_SWEEP, expected, 1, 0.1, True)
    assert result["correct"] and info["traced_passes"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    assert result["metrics"]["covers.raw_tuples"]["value"] > 0
    assert result["metrics"]["classify.buckets"]["value"] > 0


def test_wrong_output_counts_as_failed():
    wrong = dict(SYM3_TABLE, degrees=[1, 1, 1, 1, 1, 1])
    result, info = run.run_workload(TINY_CHARTAB, {"sym:3": wrong}, 1, 0.1, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert info["errors"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_hook_is_reported_absent(monkeypatch):
    import tracer

    fake = ("classify._cover_buckets", "call", [("json", "no_such_helper")])
    monkeypatch.setattr(tracer, "HOOKS", (fake,))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["classify._cover_buckets"]
    metrics = tracer.layer_metrics(t)
    assert "classify.buckets" not in metrics and "covers.truncated" not in metrics
    assert "covers.enumerate_s" in metrics
