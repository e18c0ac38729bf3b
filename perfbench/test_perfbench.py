"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs use `--smoke`, which shrinks the session batches.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env=None, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def test_spec_lists_every_reported_layer_metric():
    units = tracer.metric_units()
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(units.items())
    assert [w["name"] for w in SPEC["workloads"]] == ["mc-honest", "mc-wire", "analyze"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-honest", "mc-wire", "analyze"])
def test_smoke_run_prints_every_metric(workload, trace):
    env = dict(os.environ, SELFTEST_SEED="987654")  # must not reach the CLI
    done = run_bench(workload, trace, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


def _reference_with_wrong_value() -> dict:
    reference = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))
    reference["dimclassical"]["certificate"]["epsilon"] += 1e-6
    return reference


def test_reference_check_trips_on_a_wrong_value(tmp_path):
    workload = worker.AnalyzeWorkload()
    checks = worker.Checks()
    workload.run_step("dimclassical", 5, tmp_path, checks)
    assert checks.failures == []
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(_reference_with_wrong_value()), encoding="utf-8")
    checks = worker.Checks()
    worker.AnalyzeWorkload(wrong).run_step("dimclassical", 5, tmp_path, checks)
    assert checks.failures == [f"seed 5: dimclassical.certificate.epsilon: 1.75 != {1.75 + 1e-6}"]


def test_compare_reference_reports_missing_and_different_values():
    out: list[str] = []
    worker.compare_reference({"a": 1.0, "b": {"c": True}}, {"a": 1.0 + 1e-12, "b": {"c": True}}, "m", out)
    assert out == []
    worker.compare_reference({"a": 1.0}, {"a": 1.0, "b": 2.0}, "m", out)
    worker.compare_reference({"a": 1.1}, {"a": 1.0}, "m", out)
    worker.compare_reference({"a": False}, {"a": True}, "m", out)
    assert len(out) == 3


def _checkout_copy(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_command_fails_when_a_reference_value_is_wrong(tmp_path):
    checkout = _checkout_copy(tmp_path, with_src=True)
    (checkout / "perfbench" / "reference.json").write_text(
        json.dumps(_reference_with_wrong_value()), encoding="utf-8"
    )
    done = run_bench("analyze", 0, cwd=checkout)
    assert done.returncode == 1
    assert "dimclassical.certificate.epsilon" in done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_command_fails_without_the_program(tmp_path):
    checkout = _checkout_copy(tmp_path, with_src=False)
    done = run_bench("mc-honest", 0, cwd=checkout)
    assert done.returncode != 0
    assert done.stdout == ""
