"""Smoke tests of the benchmark harness on the fast ``smoke`` case.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seconds", "0.2", *args],
        cwd=root, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().splitlines()


def check_metrics(result, declared):
    assert set(result) == {m["name"] for m in declared}
    for m in declared:
        assert result[m["name"]]["unit"] == m["unit"]
        assert isinstance(result[m["name"]]["value"], (int, float))


def test_untraced_run_reports_every_end_to_end_metric():
    proc, lines = run("--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_runs_report_every_layer_metric_with_repeatable_counts():
    results = []
    for seed in ("1", "2"):
        proc, lines = run("--seed", seed, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(lines[-1]))
    for result in results:
        assert result["correct"]
        check_metrics(result["metrics"], SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["faults.locations"] == 84
    assert counts[0]["faults.decode_calls"] >= counts[0]["faults.branches"] == 106


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = run("--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
