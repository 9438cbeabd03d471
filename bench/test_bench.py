"""Smoke test of the benchmark's own output shape and metric names.

    python3 -m pytest bench/test_bench.py

Runs the cheapest workload on a small seed, untraced and traced, with a
one-second run length, and checks the last stdout line against
BENCHMARK.json.  Also checks that the benchmark refuses to report
anything where the lieform sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd: str, trace: int) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", "analyze-q", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_shape(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = proc.stdout.rsplit("\n", 2)[0]
    wanted = list(expected) + (["algebra_p50_ms", "algebra_tail_ms", "failed_frac"] if trace == 0 else [])
    for name in wanted:
        assert name in printed, "%s is not printed for people" % name


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns(".work", "results", "__pycache__")
        )
    proc = _run(str(tmp_path), 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
