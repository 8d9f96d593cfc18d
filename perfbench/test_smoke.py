"""Smoke test of the benchmark harness.

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, both in the
readable lines and in the final JSON object, and that no check failed.
Also checks that the benchmark refuses to run, without printing a result,
when the program's sources are absent.  The traced hydrogen run keeps its
fixed ~25 s of KS work at any size, so the whole test takes about two
minutes without numba.

Usage: python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        value, unit = printed[m["name"]][:2]
        float(value)
        assert unit == m["unit"], m["name"]
    assert printed["fail_frac"][:2] == ["0", "ratio"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("_out", "results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "figures", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
