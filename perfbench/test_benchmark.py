"""The benchmark's own test: its tiny scale emits every declared metric.

    python -m pytest perfbench -q

Runs the same command as a full measurement, scaled down, for every
workload untraced and traced; about half a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_scale_emits_every_metric_with_its_unit(trace, declared):
    completed = _run(ROOT, "--scale", "tiny", "--seed", "7", "--trace", trace)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in WORKLOADS
        for metric in SPEC[declared]
    }
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert math.isfinite(metric["value"]), name
    if trace == "0":
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    else:
        for workload in WORKLOADS:
            assert result["metrics"][f"{workload}/trace.self_sum_frac"]["value"] == pytest.approx(1.0)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "warm_replay", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
