"""``tools/perf_pairs.py`` summarizes alternating benchmark pairs.

Drives the summary on canned perfbench result lines; no benchmark runs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = {
    "end_to_end": [
        {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "makespan_vs_mct", "unit": "ratio", "better": "lower", "bound": 0.1},
    ]
}


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_pairs"] = module
    spec.loader.exec_module(module)
    return module


def result_line(jobs_per_s, peak_rss_mb, correct=True, failed=0):
    """The last line perfbench's run.py prints."""
    metrics = {
        "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "makespan_vs_mct": {"value": 0.9864923214858784, "unit": "ratio"},
    }
    return "env: ...\n" + json.dumps(
        {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    )


def run(perf_pairs, jobs_per_s, peak_rss_mb, speed=0.8, **result):
    record = {"env": {"box.run_speed": speed}}
    return perf_pairs.parse_run(result_line(jobs_per_s, peak_rss_mb, **result), 0, record)


def test_summary_reports_medians_iqr_wins_and_bounds(perf_pairs):
    pairs = [
        (run(perf_pairs, base, 46.0, speed=0.81), run(perf_pairs, change, rss, speed=0.79))
        for base, change, rss in [(480.0, 600.0, 48.0), (490.0, 620.0, 48.5), (500.0, 480.0, 49.0)]
    ]
    lines, ok = perf_pairs.summarize(SPEC, pairs)
    text = "\n".join(lines)
    assert ok
    assert "box.run_speed  0.81 0.81 0.81 | 0.79 0.79 0.79" in text
    assert "  base    480 490 500" in text
    assert "  change  600 620 480" in text
    # Medians 490 -> 600, base IQR 495 - 485, two of three pairs won.
    assert "median  490 -> 600 (+22.4%), base IQR 10, change wins 2/3" in text
    # RSS median 46 -> 48.5 is 5.4% worse, past its 5% bound; jobs/s is not.
    rss = text[text.index("peak_rss_mb"):]
    assert "change wins 0/3" in rss
    assert "PAST BOUND: the change's median is 5.4% worse" in rss
    assert text.count("PAST BOUND") == 1
    assert "  every run  0.9864923214858784" in text


def test_a_failed_run_fails_the_summary(perf_pairs):
    good = run(perf_pairs, 480.0, 46.0)
    failed = run(perf_pairs, 600.0, 46.0, correct=False)
    lines, ok = perf_pairs.summarize(SPEC, [(good, good), (good, failed)])
    assert not ok
    assert lines[-1] == "pair 2 change failed its checks"
    assert not perf_pairs.parse_run(result_line(1.0, 1.0, failed=2), 0, None).correct
    assert not perf_pairs.parse_run(result_line(1.0, 1.0), 1, None).correct
    assert not perf_pairs.parse_run("Traceback ...", 1, None).correct


def test_a_missing_record_leaves_the_speed_unknown(perf_pairs):
    parsed = perf_pairs.parse_run(result_line(480.0, 46.0), 0, None)
    assert parsed.correct and parsed.run_speed is None
    lines, _ = perf_pairs.summarize(SPEC, [(parsed, parsed)])
    assert lines[1] == "box.run_speed  - | -"


@pytest.mark.parametrize(
    "better, before, after, expected",
    [
        # Nine wins in ten, medians 500 -> 600 past the base IQR of ~5.
        ("higher", [500, 498, 502, 505, 495, 500, 501, 499, 503, 497],
         [600, 610, 590, 605, 595, 600, 620, 580, 602, 490], "GAIN: the change wins 9/10"),
        # Eight wins in ten is not enough, whatever the medians.
        ("higher", [500, 498, 502, 505, 495, 500, 501, 499, 503, 497],
         [600, 610, 590, 605, 595, 600, 620, 580, 490, 490], "WITHIN BOUND"),
        # Ten wins whose medians differ by less than the base IQR of 4.5.
        ("lower", [500.0 + k for k in range(10)], [499.0 + k for k in range(10)],
         "WITHIN BOUND"),
        # A lower-is-better median 10% worse, past a 5% bound.
        ("lower", [100.0, 100.0, 100.0], [110.0, 110.0, 110.0],
         "PAST BOUND: the change's median is 10.0% worse"),
        # The base runs spread 50% of their median, wider than the bound.
        ("higher", [60.0, 80.0, 120.0, 140.0], [102.0, 98.0, 101.0, 99.0],
         "UNRESOLVED: the base IQR is 50.0% of its median"),
        # As wide, but every change run beats every base run.
        ("higher", [10.0, 50.0, 90.0, 95.0, 96.0, 97.0], [98.0] * 6, "WITHIN BOUND"),
    ],
)
def test_verdict_applies_the_acceptance_rule(perf_pairs, better, before, after, expected):
    assert perf_pairs.verdict(before, after, better, 0.05).startswith(expected)


def test_summary_prints_one_verdict_per_metric(perf_pairs):
    pairs = [
        (run(perf_pairs, base, 46.0), run(perf_pairs, base * 1.3, 46.2))
        for base in (480.0, 490.0, 500.0, 495.0, 485.0, 492.0, 488.0, 498.0, 483.0, 491.0)
    ]
    lines, ok = perf_pairs.summarize(SPEC, pairs)
    assert ok
    # jobs/s gains; RSS 46.0 -> 46.2 is 0.4% worse, inside its 5% bound;
    # the quality ratio never moved.
    verdicts = [line for line in lines if line.startswith("  ") and line[2:3].isupper()]
    assert [line.split(":")[0].strip() for line in verdicts] == [
        "GAIN", "WITHIN BOUND", "WITHIN BOUND"
    ]
