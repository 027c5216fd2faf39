#!/usr/bin/env python
"""Alternating benchmark pairs: a base git ref against the working tree.

    python tools/perf_pairs.py --workload warm_replay --seed 1 --pairs 10 --base HEAD

Extracts ``--base`` with ``git archive`` into a temporary directory outside
the repository (deleted afterwards) and runs

    python3 perfbench/run.py --workload W --seed S --trace 0

in that tree and in the working tree, one run at a time.  The side that runs
first alternates from pair to pair, so a drift in the box's speed falls on
both sides alike.  For every end-to-end metric of ``BENCHMARK.json`` it
prints each run's value, both medians and their relative change, the base
runs' interquartile range, the pairs the change won in the metric's
``better`` direction, and one verdict (see :func:`verdict`).  It also
prints each run's ``box.run_speed`` from perfbench's result record.  It
exits 1 when a run fails its output checks, and edits nothing under
``perfbench/``.

Run it from a checkout with no other benchmark running on the box.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Run:
    """One benchmark run: its end-to-end metrics and whether it passed its checks."""

    correct: bool
    metrics: dict[str, float] = field(default_factory=dict)
    run_speed: float | None = None


def parse_run(stdout: str, returncode: int, record: dict | None) -> Run:
    """A run from perfbench's output: its last line is the JSON result.

    *record* is the run's result file (``.bench_out/results/…``), which
    holds the box speed; ``None`` when the run wrote none.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return Run(correct=False)
    metrics = {name: float(metric["value"]) for name, metric in result["metrics"].items()}
    speed = (record or {}).get("env", {}).get("box.run_speed")
    correct = bool(result["correct"]) and returncode == 0 and result["failed"] == 0
    return Run(correct, metrics, None if speed is None else float(speed))


def _values(values: list[float | None]) -> str:
    return " ".join("-" if value is None else f"{value:.6g}" for value in values)


def _compare(
    before: list[float], after: list[float], better: str
) -> tuple[float, float, float, int]:
    """Both medians, the base runs' IQR and the pairs the change won in the ``better`` direction."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(before, after))
    iqr = float(np.subtract(*np.percentile(before, [75, 25])))
    return float(np.median(before)), float(np.median(after)), iqr, wins


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """The acceptance rule's reading of one metric over ``(before[i], after[i])`` pairs.

    ``GAIN`` when the change wins at least 9 in 10 pairs in the ``better``
    direction (ties count for neither) and its median is better by more
    than the base runs' interquartile range; ``PAST BOUND`` when its median
    is worse by more than *bound*; ``UNRESOLVED`` when the base runs' IQR,
    relative to their median, is wider than *bound*, unless every change
    run beats every base run; ``WITHIN BOUND`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    median_before, median_after, iqr, wins = _compare(before, after, better)
    gain = sign * (median_after - median_before)
    if 10 * wins >= 9 * len(before) and gain > iqr:
        return f"GAIN: the change wins {wins}/{len(before)} pairs, its median beyond the base IQR"
    worse = -gain / abs(median_before) if median_before else 0.0
    if worse > bound:
        return f"PAST BOUND: the change's median is {worse:.1%} worse"
    spread = iqr / abs(median_before) if median_before else 0.0
    beats_all = min(sign * c for c in after) > max(sign * b for b in before)
    if spread > bound and not beats_all:
        return f"UNRESOLVED: the base IQR is {spread:.1%} of its median, past the bound"
    return "WITHIN BOUND"


def summarize(spec: dict, pairs: list[tuple[Run, Run]]) -> tuple[list[str], bool]:
    """Report lines for ``(base, change)`` pairs, and whether every run passed."""
    base = [pair[0] for pair in pairs]
    change = [pair[1] for pair in pairs]
    lines = [
        f"{len(pairs)} pairs, base | change",
        f"box.run_speed  {_values([run.run_speed for run in base])} | "
        f"{_values([run.run_speed for run in change])}",
    ]
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        pairs_with = [
            (b.metrics[name], c.metrics[name])
            for b, c in pairs
            if name in b.metrics and name in c.metrics
        ]
        if not pairs_with:
            lines.append(f"{name}: not reported")
            continue
        before = [b for b, _ in pairs_with]
        after = [c for _, c in pairs_with]
        lines.append(f"{name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
        if len(set(before + after)) == 1:
            lines.append(f"  every run  {before[0]!r}")
        else:
            lines.append(f"  base    {_values(before)}")
            lines.append(f"  change  {_values(after)}")
            median_before, median_after, iqr, wins = _compare(before, after, better)
            relative = (median_after - median_before) / median_before if median_before else 0.0
            lines.append(
                f"  median  {median_before:.6g} -> {median_after:.6g} ({relative:+.1%}), "
                f"base IQR {iqr:.4g}, change wins {wins}/{len(pairs_with)}"
            )
        lines.append(f"  {verdict(before, after, better, bound)}")
    failed = [
        f"pair {index} {side} failed its checks"
        for index, pair in enumerate(pairs, start=1)
        for side, run in zip(("base", "change"), pair)
        if not run.correct
    ]
    return lines + failed, not failed


def extract(ref: str, into: Path) -> None:
    """Write the tree of git *ref* into the directory *into*."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=REPO_ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_benchmark(tree: Path, workload: str, seed: int) -> Run:
    """One ``--trace 0`` run of *workload* in the checkout at *tree*."""
    path = tree / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    path.unlink(missing_ok=True)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    record = json.loads(path.read_text()) if path.is_file() else None
    if completed.returncode != 0:
        print(completed.stdout[-2000:] + completed.stderr[-2000:], file=sys.stderr)
    return parse_run(completed.stdout, completed.returncode, record)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)

    base_tree = Path(tempfile.mkdtemp(prefix="perf-pairs-"))
    try:
        extract(args.base, base_tree)
        pairs = []
        for index in range(1, args.pairs + 1):
            base_first = index % 2 == 1
            order = [(base_tree, "base"), (REPO_ROOT, "change")]
            runs = {}
            for tree, side in order if base_first else order[::-1]:
                runs[side] = run_benchmark(tree, args.workload, args.seed)
            pairs.append((runs["base"], runs["change"]))
            first = "base" if base_first else "change"
            print(f"pair {index}/{args.pairs} done ({first} first)", flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    lines, ok = summarize(spec, pairs)
    print(f"{args.workload}, seed {args.seed}, base {args.base} against the working tree")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
