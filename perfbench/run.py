"""Run one benchmark workload, check its outputs and report its metrics.

    python3 perfbench/run.py --workload warm_replay --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures its per-layer metrics in a traced run.  Without
``--workload`` every workload runs, each in its own process.  Human-readable
lines (environment, every metric with its sample counts, failures) come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check fails.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

from common import OUT, ROOT, Metric, fingerprint, import_repro, reference_rate

WORKLOADS = ("warm_replay", "event_core", "live_tcp")


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the same workloads, scaled down to run in seconds")
    return parser.parse_args()


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (own peak RSS), then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--trace", str(args.trace), "--scale", args.scale]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        print(f"== {workload}", flush=True)
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= result["correct"] and completed.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _measure(args: argparse.Namespace, seconds: float) -> dict:
    tiny = args.scale == "tiny"
    if args.workload == "live_tcp":
        import live

        return (live.measure_traced if args.trace else live.measure)(args.seed, seconds, tiny)
    import replays

    measure = replays.measure_traced if args.trace else replays.measure
    return measure(args.workload, args.seed, seconds, tiny)


def _declared(result: dict, spec: dict, trace: int, ref_rate: float) -> list[Metric]:
    """The metrics ``BENCHMARK.json`` declares for this mode, in its order."""
    if not trace:
        measured = {metric.name: metric for metric in result["metrics"]}
        for metric in result["metrics"]:
            print(f"  {metric.name:<18} {metric.value:14.6g} {metric.unit:<8} {metric.note}")
        metrics = [measured[declared["name"]] for declared in spec["end_to_end"]]
        for metric, declared in zip(metrics, spec["end_to_end"]):
            if metric.unit != declared["unit"]:
                raise SystemExit(f"error: {metric.name} measured in {metric.unit}, "
                                 f"declared in {declared['unit']}")
        return metrics
    layers = dict(result["layers"], **{"env.ref_rate": ref_rate})
    # A layer this workload never enters (the live service on a replay, the
    # cMA under MCT) did no work: its counts and times are 0.
    absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    metrics = [Metric(m["name"], float(layers.get(m["name"], 0.0)), m["unit"])
               for m in spec["per_layer"]]
    for metric in metrics:
        print(f"  {metric.name:<28} {metric.value:14.6g} {metric.unit}")
    if absent:
        print("  not on this workload's path (0): " + " ".join(absent))
    return metrics


def main() -> int:
    args = _parse()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_repro()
    if args.workload == "all":
        return _run_all(args)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.scale == "tiny":
        seconds = min(seconds, 2.0)

    env = fingerprint()
    env["ref_rate_before"] = reference_rate()
    result = _measure(args, seconds)
    env["ref_rate_after"] = reference_rate()
    env["env.ref_rate"] = (env["ref_rate_before"] + env["ref_rate_after"]) / 2.0
    env.update({f"box.{key}": value for key, value in result.get("box", {}).items()})
    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))

    metrics = _declared(result, spec, args.trace, env["env.ref_rate"])
    problems = list(result["problems"])
    problems += [f"{m.name} is {m.value}" for m in metrics if not math.isfinite(m.value)]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems

    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "scale": args.scale, "env": env, "correct": correct,
              "problems": problems, "units": result.get("units"),
              "metrics": {m.name: {"value": m.value, "unit": m.unit, "note": m.note}
                          for m in (result.get("metrics") or metrics)}}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
