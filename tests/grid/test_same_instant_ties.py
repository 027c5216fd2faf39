"""Golden same-instant ties: the simulator's full output on a crowded clock.

Every event of this scenario lands on an integer instant, so arrivals,
retry re-admissions, joins, leaves, breakdowns, repairs, cancellations and
scheduler ticks collide all the time.  The drain order at equal times (see
:mod:`repro.grid.events`) decides every trace line, activation, per-job
record, machine event and metric.  The digests below pin them to the bit;
they were measured on the heap-only event core (one ``TASK_SUBMIT`` per
arrival, one ``TASK_END`` per placement), which makes this test the
differential oracle for the arrival cursor and for settling queues without
per-placement events.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.core.config import ActivationPolicy, RetryPolicy
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs.tracelog import TraceLog

ARRIVALS = [0, 0, 1, 2, 2, 3, 4, 4, 5, 5, 6, 6, 7, 8]
WORKLOADS = [3000, 2000, 2500, 6000, 1500, 3500, 2000, 3000, 2500, 4500, 500, 1000, 500, 2000]
CANCELS = {3: 5, 9: 8, 12: 9}
DUE_DATES = {0: 1, 1: 1, 4: 2, 5: 4, 7: 6, 8: 5, 9: 7, 10: 6, 11: 7, 13: 8}
#: Trace fields read off the wall clock.
WALL_FIELDS = {"scheduler_seconds", "phases", "duration_seconds"}
#: Activation-line fields newer than the digests: the scheduler's warm-start
#: reuse over the solve, zero under a heuristic.
REUSE_FIELDS = ("carried", "filled", "evaluations")

DRIVERS = {
    "periodic": None,
    "adaptive": ActivationPolicy.adaptive(backlog_threshold=2, min_interval=1.0),
}

#: Trace lines and sha256 of the canonical output, per heuristic.  Both
#: drivers fire on the same integer ticks here, so they must agree.
GOLDEN = {
    "mct": (108, "756a61cfe7a24987677c2064d002c02b8d7d6a6e670f9846d84d9fdbd8762ae4"),
    "min_min": (107, "914316d96f8a545ef9b02750821b4096296eeee5dc95d8e3afc52536e733a67a"),
}


class _SubmitLog(GridSimulator):
    """Records every admission: its instant and whether it is a retry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submits: list[tuple[float, bool]] = []

    def _handle_submit(self, position, now, adaptive):
        self.submits.append((now, position in self._retry_positions))
        super()._handle_submit(position, now, adaptive)


def run_scenario(driver: str, heuristic: str) -> tuple[dict, _SubmitLog]:
    """The simulator's observable output as plain JSON-able data."""
    jobs = [
        GridJob(
            job_id,
            float(WORKLOADS[job_id]),
            arrival,
            due_date=DUE_DATES.get(job_id),
            cancel_time=CANCELS.get(job_id),
        )
        for job_id, arrival in enumerate(ARRIVALS)
    ]
    machines = [
        GridMachine(0, mips=1000.0),
        GridMachine(1, mips=1500.0, join_time=2, leave_time=6),
        GridMachine(2, mips=2000.0, breakdowns=((4, 5), (7, 8))),
    ]
    buffer = io.StringIO()
    simulator = _SubmitLog(
        jobs,
        machines,
        HeuristicBatchPolicy(heuristic),
        SimulationConfig(
            activation_interval=1.0,
            activation=DRIVERS[driver],
            retry=RetryPolicy(max_attempts=3, backoff_base=1.0, jitter=0.0),
        ),
        rng=3,
        trace_log=TraceLog(buffer),
    )
    metrics = simulator.run()
    lines = [
        {key: value for key, value in json.loads(line).items() if key not in WALL_FIELDS}
        for line in buffer.getvalue().splitlines()
    ]
    activations = [
        [a.time, a.pending_jobs, a.available_machines, a.scheduled_jobs, a.batch_makespan]
        for a in simulator.activations
    ]
    records = [
        [
            job.job_id,
            record.state.value,
            record.machine_id,
            record.start_time,
            record.completion_time,
            record.reschedules,
        ]
        for job in simulator.jobs
        for record in [simulator.records[job.job_id]]
    ]
    machine_events = [[e.time, e.machine_id, e.event] for e in metrics.machine_events]
    summary = {
        key: value
        for key, value in metrics.summary().items()
        if not key.startswith("scheduler_seconds")
    }
    output = {
        "lines": lines,
        "activations": activations,
        "records": records,
        "machine_events": machine_events,
        "summary": summary,
    }
    return output, simulator


def digest(output: dict) -> str:
    canonical = json.dumps(
        [output[key] for key in ("lines", "activations", "records", "machine_events", "summary")],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("heuristic", ["mct", "min_min"])
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_same_instant_output_is_golden(driver, heuristic):
    output, _ = run_scenario(driver, heuristic)
    lines, expected = GOLDEN[heuristic]
    summary = output["summary"]
    assert len(output["activations"]) == 9
    assert len(output["lines"]) == lines
    assert (summary["completed"], summary["cancelled"], summary["rescheduled"]) == (12, 2, 3)
    for line in output["lines"]:
        if line["event"] == "activation":
            assert [line.pop(key) for key in REUSE_FIELDS] == [0, 0, 0]
    assert digest(output) == expected


def test_first_arrivals_precede_retries_at_one_instant():
    # Each retry re-admission shares its instant with first arrivals (and a
    # breakdown or a repair); the arrivals are admitted first.
    _, simulator = run_scenario("periodic", "mct")
    arrivals = {job.arrival_time for job in simulator.jobs}
    retries = [now for now, retry in simulator.submits if retry]
    assert retries and all(now in arrivals for now in retries)
    assert simulator.submits == sorted(simulator.submits)
