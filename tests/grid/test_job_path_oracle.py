"""Differential oracle for the job path: every ingest gives one output.

Each scenario's canonical output is pinned as a sha256 digest, floats
written with :meth:`float.hex`:

* ``SimulationMetrics.summary()`` without its wall-clock fields;
* every ``ActivationRecord`` except ``scheduler_wall_seconds``;
* ``machine_events``;
* every ``records[job_id]``, job fields included;
* the trace-log lines without their wall-clock fields.

Every simulator scenario runs twice, through ``GridSimulator.from_trace``
and through the ``(jobs, machines)`` list entry with jobs built one by one
from the trace's arrays, and both runs must give the pinned digest.  The
scenarios cover all seven trace families under both drivers, a ``flaky``
trace under a retry cap with due dates and cancel times, a rolling commit
horizon and the warm cMA on an iteration budget.  One live
:class:`~repro.service.state.SchedulerCore` scenario on a
:class:`~repro.service.clock.FakeClock` pins the wall-clock domain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from repro.core.config import (
    ActivationPolicy,
    CMAConfig,
    RetryPolicy,
    ServiceConfig,
    TRACE_FAMILIES,
    TraceConfig,
)
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs.tracelog import TraceLog
from repro.service import FakeClock, SchedulerCore
from repro.traces import generate_trace

#: Trace-line fields read off the wall clock.
WALL_FIELDS = {"scheduler_seconds", "phases", "duration_seconds"}
INTERVAL = 3.0
DRIVERS = {
    "periodic": None,
    "adaptive": ActivationPolicy.adaptive(backlog_threshold=4, min_interval=1.0),
}
HEURISTICS = ("mct", "min_min")


def canonical(value):
    """*value* with every float as its exact ``float.hex`` text."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(output) -> str:
    text = json.dumps(canonical(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def trace_lines(buffer: io.StringIO) -> list[dict]:
    return [
        {key: value for key, value in json.loads(line).items() if key not in WALL_FIELDS}
        for line in buffer.getvalue().splitlines()
    ]


def family_trace(family: str):
    # No affinity noise: its exp/log/cos may round differently under other
    # SIMD targets, and the digests must hold on every box.
    return generate_trace(
        TraceConfig(
            family=family,
            duration=60.0,
            rate=1.0,
            nb_machines=4,
            churn_fraction=0.25,
        ),
        seed=11,
    )


def failing_trace():
    """A ``flaky`` trace with due dates on every third job, cancels on every fifth."""
    trace = family_trace("flaky")
    arrivals = trace.job_arrivals
    due = np.where(trace.job_ids % 3 == 0, arrivals + 12.0, np.inf)
    cancel = np.where(trace.job_ids % 5 == 0, arrivals + 5.0, np.inf)
    return dataclasses.replace(trace, job_due_dates=due, job_cancel_times=cancel)


def listed_jobs(trace) -> list[GridJob]:
    """The trace's jobs, one ``GridJob`` per row of its arrays."""
    return [
        GridJob(
            job_id,
            workload,
            arrival,
            due_date=None if math.isinf(due) else due,
            cancel_time=None if math.isinf(cancel) else cancel,
        )
        for job_id, workload, arrival, due, cancel in zip(
            trace.job_ids.tolist(),
            trace.job_workloads.tolist(),
            trace.job_arrivals.tolist(),
            trace.job_due_dates.tolist(),
            trace.job_cancel_times.tolist(),
        )
    ]


def simulated(trace, policy_of, config: SimulationConfig, entry: str) -> dict:
    """The simulator's canonical output, built through one ingest *entry*."""
    buffer = io.StringIO()
    arguments = dict(config=config, rng=5, trace_log=TraceLog(buffer))
    if entry == "from_trace":
        simulator = GridSimulator.from_trace(trace, policy_of(), **arguments)
    else:
        simulator = GridSimulator(
            listed_jobs(trace), trace.to_machines(), policy_of(), **arguments
        )
    metrics = simulator.run()
    records = []
    for job_id in simulator.records:
        record = simulator.records[job_id]
        job = record.job
        records.append(
            [
                job_id,
                job.job_id,
                job.workload,
                job.arrival_time,
                job.due_date,
                job.cancel_time,
                record.state.value,
                record.machine_id,
                record.start_time,
                record.completion_time,
                record.reschedules,
            ]
        )
    return {
        "summary": {
            key: value
            for key, value in metrics.summary().items()
            if not key.startswith("scheduler_seconds")
        },
        "activations": [
            [a.time, a.pending_jobs, a.available_machines, a.scheduled_jobs, a.batch_makespan]
            for a in metrics.activations
        ],
        "machine_events": [[e.time, e.machine_id, e.event] for e in metrics.machine_events],
        "records": records,
        "lines": trace_lines(buffer),
    }


def heuristic(name):
    return lambda: HeuristicBatchPolicy(name)


def warm_cma():
    return WarmCMAPolicy(CMAConfig.fast_defaults(), max_seconds=math.inf, max_iterations=4)


def _scenarios():
    """Scenario id -> (trace factory, policy factory, simulation config)."""
    scenarios = {}
    for family in TRACE_FAMILIES:
        for driver, activation in DRIVERS.items():
            for name in HEURISTICS:
                scenarios[f"{family}-{driver}-{name}"] = (
                    lambda family=family: family_trace(family),
                    heuristic(name),
                    SimulationConfig(activation_interval=INTERVAL, activation=activation),
                )
    for name in HEURISTICS:
        scenarios[f"flaky-due-cancel-retry-{name}"] = (
            failing_trace,
            heuristic(name),
            SimulationConfig(
                activation_interval=INTERVAL,
                retry=RetryPolicy(max_attempts=1, backoff_base=0.5, jitter=0.0),
            ),
        )
        scenarios[f"calm-horizon-{name}"] = (
            lambda: family_trace("calm"),
            heuristic(name),
            # Every machine stays busy past a short horizon here, so each
            # tick would re-solve the whole backlog: a long cadence keeps
            # the activation count small.
            SimulationConfig(activation_interval=60.0, commit_horizon=60.0),
        )
    for family in ("flash_crowd", "flaky"):
        scenarios[f"{family}-warm-cma"] = (
            lambda family=family: family_trace(family),
            warm_cma,
            SimulationConfig(activation_interval=INTERVAL),
        )
    return scenarios


SCENARIOS = _scenarios()

#: sha256 of each simulator scenario's canonical output.
GOLDEN = {
    "bursty-adaptive-mct": "79f9ff51462e433ec85e38693446678f89b38876bcc68c31c4b62646d6c72506",
    "bursty-adaptive-min_min": "8d5b24c3ee8283a2e1f72bd9296e55e53a4966d984d2e98f84ec6951b2b95dec",
    "bursty-periodic-mct": "7fec57f1031e9684ebe68ae994da48cb564e5f5ad0f3c20a2e3490480b32c9fb",
    "bursty-periodic-min_min": "f51f8bf3b3fcd87e9204be1632184f5994f9506756a86981a20f9c8229a47c39",
    "calm-adaptive-mct": "dd067d6ee4105796171a24b361f2c8aa22893ab59ae00cf69fc9faf53be38714",
    "calm-adaptive-min_min": "8fa31a65d4f7009a6b02b5c29f5e2a15186242b9d99ef3efcdd80aff16a06699",
    "calm-horizon-mct": "2f92669c6b3b85f9ddb1212cfc7fccee76b599dec37d4f16b7fd2a3bb69f2262",
    "calm-horizon-min_min": "20f2d7204b6dadf69348bd6c84530cc6e2af38f8b98459f3ac0812386e178679",
    "calm-periodic-mct": "d5796a8c57068df2ea319e8a194545b8988637cd84922ffc8132df49db719520",
    "calm-periodic-min_min": "2fc4b00ab505190b55ac1b4c70dca822d1588536501954f29c09ae673236f298",
    "deadline-adaptive-mct": "2e2acf0b645a77860ef52df53f218bdeef563853923e415b43702ff51ab464cd",
    "deadline-adaptive-min_min": "289559636799c4938fee94c4c7011fa6012f9842991e46b7639004cd599ea586",
    "deadline-periodic-mct": "5184d7a3ef7c55097e0c431dc23c6f26397d53f2ef90c40ecef70a7908b978a5",
    "deadline-periodic-min_min": "9b0adeff2a05895c25c8570f39c1c44675755125fa2772ddb8fa8ee53addd7c3",
    "diurnal-adaptive-mct": "b824ecaa00962f5a3c68a6afebb26f8ad1d005faf4acd2e9417588c0b60abced",
    "diurnal-adaptive-min_min": "a02d418628d498af72fe6bb352882705a7b409c858718269e022b613b79cd5f9",
    "diurnal-periodic-mct": "72c92fe512b7a917dd620cf4eba66d83e91ba28e164b84bb47f04324af12a99a",
    "diurnal-periodic-min_min": "af3093ece945147ba0fdb6414cfa8351fb0077bbc3f693b1a0140d5fcea90117",
    "flaky-adaptive-mct": "47c1b2e91f427d5c0a678b834e4eff6fe338fb07a44c6dcdf6e9aef808d6f0fb",
    "flaky-adaptive-min_min": "81d86d6b069326dab6ead9b74ad6db2d36c33a0e10adcb7241245768aaedafd7",
    "flaky-due-cancel-retry-mct": "9930b7b44b9706fc4baab17c6b832df09a0eb7cc1f3ecdacacf02ec00eb4931f",
    "flaky-due-cancel-retry-min_min": "afff4f6e2134634bf6d3d5d05ba55d923bb8cc031fe7854e52bcb7992f85fa0e",
    "flaky-periodic-mct": "50afa21ebe75bd60b7af51d851e13760acc298a503b4427e4bc0ac92dc746397",
    "flaky-periodic-min_min": "456f3b9d4b8f66fe1691a7de40f65fc720f5d4d69f3896d5b348bd28a17d536a",
    "flaky-warm-cma": "3162131907ad3a38f9af6b0cb689172af3f9fcc8b2014ab3dd8601f9e6896764",
    "flash_crowd-adaptive-mct": "6c00c8bb88e2d56c8ee1e67b33f79fffed55bf237af28212f1b6cfad326331e0",
    "flash_crowd-adaptive-min_min": "af35df22254cccd81c3605b8749dd66ca3ec51ca7bb0b6e248b026ba5842ee2a",
    "flash_crowd-periodic-mct": "1237a039b6d0f401ec2a8970b3d4a624bad8769dca88777676c8a186d6779579",
    "flash_crowd-periodic-min_min": "5303bca88cbe0386270a3d355dd7dacde61972bb00cab79c4c1215323eb3bf4c",
    "flash_crowd-warm-cma": "3bf9031db90453620b0bc54f3adf61db602855c524f9202f44564c085b8e2a22",
    "heavy_tail-adaptive-mct": "8149261ee564b54c180336e77fbdbe24dfd02e000a1325e139ed16ce59b02e26",
    "heavy_tail-adaptive-min_min": "ec33f70b56ae4ebf326e3aaa13d00468760ae72dddba421f563bd1e718fe67d1",
    "heavy_tail-periodic-mct": "540c13ff8e6fc4ea2550ccf985f4cd512e481de558847e6dd42b8abad78d1d0b",
    "heavy_tail-periodic-min_min": "9c73000811bd6cea3ef2adcc7f932524eb2216de674546e03f83ff6b0de0bb45",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_ingest_gives_the_pinned_output(scenario):
    trace_of, policy_of, config = SCENARIOS[scenario]
    trace = trace_of()
    from_trace = simulated(trace, policy_of, config, "from_trace")
    listed = simulated(trace, policy_of, config, "list")
    assert digest(listed) == digest(from_trace)
    assert len(from_trace["records"]) == trace.nb_jobs > 20
    assert digest(from_trace) == GOLDEN[scenario]


def served(name: str) -> dict:
    """The live core's canonical output over one scripted fault scenario."""
    buffer = io.StringIO()
    clock = FakeClock()
    core = SchedulerCore(
        [GridMachine(machine_id=k, mips=500.0 * (k + 1)) for k in range(3)],
        HeuristicBatchPolicy(name),
        ServiceConfig(queue_capacity=64),
        clock=clock,
        rng=5,
        trace_log=TraceLog(buffer),
    )
    outcomes = []

    def activate():
        outcome = core.activate()
        outcomes.append(
            [outcome.time, outcome.batch_size, list(outcome.scheduled_ids), outcome.mode]
        )

    activate()  # idle
    ids = [core.submit(700.0 + 300.0 * k) for k in range(6)]
    assert core.cancel(ids[2])
    clock.advance(0.5)
    activate()
    clock.advance(0.25)
    busy = next(k for k, queue in enumerate(core.park.queues) if len(queue) > 1)
    assert core.break_machine(busy)  # revokes the machine's unfinished work
    for k in range(4):
        core.submit(400.0 + 250.0 * k)
    clock.advance(0.5)
    activate()
    clock.advance(1.0)
    assert core.repair_machine(busy)
    core.submit(900.0)
    activate()
    snapshot = core.snapshot().as_dict()
    return {"outcomes": outcomes, "snapshot": snapshot, "lines": trace_lines(buffer)}


#: sha256 of the live core scenario's canonical output, per heuristic.
SERVED_GOLDEN = {
    "mct": "28c20f0f1e91c17f0f9fc679d608ba44f7acb3d2cf51218bb3368751f201ec0e",
    "min_min": "7d956e9e32c7926098f9993c578b931cc0aa7805e832436f891e149d77bdd0d4",
}


@pytest.mark.parametrize("name", HEURISTICS)
def test_the_live_core_gives_the_pinned_output(name):
    output = served(name)
    events = [line["event"] for line in output["lines"]]
    assert {"task_cancel", "job_revoked", "machine_repair"} <= set(events)
    assert digest(output) == SERVED_GOLDEN[name]
