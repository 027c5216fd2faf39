"""One activation path for both clock domains.

A differential oracle feeds one static-park trace to the simulator (periodic
driver, simulated time) and to the live ``SchedulerCore`` (a ``FakeClock``
paced by the same trace): at every activation both domains must hand the
scheduler the same batch and bit-identical ready times, and get back the
same assignment.  With one machine broken down over a window, both domains
must also revoke the same jobs at the breakdown, and count a tick that
finds work but no machine up as ``stalled``.  Both domains report each
activation the same way: one ``activation`` trace line with one field set,
and one metric family per quantity told apart by its ``domain`` label.  The
failed-solve tests pin what both domains do when the scheduler raises or
returns a malformed assignment.
"""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from repro.core.config import CMAConfig, ServiceConfig, TraceConfig
from repro.grid import (
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
    WarmCMAPolicy,
)
from repro.grid.activation import OUTCOMES
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.obs import MetricsRegistry, TraceLog, parse_exposition
from repro.service import FakeClock, SchedulerCore
from repro.traces import generate_trace

INTERVAL = 4.0
SEED = 17
#: Park position of the machine that breaks down, and its window: both
#: ends fall on activation ticks.
BROKEN = 1
WINDOW = (3 * INTERVAL, 5 * INTERVAL)

POLICIES = {
    "mct": lambda: HeuristicBatchPolicy("mct"),
    "min_min": lambda: HeuristicBatchPolicy("min_min"),
    "warm_cma": lambda: WarmCMAPolicy(
        CMAConfig.fast_defaults(), max_seconds=math.inf, max_iterations=4
    ),
}


class Recording:
    """Wraps a policy and records every activation it serves."""

    name = "recording"

    def __init__(self, inner):
        self.inner = inner
        #: Per activation: (job ids, ready times, assigned machine ids).
        self.calls = []

    def schedule(self, instance, rng=None):
        assignment = np.asarray(self.inner.schedule(instance, rng), dtype=np.int64)
        self.calls.append(
            (
                instance.metadata["job_ids"].copy(),
                instance.ready_times.copy(),
                instance.metadata["machine_ids"][assignment],
            )
        )
        return assignment

    @property
    def stats(self):
        """The inner policy's warm-start counters, when it keeps any."""
        return getattr(self.inner, "stats", None)


def static_trace(affinity_spread):
    trace = generate_trace(
        TraceConfig(
            family="calm",
            duration=60.0,
            rate=1.5,
            nb_machines=4,
            affinity_spread=affinity_spread,
        ),
        seed=SEED,
    )
    # The live core's park is static: no joins, leaves or breakdowns.
    for machine in trace.to_machines():
        assert machine.join_time == 0.0 and machine.leave_time is None
        assert not machine.breakdowns
    return trace


def simulate(trace, policy, window=None, trace_log=None, registry=None):
    """The simulator's activations; *window* breaks machine ``BROKEN`` down."""
    recording = Recording(policy)
    machines = trace.to_machines()
    if window is not None:
        machines[BROKEN] = dataclasses.replace(machines[BROKEN], breakdowns=(window,))
    GridSimulator(
        trace.to_jobs(),
        machines,
        recording,
        SimulationConfig(activation_interval=INTERVAL),
        rng=SEED,
        registry=registry,
        trace_log=trace_log,
    ).run()
    return recording.calls


def serve(trace, policy, window=None, trace_log=None, registry=None):
    """Replay the trace into the live core, one activation per simulator tick.

    The clock steps in whole intervals, so the k-th activation happens at
    exactly ``k * INTERVAL`` as in the simulator; the jobs the simulator
    admits by then (arrival at or before the tick) are submitted first.
    Machine ``BROKEN`` breaks and is repaired at the ends of *window*.
    """
    recording = Recording(policy)
    clock = FakeClock()
    core = SchedulerCore(
        trace.to_machines(),
        recording,
        ServiceConfig(queue_capacity=10_000, degrade_threshold=10_000),
        clock=clock,
        rng=SEED,
        registry=registry,
        trace_log=trace_log,
    )
    jobs = trace.to_jobs()
    position = 0
    while position < len(jobs) or core.backlog:
        while position < len(jobs) and jobs[position].arrival_time <= clock.now():
            assert core.submit(jobs[position].workload) == jobs[position].job_id
            position += 1
        if window is not None and clock.now() == window[0]:
            assert core.break_machine(BROKEN)
        if window is not None and clock.now() == window[1]:
            assert core.repair_machine(BROKEN)
        core.activate()
        clock.advance(INTERVAL)
    assert core.mode == "normal"
    return recording.calls


def revocations(log):
    """``(time, job_id, attempt, cause)`` of each ``job_revoked`` line."""
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    return [
        (event["time"], event["job_id"], event["attempt"], event["cause"])
        for event in events
        if event["event"] == "job_revoked"
    ]


@pytest.mark.parametrize("affinity_spread", [0.0, 0.4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_both_domains_run_the_same_activations(policy, affinity_spread):
    trace = static_trace(affinity_spread)
    simulated = simulate(trace, POLICIES[policy]())
    live = serve(trace, POLICIES[policy]())

    assert len(simulated) == len(live) > 5
    for (sim_jobs, sim_ready, sim_machines), (live_jobs, live_ready, live_machines) in zip(
        simulated, live
    ):
        np.testing.assert_array_equal(sim_jobs, live_jobs)
        np.testing.assert_array_equal(sim_machines, live_machines)
        # Bit-identical, not merely close: compare the float64 bit patterns.
        np.testing.assert_array_equal(sim_ready.view(np.int64), live_ready.view(np.int64))
    # The comparison has teeth: machines carry work across activations.
    assert sum(bool(ready.any()) for _, ready, _ in simulated) > len(simulated) // 2


@pytest.mark.parametrize("affinity_spread", [0.0, 0.4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_both_domains_revoke_the_same_jobs_at_a_breakdown(policy, affinity_spread):
    trace = static_trace(affinity_spread)
    sim_log, live_log = io.StringIO(), io.StringIO()
    simulated = simulate(trace, POLICIES[policy](), WINDOW, TraceLog(sim_log))
    live = serve(trace, POLICIES[policy](), WINDOW, TraceLog(live_log))

    revoked = revocations(sim_log)
    assert revoked and {time for time, _, _, _ in revoked} == {WINDOW[0]}
    assert revocations(live_log) == revoked
    assert len(simulated) == len(live)
    for (sim_jobs, sim_ready, sim_machines), (live_jobs, live_ready, live_machines) in zip(
        simulated, live
    ):
        np.testing.assert_array_equal(sim_jobs, live_jobs)
        np.testing.assert_array_equal(sim_machines, live_machines)
        np.testing.assert_array_equal(sim_ready.view(np.int64), live_ready.view(np.int64))


#: ``activation`` line fields both domains must agree on.
SHARED_FIELDS = (
    "seq",
    "backlog",
    "batch_size",
    "machines",
    "mode",
    "scheduled",
    "batch_makespan",
    "carried",
    "filled",
    "evaluations",
)
#: The activation families, each with a ``domain`` label.
FAMILIES = (
    "repro_activations_total",
    "repro_activation_scheduler_seconds",
    "repro_activation_phase_seconds",
)


def activation_lines(log):
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    return [event for event in events if event["event"] == "activation"]


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_both_domains_report_the_same_activations(policy):
    trace = static_trace(0.4)
    logs = {"simulator": io.StringIO(), "service": io.StringIO()}
    registries = {"simulator": MetricsRegistry(), "service": MetricsRegistry()}
    for domain, run in (("simulator", simulate), ("service", serve)):
        run(
            trace,
            POLICIES[policy](),
            trace_log=TraceLog(logs[domain]),
            registry=registries[domain],
        )

    simulated = activation_lines(logs["simulator"])
    live = activation_lines(logs["service"])
    assert len(simulated) == len(live) > 5
    for sim_line, live_line in zip(simulated, live):
        assert sim_line.keys() == live_line.keys()
        assert (sim_line["source"], live_line["source"]) == ("simulator", "service")
        assert [sim_line[key] for key in SHARED_FIELDS] == [
            live_line[key] for key in SHARED_FIELDS
        ]
        for line in (sim_line, live_line):
            assert line["duration_seconds"] >= line["scheduler_seconds"] >= 0.0
    if policy == "warm_cma":
        # The warm cMA reports its warm start; a single-job batch takes the
        # degenerate path and reuses nothing.
        assert sum(line["carried"] + line["filled"] for line in simulated) > 0

    counts = {}
    for domain, registry in registries.items():
        families = parse_exposition(registry.render())
        assert all(name in families for name in FAMILIES)
        counts[domain] = {
            outcome: registry.get_sample_value(
                "repro_activations_total", {"domain": domain, "outcome": outcome}
            )
            for outcome in OUTCOMES
        }
        solved = {"domain": domain}
        assert registry.get_sample_value(
            "repro_activation_scheduler_seconds_count", solved
        ) == counts[domain]["normal"]
        assert registry.get_sample_value(
            "repro_activation_phase_seconds_count", {**solved, "phase": "solve"}
        ) == counts[domain]["normal"]
    assert counts["simulator"] == counts["service"]
    assert counts["service"]["normal"] == len(live)
    assert counts["service"]["idle"] > 0


def stalled_lines(log):
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    return [
        (event["source"], event["time"], event["backlog"])
        for event in events
        if event["event"] == "stalled"
    ]


def test_both_domains_count_dark_park_ticks_as_stalled():
    """A tick with a pending job but no machine up is ``stalled``, not ``idle``.

    One job arrives at t=0.5 on one machine broken over [0.2, 3.5]; at
    interval 1 the tick at 0 finds nothing (idle), those at 1, 2 and 3 find
    the job on a dark park (stalled), and the one at 4 schedules it.
    """
    machine = GridMachine(machine_id=0, mips=1000.0)
    logs = {"simulator": io.StringIO(), "service": io.StringIO()}
    registries = {"simulator": MetricsRegistry(), "service": MetricsRegistry()}
    metrics = GridSimulator(
        [GridJob(job_id=0, workload=1000.0, arrival_time=0.5)],
        [dataclasses.replace(machine, breakdowns=((0.2, 3.5),))],
        HeuristicBatchPolicy("mct"),
        SimulationConfig(activation_interval=1.0),
        rng=SEED,
        registry=registries["simulator"],
        trace_log=TraceLog(logs["simulator"]),
    ).run()

    clock = FakeClock()
    core = SchedulerCore(
        [machine],
        HeuristicBatchPolicy("mct"),
        clock=clock,
        rng=SEED,
        registry=registries["service"],
        trace_log=TraceLog(logs["service"]),
    )
    timeline = [
        (0.0, core.activate),
        (0.2, lambda: core.break_machine(0)),
        (0.5, lambda: core.submit(1000.0)),
        (1.0, core.activate),
        (2.0, core.activate),
        (3.0, core.activate),
        (3.5, lambda: core.repair_machine(0)),
        (4.0, core.activate),
    ]
    for time, action in timeline:
        clock.advance(time - clock.now())
        action()

    expected = {"normal": 1, "degraded": 0, "idle": 1, "stalled": 3}
    for domain, registry in registries.items():
        assert {
            outcome: registry.get_sample_value(
                "repro_activations_total", {"domain": domain, "outcome": outcome}
            )
            for outcome in OUTCOMES
        } == expected, domain
        assert stalled_lines(logs[domain]) == [
            (domain, 1.0, 1), (domain, 2.0, 1), (domain, 3.0, 1)
        ]
    # ``nb_idle_activations`` keeps counting every tick that planned nothing.
    assert (metrics.nb_activations, metrics.nb_idle_activations) == (1, 4)
    snapshot = core.snapshot()
    assert (snapshot.idle_activations, snapshot.stalled_activations) == (1, 3)

class ShortAssignment:
    name = "short"

    def schedule(self, instance, rng=None):
        return np.zeros(instance.nb_jobs - 1, dtype=np.int64)


class OutOfRange:
    name = "out_of_range"

    def schedule(self, instance, rng=None):
        return np.full(instance.nb_jobs, instance.nb_machines, dtype=np.int64)


class Raising:
    name = "raising"

    def schedule(self, instance, rng=None):
        raise RuntimeError("solver crashed")


FAILING = [
    (ShortAssignment, ValueError),
    (OutOfRange, ValueError),
    (Raising, RuntimeError),
]


@pytest.mark.parametrize("scheduler, error", FAILING)
def test_simulator_surfaces_a_failed_solve(scheduler, error):
    trace = static_trace(0.0)
    simulator = GridSimulator.from_trace(
        trace, scheduler(), SimulationConfig(activation_interval=INTERVAL), rng=SEED
    )
    with pytest.raises(error):
        simulator.run()


@pytest.mark.parametrize("scheduler, error", FAILING)
def test_live_core_requeues_the_batch_of_a_failed_solve(scheduler, error):
    clock = FakeClock()
    core = SchedulerCore(
        static_trace(0.0).to_machines(), scheduler(), ServiceConfig(), clock=clock, rng=SEED
    )
    ids = [core.submit(100.0 * (k + 1)) for k in range(4)]
    clock.advance(1.0)
    with pytest.raises(error):
        core.activate()
    assert (core.accepted, core.scheduled, core.backlog) == (4, 0, 4)
    # A failed solve commits nothing, so it is not counted as an activation.
    assert core.snapshot().activations == 0
    # Back at the front in arrival order: a working scheduler plans them all.
    core.scheduler = HeuristicBatchPolicy("mct")
    assert core.activate().scheduled_ids == tuple(ids)
    assert (core.scheduled, core.backlog, core.shed, core.cancelled) == (4, 0, 0, 0)
    assert core.snapshot().activations == 1
