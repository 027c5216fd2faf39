"""One activation path for both clock domains.

A differential oracle feeds one static-park trace to the simulator (periodic
driver, simulated time) and to the live ``SchedulerCore`` (a ``FakeClock``
paced by the same trace): at every activation both domains must hand the
scheduler the same batch and bit-identical ready times, and get back the
same assignment.  The failed-solve tests pin what both drivers do when the
scheduler raises or returns a malformed assignment.
"""

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
from repro.service import FakeClock, SchedulerCore
from repro.traces import generate_trace

INTERVAL = 4.0
SEED = 17

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


def simulate(trace, policy):
    recording = Recording(policy)
    GridSimulator.from_trace(
        trace, recording, SimulationConfig(activation_interval=INTERVAL), rng=SEED
    ).run()
    return recording.calls


def serve(trace, policy):
    """Replay the trace into the live core, one activation per simulator tick.

    The clock steps in whole intervals, so the k-th activation happens at
    exactly ``k * INTERVAL`` as in the simulator; the jobs the simulator
    admits by then (arrival at or before the tick) are submitted first.
    """
    recording = Recording(policy)
    clock = FakeClock()
    core = SchedulerCore(
        trace.to_machines(),
        recording,
        ServiceConfig(queue_capacity=10_000, degrade_threshold=10_000),
        clock=clock,
        rng=SEED,
    )
    jobs = trace.to_jobs()
    position = 0
    while position < len(jobs) or core.backlog:
        while position < len(jobs) and jobs[position].arrival_time <= clock.now():
            assert core.submit(jobs[position].workload) == jobs[position].job_id
            position += 1
        core.activate()
        clock.advance(INTERVAL)
    assert core.mode == "normal"
    return recording.calls


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
    # Back at the front in arrival order: a working scheduler plans them all.
    core.scheduler = HeuristicBatchPolicy("mct")
    assert core.activate().scheduled_ids == tuple(ids)
    assert (core.scheduled, core.backlog, core.shed, core.cancelled) == (4, 0, 0, 0)
