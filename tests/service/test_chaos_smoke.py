"""Chaos smoke test: the live service absorbs injected machine faults.

One short wall-clock run (a few seconds, marked ``smoke`` so the smoke
hang guard bounds it) drives the real stack — warm
:class:`~repro.grid.service.DynamicSchedulerService` behind the asyncio
:class:`~repro.service.server.SchedulerServer` — with the open-loop
:class:`~repro.service.loadgen.LoadGenerator` while a seeded
:class:`~repro.service.chaos.FaultInjector` breaks and repairs machines
underneath it (machine 0 stays up, like the ``flaky`` trace family).

The assertions are the chaos acceptance criteria: faults really happened,
the injector's always-ends-healthy guarantee held (every breakdown paired
with a repair, full park up at the end), the service recovered to normal
mode with an empty queue, and — the exactly-once invariant under fire —
no accepted job was lost or double-scheduled.  Folding the run's trace
log recounts the final snapshot.
"""

import asyncio
import io
import json
from collections import Counter

import pytest

from repro.core.config import (
    ActivationPolicy,
    LoadProfile,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.service import DynamicSchedulerService
from repro.obs import TraceLog, build_timelines
from repro.service import (
    FaultInjector,
    LoadGenerator,
    SchedulerCore,
    SchedulerServer,
)
from repro.traces import generate_trace

pytestmark = pytest.mark.smoke

CAPACITY = 256
MACHINES = 4


def make_server(trace, trace_log=None):
    config = ServiceConfig(
        queue_capacity=CAPACITY,
        degrade_threshold=128,
        recover_threshold=8,
        activation_interval=0.25,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=8, min_interval=0.1, max_interval=0.25
        ),
    )
    scheduler = DynamicSchedulerService(
        max_seconds=0.05,
        max_iterations=10,
        max_stagnant_iterations=3,
    )
    return SchedulerServer(
        SchedulerCore(
            trace.to_machines(), scheduler, config, rng=11, trace_log=trace_log
        )
    )


def test_chaos_faults_recover_without_losing_jobs():
    buffer = io.StringIO()

    async def run():
        # ~3 s of wall-clock open-loop load (6 simulated seconds at 2x)
        # with aggressive fault pressure underneath: every non-anchor
        # machine breaks about once a second and stays down ~0.3 s.
        trace = generate_trace(
            TraceConfig(family="calm", duration=6.0, rate=10.0, nb_machines=MACHINES),
            seed=20070325,
        )
        server = make_server(trace, TraceLog(buffer))
        await server.start()
        generator = LoadGenerator(trace, LoadProfile(multiplier=2.0))
        injector = FaultInjector(server.core, mtbf=1.0, mttr=0.3, seed=3)
        chaos_task = asyncio.create_task(injector.run(3.5))
        report = await generator.run(server.submit)
        chaos = await chaos_task

        # Let the tail drain on the normal cadence, then stop cleanly.
        for _ in range(100):
            if server.snapshot().backlog == 0:
                break
            await asyncio.sleep(0.1)
        final = await server.stop(drain=True)
        return report, chaos, final

    report, chaos, final = asyncio.run(run())

    # Faults really happened, and the injector left the park healthy:
    # every breakdown has a matching repair, whether it came from the plan
    # or from the end-of-run restore guarantee.
    assert chaos.breakdowns > 0
    assert chaos.repairs + chaos.restored == chaos.breakdowns
    assert final.breakdowns == chaos.breakdowns
    assert final.repairs == chaos.breakdowns
    assert final.machines_total == MACHINES
    assert final.machines_up == MACHINES

    # Clean recovery: normal mode, empty queue.
    assert final.mode == "normal"
    assert final.backlog == 0

    # No lost jobs under fire: the open-loop ledger and the exactly-once
    # partition both close (nothing cancelled in this run).
    assert report.planned == report.accepted + report.shed
    assert final.accepted == report.accepted
    assert final.scheduled == final.accepted
    assert final.cancelled == 0

    # The trace alone recounts the snapshot.
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    terminals = Counter(timeline.terminal for timeline in build_timelines(events))
    names = Counter(event["event"] for event in events)
    assert names["job_submitted"] == final.accepted
    assert terminals["planned"] == final.scheduled
    assert terminals["cancelled"] == final.cancelled
    assert names["job_revoked"] == final.revoked
    assert names["machine_breakdown"] == final.breakdowns
    assert names["machine_repair"] == final.repairs
