"""Soak/overload integration test: the live service under open-loop flash load.

One short wall-clock run (well under 30 s end to end, marked ``smoke`` so
the smoke hang guard bounds it) drives the *real* stack — warm
:class:`~repro.grid.service.DynamicSchedulerService` behind the asyncio
:class:`~repro.service.server.SchedulerServer` — with the open-loop
:class:`~repro.service.loadgen.LoadGenerator` replaying a flash-crowd
trace at a 2x rate multiplier on top of a 2x :func:`~repro.traces.
generators.rescale_trace` compression.

The overload is *by construction*, not by hoping the scheduler is slow:
each flash lands ~250 jobs inside a compressed window of ~0.25 s, while
consecutive activations are at least ``min_interval = 0.2`` s apart and the
queue holds 64 — so between two activations more jobs arrive than the
queue can hold, and shed MUST happen no matter how fast the scheduler is.
Likewise the flash batches exceed the degrade threshold, forcing the
measured shed-to-Min-Min fallback.  The assertions are exactly the
acceptance criteria: bounded queue (peak backlog never exceeds capacity),
nonzero shed, nonzero degraded batches, p99 latency reported by the
metrics snapshot, and clean recovery (empty backlog, normal mode) after
the ramp ends.
"""

import asyncio
import os

import pytest

from repro.core.config import (
    ActivationPolicy,
    LoadProfile,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.service import DynamicSchedulerService
from repro.service import LoadGenerator, SchedulerCore, SchedulerServer
from repro.traces import generate_trace, rescale_trace

pytestmark = pytest.mark.smoke

CAPACITY = 64
MIN_INTERVAL = 0.2


def overload_trace():
    """A flash-crowd stream whose flashes mathematically exceed the queue.

    24 simulated seconds at 15 jobs/s background plus two ~250-job flashes
    in 1 s windows; rescaled 2x here and replayed at a 2x profile
    multiplier below, the flashes compress to ~0.25 s — more arrivals
    between two activations than ``CAPACITY`` can hold.
    """
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=24.0,
            rate=15.0,
            nb_machines=8,
            extra={"nb_flashes": 2, "flash_size": 250, "flash_window": 1.0},
        ),
        seed=20070325,
    )
    return rescale_trace(trace, 2.0)


def make_server(trace):
    config = ServiceConfig(
        queue_capacity=CAPACITY,
        degrade_threshold=32,
        recover_threshold=8,
        activation_interval=0.25,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=16, min_interval=MIN_INTERVAL, max_interval=0.25
        ),
    )
    scheduler = DynamicSchedulerService(
        max_seconds=0.05,
        max_iterations=10,
        max_stagnant_iterations=3,
    )
    return SchedulerServer(
        SchedulerCore(trace.to_machines(), scheduler, config, rng=11)
    )


def test_soak_overload_shed_degrade_and_recover():
    async def run():
        trace = overload_trace()
        server = make_server(trace)
        await server.start()

        # ~6 s of wall-clock open-loop load: the 12 s rescaled trace at 2x.
        generator = LoadGenerator(trace, LoadProfile(multiplier=2.0))
        report = await generator.run(server.submit)

        # The generator observed real backpressure, open-loop: it never
        # slowed down (max lag stays tiny next to the flash windows), and
        # some submissions were shed at the full queue.
        assert report.planned == report.accepted + report.shed
        assert report.shed > 0

        # Let the tail of the stream drain on the normal cadence.
        for _ in range(100):
            if server.snapshot().backlog == 0:
                break
            await asyncio.sleep(0.1)
        under_load = server.snapshot()

        # Bounded queue: overload turned into shed + degrade, not growth.
        assert under_load.peak_backlog <= CAPACITY
        assert under_load.shed > 0
        assert under_load.backlog == 0
        # Measured shed-to-Min-Min fallback: the flash batches crossed the
        # degrade threshold and were solved by the degraded path.
        assert under_load.degraded_batches > 0
        assert under_load.degraded_jobs > 0
        # Tail latency is reported through the snapshot, and it is a real
        # distribution (flash jobs waited, calm jobs did not).
        assert under_load.p99_latency > 0.0
        assert under_load.p99_latency >= under_load.p50_latency

        # Clean recovery: after the ramp, a small batch flips the overload
        # state machine back to normal and everything is scheduled.
        for _ in range(3):
            assert await server.submit(200.0) is not None
        for _ in range(100):
            if server.snapshot().mode == "normal":
                break
            await asyncio.sleep(0.1)
        final = await server.stop(drain=True)
        assert final.mode == "normal"
        assert final.backlog == 0
        assert final.scheduled == final.accepted
        assert final.scheduled + final.shed == report.planned + 3

    asyncio.run(run())


@pytest.mark.skipif(
    "REPRO_SOAK_SECONDS" not in os.environ,
    reason="sustained soak runs only when REPRO_SOAK_SECONDS is set "
    "(multi-minute wall-clock; deliberately outside default CI)",
)
def test_sustained_soak_ramp_through_nominal_load():
    """The multi-minute soak: ``LoadProfile.soak()`` on the real stack.

    Replays a Poisson stream of REPRO_SOAK_SECONDS simulated seconds under
    the 0.8x -> 1.2x soak ramp — the run crosses from comfortable to
    past-nominal load — and checks what sustained operation must show: a
    bounded queue, a generator that kept its open-loop schedule, a clean
    drain, and every accepted job scheduled.
    """
    seconds = float(os.environ["REPRO_SOAK_SECONDS"])

    async def run():
        trace = generate_trace(
            TraceConfig(
                family="calm",
                duration=seconds,
                rate=12.0,
                nb_machines=8,
            ),
            seed=20070325,
        )
        server = make_server(trace)
        await server.start()
        generator = LoadGenerator(trace, LoadProfile.soak())
        report = await generator.run(server.submit)
        for _ in range(200):
            if server.snapshot().backlog == 0:
                break
            await asyncio.sleep(0.1)
        snapshot = await server.stop(drain=True)
        return report, snapshot

    report, snapshot = asyncio.run(run())
    assert report.planned == report.accepted + report.shed
    # The generator's own health: it held the offered schedule (lag small
    # next to the mean inter-arrival gap of the 12/s stream).
    assert report.max_lag_seconds < 1.0
    assert snapshot.peak_backlog <= CAPACITY
    assert snapshot.scheduled == snapshot.accepted
    assert snapshot.backlog == 0
