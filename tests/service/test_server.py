"""Asyncio front-end tests: activation loop, shutdown flavours, TCP protocol.

These run real (short) event loops on the wall clock — the deterministic
state-machine coverage lives in ``test_state.py``; here we pin the asyncio
shell: the background activation loop actually schedules what is
submitted, ``stop(drain=...)`` honours the drain-vs-abort contract, and
the JSON line protocol round-trips submissions, metrics and errors.
"""

import asyncio
import json
import logging

import numpy as np
import pytest

from repro.core.config import ActivationPolicy, ServiceConfig
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.service import SchedulerCore, SchedulerServer, ServiceClient


def make_core(**overrides):
    defaults = dict(
        queue_capacity=64,
        activation_interval=0.05,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=8, min_interval=0.01, max_interval=0.05
        ),
    )
    defaults.update(overrides)
    machines = [GridMachine(machine_id=i, mips=1000.0) for i in range(4)]
    return SchedulerCore(
        machines, HeuristicBatchPolicy("min_min"), ServiceConfig(**defaults), rng=3
    )


class TestServerLifecycle:
    def test_background_loop_schedules_submissions(self):
        async def run():
            server = SchedulerServer(make_core())
            await server.start()
            ids = [await server.submit(200.0) for _ in range(20)]
            assert all(i is not None for i in ids)
            # The loop works in a thread; give it a couple of cadences.
            for _ in range(100):
                if server.snapshot().scheduled == 20:
                    break
                await asyncio.sleep(0.02)
            snapshot = await server.stop(drain=True)
            assert snapshot.scheduled == 20
            assert snapshot.backlog == 0
            assert snapshot.shed == 0
            # 20 samples clear the p95 gate but not the p99 gate (100).
            assert snapshot.p95_latency > 0.0
            assert np.isnan(snapshot.p99_latency)

        asyncio.run(run())

    def test_stop_drain_schedules_the_backlog(self):
        async def run():
            # An hour-long cadence: nothing fires until shutdown drains.
            server = SchedulerServer(
                make_core(
                    activation_interval=3600.0,
                    activation=ActivationPolicy.periodic(),
                )
            )
            await server.start()
            for _ in range(5):
                await server.submit(100.0)
            snapshot = await server.stop(drain=True)
            assert snapshot.scheduled == 5
            assert snapshot.shed == 0

        asyncio.run(run())

    def test_stop_abort_sheds_the_backlog(self):
        async def run():
            server = SchedulerServer(
                make_core(
                    activation_interval=3600.0,
                    activation=ActivationPolicy.periodic(),
                )
            )
            await server.start()
            for _ in range(5):
                await server.submit(100.0)
            snapshot = await server.stop(drain=False)
            assert snapshot.scheduled == 0
            assert snapshot.shed == 5
            assert snapshot.backlog == 0

        asyncio.run(run())

    def test_double_start_rejected(self):
        async def run():
            server = SchedulerServer(make_core())
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            await server.stop(drain=False)

        asyncio.run(run())

    def test_stop_closes_open_client_connections(self, caplog):
        async def run():
            server = SchedulerServer(make_core(), port=0)
            await server.start()
            clients = [await ServiceClient.connect(*server.address) for _ in range(16)]
            for client in clients:
                assert await client.ping()
            await asyncio.wait_for(server.stop(), timeout=5.0)
            for client in clients:
                assert await asyncio.wait_for(client._reader.read(), timeout=5.0) == b""
                await client.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(run())
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestProtocol:
    def test_submit_metrics_ping_round_trip(self):
        async def run():
            server = SchedulerServer(make_core(), port=0)
            await server.start()
            client = await ServiceClient.connect(*server.address)
            assert await client.ping()
            ids = [await client.submit(300.0) for _ in range(10)]
            assert all(i is not None for i in ids)
            for _ in range(100):
                if (await client.metrics())["scheduled"] == 10:
                    break
                await asyncio.sleep(0.02)
            snapshot = await client.metrics()
            assert snapshot["scheduled"] == 10
            assert snapshot["queue_capacity"] == 64
            await client.close()
            await server.stop(drain=True)

        asyncio.run(run())

    def test_shed_is_a_normal_answer_not_an_error(self):
        async def run():
            server = SchedulerServer(
                make_core(
                    queue_capacity=2,
                    degrade_threshold=2,
                    recover_threshold=1,
                    activation_interval=3600.0,
                    activation=ActivationPolicy.periodic(),
                ),
                port=0,
            )
            await server.start()
            client = await ServiceClient.connect(*server.address)
            fates = [await client.submit(100.0) for _ in range(4)]
            assert fates[:2] == [0, 1]
            assert fates[2:] == [None, None]
            await client.close()
            snapshot = await server.stop(drain=False)
            assert snapshot.shed == 4  # 2 at capacity + 2 aborted

        asyncio.run(run())

    def test_malformed_and_unknown_requests(self):
        async def run():
            server = SchedulerServer(make_core(), port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            for line, fragment in [
                (b"not json\n", None),
                (b'"just a string"\n', "JSON object"),
                (b'{"op": "nope"}\n', "unknown op"),
                (b'{"op": "submit", "workload": -1}\n', "positive workload"),
            ]:
                writer.write(line)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                if fragment:
                    assert fragment in response["error"]
            # The connection survived all of it.
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"] is True
            writer.close()
            await writer.wait_closed()
            await server.stop(drain=False)

        asyncio.run(run())
