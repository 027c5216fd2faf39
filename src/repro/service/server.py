"""The asyncio front-end of the live scheduler service.

:class:`SchedulerServer` wraps a :class:`~repro.service.state.
SchedulerCore` in an event loop: submissions arrive through
:meth:`SchedulerServer.submit` (in-process) or the TCP/JSON line protocol
(:mod:`repro.service.protocol`), and one background task fires scheduler
activations at the cadence the core's :class:`~repro.core.config.
ActivationPolicy` dictates on wall-clock time.

The one design decision that matters under load: activations run in a
thread (``loop.run_in_executor``), *not* on the event loop.  A cMA
activation crunches for its whole per-activation budget; running it inline
would freeze the loop, silently pausing submission intake — and an
open-loop load test against such a server would measure the event loop's
backlog, not the scheduler's.  With the executor, submissions keep flowing
(and shedding, and being counted) while the scheduler works, which is
exactly the overload behaviour the soak test measures.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.state import ActivationOutcome, SchedulerCore, ServiceSnapshot

__all__ = ["SchedulerServer"]


class SchedulerServer:
    """Asyncio shell around one :class:`~repro.service.state.SchedulerCore`.

    Usage::

        server = SchedulerServer(core)
        await server.start()
        job_id = await server.submit(500.0)   # None => shed
        ...
        snapshot = await server.stop(drain=True)

    Pass ``host``/``port`` to also accept out-of-process clients over the
    TCP/JSON line protocol (``port=0`` picks a free port, exposed as
    :attr:`address` after :meth:`start`).  Pass ``metrics_port`` to also
    serve ``GET /metrics`` — the core's registry rendered in the
    Prometheus text exposition format — over a minimal HTTP responder on
    its own listener (``0`` picks a free port, exposed as
    :attr:`metrics_address`).
    """

    def __init__(
        self,
        core: SchedulerCore,
        *,
        host: str | None = None,
        port: int | None = None,
        metrics_port: int | None = None,
    ) -> None:
        self.core = core
        self._host = host
        self._port = port
        self._metrics_port = metrics_port
        self._wake = asyncio.Event()
        self._stopping = False
        self._loop_task: asyncio.Task | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._metrics_server: asyncio.base_events.Server | None = None
        #: Open connections on either listener: handler task -> writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the activation loop (and the TCP listener when configured)."""
        if self._loop_task is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._loop_task = asyncio.get_running_loop().create_task(self._run())
        if self._port is not None:
            from repro.service.protocol import serve_protocol

            self._tcp_server = await serve_protocol(
                self, self._host or "127.0.0.1", self._port
            )
            sockname = self._tcp_server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        if self._metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self.tracked(self._serve_metrics),
                self._host or "127.0.0.1",
                self._metrics_port,
            )
            sockname = self._metrics_server.sockets[0].getsockname()
            self.metrics_address = (sockname[0], sockname[1])

    async def stop(self, drain: bool = True) -> ServiceSnapshot:
        """Stop the server and return the final metrics snapshot.

        ``drain=True`` (graceful) schedules everything still queued, bounded
        by the config's ``drain_timeout``, then sheds the remainder;
        ``drain=False`` (abort) sheds the whole queue immediately.  Either
        way every accepted submission ends up scheduled or counted shed.
        """
        if self._loop_task is None:
            raise RuntimeError("server not started")
        self._stopping = True
        self._wake.set()
        await self._loop_task
        self._loop_task = None
        listeners = [self._tcp_server, self._metrics_server]
        listeners = [listener for listener in listeners if listener is not None]
        for listener in listeners:
            listener.close()
        # Close the open connections too, and let their handlers see EOF and
        # return: a handler left waiting on an idle client would be cancelled
        # with the loop (and Server.wait_closed waits for it on 3.12+).
        for writer in list(self._connections.values()):
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        for listener in listeners:
            await listener.wait_closed()
        self._tcp_server = self._metrics_server = None
        loop = asyncio.get_running_loop()
        if drain:
            await loop.run_in_executor(None, self.core.drain)
        self.core.abort()
        return self.core.snapshot()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    async def submit(self, workload: float) -> int | None:
        """Submit one job; returns its id, or ``None`` when shed."""
        job_id = self.core.submit(workload)
        # Nudge the activation loop only when the submission makes an
        # activation due *now* (backlog threshold crossed); otherwise the
        # loop's own timer handles it — no per-submission busy wakeups.
        if job_id is not None and self.core.seconds_until_due() <= 0:
            self._wake.set()
        return job_id

    def snapshot(self) -> ServiceSnapshot:
        """Current metrics snapshot (safe from any thread or task)."""
        return self.core.snapshot()

    def tracked(self, handler):
        """Wrap a connection handler so :meth:`stop` can close its connection."""

        async def run(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            task = asyncio.current_task()
            self._connections[task] = writer
            try:
                await handler(reader, writer)
            finally:
                del self._connections[task]

        return run

    # ------------------------------------------------------------------ #
    # GET /metrics (Prometheus text exposition)
    # ------------------------------------------------------------------ #
    async def _serve_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot HTTP responder: enough protocol for a scraper, no more.

        Reads the request line, drains the headers, answers ``GET
        /metrics`` with the rendered registry (content type version 0.0.4,
        the Prometheus text format), ``GET /healthz`` with a small JSON
        liveness document (mode and backlog — the two cheap signals an
        orchestrator's probe wants) and anything else with 404, then
        closes — every scrape is its own connection.
        """
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) >= 2 and parts[0] == "GET" and parts[1] in ("/metrics", "/metrics/"):
                body = self.core.registry.render().encode("utf-8")
                status = b"200 OK"
                content_type = b"text/plain; version=0.0.4; charset=utf-8"
            elif len(parts) >= 2 and parts[0] == "GET" and parts[1] in ("/healthz", "/healthz/"):
                body = (
                    json.dumps(
                        {
                            "status": "ok",
                            "mode": self.core.mode,
                            "backlog": self.core.backlog,
                            "machines_up": self.core.machines_up,
                        }
                    ).encode("utf-8")
                    + b"\n"
                )
                status = b"200 OK"
                content_type = b"application/json; charset=utf-8"
            else:
                body = b"not found\n"
                status = b"404 Not Found"
                content_type = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n"
                b"Connection: close\r\n\r\n" % (status, content_type, len(body))
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # ------------------------------------------------------------------ #
    # Activation loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            delay = self.core.seconds_until_due()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
            self._wake.clear()
            if self._stopping:
                return
            # The activation runs in a worker thread so the loop keeps
            # accepting (and shedding) submissions while the cMA crunches.
            outcome: ActivationOutcome = await loop.run_in_executor(
                None, self.core.activate
            )
            del outcome  # the core keeps all the accounting
