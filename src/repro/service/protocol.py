"""Thin TCP/JSON line protocol for out-of-process service clients.

One request per line, one JSON object per request; one JSON response per
line.  The protocol is deliberately minimal — enough for a load generator
or an operator's ``nc`` session, not an RPC framework:

``{"op": "submit", "workload": 500.0}``
    → ``{"ok": true, "job_id": 17}`` when accepted,
    → ``{"ok": true, "job_id": null, "shed": true}`` when shed
    (backpressure is a *normal* answer, not an error).
``{"op": "cancel", "job_id": 17}``
    → ``{"ok": true, "cancelled": true}`` when the job was still queued,
    → ``{"ok": true, "cancelled": false}`` when it is unknown or already
    planned (cancellation is at-most-once; a planned job is not recalled).
``{"op": "metrics"}``
    → ``{"ok": true, "snapshot": {...}}`` (see
    :meth:`~repro.service.state.ServiceSnapshot.as_dict`).
``{"op": "ping"}``
    → ``{"ok": true}``.

Malformed lines and unknown ops get ``{"ok": false, "error": ...}`` and
the connection stays open.

:class:`ServiceClient` retries *connecting* with jittered exponential
backoff (a restarting server is routine), but never resends a request
whose response was lost: a ``submit`` that timed out may or may not have
been accepted, and resending it blind would double-submit.  The client is
honest about this at-most-once limit — the timeout error surfaces to the
caller, who owns the decision to retry.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.core.config import RetryPolicy

__all__ = ["serve_protocol", "ServiceClient"]

#: Default connect retry: 4 attempts, 0.1 s base doubling, 10 % jitter.
_CONNECT_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_factor=2.0)
#: Default per-request timeout (seconds) — generous for a loopback service.
_REQUEST_TIMEOUT = 30.0

#: Guard against unbounded request lines (also the asyncio reader limit).
_MAX_LINE = 1 << 16


def _handle_request(server: Any, request: dict[str, Any]) -> dict[str, Any]:
    """Dispatch one decoded request against the server (synchronous ops)."""
    op = request.get("op")
    if op == "submit":
        workload = request.get("workload")
        if not isinstance(workload, (int, float)) or workload <= 0:
            return {"ok": False, "error": "submit needs a positive workload"}
        job_id = server.core.submit(float(workload))
        if job_id is None:
            return {"ok": True, "job_id": None, "shed": True}
        if server.core.seconds_until_due() <= 0:
            server._wake.set()
        return {"ok": True, "job_id": job_id}
    if op == "cancel":
        job_id = request.get("job_id")
        if isinstance(job_id, bool) or not isinstance(job_id, int) or job_id < 0:
            return {"ok": False, "error": "cancel needs a non-negative integer job_id"}
        return {"ok": True, "cancelled": server.core.cancel(job_id)}
    if op == "metrics":
        return {"ok": True, "snapshot": server.snapshot().as_dict()}
    if op == "ping":
        return {"ok": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


async def _handle_connection(
    server: Any, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                response = _handle_request(server, request)
            except (ValueError, json.JSONDecodeError) as error:
                response = {"ok": False, "error": str(error)}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    except ConnectionError:
        pass  # the client went away, or the server closed the connection
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def serve_protocol(server: Any, host: str, port: int) -> asyncio.base_events.Server:
    """Start the TCP listener for *server* (``port=0`` picks a free port).

    Each connection is registered through ``server.tracked`` so that the
    server's ``stop()`` can close it.
    """

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        await _handle_connection(server, reader, writer)

    return await asyncio.start_server(server.tracked(handler), host, port, limit=_MAX_LINE)


class ServiceClient:
    """Minimal asyncio client speaking the line protocol.

    Usage::

        client = await ServiceClient.connect(host, port)
        job_id = await client.submit(500.0)      # None => shed
        snapshot = await client.metrics()
        await client.close()
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: float = _REQUEST_TIMEOUT,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._timeout = timeout

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = _CONNECT_RETRY,
        timeout: float = _REQUEST_TIMEOUT,
    ) -> "ServiceClient":
        """Connect, retrying refused/timed-out attempts with jittered backoff.

        Connecting is idempotent, so it is the one place the client retries
        on its own: up to ``retry.max_attempts`` extra attempts, each delayed
        by :meth:`~repro.core.config.RetryPolicy.delay` (deterministic
        per-attempt jitter keyed on the port).  ``retry=None`` makes a single
        attempt.  *timeout* bounds each connect attempt and every later
        request on the returned client.
        """
        attempt = 0
        while True:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port, limit=_MAX_LINE),
                    timeout=timeout,
                )
                return cls(reader, writer, timeout=timeout)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                attempt += 1
                if retry is None or attempt > retry.max_attempts:
                    raise
                await asyncio.sleep(retry.delay(port, attempt))

    async def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response round-trip, bounded by the client timeout.

        Deliberately **not** retried: if the response is lost the request
        may still have been applied, and replaying it would break the
        service's exactly-once accounting.  ``asyncio.TimeoutError``
        propagates; the caller decides whether a resend is safe.
        """
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await asyncio.wait_for(self._writer.drain(), timeout=self._timeout)
        line = await asyncio.wait_for(self._reader.readline(), timeout=self._timeout)
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"request failed: {response.get('error')}")
        return response

    async def submit(self, workload: float) -> int | None:
        """Submit one job; returns its id, or ``None`` when shed."""
        response = await self._request({"op": "submit", "workload": workload})
        return response["job_id"]

    async def cancel(self, job_id: int) -> bool:
        """Withdraw a queued job; ``False`` when it was already planned."""
        response = await self._request({"op": "cancel", "job_id": job_id})
        return bool(response["cancelled"])

    async def metrics(self) -> dict[str, Any]:
        """The server's current metrics snapshot, as a plain dict."""
        response = await self._request({"op": "metrics"})
        return response["snapshot"]

    async def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool((await self._request({"op": "ping"}))["ok"])

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
