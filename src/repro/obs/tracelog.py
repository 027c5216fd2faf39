"""Structured JSON-lines tracing.

Where the metrics registry answers "how much, in aggregate", a trace
answers "what happened, in order": one JSON object per line, one line per
event (:meth:`TraceLog.emit`, or :meth:`TraceLog.emit_many` for a batch of
per-job lines).  Each scheduler activation writes one ``activation`` line
with its whole account (backlog drained, batch size, mode, scheduling
latency, warm-start reuse, engine evaluation counts; see
:mod:`repro.grid.activation`); shed/degrade/recover transitions and machine
join/leave are single timestamped lines.

The log is append-only, thread-safe (the live service writes from an
executor thread), and flushed per line so a crash loses at most the event
being written.  ``repro-scheduler obs summarize`` (see
:mod:`repro.obs.summarize`) turns a trace file back into per-activation
tables.
"""

from __future__ import annotations

import io
import json
import threading
import warnings
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["TraceLog", "read_trace"]


def _jsonable(value: Any) -> Any:
    """Default encoder hook: numpy scalars/arrays degrade to plain Python."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class TraceLog:
    """Append-only JSON-lines event log.

    Parameters
    ----------
    target:
        A path (opened for append; the log owns and closes the handle) or
        any text file-like object (borrowed; the caller closes it).
    max_bytes:
        Optional size guard.  Once the log has written this many bytes it
        warns **once** and drops every further event (counted in
        :attr:`events_dropped`) instead of growing without bound — the
        sane failure mode for a ``loadgen --soak`` left running overnight.
        :meth:`rotate` resets the guard and resumes writing.
    """

    def __init__(
        self,
        target: str | Path | io.TextIOBase | Any,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._handle = open(target, "a", encoding="utf-8")
            self._owns_handle = True
        else:
            self._path = None
            self._handle = target
            self._owns_handle = False
        self._lock = threading.Lock()
        self._closed = False
        self._max_bytes = max_bytes
        self._capped = False
        #: Bytes written since construction (or the last :meth:`rotate`).
        self.bytes_written = 0
        #: Events written since construction (a cheap health indicator).
        self.events_written = 0
        #: Events dropped after the ``max_bytes`` guard tripped.
        self.events_dropped = 0

    def _write_lines(self, lines: list[str]) -> None:
        """Append the encoded lines under the lock (the single write path)."""
        # json.dumps with the default ensure_ascii escapes everything to
        # ASCII, so character count == byte count for the size guard.
        payload = "".join(line + "\n" for line in lines)
        with self._lock:
            if self._closed:
                return
            if self._capped:
                self.events_dropped += len(lines)
                return
            if (
                self._max_bytes is not None
                and self.bytes_written + len(payload) > self._max_bytes
            ):
                self._capped = True
                self.events_dropped += len(lines)
                warnings.warn(
                    f"trace log reached max_bytes={self._max_bytes}; dropping "
                    "further events (rotate() to resume)",
                    stacklevel=3,
                )
                return
            self._handle.write(payload)
            self._handle.flush()
            self.bytes_written += len(payload)
            self.events_written += len(lines)

    def emit(self, event: str, **fields: Any) -> None:
        """Write one point event as a single JSON line (thread-safe)."""
        record = {"event": event, **fields}
        self._write_lines([json.dumps(record, default=_jsonable, allow_nan=False)])

    def emit_many(self, event: str, records: list[dict[str, Any]]) -> None:
        """Write one *event*-typed line per record, in one lock/flush round.

        The batched write path of per-job lifecycle tracing: one activation
        emits a ``job_batched``/``job_assigned`` line for every job in its
        batch, and paying the lock and flush once per batch (instead of
        once per job) is what keeps job tracing inside the service's
        overhead budget.
        """
        if not records:
            return
        self._write_lines(
            [
                json.dumps({"event": event, **record}, default=_jsonable, allow_nan=False)
                for record in records
            ]
        )

    def rotate(self, target: str | Path | io.TextIOBase | Any | None = None) -> None:
        """Start a fresh log segment, resetting the ``max_bytes`` guard.

        With *target* given, subsequent events go there (a path is opened
        for append and owned; a file-like object is borrowed).  Without
        one, a path-backed log truncates and reopens its own file; a
        borrowed-handle log has nowhere to rotate to and raises.
        """
        with self._lock:
            if self._closed:
                raise ValueError("cannot rotate a closed trace log")
            if target is None:
                if self._path is None:
                    raise ValueError(
                        "rotate() needs a target when the log borrows its handle"
                    )
                self._handle.close()
                self._handle = open(self._path, "w", encoding="utf-8")
            elif isinstance(target, (str, Path)):
                if self._owns_handle:
                    self._handle.close()
                self._path = Path(target)
                self._handle = open(target, "a", encoding="utf-8")
                self._owns_handle = True
            else:
                if self._owns_handle:
                    self._handle.close()
                self._path = None
                self._handle = target
                self._owns_handle = False
            self._capped = False
            self.bytes_written = 0

    def close(self) -> None:
        """Stop accepting events; close the handle if the log opened it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_handle:
                self._handle.close()

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a trace file back into its event dicts, in emission order.

    A malformed line in the *middle* of the file is a hard error — the file
    is corrupt, not merely cut short.  A malformed **final** line is the
    normal signature of a crash or kill mid-write (the log flushes per
    line, so at most the last event can be torn); it is skipped with a
    :class:`UserWarning` instead of failing the whole read, so ``obs
    summarize`` still works on the log of the crashed run it is most
    needed for.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last = len(lines)
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if number == last:
                warnings.warn(
                    f"{path}:{number}: skipping truncated final line ({error})",
                    stacklevel=2,
                )
                break
            raise ValueError(f"{path}:{number}: not valid JSON: {error}") from None
        # A complete line of the wrong shape is corruption everywhere —
        # only *unparseable* final lines get the torn-write benefit of
        # the doubt above.
        if not isinstance(record, dict) or "event" not in record:
            raise ValueError(f"{path}:{number}: not a trace event object")
        events.append(record)
    return events
