"""Typed event queue at the heart of the event-driven grid simulator.

The simulator (:mod:`repro.grid.simulator`) advances simulated time by
popping events from one :class:`EventQueue` — a binary heap of
:class:`Event` records — instead of sweeping fixed activation ticks.  The
event vocabulary covers everything that can change the state of the grid:

``MACHINE_JOIN`` / ``MACHINE_LEAVE``
    A machine enters or drops from the park.  Each machine's membership
    events are pushed once at simulation start and popped exactly once, so
    churn costs O(events), not O(activations × machines).
``MACHINE_BREAKDOWN`` / ``MACHINE_REPAIR``
    A machine fails mid-stream and later comes back.  Unlike a leave, the
    machine stays in the park: breakdown revokes its in-flight work (same
    exactly-once credit discipline as a leave) and marks it unavailable;
    repair makes it schedulable again.
``TASK_SUBMIT``
    One job's admission to the pending pool.  First arrivals never enter
    the heap: the simulator merges its arrival-sorted job list through a
    cursor that pops exactly where these events would (see below).  The
    heap carries only the delayed re-admissions of revoked jobs when a
    :class:`~repro.core.config.RetryPolicy` imposes a backoff.
``TASK_CANCEL``
    A user withdraws a job; popping it removes the job from wherever it
    currently sits (pending pool, retry backoff, or an in-flight machine
    queue) unless it already finished.
``SCHEDULER_TICK``
    A scheduler activation point.  The periodic driver chains these at
    ``activation_interval``; the adaptive driver schedules them on demand
    (backlog threshold, membership change, max-interval fallback).

Determinism is load-bearing: recorded-trace replay is bit-exact only if
simultaneous events always pop in the same order.  Events are totally
ordered by ``(time, kind, seq)``:

1. **time** — chronological, always;
2. **kind** — at equal timestamps, capacity-adding membership events
   (joins, repairs) before capacity-removing ones (leaves, breakdowns)
   before submissions before cancellations before scheduler ticks (the
   :class:`EventType` integer values).  This reproduces the classic
   periodic loop's within-tick order (membership first, then arrivals,
   then the activation) and guarantees a tick at time *t* observes every
   event at *t*.  The failure kinds slot into the legacy order without
   permuting it, so traces that carry no failure events drain exactly as
   they did before the failure model existed;
3. **seq** — a monotonically increasing insertion counter breaking the
   remaining ties FIFO, independent of heap internals and payload types.

A first arrival at time *t* therefore sorts as ``(t, TASK_SUBMIT, -1)``:
after the membership kinds at *t*, before everything else at *t* —
including a retry ``TASK_SUBMIT`` for the same instant, which would always
have been pushed later.  That is the simulator's cursor merge rule.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Any, NamedTuple

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(IntEnum):
    """Event kinds; the integer value is the tie-break priority at equal times."""

    MACHINE_JOIN = 0
    MACHINE_REPAIR = 1
    MACHINE_LEAVE = 2
    MACHINE_BREAKDOWN = 3
    TASK_SUBMIT = 4
    TASK_CANCEL = 5
    SCHEDULER_TICK = 6


class Event(NamedTuple):
    """One scheduled occurrence: ``(time, kind, seq, payload)``.

    The tuple layout *is* the heap ordering — ``seq`` is unique per queue,
    so comparisons never reach the (arbitrarily typed) payload.
    """

    time: float
    kind: EventType
    seq: int
    payload: Any = None


class EventQueue:
    """A heapq-backed priority queue of :class:`Event` records.

    Pops are globally ordered by ``(time, kind, seq)``; pushes and pops are
    O(log n).  The insertion counter makes the pop order a pure function of
    the push sequence — two queues fed the same pushes drain identically.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = 0

    def push(self, time: float, kind: EventType, payload: Any = None) -> Event:
        """Schedule an event; returns the stored record (with its seq)."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        event = Event(float(time), EventType(kind), self._counter, payload)
        self._counter += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """The earliest event without removing it."""
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = f", next={self._heap[0]!r}" if self._heap else ""
        return f"EventQueue(len={len(self._heap)}{head})"
