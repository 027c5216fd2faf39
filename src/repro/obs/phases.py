"""Named sub-span timing for one scheduler activation.

An activation span (PR 8) reports *one* wall-clock duration; attributing a
latency regression needs the split underneath it: how long the activation
spent building the batch instance, remapping the warm start, running the
evaluation loop, committing the plan.  :class:`PhaseTimer` accumulates
those named phases as plain wall-clock seconds — one
:class:`~repro.utils.timer.Stopwatch` read per phase boundary, no
allocation per observation — so the instrumented layers can keep it on
even when tracing is off (the accumulated dict feeds both the ``phases``
field of the ``activation`` trace line and the per-phase histograms of the
:class:`~repro.obs.metrics.MetricsRegistry`).

Phases may repeat (``phase("evaluate")`` inside a loop accumulates), and a
timer can absorb another layer's split via :meth:`merge` — the live core
merges the warm scheduler's internal ``warm_remap``/``evaluate`` phases
under its own ``instance_build``/``solve``/``commit`` envelope.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.utils.timer import Stopwatch

__all__ = ["PhaseTimer"]


class _Phase:
    """One running phase; closing it adds the elapsed time to the timer."""

    __slots__ = ("_timer", "_name", "_stopwatch")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name
        self._stopwatch = Stopwatch()

    def __enter__(self) -> "_Phase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.add(self._name, self._stopwatch.elapsed)


class PhaseTimer:
    """Accumulates named wall-clock phases of one activation.

    Usage::

        timer = PhaseTimer()
        with timer.phase("instance_build"):
            ...build the batch instance...
        with timer.phase("solve"):
            ...run the scheduler...
        phases = timer.as_dict()
    """

    __slots__ = ("durations",)

    def __init__(self) -> None:
        #: Accumulated seconds per phase name, in first-seen order.
        self.durations: dict[str, float] = {}

    def phase(self, name: str) -> _Phase:
        """A context manager timing one occurrence of phase *name*."""
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* into phase *name* directly."""
        self.durations[name] = self.durations.get(name, 0.0) + float(seconds)

    def merge(self, other: Mapping[str, float]) -> None:
        """Accumulate another layer's phase split into this timer."""
        for name, seconds in other.items():
            self.add(name, seconds)

    @property
    def total(self) -> float:
        """Sum of all accumulated phases."""
        return sum(self.durations.values())

    def as_dict(self) -> dict[str, float]:
        """A copy of the accumulated split (what the trace line records)."""
        return dict(self.durations)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.durations.items())

    def __bool__(self) -> bool:
        return bool(self.durations)
