"""Deterministic fault injection against the live scheduler service.

:class:`FaultInjector` is the live-service counterpart of the ``flaky``
trace family: where the simulator replays recorded breakdown windows on
virtual time, the injector *drives* :meth:`~repro.service.state.
SchedulerCore.break_machine` / :meth:`~repro.service.state.SchedulerCore.
repair_machine` on wall-clock time while a load generator offers traffic —
the chaos half of a chaos test.

Two properties make it a test tool rather than a fuzzer:

* **seedable** — :meth:`FaultInjector.plan` derives the whole breakdown/
  repair timeline from ``(seed, mtbf, mttr, park size)`` up front, so a
  failing chaos run can be replayed exactly;
* **bounded blast radius** — machine 0 is never broken (the park cannot go
  fully dark by injection alone, so forward progress is always possible),
  and :meth:`FaultInjector.run` repairs every machine it broke before
  returning, even when cancelled — the park always ends healthy.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from typing import Any

from repro.utils.rng import as_generator

__all__ = ["FaultEvent", "ChaosReport", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One planned availability flip, at *time* seconds from run start."""

    time: float
    machine_index: int
    kind: str  # "breakdown" | "repair"


@dataclass(frozen=True)
class ChaosReport:
    """What one injection run did (reported next to the load report)."""

    planned_events: int
    breakdowns: int
    repairs: int
    #: Machines still down at the end of the plan that the injector
    #: repaired on exit (the always-ends-healthy guarantee).
    restored: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (what the CLI prints)."""
        return asdict(self)


class FaultInjector:
    """Seeded breakdown/repair driver for one :class:`SchedulerCore`.

    Parameters
    ----------
    core:
        The :class:`~repro.service.state.SchedulerCore` whose machines are
        broken and repaired (any object with ``machines`` and the
        ``break_machine``/``repair_machine`` pair works).
    mtbf:
        Mean seconds between failures, per machine (exponential).
    mttr:
        Mean seconds to repair (exponential).
    seed:
        Seed of the deterministic plan.
    """

    def __init__(
        self, core: Any, *, mtbf: float = 10.0, mttr: float = 2.0, seed: int = 0
    ) -> None:
        if mtbf <= 0 or mttr <= 0:
            raise ValueError(f"mtbf and mttr must be > 0, got {mtbf}/{mttr}")
        self.core = core
        self.mtbf = float(mtbf)
        self.mttr = float(mttr)
        self.seed = int(seed)

    def plan(self, duration: float) -> tuple[FaultEvent, ...]:
        """The full injection timeline for a *duration*-second run.

        Each machine except machine 0 alternates up-time ~ Exp(``mtbf``)
        and down-time ~ Exp(``mttr``), exactly like the ``flaky`` trace
        family's recorded windows; the merged timeline is sorted by time.
        Pure function of the constructor arguments and *duration*.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        gen = as_generator(self.seed)
        events: list[FaultEvent] = []
        for index in range(1, len(self.core.machines)):
            t = float(gen.exponential(self.mtbf))
            while t < duration:
                events.append(FaultEvent(t, index, "breakdown"))
                t += float(gen.exponential(self.mttr))
                if t < duration:
                    events.append(FaultEvent(t, index, "repair"))
            # A window still open at the horizon is closed by the
            # end-of-run restore sweep, not by a planned repair.
        events.sort(key=lambda event: (event.time, event.machine_index))
        return tuple(events)

    async def run(self, duration: float) -> ChaosReport:
        """Apply the plan on wall-clock time, then restore the park.

        Sleeps toward each event's absolute instant (open-loop, like the
        load generator: a slow flip delays its own application, never the
        plan).  On exit — normal, error or cancellation — every machine
        the injector left broken is repaired.
        """
        events = self.plan(duration)
        loop = asyncio.get_running_loop()
        started = loop.time()
        breakdowns = 0
        repairs = 0
        restored = 0
        try:
            for event in events:
                delay = started + event.time - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if event.kind == "breakdown":
                    breakdowns += int(self.core.break_machine(event.machine_index))
                else:
                    repairs += int(self.core.repair_machine(event.machine_index))
        finally:
            for index in range(1, len(self.core.machines)):
                restored += int(self.core.repair_machine(index))
        return ChaosReport(
            planned_events=len(events),
            breakdowns=breakdowns,
            repairs=repairs,
            restored=restored,
        )
