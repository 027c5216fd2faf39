"""The committed work of a machine park, shared by both clock domains.

The *park* is the set of machines the simulator or the live core schedules
onto, indexed by park position.  :class:`Park` holds the work committed
there for the simulator (simulated time) and the live
:class:`~repro.service.state.SchedulerCore` (wall time) alike: columnar
``up``, ``busy_until`` (the ready time the next activation plans from),
``busy_time`` and ``completed`` (the credit, net of what was taken back)
and ``committed`` (ever received a commit) arrays, and one queue of
in-flight :class:`Placement`\\ s per machine, in start order.

Either one commits an activation's :class:`~repro.grid.activation.
CommitPlan` with :meth:`Park.apply`, takes back a machine's unfinished
work with :meth:`Park.revoke` when the machine leaves or breaks down (a
job runs on its machine "unless it drops from the Grid"), and takes back
one placement with :meth:`Park.release` when its user cancels it.  A
placement taken back leaves its queue, so its credit is taken back exactly
once.

A placement names its job by an opaque *key* the committer chooses: the
simulator uses the job's row in its job table, the live core the submitted
:class:`~repro.grid.job.GridJob` itself.  The park only stores keys, hands
them back and compares them for equality.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.grid.activation import CommitPlan

__all__ = ["Park", "Placement"]


class Placement(NamedTuple):
    """A job committed to a machine: its key, planned start and finish times."""

    key: Any
    start: float
    finish: float


class Park:
    """Columnar committed-work state of *size* machines (all up or all down)."""

    def __init__(self, size: int, up: bool = True) -> None:
        self.up = np.full(size, up)
        self.busy_until = np.zeros(size)
        self.busy_time = np.zeros(size)
        self.completed = np.zeros(size, dtype=np.int64)
        self.committed = np.zeros(size, dtype=bool)
        self.queues: list[deque[Placement]] = [deque() for _ in range(size)]

    def apply(self, positions: np.ndarray, plan: CommitPlan, keys: Sequence[Any]) -> None:
        """Commit *plan*, whose columns are the park *positions*.

        *keys* are the batch's job keys by plan row.  Each machine that
        receives work first drops the placements settled by the plan's time.
        """
        rows = map(keys.__getitem__, plan.rows.tolist())
        placements = list(map(Placement, rows, plan.starts.tolist(), plan.finishes.tolist()))
        where = positions.tolist()
        counts = plan.jobs.tolist()
        touched = np.flatnonzero(plan.jobs)
        end = 0
        # Placements come grouped by column, each group in queue order.
        for column in touched.tolist():
            queue = self.queues[where[column]]
            while queue and queue[0].finish <= plan.time:
                queue.popleft()  # settled
            queue.extend(placements[end : end + counts[column]])
            end += counts[column]
        machines = positions[touched]
        self.busy_time[machines] += plan.busy[touched]
        self.completed[machines] += plan.jobs[touched]
        self.busy_until[machines] = plan.ends[touched]
        self.committed[machines] = True

    def revoke(self, position: int, now: float) -> list[Placement]:
        """Take back every placement *position* has not finished by *now*.

        The machine keeps credit only for the work it ran.  Its
        ``busy_until`` drops to *now* at the latest.  Returns the revoked
        placements in queue order.
        """
        queue = self.queues[position]
        revoked = [placement for placement in queue if placement.finish > now]
        self.queues[position] = deque(p for p in queue if p.finish <= now)
        self._take_back(position, revoked, now)
        self.busy_until[position] = min(float(self.busy_until[position]), now)
        return revoked

    def release(self, position: int, key: Any, now: float) -> Placement | None:
        """Take back the placement of job *key* on *position* if it is unfinished.

        The machine is released from the new queue tail on; the other
        placements keep their committed times.  Returns the placement, or
        ``None`` when there is none or it finished by *now*.
        """
        queue = self.queues[position]
        for placement in queue:
            if placement.key == key:
                break
        else:
            return None
        if placement.finish <= now:
            return None
        queue.remove(placement)
        self._take_back(position, [placement], now)
        tail = queue[-1].finish if queue else now
        self.busy_until[position] = min(float(self.busy_until[position]), max(now, tail))
        return placement

    def _take_back(self, position: int, placements: list[Placement], now: float) -> None:
        """Give back the unrun part and the completion of unfinished *placements*."""
        busy = float(self.busy_time[position])
        for placement in placements:
            processed = max(0.0, now - placement.start)
            busy -= (placement.finish - placement.start) - processed
        self.busy_time[position] = busy
        self.completed[position] -= len(placements)

    def utilization(self, horizon: float) -> np.ndarray:
        """Each machine's busy share of *horizon*, capped at 1 (0 if empty)."""
        if horizon <= 0:
            return np.zeros(self.busy_time.size)
        return np.minimum(1.0, self.busy_time / horizon)
