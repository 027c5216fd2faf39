"""Worker-process plumbing: shared-memory migration and the island entry point.

The process-parallel island model moves migrants through one
:class:`multiprocessing.shared_memory.SharedMemory` segment — the
*migration board* — instead of pickling populations through queues.  The
board holds one mailbox slot per island:

```
header       (islands, 2)            int64    [seq, count] per island
fitness      (islands, k)            float64  emigrant fitnesses
assignments  (islands, k, jobs)      int64    emigrant rows
```

Publishing emigrants is two vectorized writes plus a sequence bump under
the island's lock; reading a neighbor's mailbox copies at most ``k`` rows
out under the same lock.  Readers remember the last sequence number they
saw per source, so a mailbox that has not been republished is skipped —
migration on the hot path is therefore a row copy in, a row copy out, and
never touches a pickle.

Workers communicate *results* (one :class:`SchedulingResult` per island,
end of run only) through an ordinary queue: that path runs once and is not
hot.  :func:`run_island_worker` is the process entry point; everything it
receives (:class:`WorkerTask`) is picklable, which the spec-pickling tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.config import IslandConfig
from repro.core.termination import TerminationCriteria
from repro.islands.migration import EmigrantParcel, select_emigrants
from repro.model.instance import SchedulingInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.islands.model import IslandRuntime

__all__ = ["MigrationBoard", "WorkerTask", "run_island_worker"]


def _unregister_attached(shm: shared_memory.SharedMemory) -> None:
    """Keep an attaching process's resource tracker from unlinking the segment.

    Before Python 3.13 every ``SharedMemory`` registers with the resource
    tracker even when merely attaching, so a ``spawn``-ed worker exiting
    would try to clean up a segment the parent still owns.  Only the
    creating parent may unlink.  (Forked workers share the parent's tracker
    and must *not* unregister — that would strip the parent's own
    registration; callers pass ``untrack=False`` for them.)
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class MigrationBoard:
    """One shared-memory mailbox slot per island.

    Parameters
    ----------
    nb_islands, nb_emigrants, nb_jobs:
        Board geometry; every slot holds up to ``nb_emigrants`` rows of
        ``nb_jobs`` genes.
    name:
        Attach to an existing segment by name (worker side); ``None``
        creates a fresh one (parent side).
    """

    def __init__(
        self,
        nb_islands: int,
        nb_emigrants: int,
        nb_jobs: int,
        name: str | None = None,
        untrack: bool = True,
    ) -> None:
        self.nb_islands = int(nb_islands)
        self.nb_emigrants = int(nb_emigrants)
        self.nb_jobs = int(nb_jobs)
        header_bytes = self.nb_islands * 2 * 8
        fitness_bytes = self.nb_islands * self.nb_emigrants * 8
        assignment_bytes = self.nb_islands * self.nb_emigrants * self.nb_jobs * 8
        size = header_bytes + fitness_bytes + assignment_bytes
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
            if untrack:
                _unregister_attached(self._shm)
        buf = self._shm.buf
        self._header = np.ndarray(
            (self.nb_islands, 2), dtype=np.int64, buffer=buf
        )
        self._fitness = np.ndarray(
            (self.nb_islands, self.nb_emigrants),
            dtype=np.float64,
            buffer=buf,
            offset=header_bytes,
        )
        self._assignments = np.ndarray(
            (self.nb_islands, self.nb_emigrants, self.nb_jobs),
            dtype=np.int64,
            buffer=buf,
            offset=header_bytes + fitness_bytes,
        )
        if self._owner:
            self._header[:] = 0

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    # ------------------------------------------------------------------ #
    # Mailbox protocol (callers hold the island's lock)
    # ------------------------------------------------------------------ #
    def publish(self, island: int, parcel: EmigrantParcel) -> None:
        """Write *parcel* into *island*'s outbox and bump its sequence number."""
        count = min(len(parcel), self.nb_emigrants)
        self._fitness[island, :count] = parcel.fitnesses[:count]
        self._assignments[island, :count] = parcel.assignments[:count]
        self._header[island, 1] = count
        self._header[island, 0] += 1

    def read(self, island: int, last_seq: int) -> tuple[int, EmigrantParcel | None]:
        """Copy *island*'s outbox if it changed since *last_seq*.

        Returns the slot's current sequence number and the parcel, or
        ``None`` when the mailbox is unchanged or empty — the caller stores
        the sequence number to skip the copy next time.
        """
        seq = int(self._header[island, 0])
        count = int(self._header[island, 1])
        if seq == last_seq or count == 0:
            return seq, None
        return seq, EmigrantParcel(
            assignments=self._assignments[island, :count].copy(),
            fitnesses=self._fitness[island, :count].copy(),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the numpy views and unmap the segment (all processes)."""
        self._header = self._fitness = self._assignments = None  # release buf
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creating parent only, after close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already cleaned up
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MigrationBoard(islands={self.nb_islands}, "
            f"emigrants={self.nb_emigrants}, jobs={self.nb_jobs}, "
            f"name={self.name!r})"
        )


@dataclass(frozen=True)
class WorkerTask:
    """Everything one island worker needs, in picklable form.

    Random streams travel as :class:`numpy.random.SeedSequence` (cheap and
    stable to pickle); the algorithm itself travels as the spec that builds
    it, never as a live population.
    """

    island_id: int
    instance: SchedulingInstance
    spec: Any  # anything with .build(instance, termination, rng, engine)
    termination: TerminationCriteria
    algorithm_stream: np.random.SeedSequence
    migration_stream: np.random.SeedSequence
    config: IslandConfig
    sources: tuple[int, ...]
    board_name: str | None
    start_method: str = "fork"


def _runtime_for(task: WorkerTask) -> "IslandRuntime":
    from repro.islands.model import IslandRuntime  # worker sits below model

    return IslandRuntime(
        island_id=task.island_id,
        instance=task.instance,
        spec=task.spec,
        termination=task.termination,
        algorithm_stream=task.algorithm_stream,
        migration_stream=task.migration_stream,
        config=task.config,
    )


def run_island_worker(task: WorkerTask, locks: Sequence[Any]):
    """Process entry point: run one island to completion, return its result.

    The island migrates through the shared board.  The board methods
    themselves are lock-free; every publish and read is wrapped in the
    owning island's lock (``locks[i]`` guards mailbox *i*).
    Migration is asynchronous: an island that reaches a migration point
    publishes its emigrants and integrates whatever its sources have
    *currently* published — no barrier, so a slow or finished neighbor can
    never deadlock this worker.
    """
    runtime = _runtime_for(task)
    migrate = task.config.migration_enabled and task.board_name is not None
    if not migrate:
        return runtime.run_isolated()

    board = MigrationBoard(
        task.config.nb_islands,
        task.config.nb_emigrants,
        task.instance.nb_jobs,
        name=task.board_name,
        # Forked workers share the parent's resource tracker; only workers
        # with their own tracker (spawn/forkserver) must untrack the segment.
        untrack=task.start_method != "fork",
    )
    last_seen = {source: 0 for source in task.sources}
    try:
        runtime.ensure_started()
        while runtime.active:
            runtime.step()
            if runtime.migration_due():
                with locks[task.island_id]:
                    board.publish(task.island_id, runtime.emigrate())
                for source in task.sources:
                    with locks[source]:
                        seq, parcel = board.read(source, last_seen[source])
                    last_seen[source] = seq
                    if parcel is not None:
                        runtime.immigrate(parcel)
                runtime.advance_clock()
        # Leave the final best on the board so slower neighbors still see
        # it.  Selected directly (not via runtime.emigrate) so the
        # migrations_out counter stays comparable with the workers=0 driver.
        farewell = select_emigrants(
            runtime.grid,
            task.config.nb_emigrants,
            task.config.emigrant_selection,
            runtime.migration_rng,
        )
        with locks[task.island_id]:
            board.publish(task.island_id, farewell)
        return runtime.finish_result()
    finally:
        board.close()
