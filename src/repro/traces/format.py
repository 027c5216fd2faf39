"""The versioned trace schema: dynamic workloads as first-class artifacts.

A :class:`Trace` freezes everything a dynamic simulation consumes — the job
arrival stream (ids, sizes, arrival times, due dates, cancel times), the
machine park (ids, MIPS, join/leave windows, breakdown windows, ETC affinity
spreads) and a JSON-friendly metadata header (scenario family, generator
seed, format version) — into one structure-of-arrays record.  Its job arrays
are a :class:`~repro.grid.job.JobTable` (:attr:`Trace.jobs`), which checks
them and which the simulator takes as its jobs without a copy.

Replaying a trace with the same policy, configuration and seed reproduces
the recorded simulation bit-exactly, because the simulator is a pure
function of its job table in arrival order, its machines, the policy, the
configuration and the seed, and a trace round-trips the table and the
machines.  :meth:`Trace.from_simulation` records a simulator's table in
that order (``simulate --out`` saves any run this way).

Persistence is a single compressed ``.npz`` file: the arrays are stored
natively and the header travels as one JSON string under the ``header``
key, so a trace can be inspected with nothing but numpy and ``json``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.grid.job import GridJob, JobTable
from repro.grid.machine import GridMachine
from repro.grid.metrics import MachineEvent

__all__ = ["TRACE_FORMAT_VERSION", "Trace", "load_trace", "save_trace"]

#: Version of the on-disk schema; bumped on any incompatible layout change.
#: Version 2 added the failure model: per-job due dates and cancellation
#: times, and the flat ``(machine, breakdown, repair)`` window list.
#: Version-1 files load unchanged (the failure arrays default to "never").
TRACE_FORMAT_VERSION = 2

#: Sentinel stored in ``machine_leave`` for machines that never leave — and
#: in ``job_due_dates`` / ``job_cancel_times`` for "no deadline" / "never
#: cancelled".
_NEVER = np.inf

#: The array fields of one trace, in schema order (name -> dtype).
_ARRAY_FIELDS = {
    "job_ids": np.int64,
    "job_workloads": np.float64,
    "job_arrivals": np.float64,
    "machine_ids": np.int64,
    "machine_mips": np.float64,
    "machine_joins": np.float64,
    "machine_leaves": np.float64,
    "machine_affinity_spreads": np.float64,
    "job_due_dates": np.float64,
    "job_cancel_times": np.float64,
    "breakdown_machine_ids": np.int64,
    "breakdown_times": np.float64,
    "repair_times": np.float64,
}

#: The job arrays of a trace, in :class:`~repro.grid.job.JobTable` column order.
_JOB_FIELDS = ("job_ids", "job_workloads", "job_arrivals", "job_due_dates", "job_cancel_times")

#: The arrays a version-1 file is required to carry; the version-2 failure
#: arrays are synthesized as "never" when absent.
_V1_ARRAY_FIELDS = (
    "job_ids",
    "job_workloads",
    "job_arrivals",
    "machine_ids",
    "machine_mips",
    "machine_joins",
    "machine_leaves",
    "machine_affinity_spreads",
)


@dataclass(frozen=True)
class Trace:
    """One dynamic workload: job arrivals plus the machine park, as arrays.

    Attributes
    ----------
    name:
        Human-readable label (stored in the header, reported in tables).
    job_ids, job_workloads, job_arrivals:
        Per-job stable id, size in millions of instructions, and arrival
        time; rows are sorted by arrival time, the order the simulator
        consumes them in (it keeps the rows of tied arrivals in trace
        order).
    machine_ids, machine_mips, machine_joins, machine_leaves,
    machine_affinity_spreads:
        Per-machine stable id, capacity, membership window (``inf`` leave
        time means the machine never leaves) and ETC affinity noise spread
        — together with the stable ids this pins the deterministic
        per-(job, machine) affinity factors of
        :func:`repro.grid.machine.affinity_factors`, so the replayed ETC
        matrices match the recorded ones bit-exactly.
    job_due_dates, job_cancel_times:
        Per-job SLA deadline and user-cancellation instant; ``inf`` means
        "no deadline" / "never cancelled".  Both default to all-``inf``
        (the failure-free version-1 semantics).
    breakdown_machine_ids, breakdown_times, repair_times:
        The park's breakdown schedule as one flat event list: row *k* says
        machine ``breakdown_machine_ids[k]`` is broken during
        ``[breakdown_times[k], repair_times[k])``.  A machine may appear
        any number of times; all three default to empty.
    metadata:
        JSON-serializable provenance: scenario family and config for
        synthetic traces, the recording policy for captured ones, the
        generator seed, free-form notes.
    jobs:
        The five job arrays as one :class:`~repro.grid.job.JobTable`,
        built (and checked) at construction; not a constructor argument.
    """

    name: str
    job_ids: np.ndarray
    job_workloads: np.ndarray
    job_arrivals: np.ndarray
    machine_ids: np.ndarray
    machine_mips: np.ndarray
    machine_joins: np.ndarray
    machine_leaves: np.ndarray
    machine_affinity_spreads: np.ndarray
    job_due_dates: np.ndarray | None = None
    job_cancel_times: np.ndarray | None = None
    breakdown_machine_ids: np.ndarray | None = None
    breakdown_times: np.ndarray | None = None
    repair_times: np.ndarray | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    jobs: JobTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The job table checks every per-job rule and holds the job arrays.
        # Absent failure arrays get the version-1 semantics: no deadlines,
        # no cancellations, no breakdowns.
        jobs = JobTable(*(getattr(self, name) for name in _JOB_FIELDS))
        object.__setattr__(self, "jobs", jobs)
        columns = (jobs.ids, jobs.workloads, jobs.arrivals, jobs.due_dates, jobs.cancel_times)
        for field_name, column in zip(_JOB_FIELDS, columns):
            object.__setattr__(self, field_name, column)
        for field_name in ("breakdown_machine_ids", "breakdown_times", "repair_times"):
            if getattr(self, field_name) is None:
                object.__setattr__(self, field_name, np.empty(0))
        for field_name, dtype in _ARRAY_FIELDS.items():
            value = np.ascontiguousarray(getattr(self, field_name), dtype=dtype)
            if value.ndim != 1:
                raise ValueError(f"{field_name} must be one-dimensional")
            object.__setattr__(self, field_name, value)
        machines = self.machine_ids.size
        for field_name in (
            "machine_mips",
            "machine_joins",
            "machine_leaves",
            "machine_affinity_spreads",
        ):
            if getattr(self, field_name).size != machines:
                raise ValueError(f"{field_name} must have one entry per machine")
        if machines == 0:
            raise ValueError("a trace needs at least one machine")
        if np.unique(self.machine_ids).size != machines:
            raise ValueError("machine ids must be unique")
        if np.any(np.diff(self.job_arrivals) < 0):
            raise ValueError("jobs must be sorted by arrival time")
        if np.any(self.machine_mips <= 0):
            raise ValueError("machine mips must be positive")
        if np.any(self.machine_joins < 0) or np.any(
            self.machine_leaves <= self.machine_joins
        ):
            raise ValueError("machine membership windows must be valid")
        if np.any(self.machine_affinity_spreads < 0):
            raise ValueError("affinity spreads must be non-negative")
        if not (
            self.breakdown_machine_ids.size
            == self.breakdown_times.size
            == self.repair_times.size
        ):
            raise ValueError("breakdown arrays must have equal lengths")
        if self.breakdown_machine_ids.size:
            if np.any(self.repair_times <= self.breakdown_times):
                raise ValueError("repair times must be strictly after breakdowns")
            if not np.isin(self.breakdown_machine_ids, self.machine_ids).all():
                raise ValueError("breakdown machine ids must exist in the park")

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def nb_jobs(self) -> int:
        return int(self.job_ids.size)

    @property
    def nb_machines(self) -> int:
        return int(self.machine_ids.size)

    @property
    def duration(self) -> float:
        """Arrival time of the last job (0 for an empty stream)."""
        return float(self.job_arrivals[-1]) if self.nb_jobs else 0.0

    def to_jobs(self) -> list[GridJob]:
        """The arrival stream as one ``GridJob`` per row (arrival order)."""
        return list(self.jobs)

    def to_machines(self) -> list[GridMachine]:
        """Materialize the machine park in its recorded order."""
        windows: dict[int, list[tuple[float, float]]] = {}
        for machine_id, down, up in zip(
            self.breakdown_machine_ids, self.breakdown_times, self.repair_times
        ):
            windows.setdefault(int(machine_id), []).append((float(down), float(up)))
        return [
            GridMachine(
                machine_id=int(i),
                mips=float(m),
                join_time=float(j),
                leave_time=None if not np.isfinite(leave) else float(leave),
                affinity_spread=float(spread),
                breakdowns=tuple(sorted(windows.get(int(i), []))),
            )
            for i, m, j, leave, spread in zip(
                self.machine_ids,
                self.machine_mips,
                self.machine_joins,
                self.machine_leaves,
                self.machine_affinity_spreads,
            )
        ]

    def machine_events(self) -> list[MachineEvent]:
        """The full join/leave schedule of the park, chronologically ordered.

        Every machine contributes a join event at its join time and, when
        its membership window is finite, a leave event — the *schedule* a
        simulation will realize (the simulator's own log only contains the
        events that occurred before its stream drained).
        """
        events = [
            MachineEvent(time=float(j), machine_id=int(i), event="join")
            for i, j in zip(self.machine_ids, self.machine_joins)
        ]
        events += [
            MachineEvent(time=float(leave), machine_id=int(i), event="leave")
            for i, leave in zip(self.machine_ids, self.machine_leaves)
            if np.isfinite(leave)
        ]
        for machine_id, down, up in zip(
            self.breakdown_machine_ids, self.breakdown_times, self.repair_times
        ):
            events.append(
                MachineEvent(time=float(down), machine_id=int(machine_id), event="breakdown")
            )
            events.append(
                MachineEvent(time=float(up), machine_id=int(machine_id), event="repair")
            )
        return sorted(events, key=lambda event: event.sort_key)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_simulation(
        cls,
        jobs: JobTable | Sequence[GridJob],
        machines: Sequence[GridMachine],
        name: str = "recorded",
        metadata: dict[str, Any] | None = None,
    ) -> "Trace":
        """Freeze a simulator's workload and machine park into a trace.

        The jobs are recorded in the simulator's order: by arrival, ties in
        the order given (:meth:`~repro.grid.job.JobTable.in_arrival_order`),
        so a replay batches tied jobs as the recorded run did.
        """
        table = JobTable.of(jobs).in_arrival_order()
        breakdown_rows = [
            (machine.machine_id, down, up)
            for machine in machines
            for down, up in machine.breakdowns
        ]
        return cls(
            name=name,
            job_ids=table.ids,
            job_workloads=table.workloads,
            job_arrivals=table.arrivals,
            machine_ids=[machine.machine_id for machine in machines],
            machine_mips=[machine.mips for machine in machines],
            machine_joins=[machine.join_time for machine in machines],
            machine_leaves=[
                _NEVER if machine.leave_time is None else machine.leave_time
                for machine in machines
            ],
            machine_affinity_spreads=[machine.affinity_spread for machine in machines],
            job_due_dates=table.due_dates,
            job_cancel_times=table.cancel_times,
            breakdown_machine_ids=[row[0] for row in breakdown_rows],
            breakdown_times=[row[1] for row in breakdown_rows],
            repair_times=[row[2] for row in breakdown_rows],
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the trace as one compressed ``.npz`` with a JSON header."""
        return save_trace(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`save` (version-checked)."""
        return load_trace(path)

    def describe(self) -> dict[str, Any]:
        """Flat summary used by the CLI and the reporting helpers."""
        finite = self.machine_leaves[np.isfinite(self.machine_leaves)]
        return {
            "name": self.name,
            "jobs": self.nb_jobs,
            "machines": self.nb_machines,
            "duration": self.duration,
            "total workload": float(self.job_workloads.sum()),
            "churning machines": int(finite.size),
            "breakdown windows": int(self.breakdown_times.size),
            "jobs with deadlines": int(np.isfinite(self.job_due_dates).sum()),
            "cancelled jobs": int(np.isfinite(self.job_cancel_times).sum()),
            "family": str(self.metadata.get("family", "recorded")),
        }


def _header(trace: Trace) -> dict[str, Any]:
    return {
        "format": "repro-scheduler/trace",
        "version": TRACE_FORMAT_VERSION,
        "name": trace.name,
        "metadata": trace.metadata,
    }


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Persist *trace* to *path* (``.npz`` appended when missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {name: getattr(trace, name) for name in _ARRAY_FIELDS}
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, header=np.array(json.dumps(_header(trace))), **arrays
    )
    path.write_bytes(buffer.getvalue())
    return path


def load_trace(path: str | Path) -> Trace:
    """Load a trace artifact, validating its format version and schema."""
    with np.load(Path(path), allow_pickle=False) as archive:
        if "header" not in archive:
            raise ValueError(f"{path}: not a trace file (missing header)")
        header = json.loads(str(archive["header"]))
        if header.get("format") != "repro-scheduler/trace":
            raise ValueError(f"{path}: not a trace file (bad format marker)")
        version = header.get("version")
        if version not in (1, TRACE_FORMAT_VERSION):
            raise ValueError(
                f"{path}: unsupported trace version {version!r} "
                f"(this build reads versions 1..{TRACE_FORMAT_VERSION})"
            )
        required = _V1_ARRAY_FIELDS if version == 1 else tuple(_ARRAY_FIELDS)
        missing = sorted(set(required) - set(archive.files))
        if missing:
            raise ValueError(f"{path}: trace file is missing arrays {missing}")
        # Version-1 files carry no failure arrays; Trace synthesizes the
        # "never fails" defaults for the names left as None.
        arrays = {
            name: archive[name] if name in archive.files else None
            for name in _ARRAY_FIELDS
        }
    return Trace(
        name=str(header.get("name", "trace")),
        metadata=dict(header.get("metadata", {})),
        **arrays,
    )
