"""Dynamic grid simulation: the batch scheduler in its intended habitat.

The static ETC benchmark evaluates one batch in isolation; this subpackage
provides the discrete-event substrate needed to exercise the paper's actual
deployment scenario — a grid where jobs arrive continuously, machines join
and leave, and the cMA is activated periodically in batch mode.  It stands
in for the external grid-simulator packages the paper defers to future work
(see DESIGN.md §4, substitution 4).
"""

from repro.core.config import ActivationPolicy
from repro.grid.events import Event, EventQueue, EventType
from repro.grid.job import GridJob, JobRecord, JobState, JobTable
from repro.grid.machine import GridMachine, execution_times_matrix
from repro.grid.metrics import ActivationRecord, MachineEvent, SimulationMetrics
from repro.grid.park import Park
from repro.grid.scheduler import (
    BatchSchedulingPolicy,
    HeuristicBatchPolicy,
    degenerate_assignment,
)
from repro.grid.service import DynamicSchedulerService, ServiceStats, WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig

__all__ = [
    "ActivationPolicy",
    "Event",
    "EventQueue",
    "EventType",
    "GridJob",
    "JobRecord",
    "JobState",
    "JobTable",
    "GridMachine",
    "execution_times_matrix",
    "ActivationRecord",
    "MachineEvent",
    "SimulationMetrics",
    "Park",
    "BatchSchedulingPolicy",
    "HeuristicBatchPolicy",
    "degenerate_assignment",
    "DynamicSchedulerService",
    "ServiceStats",
    "WarmCMAPolicy",
    "GridSimulator",
    "SimulationConfig",
]
