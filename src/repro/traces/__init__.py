"""Trace subsystem: dynamic workloads as first-class, replayable artifacts.

The static benchmark freezes one ETC matrix; this subpackage freezes whole
*dynamic scenarios* — job arrival streams, machine churn schedules, ETC
affinity seeds — so the simulator's workloads can be recorded, generated,
versioned, shared and replayed:

* :mod:`repro.traces.format` — the versioned :class:`Trace` schema
  (compressed ``.npz`` + JSON header); :meth:`Trace.from_simulation`
  records any :class:`~repro.grid.simulator.GridSimulator` run;
* :mod:`repro.traces.generators` — deterministic scenario families
  (calm / bursty MMPP / diurnal / heavy-tailed / flash-crowd / flaky /
  deadline) built on ``SeedSequence.spawn`` substreams;
* :mod:`repro.traces.replay` — the :class:`ReplayArena` that replays one
  trace against N policies at equal per-activation budget, sequentially or
  with one worker process per policy;
* :mod:`repro.traces.report` — cross-policy comparison tables with
  significance tests against the best policy.
"""

from repro.traces.format import TRACE_FORMAT_VERSION, Trace, load_trace, save_trace
from repro.traces.generators import (
    TRACE_GENERATORS,
    generate_trace,
    list_trace_families,
    rescale_trace,
)
from repro.traces.replay import (
    INHERIT_ACTIVATION,
    INHERIT_HORIZON,
    ArenaResult,
    PolicySpec,
    ReplayArena,
    cma_policy_spec,
    heuristic_policy_spec,
    policy_spec_from_name,
)
from repro.traces.report import PolicyReport, arena_rows, arena_table, summarize_arena

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Trace",
    "load_trace",
    "save_trace",
    "TRACE_GENERATORS",
    "generate_trace",
    "list_trace_families",
    "rescale_trace",
    "INHERIT_ACTIVATION",
    "INHERIT_HORIZON",
    "ArenaResult",
    "PolicySpec",
    "ReplayArena",
    "cma_policy_spec",
    "heuristic_policy_spec",
    "policy_spec_from_name",
    "PolicyReport",
    "arena_rows",
    "arena_table",
    "summarize_arena",
]
