"""Observability: metrics registry, Prometheus exposition, trace log.

The unified observability layer every subsystem reports through:

* :class:`MetricsRegistry` — dependency-free metric families with labels,
  rendered in the Prometheus text exposition format
  (:mod:`repro.obs.metrics`) and validated back by the strict parser in
  :mod:`repro.obs.exposition`.  Counters and gauges read their owners'
  own tallies at scrape time; histograms are observed into;
* :data:`NULL_REGISTRY` — the no-op default every instrumented constructor
  takes: it ignores registrations, so nothing is read or allocated with
  observability off;
* :class:`TraceLog` — structured JSON-lines tracing
  (:mod:`repro.obs.tracelog`), summarized back into per-activation tables
  by :mod:`repro.obs.summarize` (``repro-scheduler obs summarize``);
* :class:`PhaseTimer` — named sub-span timing inside one activation
  (:mod:`repro.obs.phases`), feeding per-phase histograms and the
  ``activation`` line's ``phases`` field;
* :class:`JobTimeline` — per-job lifecycle reconstruction and latency
  attribution (:mod:`repro.obs.timeline`, ``repro-scheduler obs
  timeline`` / ``obs slowest``).
"""

from repro.obs.exposition import ParsedFamily, parse_exposition
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
)
from repro.obs.phases import PhaseTimer
from repro.obs.summarize import (
    activation_rows,
    event_counts,
    summarize_events,
    summarize_trace,
)
from repro.obs.timeline import (
    JobTimeline,
    attribution_rows,
    attribution_table,
    build_timelines,
    lifecycle_violations,
    render_timelines,
    slowest_report,
    slowest_table,
    timeline_report,
)
from repro.obs.tracelog import TraceLog, read_trace

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "ParsedFamily",
    "parse_exposition",
    "TraceLog",
    "read_trace",
    "activation_rows",
    "event_counts",
    "summarize_events",
    "summarize_trace",
    "PhaseTimer",
    "JobTimeline",
    "build_timelines",
    "lifecycle_violations",
    "attribution_rows",
    "attribution_table",
    "render_timelines",
    "slowest_table",
    "timeline_report",
    "slowest_report",
]
