"""Turn a trace JSONL back into per-activation tables.

``repro-scheduler obs summarize trace.jsonl`` renders the
activation-by-activation account a :class:`~repro.obs.tracelog.TraceLog`
recorded: one row per activation line (backlog drained, batch size, mode,
scheduling latency, warm-start reuse, engine evaluations), followed by the
point-event tally (shed episodes, degrade/recover transitions, machine
churn).  The same functions back the tests that pin "the trace reproduces
the run": summing the table's columns must reproduce the service's own
counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.tracelog import read_trace
from repro.utils.tables import format_mapping, format_table

__all__ = [
    "activation_rows",
    "event_counts",
    "summarize_events",
    "summarize_trace",
]

#: Column order of the per-activation table (header, event-field, default).
_COLUMNS = (
    ("t", "time", None),
    ("seq", "seq", None),
    ("source", "source", "?"),
    ("backlog", "backlog", None),
    ("batch", "batch_size", None),
    ("mode", "mode", "?"),
    ("sched s", "scheduler_seconds", None),
    ("carried", "carried", None),
    ("filled", "filled", None),
    ("evals", "evaluations", None),
    ("scheduled", "scheduled", None),
)


def activation_rows(
    events: Sequence[Mapping[str, Any]],
) -> tuple[list[str], list[list[Any]]]:
    """``(headers, rows)`` of the per-activation table, in trace order."""
    headers = ["#"] + [header for header, _, _ in _COLUMNS]
    rows: list[list[Any]] = []
    for record in events:
        if record.get("event") != "activation":
            continue
        rows.append(
            [len(rows)] + [record.get(field, default) for _, field, default in _COLUMNS]
        )
    return headers, rows


def event_counts(events: Sequence[Mapping[str, Any]]) -> dict[str, int]:
    """Tally of the point events (everything that is not an activation)."""
    counts: dict[str, int] = {}
    for record in events:
        name = record.get("event", "?")
        if name == "activation":
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def summarize_events(
    events: Sequence[Mapping[str, Any]], *, limit: int | None = None
) -> str:
    """Render the activation table and event tally for parsed *events*."""
    headers, rows = activation_rows(events)
    shown = rows if limit is None else rows[-limit:]
    parts = [
        format_table(
            headers,
            shown,
            title=(
                f"Activations ({len(shown)} of {len(rows)} shown)"
                if len(shown) < len(rows)
                else f"Activations ({len(rows)})"
            ),
        )
    ]
    counts = event_counts(events)
    if counts:
        parts.append("")
        parts.append(
            format_mapping(
                {name: counts[name] for name in sorted(counts)},
                title="Point events",
            )
        )
    return "\n".join(parts)


def summarize_trace(path: str | Path, *, limit: int | None = None) -> str:
    """Read a trace JSONL file and render its per-activation summary."""
    return summarize_events(read_trace(path), limit=limit)
