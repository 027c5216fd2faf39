"""A dependency-free metrics registry with Prometheus text exposition.

The repo's layers (simulator, warm service, live service, load generator)
each keep their own counts; operating the live service needs one place a
scraper can read them all.  :class:`MetricsRegistry` holds metric families
with optional labels and renders them in the Prometheus text exposition
format (version 0.0.4), the lingua franca every scraper understands.  No
client library is imported: the format is a small, stable line grammar,
and the strict renderer here is pinned by a conformance test (see
:mod:`repro.obs.exposition` for the matching parser).

Three design points:

* **read, not pushed** — a counter or gauge family registers a
  zero-argument ``read`` that returns its owner's current value (a number,
  or a mapping from label-value tuples to numbers).  The owner keeps the
  one tally its snapshot and trace report too, and :meth:`~MetricsRegistry.
  render` reads it at scrape time, so ``/metrics`` cannot drift from them
  and no hot path touches the registry.  Several owners may register one
  name (same kind and label names); their equal label sets are summed.
* **observed histograms** — a distribution has no owner tally, so
  :class:`Histogram` keeps its buckets itself; ``observe`` is the one
  pushed call, guarded by one lock per family (the live service observes
  from an executor thread while submissions flow on the event loop).
* **null default** — every instrumented constructor defaults to
  :data:`NULL_REGISTRY`, which ignores registrations and hands out one
  shared no-op histogram, so nothing is allocated or read with
  observability off.

Reads take no owner lock: an int, a ``len`` or a numpy reduction read
mid-update is at most a few updates stale, so a scrape never blocks the
owner and cannot form a lock-order cycle with the owner's lock.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Iterator, Mapping, Sequence

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

#: A counter or gauge reader: a number, or label-value tuples to numbers.
Read = Callable[[], "float | Mapping[tuple[Any, ...], float]"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, biased toward sub-second scheduling latencies
#: (the live service's activation budget is tens of milliseconds).
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _render_labels(label_names: tuple[str, ...], label_values: tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, label_values)
    )
    return "{" + pairs + "}"


class _Metric:
    """One metric family: a name, a kind and its label names."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = label_names

    def samples(self) -> Iterator[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def render(self) -> Iterator[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} {self.kind}"
        yield from self.samples()


class _ReadMetric(_Metric):
    """A counter or gauge family whose values are read from their owners."""

    def __init__(
        self, kind: str, name: str, help: str, label_names: tuple[str, ...]
    ) -> None:
        super().__init__(name, help, label_names)
        self.kind = kind
        self.reads: list[Read] = []

    def samples(self) -> Iterator[str]:
        totals: dict[tuple[str, ...], float] = {}
        for read in tuple(self.reads):
            values = read()
            for key, value in values.items() if self.label_names else [((), values)]:
                key = tuple(map(str, key))
                if len(key) != len(self.label_names):
                    raise ValueError(
                        f"metric {self.name!r} takes labels {self.label_names}, "
                        f"read {key!r}"
                    )
                totals[key] = totals.get(key, 0.0) + value
        for key, value in sorted(totals.items()):
            yield f"{self.name}{_render_labels(self.label_names, key)} {_format_value(value)}"


class _HistogramChild:
    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count", "_exemplar")

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]) -> None:
        self._lock = lock
        self._buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0
        self._exemplar: tuple[float, Any] | None = None

    def observe(self, value: float, exemplar: Any = None) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplar = (value, exemplar)
            for position, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[position] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def exemplar(self) -> "tuple[float, Any] | None":
        """The last ``(value, exemplar)`` observed with an exemplar attached.

        Exemplars link a histogram observation back to its trace span (the
        instrumented layers attach the activation sequence number).  They
        are kept programmatically only — the 0.0.4 text exposition this
        registry renders has no exemplar syntax (that is OpenMetrics), and
        the renderer is pinned by a strict conformance test.
        """
        return self._exemplar

    def render_samples(self, name, label_names, key) -> Iterator[str]:
        with self._lock:
            counts = list(self._counts)
            total, summed = self._count, self._sum
        cumulative = 0
        for bound, count in zip(self._buckets, counts):
            cumulative += count
            bound_text = "+Inf" if math.isinf(bound) else repr(float(bound))
            labels = _render_labels(
                label_names + ("le",), key + (bound_text,)
            )
            yield f"{name}_bucket{labels} {_format_value(cumulative)}"
        plain = _render_labels(label_names, key)
        yield f"{name}_sum{plain} {_format_value(summed)}"
        yield f"{name}_count{plain} {_format_value(total)}"


class Histogram(_Metric):
    """A distribution observed into cumulative buckets (latencies, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: Sequence[float] | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        if not math.isinf(bounds[-1]):
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        super().__init__(name, help, label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _HistogramChild] = {}
        # Unlabeled families act as their own single child.
        if not label_names:
            self._children[()] = _HistogramChild(self._lock, bounds)

    def labels(self, **labels: str) -> _HistogramChild:
        """The child for one concrete label-value assignment."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(self._lock, self.buckets)
            return child

    def _default_child(self) -> _HistogramChild:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self._children[()]

    def samples(self) -> Iterator[str]:
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            yield from child.render_samples(self.name, self.label_names, key)

    def observe(self, value: float, exemplar: Any = None) -> None:
        self._default_child().observe(value, exemplar)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def exemplar(self) -> "tuple[float, Any] | None":
        """See :attr:`_HistogramChild.exemplar` (unlabeled families only)."""
        return self._default_child().exemplar


class _NullHistogram:
    """Shared no-op histogram: ``labels`` returns itself, ``observe`` is empty."""

    __slots__ = ()

    def labels(self, **labels: str) -> "_NullHistogram":
        return self

    def observe(self, value: float, exemplar: Any = None) -> None:
        pass


_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """A process-local collection of metric families.

    A family is created by its first registration and shared by every later
    one for the same name (the kind and label names must match — asking for
    a counter where a gauge is registered is a programming error worth
    failing loudly on).  :meth:`render` produces the Prometheus text
    exposition (families sorted by name, label sets sorted within each
    family) that ``GET /metrics`` serves.
    """

    #: Distinguishes a live registry from :data:`NULL_REGISTRY`.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Metric] = {}

    def _family(self, kind: str, name: str, labels: Sequence[str], make) -> Any:
        label_names = _check_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = make(label_names)
            elif family.kind != kind:
                raise ValueError(f"metric {name!r} already registered as {family.kind}")
            elif family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}, requested {label_names}"
                )
            return family

    def _read(self, kind: str, name: str, help: str, read: Read, labels) -> None:
        family = self._family(
            kind, name, labels, lambda names: _ReadMetric(kind, name, help, names)
        )
        family.reads.append(read)

    def counter(self, name: str, help: str, read: Read, labels: Sequence[str] = ()) -> None:
        """Register *read* as one owner's share of a counter family."""
        self._read("counter", name, help, read, labels)

    def gauge(self, name: str, help: str, read: Read, labels: Sequence[str] = ()) -> None:
        """Register *read* as one owner's share of a gauge family."""
        self._read("gauge", name, help, read, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._family(
            "histogram", name, labels, lambda names: Histogram(name, help, names, buckets)
        )

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            families = sorted(self._families.items())
        lines: list[str] = []
        for _, family in families:
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def get_sample_value(
        self, name: str, labels: dict[str, str] | None = None
    ) -> float | None:
        """One sample's current value, or ``None`` — a test convenience.

        *name* may be a family name or a histogram sample name
        (``..._sum`` / ``..._count`` / ``..._bucket`` with an ``le``
        label); mirrors ``prometheus_client``'s helper of the same name.
        """
        labels = dict(labels or {})
        for line in self.render().splitlines():
            if line.startswith("#"):
                continue
            sample_name, sample_labels, value = _parse_sample_line(line)
            if sample_name == name and sample_labels == labels:
                return value
        return None


def _parse_sample_line(line: str) -> tuple[str, dict[str, str], float]:
    """Split one rendered sample line (used by :meth:`get_sample_value`)."""
    from repro.obs.exposition import parse_sample_line

    return parse_sample_line(line)


class _NullRegistry(MetricsRegistry):
    """The do-nothing registry every instrumented constructor defaults to."""

    enabled = False

    def counter(self, name, help, read, labels=()):  # type: ignore[override]
        pass

    def gauge(self, name, help, read, labels=()):  # type: ignore[override]
        pass

    def histogram(self, name, help, labels=(), buckets=None):  # type: ignore[override]
        return _NULL_HISTOGRAM

    def render(self) -> str:
        return ""


#: The shared null registry: registrations are ignored, histograms are no-ops.
NULL_REGISTRY = _NullRegistry()
