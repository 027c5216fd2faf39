"""The traced run's span recorder and the wrappers that install it.

Each span records its name, start, end, parent and a correlation id.  The
open span lives in a context variable, so every thread and every asyncio
task keeps its own chain and spans nest per thread or task.  Spans are kept
in memory and written out when the run ends.  The untraced run installs
nothing: end-to-end figures never pay for tracing.
"""

from __future__ import annotations

import contextvars
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "corr", "child_s")

    def __init__(self, name: str, corr, parent: "Span | None") -> None:
        self.name = name
        self.corr = corr
        self.parent = parent
        self.child_s = 0.0
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """The span minus the part its (sequential) children cover."""
        return self.duration - self.child_s

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans; :meth:`wrap` turns a callable into a traced one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Correlation id stamped on spans as they open (the replays set it
        #: to the activation ordinal around each solve).
        self.corr = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, corr=None) -> tuple[Span, contextvars.Token]:
        span = Span(name, self.corr if corr is None else corr, _current.get())
        token = _current.set(span)
        span.start = perf_counter()
        return span, token

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = perf_counter()
        _current.reset(token)
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, corr=None):
        span, token = self._open(name, corr)
        try:
            yield span
        finally:
            self._close(span, token)

    def wrap(self, name: str, function, on_result=None):
        if inspect.iscoroutinefunction(function):

            async def traced(*args, **kwargs):
                span, token = self._open(name)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    self._close(span, token)
                if on_result is not None:
                    on_result(span, result)
                return result

            return traced

        def traced(*args, **kwargs):
            span, token = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span, token)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by its traced version until :meth:`unpatch`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), on_result))
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def module_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.module] += span.self_s
        return dict(totals)

    def nesting_errors(self) -> int:
        """Spans that leave their parent or whose children overrun them."""
        errors = 0
        for span in self.spans:
            parent = span.parent
            if parent is not None and (
                parent.end is None or span.start < parent.start or span.end > parent.end
            ):
                errors += 1
            if span.child_s > span.duration + 1e-9:
                errors += 1
        return errors

    def root_seconds(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, correlation id."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for i, span in enumerate(self.spans):
                corr = list(span.corr) if isinstance(span.corr, tuple) else span.corr
                parent = index.get(id(span.parent)) if span.parent is not None else None
                handle.write(
                    json.dumps([i, span.name, span.start, span.end, parent, corr]) + "\n"
                )


def install(recorder: Recorder, on_step=None, on_render=None) -> None:
    """Wrap the program's public entry points below the replay/service boundary.

    Module-level names are patched where they are looked up (the simulator,
    live core and warm service import ``execution_times_matrix`` and
    ``build_schedule`` by name, the engine's seeding imports it when called);
    methods are patched on their classes.
    """
    import repro.grid.scheduler as grid_scheduler
    import repro.grid.service as grid_service
    import repro.grid.simulator as grid_simulator
    import repro.heuristics.base as heuristics_base
    import repro.service.state as service_state
    from repro.core.cma import CellularMemeticAlgorithm
    from repro.engine import scan
    from repro.engine.batch import BatchEvaluator
    from repro.engine.service import EvaluationEngine
    from repro.obs.metrics import MetricsRegistry

    recorder.patch(grid_simulator, "execution_times_matrix", "grid.execution_times_matrix")
    recorder.patch(service_state, "execution_times_matrix", "grid.execution_times_matrix")
    recorder.patch(heuristics_base, "build_schedule", "heuristics.build_schedule")
    recorder.patch(grid_scheduler, "build_schedule", "heuristics.build_schedule")
    recorder.patch(grid_service, "build_schedule", "heuristics.build_schedule")
    service = grid_service.DynamicSchedulerService
    recorder.patch(service, "schedule", "grid.warm_schedule")
    recorder.patch(service, "warm_assignment", "grid.warm_assignment")
    recorder.patch(CellularMemeticAlgorithm, "start", "core.start")
    recorder.patch(CellularMemeticAlgorithm, "step", "core.step", on_step)
    recorder.patch(EvaluationEngine, "improve_batch", "engine.improve_batch")
    recorder.patch(BatchEvaluator, "recompute", "engine.recompute")
    # Every move-scoring kernel the scan module exports, whichever exist.
    for function in scan.__all__:
        if function.startswith("score_"):
            recorder.patch(scan, function, "engine.scan")
    recorder.patch(MetricsRegistry, "render", "obs.render", on_render)
