"""The tuning experiments of Section 4 (Figures 2-5).

Each figure of the paper plots the best makespan found so far against the
elapsed execution time for one design axis of the cMA, everything else held
at the Table 1 configuration:

* Figure 2 — local search method (LM / SLM / LMCTS),
* Figure 3 — neighborhood pattern (Panmictic / L5 / L9 / C9 / C13),
* Figure 4 — tournament size (3 / 5 / 7),
* Figure 5 — sweep order of the recombination stream (FLS / FRS / NRS).

The paper runs each configuration 20 times on randomly generated ETC
instances; the sweeps below do the same at a configurable scale, resample
every run's convergence history onto a common time grid, average the curves
and also report the final makespan statistics so benchmarks can both print
the series and assert the qualitative ordering (e.g. LMCTS ≤ LM at the end
of the budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import CMAConfig
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import ExperimentSettings, cma_spec, repeat_run
from repro.model.generator import ETCGeneratorConfig, generate_instance
from repro.model.instance import SchedulingInstance
from repro.utils.rng import as_generator
from repro.utils.stats import RunStatistics, summarize

__all__ = [
    "TuningSettings",
    "SweepResult",
    "run_variant_sweep",
    "local_search_sweep",
    "neighborhood_sweep",
    "tournament_sweep",
    "sweep_order_sweep",
    "ALL_SWEEPS",
]


@dataclass(frozen=True)
class TuningSettings:
    """Scale and workload of one tuning sweep.

    The paper tunes on random ETC instances (not on the benchmark files) so
    the resulting configuration is not over-fitted to the evaluation
    instances; the default generator configuration mirrors that choice with
    an inconsistent high/high matrix.
    """

    settings: ExperimentSettings = field(
        default_factory=lambda: ExperimentSettings(runs=2, max_seconds=0.5)
    )
    generator: ETCGeneratorConfig = field(
        default_factory=lambda: ETCGeneratorConfig(
            nb_jobs=128, nb_machines=16, consistency="inconsistent"
        )
    )
    grid_points: int = 10

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    def make_instance(self, rng=None) -> SchedulingInstance:
        """Generate the tuning instance (deterministic for a fixed seed)."""
        seed = rng if rng is not None else self.settings.seed
        return generate_instance(self.generator, seed, name="tuning")

    def time_grid(self) -> np.ndarray:
        """The common elapsed-time grid the histories are resampled onto."""
        horizon = self.settings.max_seconds
        if not np.isfinite(horizon):
            horizon = 1.0
        return np.linspace(0.0, horizon, self.grid_points)


@dataclass
class SweepResult:
    """Outcome of one tuning sweep (one figure of the paper)."""

    name: str
    axis: str
    grid: np.ndarray
    curves: dict[str, np.ndarray]
    final_makespan: dict[str, RunStatistics]

    def best_variant(self) -> str:
        """The variant with the smallest mean final makespan."""
        return min(self.final_makespan, key=lambda k: self.final_makespan[k].mean)

    def ranking(self) -> list[str]:
        """Variants sorted from best to worst mean final makespan."""
        return sorted(self.final_makespan, key=lambda k: self.final_makespan[k].mean)

    def as_series_text(self) -> str:
        """The figure as text: makespan of every variant over the time grid."""
        return format_series(
            self.grid,
            self.curves,
            title=f"{self.name}: best makespan vs. elapsed time ({self.axis})",
        )

    def as_summary_text(self) -> str:
        """Final-makespan statistics per variant."""
        rows = [
            (
                variant,
                stats.best,
                stats.mean,
                stats.std,
            )
            for variant, stats in self.final_makespan.items()
        ]
        return format_table(
            ["variant", "best", "mean", "std"],
            rows,
            title=f"{self.name}: final makespan over {next(iter(self.final_makespan.values())).count} runs",
        )


def run_variant_sweep(
    name: str,
    axis: str,
    variants: Mapping[str, CMAConfig],
    tuning: TuningSettings,
) -> SweepResult:
    """Run every configuration variant and aggregate its convergence curves.

    Every (variant, repetition) pair receives an independent child generator
    derived from the experiment seed so that variants are compared on the
    same instance but with independent stochastic behaviour.
    """
    if not variants:
        raise ValueError("at least one variant is required")
    instance = tuning.make_instance()
    grid = tuning.time_grid()

    curves: dict[str, np.ndarray] = {}
    finals: dict[str, RunStatistics] = {}
    parent = as_generator(tuning.settings.seed)
    for variant_name, config in variants.items():
        results = repeat_run(cma_spec(config), instance, tuning.settings, rng=parent)
        runs = [result.history.resample(grid, column="best_makespan") for result in results]
        curves[variant_name] = np.mean(np.stack(runs), axis=0)
        finals[variant_name] = summarize([result.makespan for result in results])

    return SweepResult(
        name=name, axis=axis, grid=grid, curves=curves, final_makespan=finals
    )


# --------------------------------------------------------------------------- #
# The four figures
# --------------------------------------------------------------------------- #
def local_search_sweep(
    tuning: TuningSettings, methods: Sequence[str] = ("lm", "slm", "lmcts")
) -> SweepResult:
    """Figure 2: makespan reduction of the three local-search methods."""
    base = CMAConfig.paper_defaults()
    variants = {method.upper(): base.evolve(local_search=method) for method in methods}
    return run_variant_sweep("figure2", "local search", variants, tuning)


def neighborhood_sweep(
    tuning: TuningSettings,
    patterns: Sequence[str] = ("panmictic", "l5", "l9", "c9", "c13"),
) -> SweepResult:
    """Figure 3: makespan reduction of the five neighborhood patterns."""
    base = CMAConfig.paper_defaults()
    variants = {pattern.upper(): base.evolve(neighborhood=pattern) for pattern in patterns}
    return run_variant_sweep("figure3", "neighborhood", variants, tuning)


def tournament_sweep(
    tuning: TuningSettings, sizes: Sequence[int] = (3, 5, 7)
) -> SweepResult:
    """Figure 4: makespan reduction for different N-tournament sizes."""
    base = CMAConfig.paper_defaults()
    variants = {f"Ntour({size})": base.evolve(tournament_size=size) for size in sizes}
    return run_variant_sweep("figure4", "tournament size", variants, tuning)


def sweep_order_sweep(
    tuning: TuningSettings, orders: Sequence[str] = ("fls", "frs", "nrs")
) -> SweepResult:
    """Figure 5: makespan reduction for the three recombination sweep orders."""
    base = CMAConfig.paper_defaults()
    variants = {order.upper(): base.evolve(recombination_order=order) for order in orders}
    return run_variant_sweep("figure5", "recombination order", variants, tuning)


#: Name → sweep function, used by the examples and by the benchmark harness.
ALL_SWEEPS = {
    "figure2": local_search_sweep,
    "figure3": neighborhood_sweep,
    "figure4": tournament_sweep,
    "figure5": sweep_order_sweep,
}
