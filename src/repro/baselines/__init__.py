"""Baseline schedulers the paper compares against (plus ablation variants).

* :class:`~repro.baselines.generational_ga.GenerationalGA` — the Braun et al.
  GA of Table 2 (generational, elitist, Min-Min-seeded).
* :class:`~repro.baselines.steady_state_ga.SteadyStateGA` — the Carretero &
  Xhafa steady-state GA of Table 3.
* :class:`~repro.baselines.steady_state_ga.StruggleGA` — Xhafa's Struggle
  GA of Tables 3 and 5: the steady-state GA with similarity-based
  replacement.
* :class:`~repro.baselines.cellular_ga.CellularGA` — the cMA without local
  search (cellular-structure-only ablation).
* :class:`~repro.baselines.panmictic_ma.PanmicticMA` — the memetic algorithm
  without the cellular structure (local-search-only ablation).

All baselines return the same :class:`~repro.core.cma.SchedulingResult` as
the cMA, so the comparison tables treat every algorithm uniformly.
"""

from repro.baselines.base import PopulationBasedScheduler
from repro.baselines.cellular_ga import CellularGA, CellularGAConfig
from repro.baselines.generational_ga import GAConfig, GenerationalGA
from repro.baselines.panmictic_ma import PanmicticMA, PanmicticMAConfig
from repro.baselines.simulated_annealing import (
    SimulatedAnnealingConfig,
    SimulatedAnnealingScheduler,
)
from repro.baselines.steady_state_ga import SteadyStateGA, SteadyStateGAConfig, StruggleGA
from repro.baselines.tabu_search import TabuSearchConfig, TabuSearchScheduler

__all__ = [
    "PopulationBasedScheduler",
    "GenerationalGA",
    "GAConfig",
    "SteadyStateGA",
    "SteadyStateGAConfig",
    "StruggleGA",
    "CellularGA",
    "CellularGAConfig",
    "PanmicticMA",
    "PanmicticMAConfig",
    "SimulatedAnnealingScheduler",
    "SimulatedAnnealingConfig",
    "TabuSearchScheduler",
    "TabuSearchConfig",
]
