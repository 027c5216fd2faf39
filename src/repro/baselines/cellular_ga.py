"""A canonical cellular GA (no local search) — the memetic-vs-genetic ablation.

The paper attributes the quality of its scheduler to the combination of the
*structured population* and the *local search*.  This baseline keeps the
cellular structure (toroidal mesh, neighborhood-restricted selection,
asynchronous sweep, replace-if-better) but removes the memetic component so
that ablation benchmarks can isolate the contribution of the local search.

Rather than duplicating the machinery, the implementation is the real
:class:`~repro.core.cma.CellularMemeticAlgorithm` with its local search set
to the registered ``"none"`` method, reporting under its own name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer

__all__ = ["CellularGAConfig", "CellularGA"]


@dataclass(frozen=True)
class CellularGAConfig:
    """Parameters of the cellular GA ablation baseline."""

    population_height: int = 5
    population_width: int = 5
    neighborhood: str = "c9"
    recombination_order: str = "fls"
    mutation_order: str = "nrs"
    tournament_size: int = 3
    nb_recombinations: int = 25
    nb_mutations: int = 12
    fitness_weight: float = 0.75
    seeding_heuristic: str = "ljfr_sjfr"
    #: Resident-grid update discipline, threaded through to the cMA core
    #: ("batch" = whole-grid staged offspring, "sequential" = asynchronous).
    cell_updates: str = "batch"

    def __post_init__(self) -> None:
        check_integer("population_height", self.population_height, minimum=1)
        check_integer("population_width", self.population_width, minimum=1)


class CellularGA(CellularMemeticAlgorithm):
    """Cellular GA: the cMA of the paper with the local search switched off."""

    algorithm_name = "cellular_ga"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: CellularGAConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        cfg = config if config is not None else CellularGAConfig()
        cma_config = CMAConfig(
            population_height=cfg.population_height,
            population_width=cfg.population_width,
            nb_recombinations=cfg.nb_recombinations,
            nb_mutations=cfg.nb_mutations,
            neighborhood=cfg.neighborhood,
            recombination_order=cfg.recombination_order,
            mutation_order=cfg.mutation_order,
            tournament_size=cfg.tournament_size,
            seeding_heuristic=cfg.seeding_heuristic,
            local_search="none",
            local_search_iterations=0,
            cell_updates=cfg.cell_updates,
            fitness_weight=cfg.fitness_weight,
            termination=termination,
        )
        super().__init__(instance, cma_config, rng=rng, engine=engine)
