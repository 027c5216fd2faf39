"""The Cellular Memetic Algorithm — the paper's primary contribution.

The public entry point is :class:`~repro.core.cma.CellularMemeticAlgorithm`,
configured through :class:`~repro.core.config.CMAConfig` (whose
:meth:`~repro.core.config.CMAConfig.paper_defaults` reproduces Table 1).
Every ingredient of the algorithm — neighborhood pattern, sweep order,
selection, recombination, mutation, local search and replacement policy — is
an independently registered operator so that the tuning experiments of
Figures 2-5 and the ablation benchmarks are plain data-driven loops.
"""

from repro.core.cma import CellularMemeticAlgorithm, SchedulingResult
from repro.core.config import ActivationPolicy, CMAConfig, IslandConfig
from repro.core.mo_cma import MOCMAConfig, MultiObjectiveCellularMA, MultiObjectiveResult
from repro.core.pareto import ParetoArchive, ParetoPoint, dominates, hypervolume_2d
from repro.core.crossover import (
    CrossoverOperator,
    OnePointCrossover,
    TwoPointCrossover,
    UniformCrossover,
    get_crossover,
    list_crossovers,
)
from repro.core.individual import Individual
from repro.core.local_search import (
    LocalMCTMoveSearch,
    LocalMCTSwapSearch,
    LocalMoveSearch,
    LocalSearch,
    NullLocalSearch,
    SteepestLocalMoveSearch,
    VariableNeighborhoodSearch,
    get_local_search,
    list_local_searches,
    register_local_search,
)
from repro.core.mutation import (
    MoveMutation,
    MutationOperator,
    RebalanceMutation,
    RebalanceSwapMutation,
    SwapMutation,
    get_mutation,
    list_mutations,
)
from repro.core.neighborhood import (
    C9Neighborhood,
    C13Neighborhood,
    L5Neighborhood,
    L9Neighborhood,
    NeighborhoodPattern,
    PanmicticNeighborhood,
    get_neighborhood,
    list_neighborhoods,
)
from repro.core.population import PopulationInitializer, ResidentGrid
from repro.core.replacement import (
    AlwaysReplace,
    ReplaceIfBetter,
    ReplaceIfNotWorse,
    ReplacementPolicy,
    get_replacement,
    list_replacements,
)
from repro.core.selection import (
    BestSelection,
    LinearRankSelection,
    NTournamentSelection,
    RandomSelection,
    SelectionOperator,
    get_selection,
    list_selections,
)
from repro.core.sweep import (
    CellSweep,
    FixedLineSweep,
    FixedRandomSweep,
    NewRandomSweep,
    get_sweep,
    list_sweeps,
)
from repro.core.termination import SearchState, TerminationCriteria

__all__ = [
    "CellularMemeticAlgorithm",
    "SchedulingResult",
    "CMAConfig",
    "IslandConfig",
    "ActivationPolicy",
    "MultiObjectiveCellularMA",
    "MOCMAConfig",
    "MultiObjectiveResult",
    "ParetoArchive",
    "ParetoPoint",
    "dominates",
    "hypervolume_2d",
    "Individual",
    "ResidentGrid",
    "PopulationInitializer",
    "SearchState",
    "TerminationCriteria",
    # neighborhoods
    "NeighborhoodPattern",
    "PanmicticNeighborhood",
    "L5Neighborhood",
    "L9Neighborhood",
    "C9Neighborhood",
    "C13Neighborhood",
    "get_neighborhood",
    "list_neighborhoods",
    # sweeps
    "CellSweep",
    "FixedLineSweep",
    "FixedRandomSweep",
    "NewRandomSweep",
    "get_sweep",
    "list_sweeps",
    # selection
    "SelectionOperator",
    "NTournamentSelection",
    "RandomSelection",
    "BestSelection",
    "LinearRankSelection",
    "get_selection",
    "list_selections",
    # crossover
    "CrossoverOperator",
    "OnePointCrossover",
    "TwoPointCrossover",
    "UniformCrossover",
    "get_crossover",
    "list_crossovers",
    # mutation
    "MutationOperator",
    "RebalanceMutation",
    "MoveMutation",
    "SwapMutation",
    "RebalanceSwapMutation",
    "get_mutation",
    "list_mutations",
    # local search
    "LocalSearch",
    "NullLocalSearch",
    "LocalMoveSearch",
    "SteepestLocalMoveSearch",
    "LocalMCTSwapSearch",
    "LocalMCTMoveSearch",
    "VariableNeighborhoodSearch",
    "get_local_search",
    "list_local_searches",
    "register_local_search",
    # replacement
    "ReplacementPolicy",
    "ReplaceIfBetter",
    "ReplaceIfNotWorse",
    "AlwaysReplace",
    "get_replacement",
    "list_replacements",
]
