"""Differential oracle for the scheduler run loop: every spec gives one trajectory.

Each scenario runs algorithm specs through :func:`repeat_run` or an
in-process :class:`~repro.islands.IslandModel` on a fixed instance, seed and
budget, and pins the canonical output as a sha256 digest, floats written
with :meth:`float.hex`:

* the algorithm name, best fitness, makespan and flowtime;
* the evaluation and iteration counts;
* the best assignment's bytes;
* every history record's best fitness, makespan, flowtime, evaluations and
  iterations (its wall-clock ``elapsed_seconds`` is left out);
* for islands, each island's migration counters.

The scenarios cover every scheduler the experiment harness builds: the cMA
under both cell-update disciplines, the three GAs, the cellular GA, the
panmictic MA, simulated annealing and tabu search (heuristic and random
seeding) and two constructive heuristics.  Every scheduler is built through
its spec builder, so a change to a scheduler's class layout leaves this file
as it is.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.baselines import CellularGAConfig, SimulatedAnnealingConfig, TabuSearchConfig
from repro.core.config import CMAConfig, IslandConfig
from repro.core.termination import TerminationCriteria
from repro.experiments.runner import (
    ExperimentSettings,
    braun_ga_spec,
    cellular_ga_spec,
    cma_spec,
    heuristic_spec,
    panmictic_ma_spec,
    repeat_run,
    simulated_annealing_spec,
    steady_state_ga_spec,
    struggle_ga_spec,
    tabu_search_spec,
)
from repro.islands import IslandModel
from repro.model.benchmark import generate_braun_like_instance

SEED = 2024

SPECS = {
    "cma": lambda: cma_spec(CMAConfig.fast_defaults()),
    "cma_sequential": lambda: cma_spec(
        CMAConfig.fast_defaults().evolve(cell_updates="sequential")
    ),
    "braun_ga": braun_ga_spec,
    "carretero_xhafa_ga": steady_state_ga_spec,
    "struggle_ga": struggle_ga_spec,
    "cellular_ga": cellular_ga_spec,
    "cellular_ga_sequential": lambda: cellular_ga_spec(
        CellularGAConfig(cell_updates="sequential")
    ),
    "panmictic_ma": panmictic_ma_spec,
    "simulated_annealing": simulated_annealing_spec,
    "simulated_annealing_random": lambda: simulated_annealing_spec(
        SimulatedAnnealingConfig(seeding_heuristic=None)
    ),
    "tabu_search": tabu_search_spec,
    "tabu_search_random": lambda: tabu_search_spec(
        TabuSearchConfig(seeding_heuristic=None)
    ),
    "min_min": lambda: heuristic_spec("min_min"),
    "ljfr_sjfr": lambda: heuristic_spec("ljfr_sjfr"),
}

#: Simulated annealing and tabu search charge one evaluation per iteration
#: (and annealing makes 200 moves per iteration), so an evaluation budget
#: would make them the slowest scenarios by far; they run on iterations only.
ITERATION_ONLY = {
    "simulated_annealing",
    "simulated_annealing_random",
    "tabu_search",
    "tabu_search_random",
}

BUDGETS = {
    "iterations": {"max_iterations": 3},
    "evaluations": {"max_evaluations": 150},
}

RUN_SCENARIOS = sorted(
    f"{name}/{budget}"
    for name in SPECS
    for budget in BUDGETS
    if budget == "iterations" or name not in ITERATION_ONLY
)

#: Island scenarios: spec, island config overrides and per-island budget.
ISOLATED = {"nb_islands": 2, "migration_interval": None}
ISLAND_SCENARIOS = {
    "cma_ring": (
        "cma",
        {"nb_islands": 3, "migration_interval": 100.0},
        TerminationCriteria.by_evaluations(400),
    ),
    "cma_sequential_torus": (
        "cma_sequential",
        {
            "nb_islands": 4,
            "topology": "torus",
            "migration_interval": 60.0,
            "nb_emigrants": 2,
            "emigrant_selection": "random_k",
        },
        TerminationCriteria.by_evaluations(300),
    ),
    **{
        f"{name}_isolated": (name, ISOLATED, TerminationCriteria.by_iterations(3))
        for name in (
            "cma", "braun_ga", "struggle_ga", "cellular_ga", "tabu_search", "min_min"
        )
    },
}


@pytest.fixture(scope="module")
def instance():
    return generate_braun_like_instance("u_i_hilo.0", rng=7, nb_jobs=24, nb_machines=4)


def canonical_result(result) -> dict:
    """*result* without its wall-clock fields, every float as ``float.hex``."""
    return {
        "algorithm": result.algorithm,
        "best_fitness": float(result.best_fitness).hex(),
        "makespan": float(result.makespan).hex(),
        "flowtime": float(result.flowtime).hex(),
        "evaluations": int(result.evaluations),
        "iterations": int(result.iterations),
        "assignment": hashlib.sha256(
            result.best_schedule.assignment.astype("<i8").tobytes()
        ).hexdigest(),
        "history": [
            [
                float(record.best_fitness).hex(),
                float(record.best_makespan).hex(),
                float(record.best_flowtime).hex(),
                int(record.evaluations),
                int(record.iterations),
            ]
            for record in result.history.records
        ],
    }


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_scenario(instance, scenario: str) -> str:
    name, budget = scenario.split("/")
    settings = ExperimentSettings(
        nb_jobs=instance.nb_jobs,
        nb_machines=instance.nb_machines,
        runs=2,
        max_seconds=math.inf,
        seed=SEED,
        **BUDGETS[budget],
    )
    results = repeat_run(SPECS[name](), instance, settings)
    return digest([canonical_result(result) for result in results])


def island_scenario(instance, scenario: str) -> str:
    spec_name, overrides, termination = ISLAND_SCENARIOS[scenario]
    config = IslandConfig(workers=0, **overrides)
    model = IslandModel(instance, SPECS[spec_name](), config, termination, rng=SEED)
    combined = model.run()
    islands = [
        {**canonical_result(result), "island": result.metadata["island"]}
        for result in model.island_results
    ]
    summary = {
        "algorithm": combined.algorithm,
        "best_fitness": float(combined.best_fitness).hex(),
        "evaluations": int(combined.evaluations),
        "iterations": int(combined.iterations),
        "best_island": combined.metadata["best_island"],
    }
    return digest({"islands": islands, "combined": summary})


#: Digests recorded on the per-algorithm run loops that predate the shared
#: search lifecycle.
GOLDEN = {
    "braun_ga/evaluations": "fdbdfde65bab11624fc183fb2aca8f70407c99d90714d0a81e859a900528b7ba",
    "braun_ga/iterations": "e2d0f5a486762dcc38a804e910f54408f6258e55465d4471f8c0e6bd07681651",
    "carretero_xhafa_ga/evaluations": "d45c23ea35210896a1a8dea58dd26b7047a543061297c69c686b63ebee5cb0fe",
    "carretero_xhafa_ga/iterations": "d480b750bb5d2330a7214368a32c98ea391a5776f65504c9108f1ab2920b3a30",
    "cellular_ga/evaluations": "a99b61b71653b46fda954a5f619e1be34f04148e149dcda34288acc185e8113f",
    "cellular_ga/iterations": "1b7fa57e2b34e4dd55156056ce032390c463fbbcc5d6e528a00fd0fde3fb75cb",
    "cellular_ga_sequential/evaluations": "432d4b1d8889203ad7f7ee33f857215249aa19e481ab39a0d2791a3f2437157d",
    "cellular_ga_sequential/iterations": "5f7033fe8585a710e53ecfe58d61a8fc7c69eb7822f2d2d22cf0b0759eeee749",
    "cma/evaluations": "b7797a7d6a3a94bfacf330f6b3b0dc24b69bbd1bbddf8306bf7029f7dbc3880c",
    "cma/iterations": "0ca8783ca9637d8d8848aed907226e3f57db648da5f8573932a49f5cf7872f6b",
    "cma_sequential/evaluations": "539c4aec2a5c401ed164feb197324fa039d92a73ad24dfc288c4f342f099e7d2",
    "cma_sequential/iterations": "0c43dd9c4517d6f55ad002823abe351de8b7137fd1255782871f3ae67545b620",
    "ljfr_sjfr/evaluations": "24139798f1de986625df8bdf48cc8f12a939fd9f5a9b02e16aece04c2ca225fc",
    "ljfr_sjfr/iterations": "24139798f1de986625df8bdf48cc8f12a939fd9f5a9b02e16aece04c2ca225fc",
    "min_min/evaluations": "72b8ae7a934df0b8a40ab42396a976183360b91587285bf38b47ebf3dd0f4366",
    "min_min/iterations": "72b8ae7a934df0b8a40ab42396a976183360b91587285bf38b47ebf3dd0f4366",
    "panmictic_ma/evaluations": "d0676f78f2f97876c90e63a53a14309eadd0bccbec81f20ee407b92c8caf6d27",
    "panmictic_ma/iterations": "21eeae783a2b0c24bb78b0c8c422593e13abab4a1b7bf6ef151462fcad2651e4",
    "simulated_annealing/iterations": "ef4c609e381d3ea53acf1df4d72d6cb4483fcd5ce579ba6384198f4cf5fb7832",
    "simulated_annealing_random/iterations": "bf080abe93002f3b85f9a75d525ae82afdd3fa2bcf8e89821d40f94209e46101",
    "struggle_ga/evaluations": "b24d325477c0d668bf5d2993d4c35f829151e9770bc85e2894f45e17e2089e28",
    "struggle_ga/iterations": "7468bf1880aeaa4f286e90f098a3e6437f740f197acc8bf20277888801ffc3b8",
    "tabu_search/iterations": "249d25890218ab41955da944a4ee036503dfdbbaaa13551fc6c5ba5457497b05",
    "tabu_search_random/iterations": "ac6edb1bbdba65bc8dd79f07efdcb2ce26de49b5a690d961d14936f85744c581",
}

ISLAND_GOLDEN = {
    "braun_ga_isolated": "dc097ffefc0b139a1c8af85fd38aa76cfa43c672818b8d6d934d84d504f1f367",
    "cellular_ga_isolated": "f5da0c027dfd2dcc99c96377781ea254d074c27ba0c4ab75264a68508e057f54",
    "cma_isolated": "ed031f03bd6398b7b155d1f9c6a763b91513f75dc055ca7ea7c8da724c3cf450",
    "cma_ring": "260a1d2a364c81a1e6c0ca0e97bf5a2e4c60ad9c0cceaf63c9b2671a766cc42b",
    "cma_sequential_torus": "772d1b3d148f1ace5a34b17d7606c2784ec84b6656a901ed6f3e93dffc705c2f",
    "min_min_isolated": "bb69f0877c71f2467c051a1cc9c3afedfd7fe202ffc4b8b9567a8c6ff3be3c2c",
    "struggle_ga_isolated": "9ee3c44fe87a3c03f2a393a75a70973f49386eddab08154add1c7f545dd13ab8",
    "tabu_search_isolated": "fa802b8aaf552e961711d306df0128d9135a1ba10a5f77ddd342f5b643abe067",
}


@pytest.mark.parametrize("scenario", RUN_SCENARIOS)
def test_every_spec_gives_the_pinned_trajectory(instance, scenario):
    assert run_scenario(instance, scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", sorted(ISLAND_SCENARIOS))
def test_every_island_run_gives_the_pinned_trajectory(instance, scenario):
    assert island_scenario(instance, scenario) == ISLAND_GOLDEN[scenario]
