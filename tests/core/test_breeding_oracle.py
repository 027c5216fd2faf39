"""Differential oracle for cMA breeding: every configuration gives one trajectory.

Each scenario runs the cMA under both cell-update disciplines on a fixed
instance, seed and iteration budget, and pins the canonical output as a
sha256 digest, floats written with :meth:`float.hex`:

* the best fitness, makespan and flowtime;
* the best assignment's bytes;
* every history record's best fitness, makespan, flowtime, evaluations and
  iterations (its wall-clock ``elapsed_seconds`` is left out);
* the generator's ``bit_generator.state`` after the run, so a change that
  draws the same values from a different number of words shows too.

The scenarios cover every breeding configuration the cMA accepts: every
selection with every crossover on C9; tournament sizes 1, 5 and 10 (10
exceeds the C9 pool, so entrants are drawn with replacement); the L5, C13
and panmictic neighborhoods (pools 5, 13 and 25); 1, 2 and 4 parents per
child; and 1-, 2- and 3-job instances under one- and two-point crossover.

They also cover the mutation and replacement phases: every mutation with
every replacement policy; FRS and NRS sweeps on both streams; phases with
more updates than cells (40 recombinations and 30 mutations on the 25
cells), which visit a cell twice, under FLS, FRS and NRS; an instance with
identical machines and integer ETC, where several machines often share the
makespan while another is less loaded; and a 2-machine instance.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.crossover import list_crossovers
from repro.core.mutation import list_mutations
from repro.core.replacement import list_replacements
from repro.core.selection import list_selections
from repro.core.termination import TerminationCriteria
from repro.model.benchmark import generate_braun_like_instance
from repro.model.generator import ETCGeneratorConfig, generate_instance
from repro.model.instance import SchedulingInstance

SEED = 2026

BASE = CMAConfig(
    population_height=5,
    population_width=5,
    nb_recombinations=10,
    nb_mutations=4,
    nb_solutions_to_recombine=3,
    local_search_iterations=2,
    termination=TerminationCriteria.by_iterations(4),
)

#: Phases with more updates than the 25 cells, so each visits a cell twice.
OVERFULL = {"nb_recombinations": 40, "nb_mutations": 30}

#: Scenario name -> (instance key, configuration overrides).
BREEDING_SCENARIOS = {
    **{
        f"{selection}-{crossover}": ("braun", {"selection": selection, "crossover": crossover})
        for selection in list_selections()
        for crossover in list_crossovers()
    },
    **{
        f"tournament-{size}": ("braun", {"tournament_size": size})
        for size in (1, 5, 10)
    },
    **{
        f"neighborhood-{name}": ("braun", {"neighborhood": name})
        for name in ("l5", "c13", "panmictic")
    },
    **{
        f"parents-{count}": ("braun", {"nb_solutions_to_recombine": count})
        for count in (1, 2, 4)
    },
    **{
        f"jobs{jobs}-{crossover}": (f"jobs{jobs}", {"crossover": crossover})
        for jobs in (1, 2, 3)
        for crossover in ("one_point", "two_point")
    },
}

#: Scenarios of the mutation and replacement phases; their digests also pin
#: the final grid, since the best alone often hides which cells were replaced.
PHASE_SCENARIOS = {
    **{
        f"{mutation}-{replacement}": ("braun", {"mutation": mutation, "replacement": replacement})
        for mutation in list_mutations()
        for replacement in list_replacements()
    },
    **{
        f"sweeps-{order}": ("braun", {"recombination_order": order, "mutation_order": order})
        for order in ("frs", "nrs")
    },
    **{
        f"overfull-{order}": (
            "braun",
            {**OVERFULL, "recombination_order": order, "mutation_order": order},
        )
        for order in ("fls", "frs", "nrs")
    },
    "identical-machines": ("identical", {}),
    "identical-machines-overfull": ("identical", OVERFULL),
    "machines2": ("machines2", {}),
}

SCENARIOS = {**BREEDING_SCENARIOS, **PHASE_SCENARIOS}

CASES = sorted(f"{name}/{mode}" for name in SCENARIOS for mode in ("batch", "sequential"))


@pytest.fixture(scope="module")
def instances():
    tiny = {
        f"jobs{jobs}": generate_instance(
            ETCGeneratorConfig(nb_jobs=jobs, nb_machines=3, consistency="inconsistent"),
            rng=5,
        )
        for jobs in (1, 2, 3)
    }
    braun = generate_braun_like_instance("u_i_hilo.0", rng=7, nb_jobs=24, nb_machines=4)
    workloads = np.random.default_rng(11).integers(1, 6, size=24).astype(float)
    identical = SchedulingInstance(etc=np.repeat(workloads[:, None], 4, axis=1))
    machines2 = generate_instance(ETCGeneratorConfig(nb_jobs=16, nb_machines=2), rng=9)
    return {"braun": braun, "identical": identical, "machines2": machines2, **tiny}


def run_case(instances, case: str) -> str:
    name, mode = case.split("/")
    instance_key, overrides = SCENARIOS[name]
    config = BASE.evolve(cell_updates=mode, **overrides)
    gen = np.random.default_rng(SEED)
    algorithm = CellularMemeticAlgorithm(instances[instance_key], config, rng=gen)
    result = algorithm.run()
    output = {
        "best_fitness": float(result.best_fitness).hex(),
        "makespan": float(result.makespan).hex(),
        "flowtime": float(result.flowtime).hex(),
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
        "generator": gen.bit_generator.state,
    }
    if name in PHASE_SCENARIOS:
        grid = algorithm.grid
        output["grid"] = [
            hashlib.sha256(
                grid.batch.assignments[: grid.size].astype("<i8").tobytes()
            ).hexdigest(),
            [float(value).hex() for value in grid.fitness_values()],
        ]
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Digests recorded on the child-by-child breeding loop (one selection call
#: and one recombination call per child); those of the phase scenarios on
#: the row-by-row mutation and offspring-by-offspring replacement loops.
GOLDEN = {
    "best-one_point/batch": "6ee9e8865ac1815478b78d0552a3427bfd032addcd4734ce4e46e7e95a7c2cf5",
    "best-one_point/sequential": "67b82dc8fca2e0fc961c189b3f9f30fda59b228dfdcb9b5935b81492180c76ae",
    "best-two_point/batch": "3805873a10ddb45b8eaf369c86260ab910c594707edb2f88413abd62848bd7ed",
    "best-two_point/sequential": "64e0dd81cdae30c5812efc96450c7f33bdd41eacf35ef0afc66cc801d232d7b4",
    "best-uniform/batch": "8608b5351392b9b3e6dc1a468a50b0a090d76d737385affe8960d58420f2b54e",
    "best-uniform/sequential": "9169a99215f9939b1c459ba10f4741e9ff4e36298fb3339e72855e97ee5c1e21",
    "identical-machines-overfull/batch": "a2e2f678d6de7d89e467b703815845ad5aa966e0f2fb63ed30b12679e18af83a",
    "identical-machines-overfull/sequential": "61bcea5aedf85a89b2bf3e7334667d16cf37baaf3c94cebe9c7bfc7a6ee19336",
    "identical-machines/batch": "84befe772fcc207067cbeb09fbf58cfa415e40d6bd2f037f47a1bab644e81800",
    "identical-machines/sequential": "f6471f8c9f8ba5be908417c0c1c5ad6ca7a26441e388d016f4763444a0d9fd76",
    "jobs1-one_point/batch": "1409663e6e0df873bd794f207804534c4e400b0a472375c6d8c205885e36ff9c",
    "jobs1-one_point/sequential": "1409663e6e0df873bd794f207804534c4e400b0a472375c6d8c205885e36ff9c",
    "jobs1-two_point/batch": "1409663e6e0df873bd794f207804534c4e400b0a472375c6d8c205885e36ff9c",
    "jobs1-two_point/sequential": "1409663e6e0df873bd794f207804534c4e400b0a472375c6d8c205885e36ff9c",
    "jobs2-one_point/batch": "56e54ae989fb6d626ba883db3ddd4cb981a8c58de745fef615f30ffc5a4d9711",
    "jobs2-one_point/sequential": "56e54ae989fb6d626ba883db3ddd4cb981a8c58de745fef615f30ffc5a4d9711",
    "jobs2-two_point/batch": "56e54ae989fb6d626ba883db3ddd4cb981a8c58de745fef615f30ffc5a4d9711",
    "jobs2-two_point/sequential": "56e54ae989fb6d626ba883db3ddd4cb981a8c58de745fef615f30ffc5a4d9711",
    "jobs3-one_point/batch": "9daacb626728633fbd12b440ad72dce90866eb757707856fa4f44df83aef8080",
    "jobs3-one_point/sequential": "9daacb626728633fbd12b440ad72dce90866eb757707856fa4f44df83aef8080",
    "jobs3-two_point/batch": "1d5905cd26f00af5208f91a6006c98adf66e173e90ae507e14d55529daeb1b4a",
    "jobs3-two_point/sequential": "d21b2809cc746bd31121cd39cb78a653ee9dc887f79c6db8fa577299de62a36e",
    "linear_rank-one_point/batch": "624c33315fb1687443c48519c70ce82f3c5d9b5bd9235010e37117104706abcd",
    "linear_rank-one_point/sequential": "22dc3ecd5c075d503aa469d4dc97b588facbcbd77a4253ff8aa4a4112a0f904b",
    "linear_rank-two_point/batch": "3ba589080343a3d3b1c81a066bf14fb65f4a652deb3d115150745f1a3eeccfd0",
    "linear_rank-two_point/sequential": "92642a70e4a6f45f78a99cad18a9d0c00c3915d9f5a5c028153e54cabe73572a",
    "linear_rank-uniform/batch": "8cf85815323044a78cc7573fe439135af818d7c043bd2431c0a2bc2863c34455",
    "linear_rank-uniform/sequential": "fbf58a0afa8672276e5c58adbcc5d59c3223594b0b702f84ff1badfccc5f73e1",
    "machines2/batch": "15be4967b2caf694d7f091ff3610be56ec355a59ced29ae6d191e4d94d00d55d",
    "machines2/sequential": "f1a5dc11a306f8d88247334d928d37784f33aea391f17c9a6a26b8f0ead16a21",
    "move-always/batch": "c2be4481c2097bfc759e839f197a347a28085b2b06dc98e3a39accd7018fa8a4",
    "move-always/sequential": "e2a09b2511ad507df02488a65c09f295cae9e0280d6efb097acb26031aee9723",
    "move-if_better/batch": "27fba4c3bff8db7479155ce9857db4d915dacf40cf8726c996319a5f6bfed4d5",
    "move-if_better/sequential": "59168f97e1fdb56ba11af41bf4f6f447658d06699a68274ea781164b687a9d39",
    "move-if_not_worse/batch": "27fba4c3bff8db7479155ce9857db4d915dacf40cf8726c996319a5f6bfed4d5",
    "move-if_not_worse/sequential": "59168f97e1fdb56ba11af41bf4f6f447658d06699a68274ea781164b687a9d39",
    "n_tournament-one_point/batch": "218254615c3fd722d85372d84534f09689bc8332aaed00fe7e240d0b14e02eba",
    "n_tournament-one_point/sequential": "babe04e70272fd110df9d36f957267f3d44944f673105c44e8d21ef36f5cdd14",
    "n_tournament-two_point/batch": "5b4b8299bbc3ba63072ebf4710db7a81babe042b2eff96045d27891da0553302",
    "n_tournament-two_point/sequential": "636d7055f4691d9c54fb0c0c7ab654208d2f316b127185527e63f441a6665bc8",
    "n_tournament-uniform/batch": "ae054d1b03fcb7f841ef95c04d1a631f7f7226bc2039034323671492892048b1",
    "n_tournament-uniform/sequential": "fdda9928008c1f2eb96d0023841abfd349064c49ee8a0268648647a48da83b75",
    "neighborhood-c13/batch": "789d5c4dee25bfca8953276f5540ed75f189f0dac96478e4e657d4f56e8de5e8",
    "neighborhood-c13/sequential": "4cfe64983f68855180623f7df934f3cca45cfa22daabe0fe05ec484a6eaccc31",
    "neighborhood-l5/batch": "6835ad8e9b272bab7c1c705f639035c76f2f3988bb41bf12c624803aff49d2f6",
    "neighborhood-l5/sequential": "7df8957a04d4486035890a9e560e88820cb6ec94f7b746707866350c514bbf63",
    "neighborhood-panmictic/batch": "3b5ecfffa6d27647a7fccd606f105284a7dd9c18f2cca2de429864cf8e0d012f",
    "neighborhood-panmictic/sequential": "0f2991f38ddc9f263025eff561069cbd3347500276b525dac472a6b0a6b2640d",
    "overfull-fls/batch": "87e832139a986991bb5edf32859dbc503f88fc027e4c73c304e3441c74477772",
    "overfull-fls/sequential": "37d95b788217573264b260ea8dbdc0635962d431781a188ff608bd47195c9a6e",
    "overfull-frs/batch": "6891a296109a5dcbbb99e382a2d2df4c27e4b1be12de9a68bb3714d99762eb3c",
    "overfull-frs/sequential": "22bffaffde80bce2fdb7265abe12af4dd3dfa3f0cc2147c2a573f4a4b0c89250",
    "overfull-nrs/batch": "b782f92fde8e745f5121021af2bb3558619179e7e39a082defc7201169344040",
    "overfull-nrs/sequential": "d6b1597ea47a62c597ce0a96911fcbba281dc3927410ebaa596a970c22231a5e",
    "parents-1/batch": "bf6e53c00022027ea363384547f500648fe21d16d149c348cfebecfa39da6d65",
    "parents-1/sequential": "e89f0a6f3538335bf1a122ad7857de69b4ccbd7a0495681183a030d7b3d0cc08",
    "parents-2/batch": "24a6a56417d269327328b30c7385f420aac0c1fcee5745b68c224d4de2a241df",
    "parents-2/sequential": "144763306f9ce4cdc5dccb296e3b6abf7b023a90665a025f013c5813ec89ac8c",
    "parents-4/batch": "e7ee6cb97f46f5706ccfd78d858b4c62fd846ae3cfb68fc3a4d9413872fcb2f7",
    "parents-4/sequential": "64b688d447c4071c96f40b55bf4f2c4b76bf67e991e3a1d60a44358b87e02c3f",
    "random-one_point/batch": "7d124e83b47653e314255937f179c8b018652aec81f5fb9d7c3a2da556da9063",
    "random-one_point/sequential": "1c839a26b4e67a362b190967783179a8cd9f24b06a443f6459e337e0708d0b99",
    "random-two_point/batch": "81751eaf4977aeb31d8f25eed66c69c76ef7e8cc473763c51e3a292de0c12506",
    "random-two_point/sequential": "e50b424d49025c218a45ce2b60e82fe8ac6f413d32f9646b1d1348749f094bb4",
    "random-uniform/batch": "155d3b4eca1eb7da274bbf45e2ec67a7678dfd501d792cb7fb7d125f6cd4ca03",
    "random-uniform/sequential": "0bbffdf4629d7a24bf38882fbca4a11b85bced46d244142a4230dffffb6f96b4",
    "rebalance-always/batch": "dbe0aa35ff394a826caa955c1c9bb9081e296d51b756eddc4735227a700f069e",
    "rebalance-always/sequential": "5648270b612c2b431e81d1950e9bee226064c9cbb75320aa4ece0ce56cfadc45",
    "rebalance-if_better/batch": "9a963c9d5e29ad95d63aa483f55e455bd1fb412acfac04a91920b061fd74c547",
    "rebalance-if_better/sequential": "0106109304e4a2bcf64091b79833b5d195b79b87c3e4d17bae7bc4316f3fc69c",
    "rebalance-if_not_worse/batch": "9a963c9d5e29ad95d63aa483f55e455bd1fb412acfac04a91920b061fd74c547",
    "rebalance-if_not_worse/sequential": "0106109304e4a2bcf64091b79833b5d195b79b87c3e4d17bae7bc4316f3fc69c",
    "rebalance_swap-always/batch": "0f404ef45ec5fa232325ff5634ff34c61f1dde72bf74327a71e57366a7305d3f",
    "rebalance_swap-always/sequential": "b40e95616140b2bc784f9496a155df753412826e4c4b989b0143ba817a6bcb10",
    "rebalance_swap-if_better/batch": "02c2e73c54882e71f9e3a583a06cd8269f57ae653143730c7e9d7a0fbba21ca2",
    "rebalance_swap-if_better/sequential": "2ca31edc6ca00602c70e8fa52ce540b88aa88ba7d33c44b3b7fa27e8d6983cc9",
    "rebalance_swap-if_not_worse/batch": "02c2e73c54882e71f9e3a583a06cd8269f57ae653143730c7e9d7a0fbba21ca2",
    "rebalance_swap-if_not_worse/sequential": "2ca31edc6ca00602c70e8fa52ce540b88aa88ba7d33c44b3b7fa27e8d6983cc9",
    "swap-always/batch": "48420ee3df5625fff23b2e0978990cc334b68562dd7fa3a43be9e0ae326db3ff",
    "swap-always/sequential": "8f482b0d3526a96e3a87d741b05b6474e8f9db7394ec3c77ce171e62dd11d823",
    "swap-if_better/batch": "82068135c8cc03dbe1345262121a53d31ce3e001637981da3eb20bc2ecf6b4cd",
    "swap-if_better/sequential": "2796b786da3d757b67177107ea308119997fded109015fc144c13d435b27f1de",
    "swap-if_not_worse/batch": "82068135c8cc03dbe1345262121a53d31ce3e001637981da3eb20bc2ecf6b4cd",
    "swap-if_not_worse/sequential": "2796b786da3d757b67177107ea308119997fded109015fc144c13d435b27f1de",
    "sweeps-frs/batch": "4a4923c6e6de65c5344dcd95fd84e545677e3db6225310ecf4075f69e8d6c669",
    "sweeps-frs/sequential": "5aa71c1636128fec4acef143ade88c0ba53b0b184e626ec204045aab309a4631",
    "sweeps-nrs/batch": "659c172338814febaff221dfd2a294807ad8d866165c366c553c6d59cdc26942",
    "sweeps-nrs/sequential": "752fcb9f6df4b8f3f5d178ad01979c3fe986f9dd907841f018693e6f8a7265cf",
    "tournament-1/batch": "7d124e83b47653e314255937f179c8b018652aec81f5fb9d7c3a2da556da9063",
    "tournament-1/sequential": "1c839a26b4e67a362b190967783179a8cd9f24b06a443f6459e337e0708d0b99",
    "tournament-10/batch": "e551f6016a0f20f952a4cf4a6085b3a8e2f69e0feaf7f5caca2b8d2d145ea3f7",
    "tournament-10/sequential": "18db8f6be17c677fcb45d85dbf56dd5f87af4bd6d41d86adc7ceec50df0b2016",
    "tournament-5/batch": "250a42d158c6871b41cc7f34943274f2f8f0736e2876659de42c0fc95c1bd72e",
    "tournament-5/sequential": "e92dd1acc59845fdc92d8a59675ffe382ea2024ad62bfafaa9ab418cffb049d4",
}


@pytest.mark.parametrize("case", CASES)
def test_every_breeding_configuration_gives_the_pinned_trajectory(instances, case):
    assert run_case(instances, case) == GOLDEN[case]
