"""The policy-replay arena: one trace, N policies, equal budgets.

:class:`ReplayArena` replays one :class:`~repro.traces.format.Trace`
against several batch scheduling policies under identical simulation
parameters (activation interval, commit horizon) and whatever
per-activation budget each :class:`PolicySpec` encodes — the online
comparison harness the static ``compare_algorithms`` experiment is for
batch instances.

Two execution modes share all of the replay code and differ only in
scheduling, mirroring the island model:

* ``workers=0`` — every (policy, repetition) replay runs sequentially
  in-process: the deterministic reference mode.
* ``workers=nb_policies`` — one worker process per policy, results
  collected through a timeout-guarded queue (a stuck policy fails fast
  instead of wedging the arena).

Replays never share state: each one gets a fresh policy built from its
spec and a seed stream derived stably from the arena seed, the policy name
and the repetition index (:func:`~repro.utils.rng.substream_seed_sequence`)
— so both modes produce identical per-policy metrics (pinned by test), and
adding a policy never perturbs the others' streams.

Policy specs are picklable (frozen dataclass factories, never closures)
because they cross process boundaries whole, exactly like the algorithm
specs of :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.config import ActivationPolicy, ArenaConfig, CMAConfig
from repro.grid.scheduler import BatchSchedulingPolicy, HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.grid.metrics import SimulationMetrics
from repro.heuristics import list_heuristics
from repro.traces.format import Trace
from repro.utils.rng import substream_seed_sequence
from repro.utils.timer import Stopwatch
from repro.utils.workers import run_workers, worker_context

__all__ = [
    "INHERIT_ACTIVATION",
    "INHERIT_HORIZON",
    "PolicySpec",
    "ReplayArena",
    "ArenaResult",
    "heuristic_policy_spec",
    "cma_policy_spec",
    "policy_spec_from_name",
]

#: Spec value meaning "use the arena's commit horizon".
INHERIT_HORIZON = "inherit"

#: Spec value meaning "use the arena's activation policy".
INHERIT_ACTIVATION = "inherit"


# --------------------------------------------------------------------------- #
# Picklable policy factories
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _HeuristicPolicyFactory:
    heuristic: str

    def __call__(self) -> BatchSchedulingPolicy:
        return HeuristicBatchPolicy(self.heuristic)


@dataclass(frozen=True)
class _CMAPolicyFactory:
    config: CMAConfig | None
    warm: bool
    max_seconds: float
    max_iterations: int | None
    max_stagnant_iterations: int | None

    def __call__(self) -> BatchSchedulingPolicy:
        return WarmCMAPolicy(
            self.config,
            warm=self.warm,
            max_seconds=self.max_seconds,
            max_iterations=self.max_iterations,
            max_stagnant_iterations=self.max_stagnant_iterations,
        )


@dataclass(frozen=True)
class PolicySpec:
    """A named, picklable policy factory for the replay arena.

    Every replay builds a **fresh** policy from :attr:`factory`, so
    stateful policies (the warm service) never leak knowledge between
    repetitions or contestants, and the ``workers=0`` / ``workers=N``
    modes see identical initial states.

    ``commit_horizon`` is :data:`INHERIT_HORIZON` by default (use the
    arena's); a float or ``None`` overrides it for this policy only —
    which is how the rolling-horizon variant of a policy enters the same
    arena as its full-commit twin.  ``activation`` works the same way for
    the scheduler-activation driver: :data:`INHERIT_ACTIVATION` uses the
    arena-wide :class:`~repro.core.config.ActivationPolicy`, while an
    explicit policy (or ``None`` for the periodic default) lets the same
    scheduling policy enter the arena once per driver — the periodic vs
    adaptive comparison runs on one trace, in one arena.
    """

    name: str
    factory: Any  # () -> BatchSchedulingPolicy, picklable
    commit_horizon: float | None | str = INHERIT_HORIZON
    activation: ActivationPolicy | None | str = INHERIT_ACTIVATION
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.commit_horizon, str) and self.commit_horizon != INHERIT_HORIZON:
            raise ValueError(
                f"commit_horizon must be a number, None, or {INHERIT_HORIZON!r}, "
                f"got {self.commit_horizon!r}"
            )
        if isinstance(self.commit_horizon, (int, float)) and self.commit_horizon <= 0:
            raise ValueError("commit_horizon override must be positive or None")
        if isinstance(self.activation, str):
            if self.activation != INHERIT_ACTIVATION:
                raise ValueError(
                    f"activation must be an ActivationPolicy, None, or "
                    f"{INHERIT_ACTIVATION!r}, got {self.activation!r}"
                )
        elif self.activation is not None and not isinstance(
            self.activation, ActivationPolicy
        ):
            raise TypeError(
                f"activation must be an ActivationPolicy, None, or "
                f"{INHERIT_ACTIVATION!r}, got {type(self.activation).__name__}"
            )

    def build(self) -> BatchSchedulingPolicy:
        """Instantiate a fresh policy for one replay."""
        return self.factory()

    def simulation_config(self, arena: ArenaConfig) -> SimulationConfig:
        """The simulation parameters of this policy's replays."""
        horizon = (
            arena.commit_horizon
            if self.commit_horizon == INHERIT_HORIZON
            else self.commit_horizon
        )
        activation = (
            arena.activation
            if isinstance(self.activation, str)
            else self.activation
        )
        return SimulationConfig(
            activation_interval=arena.activation_interval,
            max_activations=arena.max_activations,
            commit_horizon=horizon,
            activation=activation,
            retry=arena.retry,
        )


def heuristic_policy_spec(
    heuristic: str,
    name: str | None = None,
    *,
    activation: ActivationPolicy | None | str = INHERIT_ACTIVATION,
) -> PolicySpec:
    """A constructive heuristic (Min-Min, MCT, ...) as an arena contestant."""
    return PolicySpec(
        name=name if name is not None else heuristic,
        factory=_HeuristicPolicyFactory(heuristic),
        activation=activation,
        description=f"Constructive heuristic {heuristic} at every activation",
    )


def cma_policy_spec(
    config: CMAConfig | None = None,
    *,
    warm: bool = True,
    name: str | None = None,
    commit_horizon: float | None | str = INHERIT_HORIZON,
    activation: ActivationPolicy | None | str = INHERIT_ACTIVATION,
    max_seconds: float = 0.25,
    max_iterations: int | None = 50,
    max_stagnant_iterations: int | None = None,
) -> PolicySpec:
    """The cMA batch policy, warm (default) or cold, as an arena contestant.

    The entry is named ``"warm-cma"`` or ``"cma"`` unless *name* is given.
    Pass ``commit_horizon`` to make it a rolling-horizon variant regardless
    of the arena-wide setting.
    """
    if name is None:
        name = "warm-cma" if warm else "cma"
    return PolicySpec(
        name=name,
        factory=_CMAPolicyFactory(
            config, warm, max_seconds, max_iterations, max_stagnant_iterations
        ),
        commit_horizon=commit_horizon,
        activation=activation,
        description=(
            "Warm engine-resident cMA service"
            if warm
            else "Cold cMA (fresh engine and population per activation)"
        ),
    )


def policy_spec_from_name(
    name: str,
    *,
    horizon: float | None = None,
    max_seconds: float = 0.25,
    max_iterations: int | None = 50,
    max_stagnant_iterations: int | None = None,
) -> PolicySpec:
    """Resolve a CLI-style policy name into a spec.

    The one place a policy name becomes a policy: ``"cma"`` is the cold
    cMA, ``"warm-cma"`` the warm service, ``"warm-cma-rolling"`` the warm
    service with a per-policy rolling commit horizon (*horizon*, required),
    and any constructive heuristic name is wrapped directly.
    """
    budget = dict(
        max_seconds=max_seconds,
        max_iterations=max_iterations,
        max_stagnant_iterations=max_stagnant_iterations,
    )
    key = name.strip().lower().replace("_", "-")
    if key == "cma":
        return cma_policy_spec(warm=False, **budget)
    if key == "warm-cma":
        return cma_policy_spec(**budget)
    if key == "warm-cma-rolling":
        if horizon is None:
            raise ValueError(
                "the warm-cma-rolling policy needs a commit horizon "
                "(pass horizon=... / --horizon)"
            )
        return cma_policy_spec(
            name="warm-cma-rolling", commit_horizon=horizon, **budget
        )
    heuristic = name.strip().lower()
    if heuristic in list_heuristics():
        return heuristic_policy_spec(heuristic)
    raise ValueError(
        f"unknown policy {name!r}: expected 'cma', 'warm-cma', "
        f"'warm-cma-rolling' or one of {sorted(list_heuristics())}"
    )


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class ArenaResult:
    """Outcome of one arena run: per-policy, per-repetition metrics."""

    trace_name: str
    config: ArenaConfig
    #: Policy name -> one :class:`SimulationMetrics` per repetition.
    policies: dict[str, list[SimulationMetrics]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def policy_names(self) -> list[str]:
        return list(self.policies)

    def metrics_of(self, policy: str) -> list[SimulationMetrics]:
        return self.policies[policy]


# --------------------------------------------------------------------------- #
# The arena
# --------------------------------------------------------------------------- #
def _replay_policy(
    trace: Trace, spec: PolicySpec, config: ArenaConfig
) -> list[SimulationMetrics]:
    """All repetitions of one policy (the shared core of both modes)."""
    simulation = spec.simulation_config(config)
    runs = []
    for repetition in range(config.repetitions):
        stream = substream_seed_sequence(config.seed, spec.name, repetition)
        simulator = GridSimulator.from_trace(
            trace, spec.build(), config=simulation, rng=stream
        )
        runs.append(simulator.run())
    return runs


class ReplayArena:
    """Replay one trace against N policies at equal per-activation budget.

    Parameters
    ----------
    trace:
        The workload artifact every policy replays.
    specs:
        The contestants; names must be unique (they key the results).
    config:
        The :class:`~repro.core.config.ArenaConfig`; ``workers`` must be
        0 (sequential deterministic driver) or ``len(specs)`` (one process
        per policy).
    """

    def __init__(
        self,
        trace: Trace,
        specs: Sequence[PolicySpec],
        config: ArenaConfig | None = None,
    ) -> None:
        if not specs:
            raise ValueError("the arena needs at least one policy spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"policy names must be unique, got {names}")
        self.trace = trace
        self.specs = list(specs)
        self.config = config if config is not None else ArenaConfig()
        if self.config.workers not in (0, len(self.specs)):
            raise ValueError(
                f"workers must be 0 (in-process) or the number of policies "
                f"({len(self.specs)}, one process per policy), "
                f"got {self.config.workers}"
            )

    def run(self) -> ArenaResult:
        """Replay every policy and return the per-policy metrics."""
        stopwatch = Stopwatch()
        if self.config.workers == 0:
            collected = {
                spec.name: _replay_policy(self.trace, spec, self.config)
                for spec in self.specs
            }
        else:
            collected = self._run_workers()
        return ArenaResult(
            trace_name=self.trace.name,
            config=self.config,
            policies={spec.name: collected[spec.name] for spec in self.specs},
            elapsed_seconds=stopwatch.elapsed,
        )

    def _run_workers(self) -> dict[str, list[SimulationMetrics]]:
        """One worker process per policy, through the shared launcher."""
        cfg = self.config
        tasks = {spec.name: (self.trace, spec, cfg) for spec in self.specs}
        return run_workers(
            worker_context(cfg.start_method), _replay_policy, tasks, cfg.worker_timeout, "arena"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplayArena(trace={self.trace.name!r}, "
            f"policies={[spec.name for spec in self.specs]}, "
            f"workers={self.config.workers})"
        )
