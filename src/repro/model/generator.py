"""Range-based ETC instance generator (Braun et al. / Ali et al. style).

The original benchmark files used in the paper (``u_x_yyzz.0``) were produced
with the *range-based* method: for every job a baseline value is drawn
uniformly from ``[1, R_task]`` and every entry of that job's row is the
baseline multiplied by a value drawn uniformly from ``[1, R_machine]``.
Task heterogeneity is controlled by ``R_task`` (3000 for ``hi``, 100 for
``lo``) and machine heterogeneity by ``R_machine`` (1000 for ``hi``, 10 for
``lo``).  Consistency is imposed afterwards by sorting rows (fully or on the
even-indexed columns only).

Because the original data files cannot be downloaded offline, this generator
is the documented substitution (DESIGN.md §4): it preserves the statistical
structure (dimensions, heterogeneity ranges, consistency classes) that
drives the relative behaviour of the schedulers compared in the paper.

The coefficient-of-variation-based (CVB) method of Ali et al. (2000) is also
provided as an extension for experiments beyond the paper's benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from repro.model.etc import make_consistent, make_semiconsistent
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "TASK_HETEROGENEITY_RANGES",
    "MACHINE_HETEROGENEITY_RANGES",
    "ETCGeneratorConfig",
    "generate_etc_matrix",
    "generate_instance",
]

#: Upper bounds of the uniform task-baseline distribution per heterogeneity level.
TASK_HETEROGENEITY_RANGES: dict[str, float] = {"hi": 3000.0, "lo": 100.0}

#: Upper bounds of the uniform machine-multiplier distribution per heterogeneity level.
MACHINE_HETEROGENEITY_RANGES: dict[str, float] = {"hi": 1000.0, "lo": 10.0}

Consistency = Literal["consistent", "inconsistent", "semi-consistent"]
Heterogeneity = Literal["hi", "lo"]
Method = Literal["range_based", "cvb"]

_CONSISTENCY_ALIASES = {
    "c": "consistent",
    "consistent": "consistent",
    "i": "inconsistent",
    "inconsistent": "inconsistent",
    "s": "semi-consistent",
    "semi": "semi-consistent",
    "semi-consistent": "semi-consistent",
    "semiconsistent": "semi-consistent",
}


@dataclass(frozen=True)
class ETCGeneratorConfig:
    """Parameters of the ETC instance generator.

    Attributes
    ----------
    nb_jobs, nb_machines:
        Instance dimensions.  The Braun benchmark uses 512 × 16.
    task_heterogeneity, machine_heterogeneity:
        ``"hi"`` or ``"lo"``; select the uniform ranges above (range-based
        method) or the coefficients of variation (CVB method).
    consistency:
        ``"consistent"``, ``"inconsistent"`` or ``"semi-consistent"`` (the
        single-letter aliases ``"c"``, ``"i"``, ``"s"`` are accepted).
    method:
        ``"range_based"`` (the benchmark's method, default) or ``"cvb"``.
    task_mean:
        Mean task execution time for the CVB method.
    """

    nb_jobs: int = 512
    nb_machines: int = 16
    task_heterogeneity: Heterogeneity = "hi"
    machine_heterogeneity: Heterogeneity = "hi"
    consistency: str = "consistent"
    method: Method = "range_based"
    task_mean: float = 1000.0

    def __post_init__(self) -> None:
        check_integer("nb_jobs", self.nb_jobs, minimum=1)
        check_integer("nb_machines", self.nb_machines, minimum=1)
        if self.task_heterogeneity not in TASK_HETEROGENEITY_RANGES:
            raise ValueError(
                f"task_heterogeneity must be 'hi' or 'lo', got {self.task_heterogeneity!r}"
            )
        if self.machine_heterogeneity not in MACHINE_HETEROGENEITY_RANGES:
            raise ValueError(
                "machine_heterogeneity must be 'hi' or 'lo', got "
                f"{self.machine_heterogeneity!r}"
            )
        normalized = _CONSISTENCY_ALIASES.get(str(self.consistency).lower())
        if normalized is None:
            raise ValueError(
                "consistency must be one of 'consistent', 'inconsistent', "
                f"'semi-consistent' (or 'c'/'i'/'s'), got {self.consistency!r}"
            )
        object.__setattr__(self, "consistency", normalized)
        if self.method not in ("range_based", "cvb"):
            raise ValueError(f"method must be 'range_based' or 'cvb', got {self.method!r}")
        check_positive("task_mean", self.task_mean)

    @property
    def canonical_name(self) -> str:
        """Braun-style instance label, e.g. ``u_c_hihi`` (without the ``.k`` suffix)."""
        consistency_letter = {"consistent": "c", "inconsistent": "i", "semi-consistent": "s"}
        return (
            f"u_{consistency_letter[self.consistency]}_"
            f"{self.task_heterogeneity}{self.machine_heterogeneity}"
        )

    def with_dimensions(self, nb_jobs: int, nb_machines: int) -> "ETCGeneratorConfig":
        """Copy of the configuration with different instance dimensions."""
        return replace(self, nb_jobs=nb_jobs, nb_machines=nb_machines)


def _range_based_matrix(config: ETCGeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Range-based ETC generation (uniform baselines and multipliers)."""
    r_task = TASK_HETEROGENEITY_RANGES[config.task_heterogeneity]
    r_machine = MACHINE_HETEROGENEITY_RANGES[config.machine_heterogeneity]
    baselines = rng.uniform(1.0, r_task, size=config.nb_jobs)
    multipliers = rng.uniform(1.0, r_machine, size=(config.nb_jobs, config.nb_machines))
    return baselines[:, None] * multipliers


def _cvb_matrix(config: ETCGeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Coefficient-of-variation-based ETC generation (gamma distributions)."""
    # CV values chosen to mirror the qualitative hi/lo split of the benchmark.
    v_task = 0.9 if config.task_heterogeneity == "hi" else 0.1
    v_machine = 0.9 if config.machine_heterogeneity == "hi" else 0.1
    alpha_task = 1.0 / (v_task**2)
    beta_task = config.task_mean / alpha_task
    alpha_machine = 1.0 / (v_machine**2)
    per_job_means = rng.gamma(shape=alpha_task, scale=beta_task, size=config.nb_jobs)
    beta_machine = per_job_means / alpha_machine
    matrix = rng.gamma(
        shape=alpha_machine,
        scale=beta_machine[:, None],
        size=(config.nb_jobs, config.nb_machines),
    )
    # Gamma samples can, in principle, be arbitrarily close to zero; clip to a
    # tiny positive value so that downstream validation (strictly positive
    # ETC) never trips on a degenerate draw.
    return np.maximum(matrix, 1e-9)


def generate_etc_matrix(config: ETCGeneratorConfig, rng: RNGLike = None) -> np.ndarray:
    """Generate an ETC matrix according to *config*.

    The consistency transformation is applied after the raw matrix is drawn,
    exactly as in the benchmark's construction.
    """
    gen = as_generator(rng)
    if config.method == "range_based":
        matrix = _range_based_matrix(config, gen)
    else:
        matrix = _cvb_matrix(config, gen)
    if config.consistency == "consistent":
        matrix = make_consistent(matrix)
    elif config.consistency == "semi-consistent":
        matrix = make_semiconsistent(matrix)
    return matrix


def generate_instance(
    config: ETCGeneratorConfig,
    rng: RNGLike = None,
    *,
    name: str | None = None,
    ready_times: np.ndarray | None = None,
) -> SchedulingInstance:
    """Generate a full :class:`SchedulingInstance` according to *config*."""
    matrix = generate_etc_matrix(config, rng)
    instance_name = name if name is not None else config.canonical_name
    return SchedulingInstance(
        etc=matrix,
        ready_times=ready_times,
        name=instance_name,
        metadata={
            "generator": config.method,
            "task_heterogeneity": config.task_heterogeneity,
            "machine_heterogeneity": config.machine_heterogeneity,
            "consistency": config.consistency,
        },
    )
