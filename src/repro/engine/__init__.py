"""repro.engine — the vectorized batch-evaluation subsystem.

The engine layer sits between the scheduling model and the algorithms:

* :mod:`repro.engine.scan` — vectorized neighborhood scans (score every
  single-job move of a batch of rows — a whole population, or one
  schedule as a one-row batch — in one numpy expression);
* :mod:`repro.engine.batch` — :class:`BatchEvaluator`, a structure-of-arrays
  population with batched completion-time / flowtime / fitness evaluation,
  row-set move/swap updates with undo, and zero-copy row views; resident
  populations (the cMA mesh, the panmictic MA) live in one evaluator for a
  whole run;
* :mod:`repro.engine.service` — :class:`EvaluationEngine`, the shared
  per-run services (evaluation counter, timing, convergence history,
  population factories, result assembly) used by the cMA and every
  baseline;
* :mod:`repro.engine.results` — :class:`SchedulingResult`, the uniform
  record every scheduler returns.
"""

from repro.engine.batch import BatchEvaluator, perturbed_copies
from repro.engine.results import SchedulingResult
from repro.engine.scan import (
    score_all_moves_batch,
    score_critical_moves_batch,
    score_critical_swaps_batch,
    score_moves_for_jobs_batch,
    top_completions,
    top_completions_batch,
)
from repro.engine.service import EvaluationEngine

__all__ = [
    "BatchEvaluator",
    "EvaluationEngine",
    "SchedulingResult",
    "perturbed_copies",
    "score_all_moves_batch",
    "score_critical_moves_batch",
    "score_critical_swaps_batch",
    "score_moves_for_jobs_batch",
    "top_completions",
    "top_completions_batch",
]
