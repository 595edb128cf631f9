"""``repro.tune`` — search-based auto-tuning over the scheduling knobs.

The first subsystem that *drives* the evaluation stack in a closed loop:
a seeded, deterministic search (`grid`/`random`/`greedy`, see
:mod:`repro.tune.strategies`) over the declared knob space
(:data:`repro.tune.space.DEFAULT_SPACE` — partitioning technique and
its cost-model thresholds, COCO, placer, topology preset, and selected
machine-configuration fields), scoring candidates by total MT cycles
through the batched :func:`repro.api.evaluate_many` path with traced
critical-path length as the tie-breaker.

Entry points: :func:`repro.api.tune` (typed), ``python -m repro tune``
(CLI).  Leaderboard serialization lives in
:mod:`repro.tune.leaderboard`.
"""

from .driver import GENERATION, run_tune
from .leaderboard import markdown_summary, result_json, write_outputs
from .space import DEFAULT_SPACE, Knob, KnobSpace
from .strategies import make_strategy, strategy_names

__all__ = [
    "run_tune", "GENERATION",
    "DEFAULT_SPACE", "Knob", "KnobSpace",
    "make_strategy", "strategy_names",
    "result_json", "markdown_summary", "write_outputs",
]
