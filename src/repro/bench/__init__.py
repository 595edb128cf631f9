"""``repro.bench`` — the machine-readable benchmark subsystem.

The papers' entire evaluation (GREMIO/DSWP speedups, COCO communication
reduction, the ablation and sensitivity studies) is registered as
:class:`BenchSpec` objects on a common interface: an id, the
evaluation-matrix cells to prewarm, a metric extractor, and the paper's
claims those metrics test, each judged ``holds``, ``deviates`` or
``n/a``.  ``python -m repro bench [--smoke|--full] [--jobs N]`` runs
them, prints the fidelity scorecard and writes a schema-versioned
``BENCH_RESULTS.json``; with ``--compare`` it gates every exact value,
the ``claim/<id>`` statuses among them, against a committed baseline.
The ``benchmarks/`` module renders the same specs at full scale and
keeps EXPERIMENTS.md's generated block in step with them.

See ``docs/benchmarking.md`` for the schema and the baseline-update
workflow.
"""

from .compare import Comparison, MetricDelta, compare
from .harness import BENCH_ORDER, clear_memo, evaluation, prewarm
from .results import SCHEMA, BenchResults, SchemaError, SpecResult
from .runner import run_bench, scorecard, select_specs
from .spec import (DEVIATES, EXACT, FULL, HOLDS, MODES, NA, SMOKE,
                   STRICT_TIME_BAND, TIME_BAND, BenchMode, BenchSpec, Claim,
                   Metric, Verdict, all_specs, bench_spec, get_spec,
                   register, spec_ids)

__all__ = [
    # specs
    "BenchSpec", "BenchMode", "Metric", "MODES", "SMOKE", "FULL",
    "EXACT", "TIME_BAND", "STRICT_TIME_BAND", "register", "bench_spec",
    "get_spec",
    "all_specs", "spec_ids",
    # claims
    "Claim", "Verdict", "HOLDS", "DEVIATES", "NA", "scorecard",
    # harness
    "BENCH_ORDER", "evaluation", "prewarm", "clear_memo",
    # results + comparison
    "SCHEMA", "BenchResults", "SpecResult", "SchemaError",
    "Comparison", "MetricDelta", "compare",
    # runner
    "run_bench", "select_specs",
]
