"""repro: a reproduction of *Global Multi-Threaded Instruction Scheduling*
(GREMIO, MICRO 2007) — the full GMT-scheduling stack: mini-IR, PDG, the
GREMIO and DSWP partitioners, MTCG code generation, the COCO communication
optimizer (companion ASPLOS 2008 extension), and a dual-core CMP timing
model with a synchronization-array operand network.

Quickstart::

    from repro import evaluate_workload, get_workload
    ev = evaluate_workload(get_workload("ks"), technique="gremio",
                           n_threads=2, coco=True)
    print(ev.speedup, ev.communication_fraction)

The stable programmatic surface is the :mod:`repro.api` facade (typed
``EvaluateRequest``/``EvaluateResult``, ``evaluate()``, and the classic
callables); ``python -m repro serve`` exposes the same facade over
JSON/HTTP.  See DESIGN.md for the paper-provenance note and the system
inventory.
"""

from . import api
from .api import (API_SCHEMA_VERSION, TECHNIQUES, EvaluateRequest,
                  EvaluateResult, Evaluation, MatrixCell,
                  Parallelization, RequestValidationError, evaluate,
                  evaluate_many, evaluate_workload, parallelize)
from .workloads import all_workloads, get_workload, workload_names

__version__ = "1.3.0"

__all__ = [
    "api", "API_SCHEMA_VERSION", "EvaluateRequest", "EvaluateResult",
    "RequestValidationError", "evaluate", "evaluate_many",
    "Evaluation", "Parallelization", "TECHNIQUES", "MatrixCell",
    "evaluate_workload", "parallelize",
    "all_workloads", "get_workload", "workload_names", "__version__",
]
