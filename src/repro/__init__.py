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

The names below load on first use, so importing one subpackage
(``repro.frontend``, ``repro.ir``) does not pull in the pipeline.
"""

import importlib

__version__ = "1.3.0"

#: Each top-level name and the submodule that defines it.
_EXPORTS = {
    "api": "repro.api",
    **dict.fromkeys(
        ("API_SCHEMA_VERSION", "EvaluateRequest", "EvaluateResult",
         "RequestValidationError", "evaluate", "evaluate_many",
         "Evaluation", "Parallelization", "TECHNIQUES", "MatrixCell",
         "evaluate_workload", "parallelize"), "repro.api"),
    **dict.fromkeys(("all_workloads", "get_workload", "workload_names"),
                    "repro.workloads"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = importlib.import_module(_EXPORTS[name])
    return module if name == "api" else getattr(module, name)
