"""The callable surface of ``repro.api``.

``evaluate()``/``evaluate_many()`` are the typed entry points: they take
:class:`~repro.api.types.EvaluateRequest` objects and return
:class:`~repro.api.types.EvaluateResult` — what the ``repro serve``
daemon speaks over HTTP, and what in-process consumers should prefer.

The module also re-exports the stable pipeline surface (``parallelize``,
``evaluate_workload``, the cache and telemetry handles, the workload
registry) so the CLI, the benchmark subsystem, and the service import
**only** ``repro.api`` — never
``repro.pipeline.core``/``repro.pipeline.matrix`` internals, whose
layout is free to change underneath this facade.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

# Re-exported pipeline surface (the facade's stability boundary).
from ..machine.config import TUNABLE_MACHINE_FIELDS
from ..machine.placement import PLACERS
from ..machine.topology import TOPOLOGIES, get_topology, topology_names
from ..pipeline.cache import (ArtifactCache, CacheStats, configure_cache,
                              default_cache_dir, ensure_cache, get_cache)
from ..pipeline.store import (ArtifactStore, HttpStore, LocalStore,
                              STORE_URL_ENV, http_request, make_store)
from ..pipeline.core import (Evaluation, Parallelization,
                             evaluate_summary, evaluate_workload,
                             parallelize)
from ..pipeline.fingerprint import (digest, fingerprint_config,
                                    fingerprint_function,
                                    fingerprint_inputs,
                                    fingerprint_profile)
from ..pipeline.matrix import (MatrixCell, evaluate_cell, evaluate_cells,
                               overrides_config, validate_overrides)
from ..pipeline.stages import (PARTITIONER_PARAMS, TECHNIQUES,
                               make_partitioner, normalize,
                               technique_config)
from ..pipeline.telemetry import (LatencyHistogram, Telemetry,
                                  global_telemetry,
                                  reset_global_telemetry)
from ..workloads import (all_workloads, get_workload,
                         unknown_workload_message, workload_names)
from .types import (EvaluateRequest, EvaluateResult, ProgramSpec,
                    TuneRequest, TuneResult)

__all__ = [
    "evaluate", "evaluate_many", "tune",
    "TuneRequest", "TuneResult",
    "TUNABLE_MACHINE_FIELDS", "PARTITIONER_PARAMS",
    "validate_overrides", "overrides_config",
    "ArtifactCache", "CacheStats", "configure_cache",
    "default_cache_dir", "ensure_cache", "get_cache", "http_request",
    "digest", "fingerprint_config", "fingerprint_function",
    "fingerprint_inputs", "fingerprint_profile",
    "Evaluation", "Parallelization", "evaluate_summary",
    "evaluate_workload", "parallelize", "MatrixCell",
    "TECHNIQUES", "make_partitioner", "normalize", "technique_config",
    "TOPOLOGIES", "get_topology", "topology_names", "PLACERS",
    "LatencyHistogram", "Telemetry", "global_telemetry",
    "reset_global_telemetry",
    "all_workloads", "get_workload", "workload_names",
    "unknown_workload_message",
    "ProgramSpec", "resolve_program",
]


def resolve_program(program: ProgramSpec):
    """Validate a :class:`ProgramSpec` and return its
    :class:`~repro.workloads.Workload` — registering inline programs in
    the session registry as a side effect.  This is the one-stop hook
    for callers (the CLI's ``--source``/``--ir`` flags) that need the
    workload object itself rather than a full evaluation."""
    program.validate()
    return get_workload(program.workload_name())


def evaluate(request: EvaluateRequest,
             telemetry: Optional[Telemetry] = None) -> EvaluateResult:
    """Run the full methodology for one validated request and wrap the
    outcome as a schema-versioned :class:`EvaluateResult` — from the
    cell-level result entry when the cell was evaluated before (see
    :func:`repro.pipeline.core.evaluate_summary`)."""
    request = request.validate()
    return EvaluateResult.from_summary(request, evaluate_cell(
        request.cell(), request.check, telemetry, trace=request.trace,
        backend=request.backend))


def tune(request: TuneRequest, jobs: int = 1,
         out_dir: Optional[str] = None, top: int = 10,
         progress=None) -> TuneResult:
    """Run the auto-tuning search driver for one validated request (see
    :mod:`repro.tune`) and return its schema-versioned leaderboard.
    Imported lazily: ``repro.tune`` drives this facade in a closed loop,
    so the facade must not import it at module load."""
    from ..tune.driver import run_tune
    return run_tune(request, jobs=jobs, out_dir=out_dir, top=top,
                    progress=progress)


def evaluate_many(requests: Iterable[EvaluateRequest],
                  jobs: int = 1) -> List[EvaluateResult]:
    """Evaluate several requests; with ``jobs > 1`` the cells no cache
    entry answers fan across a process pool (the same machinery as
    ``sweep --jobs N``)."""
    requests = [request.validate() for request in requests]
    if any(request.trace for request in requests):
        # Matrix cells carry no trace flag; run the rare traced batch
        # serially.
        return [evaluate(request) for request in requests]
    summaries = evaluate_cells([(request.cell(), request.check)
                                for request in requests], jobs=jobs)
    return [EvaluateResult.from_summary(request, summary)
            for request, summary in zip(requests, summaries)]
