"""The callable surface of ``repro.api``.

``evaluate()``/``evaluate_many()`` are the typed entry points: they take
:class:`~repro.api.types.EvaluateRequest` objects and return
:class:`~repro.api.types.EvaluateResult` — what the ``repro serve``
daemon speaks over HTTP, and what in-process consumers should prefer.
``evaluate_many()`` is the one batch engine — behind ``repro sweep``,
``repro report``, ``repro bench`` and ``repro tune`` — and fans the
requests no cache entry answers across a ``multiprocessing`` pool.
Pooled cells run through the same staged, cached pipeline as single
calls, so workers share the persistent artifact cache (atomic writes
make that safe) and results are bit-identical to serial execution; a
worker sends back a :class:`~repro.pipeline.core.CellResult` — numbers,
never a program or a memory image.
"""

from __future__ import annotations

import warnings
from typing import Iterable, List, Optional

from ..pipeline.cache import ensure_cache, get_cache
from ..pipeline.core import CellResult, evaluate_summary
from ..pipeline.telemetry import Telemetry, global_telemetry
from ..workloads import get_workload
from .types import (KEY_FIELDS, EvaluateRequest, EvaluateResult,
                    ProgramSpec, TuneRequest, TuneResult, overrides_config)

__all__ = ["evaluate", "evaluate_many", "resolve_program", "tune"]


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
    return EvaluateResult.from_summary(request, _summary(request,
                                                         telemetry))


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
    """Evaluate several requests, in order.  With ``jobs > 1`` the
    parent answers every cached request itself and only the misses fan
    out — workers return summaries, and an all-warm batch starts no
    process.  When no pool can be started the batch runs serially; an
    error raised by an evaluation propagates."""
    requests = [request.validate() for request in requests]
    summaries: List[Optional[CellResult]] = [None] * len(requests)
    if jobs and jobs > 1:
        summaries = [_summary(request, walk=False) for request in requests]
        misses = [index for index, summary in enumerate(summaries)
                  if summary is None]
        if len(misses) > 1:
            cache = get_cache()
            pooled = _evaluate_pool(
                [(requests[index], cache.directory, cache.enabled)
                 for index in misses], jobs)
            for index, summary in zip(misses, pooled or ()):
                summaries[index] = summary
    return [EvaluateResult.from_summary(
        request, summary if summary is not None else _summary(request))
        for request, summary in zip(requests, summaries)]


def _summary(request: EvaluateRequest,
             telemetry: Optional[Telemetry] = None,
             walk: bool = True) -> Optional[CellResult]:
    """One validated request through the cell-level result entry
    (:func:`evaluate_summary`; every :data:`~repro.api.types.KEY_FIELDS`
    name but ``workload`` is one of its keywords) — the one function
    every typed result comes from."""
    config, partitioner_args = overrides_config(request.technique,
                                                request.overrides)
    return evaluate_summary(
        get_workload(request.workload), check=request.check,
        telemetry=telemetry, walk=walk, trace=request.trace,
        backend=request.backend, config=config,
        partitioner_args=partitioner_args,
        **{name: getattr(request, name) for name in KEY_FIELDS[1:]})


def _run_payload(payload) -> CellResult:
    """Execute one pool payload — ``(request, cache directory,
    enabled)`` — in the current process, on the parent's cache
    (:func:`ensure_cache`: kept when it already matches, so
    back-to-back cells of one workload share their front-end artifacts
    through its memory tier)."""
    request, cache_dir, cache_enabled = payload
    ensure_cache(cache_dir, cache_enabled)
    return _summary(request)


def _run_batch(batch) -> List[CellResult]:
    return [_run_payload(payload) for payload in batch]


def _evaluate_pool(payloads: List[tuple],
                   jobs: int) -> Optional[List[CellResult]]:
    """:func:`_run_payload` over ``payloads`` on a process pool,
    results in order; ``None`` (after a warning) when no pool can be
    started.  An error raised *by an evaluation* is not a reason to
    fall back — it propagates, once."""
    # One batch per workload: cells of a workload share their expensive
    # front-end artifacts (profile, PDG, the single-threaded baseline
    # simulation), and a worker that evaluates them back-to-back reuses
    # those through its in-process cache tier.  Scattering them across
    # workers instead would race the disk tier and compute the shared
    # stages once per worker.
    groups: dict = {}
    for index, payload in enumerate(payloads):
        groups.setdefault(payload[0].workload, []).append(index)
    batches = [[payloads[index] for index in indices]
               for indices in groups.values()]
    try:
        import multiprocessing
        pool = multiprocessing.Pool(min(jobs, len(batches)))
    except (ImportError, OSError) as error:
        warnings.warn("parallel evaluation unavailable (%s); "
                      "falling back to serial execution" % (error,),
                      RuntimeWarning)
        return None
    with pool:
        batch_results = pool.map(_run_batch, batches)
    results: list = [None] * len(payloads)
    for indices, batch in zip(groups.values(), batch_results):
        for index, result in zip(indices, batch):
            results[index] = result
            # A serial evaluation publishes its telemetry too.
            global_telemetry().merge(result.telemetry)
    return results
