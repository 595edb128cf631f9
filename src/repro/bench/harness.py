"""Shared evaluation machinery for the benchmark specs.

The specs read numbers — speedups, cycle and instruction counts — so
they take them from the typed facade (``evaluate`` / ``evaluate_many``):
a cell evaluated in an earlier session is one load of its cell-level
result entry, a new one walks the staged pipeline and writes it (see
:mod:`repro.pipeline`).  On top sits a per-process memo of each cell's
``metrics`` mapping, because several specs share the same matrix.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..api import EvaluateRequest, ProgramSpec, evaluate, evaluate_many

# Benchmark display order (the papers' figure order).
BENCH_ORDER = ["adpcmdec", "adpcmenc", "ks", "mpeg2enc", "177.mesa",
               "181.mcf", "183.equake", "188.ammp", "300.twolf",
               "435.gromacs", "458.sjeng"]

_MEMO: Dict[EvaluateRequest, Mapping[str, float]] = {}


def clear_memo() -> None:
    """Drop the per-process metrics memo (tests; long sessions)."""
    _MEMO.clear()


def cell(name: str, technique: str, coco: bool = False,
         n_threads: int = 2, scale: str = "ref",
         **fields) -> EvaluateRequest:
    """The checked request for one matrix cell of registry workload
    ``name``; ``fields`` are further :class:`~repro.api.EvaluateRequest`
    fields (``alias_mode``, ``topology``, ...)."""
    return EvaluateRequest(program=ProgramSpec.registry(name),
                           technique=technique, coco=coco,
                           n_threads=n_threads, scale=scale, **fields)


def evaluation(*args, **fields) -> Mapping[str, float]:
    """The memoized ``metrics`` (the keys of
    :meth:`repro.api.Evaluation.metrics`) of :func:`cell`'s request."""
    request = cell(*args, **fields)
    if request not in _MEMO:
        _MEMO[request] = evaluate(request).metrics
    return _MEMO[request]


def prewarm(requests: Iterable[EvaluateRequest], jobs: int = 1) -> None:
    """Bulk-populate the memo through ``evaluate_many`` — with
    ``jobs > 1`` the requests no cache entry answers run on a process
    pool, so a benchmark session can front-load every evaluation it
    will need."""
    todo = [request for request in requests if request not in _MEMO]
    for request, result in zip(todo, evaluate_many(todo, jobs=jobs)):
        _MEMO[request] = result.metrics
