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

from ..api import EvaluateRequest, MatrixCell, evaluate, evaluate_many

# Benchmark display order (the papers' figure order).
BENCH_ORDER = ["adpcmdec", "adpcmenc", "ks", "mpeg2enc", "177.mesa",
               "181.mcf", "183.equake", "188.ammp", "300.twolf",
               "435.gromacs", "458.sjeng"]

_MEMO: Dict[MatrixCell, Mapping[str, float]] = {}


def clear_memo() -> None:
    """Drop the per-process metrics memo (tests; long sessions)."""
    _MEMO.clear()


def evaluation(name: str, technique: str, coco: bool = False,
               n_threads: int = 2, scale: str = "ref",
               alias_mode: str = "annotated", topology=None,
               placer: str = "identity",
               local_schedule=None) -> Mapping[str, float]:
    """The memoized ``metrics`` of one checked matrix cell (the keys of
    :meth:`repro.api.Evaluation.metrics`)."""
    cell = MatrixCell(name, technique, coco, n_threads, scale,
                      alias_mode, local_schedule, topology=topology,
                      placer=placer)
    if cell not in _MEMO:
        _MEMO[cell] = evaluate(EvaluateRequest.from_cell(cell)).metrics
    return _MEMO[cell]


def prewarm(cells: Iterable[MatrixCell], jobs: int = 1) -> None:
    """Bulk-populate the memo through ``evaluate_many`` — with
    ``jobs > 1`` the cells no cache entry answers run on a process
    pool, so a benchmark session can front-load every evaluation it
    will need."""
    todo = [cell for cell in cells if cell not in _MEMO]
    results = evaluate_many([EvaluateRequest.from_cell(cell)
                             for cell in todo], jobs=jobs)
    for cell, result in zip(todo, results):
        _MEMO[cell] = result.metrics
