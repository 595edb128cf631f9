"""Shared evaluation machinery for the benchmark specs.

This is the in-process memo the old ``benchmarks/harness.py`` kept
privately: evaluations are expensive (profile + partition + COCO + two
timed simulations), so identical cells are computed once per process.
Under the memo, every evaluation still runs through the staged
pipeline's persistent artifact cache (see :mod:`repro.pipeline`), so
repeated bench sessions also skip redundant stage work *across*
processes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..api import (Evaluation, MatrixCell, evaluate_matrix,
                   evaluate_workload, get_workload)
from ..stats import relative_communication as _relative_communication

# Benchmark display order (the papers' figure order).
BENCH_ORDER = ["adpcmdec", "adpcmenc", "ks", "mpeg2enc", "177.mesa",
               "181.mcf", "183.equake", "188.ammp", "300.twolf",
               "435.gromacs", "458.sjeng"]

_MEMO: Dict[MatrixCell, Evaluation] = {}

def clear_memo() -> None:
    """Drop the per-process evaluation memo (tests; long sessions)."""
    _MEMO.clear()


def evaluation(name: str, technique: str, coco: bool = False,
               n_threads: int = 2, scale: str = "ref",
               alias_mode: str = "annotated", topology=None,
               placer: str = "identity") -> Evaluation:
    """The memoized full-methodology evaluation of one matrix cell."""
    cell = MatrixCell(name, technique, coco, n_threads, scale,
                      alias_mode, topology=topology, placer=placer)
    if cell not in _MEMO:
        _MEMO[cell] = evaluate_workload(
            get_workload(name), technique=technique, coco=coco,
            n_threads=n_threads, scale=scale, alias_mode=alias_mode,
            topology=topology, placer=placer)
    return _MEMO[cell]


def prewarm(cells: Iterable[MatrixCell] = (),
            names: Iterable[str] = (),
            techniques: Sequence[str] = ("gremio", "dswp"),
            coco: Sequence[bool] = (False, True),
            n_threads: Sequence[int] = (2,),
            scale: str = "ref", jobs: int = 1,
            mt_check: bool = False) -> None:
    """Bulk-populate the memo via ``evaluate_matrix`` — with ``jobs > 1``
    the cells run on a process pool, so a benchmark session can
    front-load every evaluation it will need.  Pass explicit ``cells``
    (the spec runner does) or let the (names x techniques x coco x
    n_threads) product be built.  ``mt_check`` additionally runs the
    static MT validators over every generated program while prewarming."""
    cells = list(cells)
    if not cells:
        cells = [MatrixCell(name, technique, use_coco, threads, scale,
                            mt_check=mt_check)
                 for name in (names or BENCH_ORDER)
                 for technique in techniques
                 for use_coco in coco
                 for threads in n_threads]
    todo = [cell for cell in cells if cell not in _MEMO]
    for cell, result in zip(todo, evaluate_matrix(todo, jobs=jobs)):
        _MEMO[cell] = result


def relative_communication(name: str, technique: str,
                           n_threads: int = 2,
                           scale: str = "ref") -> float:
    """COCO's dynamic communication relative to baseline MTCG, in %
    (delegates the arithmetic to :func:`repro.stats
    .relative_communication`)."""
    base = evaluation(name, technique, coco=False, n_threads=n_threads,
                      scale=scale)
    opt = evaluation(name, technique, coco=True, n_threads=n_threads,
                     scale=scale)
    return _relative_communication(opt, base)
