"""Shared machinery for the experiment benchmarks.

Metric extraction lives in the spec registry (:mod:`repro.bench`), which
``python -m repro bench`` drives headlessly over the same cells and the
same artifact cache; this module adds the figure order and the
pytest-benchmark adapter.

Each bench module regenerates one table/figure of the papers (see
DESIGN.md's experiment index) and prints it, so running ``pytest
benchmarks/ --benchmark-only -s`` reproduces the evaluation section.
"""

from __future__ import annotations

from repro.bench import BENCH_ORDER

__all__ = ["BENCH_ORDER", "run_once"]


def run_once(benchmark, fn):
    """Register ``fn`` with pytest-benchmark without re-running it dozens
    of times (these are whole-pipeline experiments, not microbenchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
