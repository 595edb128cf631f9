"""The paper's evaluation at full scale: every bench spec collected once
at ``FULL`` (``ref`` inputs, complete benchmark lists), one table per
spec, the fidelity scorecard of the paper's claims, and the
compile-pass microbenchmarks.  CI runs it as::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable

(``-s`` prints the tables.)  The last test checks the headline table and
the scorecard against the generated block of EXPERIMENTS.md; after an
intended change, rewrite the block with ``REPRO_REGEN_GOLDENS=1`` and
review its diff.
"""

import os
from pathlib import Path

import pytest

from repro.bench import (BENCH_ORDER, FULL, evaluation, run_bench, scorecard,
                         spec_ids)
from repro.bench.specs.hostperf import COMPILE_PASSES, compile_passes
from repro.report import headline, table

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = ("<!-- BEGIN GENERATED by benchmarks/test_evaluation.py; "
         "rewrite with REPRO_REGEN_GOLDENS=1 -->")
END = "<!-- END GENERATED -->"


@pytest.fixture(scope="module")
def full():
    # Two workers prewarm the evaluation matrix; values do not depend on
    # the pool (tests/test_bench_registry.py).
    return run_bench(FULL, jobs=2)


def _number(value: float, pattern: str = "%.3f") -> str:
    return "%d" % value if float(value).is_integer() else pattern % value


@pytest.mark.parametrize("spec_id", spec_ids())
def test_spec(full, spec_id):
    result = full.specs[spec_id]
    print()
    print(table(["metric", "value", "unit"],
                [(name, _number(metric.value), metric.unit)
                 for name, metric in result.metrics.items()],
                title="%s (%s)" % (result.title, spec_id)))
    unjudged = [name for name, metric in result.metrics.items()
                if name.startswith("claim/") and metric.value == 0]
    assert not unjudged, "claims reading a metric the spec does not " \
        "emit at FULL: %s" % unjudged


@pytest.fixture(scope="module")
def passes():
    return compile_passes()


@pytest.mark.parametrize("name", COMPILE_PASSES)
def test_compile_pass(benchmark, passes, name):
    benchmark(passes[name])


def test_experiments_md_block(full):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    def cell(name, technique, coco):
        # The 2-thread cells the fig8/fig7/fig1 specs read, memoized by
        # the `full` run.
        return evaluation(name, technique, coco=coco, scale=FULL.scale)

    block = headline(BENCH_ORDER, cell) + "\n\n" + scorecard(full)
    print()
    print(block)
    rendered = "%s%s\n%s\n%s%s" % (head, BEGIN, block, END, tail)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        EXPERIMENTS.write_text(rendered, encoding="utf-8")
    assert rendered == EXPERIMENTS.read_text(encoding="utf-8"), (
        "EXPERIMENTS.md's generated block is stale: rewrite it with "
        "REPRO_REGEN_GOLDENS=1 and review the diff")
