"""Trace: dynamic critical path and dominant stall reason.

Where the simulated cycles of a multi-threaded run went, per
(technique, workload): the length of the dynamic critical path and the
stall category that cost the most cycles (:mod:`repro.trace`).  The
metrics are informational in the baseline comparison — they explain a
cycle delta, they do not gate one — so this module is what checks their
shape.

Metric extraction lives in the ``trace_attribution`` spec
(:mod:`repro.bench.specs.trace`).
"""

from harness import run_once

from repro.bench import FULL, get_spec
from repro.report import table
from repro.trace import STALL_CATEGORIES

PATH = "critical_path_cycles/"


def test_trace_attribution(benchmark):
    metrics = run_once(
        benchmark, lambda: get_spec("trace_attribution").collect(FULL))
    keys = sorted(name[len(PATH):] for name in metrics
                  if name.startswith(PATH))   # "<technique>/<workload>"
    assert keys
    rows = []
    for key in keys:
        path = metrics[PATH + key].value
        code = int(metrics["top_stall_code/" + key].value)
        stalled = metrics["top_stall_cycles/" + key].value
        # A traced run always has a critical path; a summary key the
        # spec no longer finds would read as 0 / -1 here.
        assert path > 0
        assert 0 <= code < len(STALL_CATEGORIES)
        assert stalled >= 0
        rows.append((key, "%.0f" % path, STALL_CATEGORIES[code],
                     "%.0f" % stalled))
    print()
    print(table(["technique/benchmark", "critical path", "top stall",
                 "stall cycles"], rows,
                title="Trace: critical path and dominant stall reason"))
