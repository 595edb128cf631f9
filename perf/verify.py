"""Output verification.  The oracle is each workload's hand-written
pure-Python ``Workload.reference`` (for generated sources, CPython
running the same text) -- never the pipeline's own single-threaded run."""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

#: Answer fields that legitimately differ between two answers to one
#: request (wall-clock telemetry, the memo marker).
VOLATILE = ("telemetry", "memoized")


def _same(got: object, want: object) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        # The tolerance of the repo's own oracle tests (tests/test_workloads).
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    return got == want


def oracle_errors(evaluation, scale: str) -> List[str]:
    """Compare the multi-threaded run's live-outs and output memory
    objects of one ``api.evaluate_workload`` result with the workload's
    reference on the same inputs."""
    workload = evaluation.workload
    expected = workload.reference(workload.make_inputs(scale))
    function = evaluation.parallelization.function
    function.layout_memory()  # deterministic; a cache-hit run skipped it
    result = evaluation.mt_result
    errors = []
    for register in function.live_outs:
        got, want = result.live_outs.get(register), expected.get(register)
        if register not in expected or not _same(got, want):
            errors.append("%s: live-out %s is %r, reference says %r"
                          % (workload.name, register, got, want))
    for name in workload.output_objects:
        want = list(expected[name])
        obj = function.mem_objects[name]
        got = result.memory.read_array(obj.base, obj.size)[:len(want)]
        wrong = [index for index, pair in enumerate(zip(got, want))
                 if not _same(*pair)]
        if wrong or len(got) != len(want):
            errors.append("%s: memory object %s differs from the reference "
                          "at %d words (first index %s)"
                          % (workload.name, name, len(wrong), wrong[:1]))
    return errors


class Expected:
    """What one request must answer: the oracle-checked metrics and,
    when asked for, the whole in-process answer document."""

    def __init__(self, metrics: Dict[str, float],
                 document: Optional[Dict[str, object]], errors: List[str]):
        self.metrics = metrics
        self.document = document
        self.errors = errors


def expected_answer(api, body: Dict[str, object],
                    with_document: bool) -> Expected:
    """Evaluate ``body`` in process, check the outputs against the
    oracle, and return what every answer to ``body`` must equal.  The
    oracle run is untraced: tracing adds metrics but may change none."""
    request = api.EvaluateRequest.from_dict(dict(body, trace=False))
    evaluation = api.evaluate_workload(
        api.get_workload(request.workload), technique=request.technique,
        n_threads=request.n_threads, coco=request.coco, scale=request.scale,
        check=request.check, backend=request.backend)
    document = None
    if with_document:
        # Through JSON, as the served answer came (tuples become lists).
        document = json.loads(json.dumps(api.evaluate(request).as_dict()))
    return Expected(dict(evaluation.metrics()), document,
                    oracle_errors(evaluation, request.scale))


def metrics_error(got: object, expected: Expected) -> Optional[str]:
    """``got`` is an answer's ``metrics``; a traced answer may add
    ``critical_path_*`` entries but must not change the others."""
    if not isinstance(got, dict):
        return "no metrics in the answer: %r" % (got,)
    got = {name: value for name, value in got.items()
           if not name.startswith("critical_path_")}
    if got == expected.metrics:
        return None
    differing = sorted(name for name in set(got) | set(expected.metrics)
                       if got.get(name) != expected.metrics.get(name))
    return "metrics differ from the verified in-process result: %s" % (
        ", ".join("%s=%r (expected %r)" % (name, got.get(name),
                                           expected.metrics.get(name))
                  for name in differing[:3]))


def document_error(got: object, expected: Expected) -> Optional[str]:
    """The whole served answer, volatile fields aside, must equal the
    in-process ``api.evaluate(request).as_dict()``."""
    error = metrics_error(got.get("metrics") if isinstance(got, dict)
                          else None, expected)
    if error is not None or expected.document is None:
        return error
    differing = sorted(
        name for name in (set(got) | set(expected.document)) - set(VOLATILE)
        if got.get(name) != expected.document.get(name))
    if differing:
        return "answer differs from the in-process document in: %s" % (
            ", ".join(differing))
    return None
