import copy
import json

import cells
import harness
import verify


def _cell():
    return cells.cell_op("ks", "dswp", True)[1]


def test_oracle_accepts_the_real_outputs_and_rejects_corrupted_ones(api):
    evaluation = api.evaluate_workload(api.get_workload("ks"),
                                       technique="dswp", coco=True,
                                       backend="fast")
    assert verify.oracle_errors(evaluation, "ref") == []
    register = next(iter(evaluation.mt_result.live_outs))
    evaluation.mt_result.live_outs[register] += 1
    obj = evaluation.parallelization.function.mem_objects["d1"]
    evaluation.mt_result.memory.store(obj.base, 10 ** 9)
    errors = verify.oracle_errors(evaluation, "ref")
    assert len(errors) == 2
    assert "live-out" in errors[0] and "memory object d1" in errors[1]


def test_perturbed_metrics_fail(api):
    expected = verify.expected_answer(api, _cell(), True)
    assert expected.errors == []
    answer = json.loads(json.dumps(
        api.evaluate(api.EvaluateRequest.from_dict(_cell())).as_dict()))
    assert verify.document_error(answer, expected) is None
    assert verify.metrics_error(answer["metrics"], expected) is None

    memo_hit = dict(answer, memoized=True, telemetry=None)
    assert verify.document_error(memo_hit, expected) is None

    perturbed = copy.deepcopy(answer)
    perturbed["metrics"]["mt_cycles"] += 1.0
    assert "mt_cycles" in verify.document_error(perturbed, expected)
    assert "mt_cycles" in verify.metrics_error(perturbed["metrics"], expected)

    stale = dict(answer, stale=True)
    assert "stale" in verify.document_error(stale, expected)
    assert verify.metrics_error(None, expected) is not None


def test_traced_answers_may_add_critical_path_metrics_only(api):
    expected = verify.expected_answer(api, dict(_cell(), trace=True), False)
    traced = dict(expected.metrics, critical_path_cycles=12.0)
    assert verify.metrics_error(traced, expected) is None
    traced["speedup"] += 0.5
    assert verify.metrics_error(traced, expected) is not None


def test_recorder_counts_an_injected_429_and_a_changed_answer():
    recorder = harness.Recorder(clients=2)
    recorder.record_http(0, "a", 0.0, 0.001, 200, {"metrics": {"x": 1.0}})
    recorder.record_http(1, "a", 0.0, 0.002, 200, {"metrics": {"x": 1.0}})
    assert recorder.errors == []
    recorder.record_http(0, "b", 0.0, 0.001, 429, {"kind": "shed"})
    recorder.record_http(1, "a", 0.0, 0.001, 200, {"metrics": {"x": 2.0}})
    assert [ok for _, _, _, ok in recorder.all_ops()] == \
        [True, False, True, False]
    assert "HTTP 429" in recorder.errors[0]
    assert "differs from the first answer" in recorder.errors[1]
    assert set(recorder.first) == {"a"}
    assert recorder.latencies_ms() == [1.0, 1.0, 2.0, 1.0]
