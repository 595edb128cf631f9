import copy
import json

import pytest

import compare


def _document(**overrides):
    run = {"attempted": 100, "failed": 0, "correct": True, "metrics": {
        "setup_s": {"value": 2.0, "unit": "s"},
        "throughput_ops_s": {"value": 100.0, "unit": "ops/s"},
        "latency_p50_ms": {"value": 10.0, "unit": "ms"},
    }}
    document = {"schema": "repro.perf/v1", "mode": "full", "seed": 0,
                "seconds": 8.0, "trace": False,
                "workloads": {"sweep-cold": run}}
    document.update(overrides)
    return document


def _traced():
    document = _document(trace=True)
    document["workloads"]["sweep-cold"]["metrics"] = {
        "machine.sim_instructions": {"value": 5000.0, "unit": "count"},
        "cache.hits": {"value": 12, "unit": "count"}}
    return document


BOUNDS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher",
     "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]


def _metric(document, name):
    return document["workloads"]["sweep-cold"]["metrics"][name]


def test_within_bounds_passes_and_better_never_fails():
    b = _document()
    _metric(b, "latency_p50_ms")["value"] = 10.9     # 9 % worse: inside
    _metric(b, "throughput_ops_s")["value"] = 300.0  # better
    _metric(b, "setup_s")["value"] = 0.5             # better
    assert compare.compare(_document(), b, False, BOUNDS) == []


def test_each_direction_fails_beyond_its_bound():
    b = _document()
    _metric(b, "latency_p50_ms")["value"] = 11.2
    _metric(b, "throughput_ops_s")["value"] = 88.0
    failures = compare.compare(_document(), b, False, BOUNDS)
    assert len(failures) == 2
    assert "throughput_ops_s" in failures[0] and "latency_p50_ms" in failures[1]


def test_failed_share_may_not_rise():
    b = _document()
    b["workloads"]["sweep-cold"]["failed"] = 1
    failures = compare.compare(_document(), b, False, BOUNDS)
    assert failures == ["sweep-cold failed_share rose from 0 to 0.01"]
    assert compare.compare(b, _document(), False, BOUNDS) == []


def test_quick_and_full_do_not_mix():
    with pytest.raises(ValueError, match="mode"):
        compare.compare(_document(), _document(mode="quick"), False, BOUNDS)
    with pytest.raises(ValueError, match="seconds"):
        compare.compare(_document(), _document(seconds=4.0), False, BOUNDS)


def test_exact_requires_identical_counts():
    assert compare.compare(_traced(), _traced(), True, BOUNDS) == []
    b = _traced()
    _metric(b, "cache.hits")["value"] = 13
    assert compare.compare(_traced(), b, True, BOUNDS) == \
        ["sweep-cold cache.hits: 12 != 13"]
    assert compare.compare(_traced(), b, False, BOUNDS) == []
    c = _traced()
    c["workloads"]["sweep-cold"]["attempted"] = 99
    assert "attempted" in compare.compare(_traced(), c, True, BOUNDS)[0]
    with pytest.raises(ValueError, match="seed"):
        compare.compare(_traced(), dict(_traced(), seed=1), True, BOUNDS)
    with pytest.raises(ValueError, match="--trace documents"):
        compare.compare(_document(), _document(), True, BOUNDS)


def test_command_line_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document()))
    worse = copy.deepcopy(_document())
    _metric(worse, "latency_p50_ms")["value"] = 20.0
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "WORSE" in capsys.readouterr().out
    b.write_text(json.dumps(_document(mode="quick")))
    assert compare.main([str(a), str(b)]) == 2
