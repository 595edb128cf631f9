import os
import random
import subprocess
import sys
import time

import pytest

import measure


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert measure.percentile(values, 0) == 10.0
    assert measure.percentile(values, 50) == 30.0
    assert measure.percentile(values, 90) == pytest.approx(46.0)
    assert measure.percentile(reversed(values), 100) == 50.0
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_zipf_is_seeded_and_skewed():
    draws = measure.zipf_indices(64, 20000, random.Random(3))
    assert draws == measure.zipf_indices(64, 20000, random.Random(3))
    assert draws != measure.zipf_indices(64, 20000, random.Random(4))
    assert set(draws) <= set(range(64))
    counts = [draws.count(rank) for rank in range(64)]
    # Zipf(1): rank 0 twice as likely as rank 1, 64 times as likely as rank 63.
    assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.1)
    assert counts[0] > 20 * counts[63]


def test_stat_parsing_survives_odd_command_names():
    text = ("42 (a (b) c) d) S 7 42 42 0 -1 4194304 100 0 0 0 "
            "150 50 0 0 20 0 3 0 12345 1000 100 18446744073709551615")
    stat = measure.parse_stat(text)
    assert stat["ppid"] == 7
    assert stat["cpu_s"] == pytest.approx(200 / measure.CLOCK_TICKS)


def test_peak_rss_parsing():
    status = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\n"
    assert measure.parse_peak_rss_mib(status) == 2.0
    assert measure.parse_peak_rss_mib("Name:\tzombie\n") == 0.0


def test_process_tree_sees_children_and_their_cpu():
    before = measure.process_tree(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import time\nend = time.time() + 0.3\nwhile time.time() < end: pass\n"
         "time.sleep(30)"])
    try:
        time.sleep(0.6)
        after = measure.process_tree(os.getpid())
        assert child.pid in after and child.pid not in before
        assert after[child.pid] >= 0.2
        assert measure.cpu_seconds([child.pid]) == after[child.pid]
        meter = measure.CpuMeter()
        assert child.pid in meter.descendants
        assert meter.read() >= time.process_time() + 0.2
        assert meter.peak_rss_mib() > \
            measure.tree_peak_rss_mib([child.pid]) > 1.0
    finally:
        child.kill()
        child.wait()
    assert child.pid not in measure.process_tree(os.getpid())
    assert measure.cpu_seconds([child.pid]) == 0.0


def test_interval_values_isolate_a_slow_interval():
    # Five one-second intervals of 10 ops; the third runs at half speed.
    marks, ops, clock, done = [(0.0, 0.0, 0)], [], 0.0, 0
    for interval in range(5):
        latency = 0.2 if interval == 2 else 0.1
        for _ in range(10):
            ops.append((clock, clock + latency))
            clock += latency
            done += 1
        marks.append((clock, 0.9 * clock, done))
    values = measure.interval_values(marks, ops)
    assert values["throughput_ops_s"] == pytest.approx([10, 10, 5, 10, 10])
    assert values["latency_p50_ms"] == pytest.approx(
        [100, 100, 200, 100, 100])
    assert values["latency_p90_ms"] == pytest.approx(
        values["latency_p50_ms"])
    assert values["cpu_ms_per_op"] == pytest.approx([90, 90, 180, 90, 90])
    # The median over intervals reads 10 ops/s; the whole-window mean 8.3.
    assert measure.percentile(values["throughput_ops_s"], 50) == \
        pytest.approx(10.0)
    assert done / clock == pytest.approx(50 / 6.0)
    with pytest.raises(ValueError):
        measure.interval_values(marks[:1], [])


def test_span_recorder_links_parents():
    spans = measure.SpanRecorder()
    parent = spans.add("client.evaluate", 1.0, 2.0, key="ks")
    child = spans.add("daemon.handler", 1.2, 1.8, parent=parent)
    assert [span["parent"] for span in spans.spans] == [None, parent]
    assert spans.spans[child]["name"] == "daemon.handler"
    assert spans.spans[parent]["key"] == "ks"
