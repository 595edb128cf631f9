"""End-to-end loopback test of ``repro serve``: boot the daemon on an
ephemeral port, fire concurrent evaluation requests over real HTTP, and
check the responses against an in-process ``evaluate_workload`` run."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.api import (API_SCHEMA_VERSION, ServiceClient, ServiceError,
                       configure_cache, evaluate_workload, get_cache)
from repro.service import ServiceConfig, ServiceDaemon
from repro.workloads import get_workload

#: 8 distinct cells — the daemon must sustain these concurrently.
CELLS = [
    dict(program={"kind": "registry", "value": "ks"},
         technique="gremio", n_threads=n, scale="train", coco=coco)
    for n in (1, 2, 3, 4) for coco in (False, True)
]


@pytest.fixture
def isolated_cache(tmp_path):
    previous = configure_cache(str(tmp_path / "artifacts"))
    try:
        yield get_cache()
    finally:
        configure_cache(previous.directory, previous.enabled)


@pytest.fixture
def daemon(isolated_cache):
    log = io.StringIO()
    instance = ServiceDaemon(ServiceConfig(
        host="127.0.0.1", port=0, workers=2, queue_limit=32,
        request_timeout=60.0, log_stream=log))
    instance.start()
    try:
        yield instance
    finally:
        instance.close()


def _post(daemon, body, timeout=90):
    return ServiceClient(daemon.address,
                         timeout=timeout).evaluate_raw(body)


class TestServeEndToEnd:
    def test_concurrent_evaluations_match_in_process(self, daemon):
        responses = [None] * len(CELLS)

        def post(index):
            responses[index] = _post(daemon, CELLS[index])

        threads = [threading.Thread(target=post, args=(index,))
                   for index in range(len(CELLS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)

        assert all(response is not None for response in responses)
        assert [status for status, _ in responses] == [200] * len(CELLS)
        for cell, (_, document) in zip(CELLS, responses):
            assert document["schema_version"] == API_SCHEMA_VERSION
            assert (document["request"]["workload"]
                    == cell["program"]["value"])
            assert document["request"]["n_threads"] == cell["n_threads"]
            assert document["metrics"]["speedup"] > 0.0
            assert not document["stale"]

        # The daemon's answer equals running the pipeline in-process.
        direct = evaluate_workload(get_workload("ks"), technique="gremio",
                                   n_threads=2, scale="train")
        served = next(document for cell, (_, document)
                      in zip(CELLS, responses)
                      if cell["n_threads"] == 2 and not cell["coco"])
        assert served["metrics"]["speedup"] == pytest.approx(direct.speedup)

        # A repeat of any cell is memoized, not re-evaluated.
        status, again = _post(daemon, CELLS[0])
        assert status == 200 and again["memoized"] is True

        # Observability: non-zero counters, latency histograms, gauges.
        client = ServiceClient(daemon.address, timeout=30)
        health = client.health()  # raises on any non-200 answer
        assert health["status"] == "ok"
        assert health["workers"] >= 1
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["requests_total"] >= len(CELLS) + 1
        assert counters["responses_ok"] >= len(CELLS) + 1
        assert counters["evaluations_completed"] >= len(CELLS)
        assert counters["memo_hits"] >= 1
        assert metrics["request_latency"]["count"] >= len(CELLS)
        assert metrics["queue"]["limit"] == 32
        assert metrics["stages"], "per-stage telemetry missing"
        for record in metrics["stages"].values():
            assert record["runs"] + record["cache_hits"] >= 0

    def test_error_paths_over_http(self, daemon):
        status, document = _post(daemon, {
            "program": {"kind": "registry", "value": "no-such-workload"}})
        assert status == 400 and document["kind"] == "validation"

        # The removed PR-9 wire shim: workload=-only bodies are 400 now.
        status, document = _post(daemon, {"workload": "ks"})
        assert status == 400 and document["kind"] == "validation"

        status, document = _post(daemon, {
            "program": {"kind": "registry", "value": "ks"}, "threds": 4})
        assert status == 400 and "threds" in document["error"]

        client = ServiceClient(daemon.address, timeout=10)
        assert client.schema()["schema"] == API_SCHEMA_VERSION

        with pytest.raises(ServiceError) as missing:
            client.get("/nowhere")
        assert missing.value.status == 404

    def test_structured_request_log(self, daemon):
        _post(daemon, CELLS[0])
        # The log line lands just after the response body is flushed;
        # give the handler thread a beat.
        requests = []
        deadline = time.time() + 5.0
        while not requests and time.time() < deadline:
            lines = [json.loads(line) for line
                     in daemon.config.log_stream.getvalue().splitlines()]
            requests = [line for line in lines
                        if line.get("event") == "request"]
            if not requests:
                time.sleep(0.05)
        assert requests, "no structured request log emitted"
        record = requests[-1]
        assert record["method"] == "POST"
        assert record["path"] == "/v1/evaluate"
        assert record["status"] == 200
        assert record["request_key"]
        assert "queue_depth" in record and "in_flight" in record
