#!/usr/bin/env python
"""CI smoke check for ``python -m repro serve`` (the ``serve-smoke``
job): boot the daemon on an ephemeral port, run one evaluation over
real HTTP, check memoization, liveness, and that the ``/metrics``
counters moved, then tear the daemon down.

Usage: PYTHONPATH=src python tools/check_serve_smoke.py
Exits nonzero (with a diagnostic) on any failed expectation.
"""

from __future__ import annotations

import functools
import sys

import _daemon
from repro.api import ServiceClient

REQUEST = {"program": {"kind": "registry", "value": "ks"},
           "technique": "gremio", "n_threads": 2, "scale": "train"}

fail = functools.partial(_daemon.fail, "serve-smoke")


def main() -> int:
    daemon = _daemon.Daemon("serve-smoke",
                            ["--port", "0", "--workers", "2"])
    try:
        base = daemon.wait_listening()
        client = ServiceClient(base)
        print("serve-smoke: daemon up on %s" % base)

        # The typed getters raise ServiceError on any non-200 answer.
        health = client.health()
        if health.get("status") != "ok":
            fail("/healthz unhealthy: %r" % (health,))

        status, document = client.evaluate_raw(REQUEST)
        if status != 200:
            fail("evaluation answered %d: %r" % (status, document))
        speedup = document.get("metrics", {}).get("speedup", 0.0)
        if not speedup > 0.0:
            fail("evaluation produced no speedup metric: %r" % document)
        print("serve-smoke: evaluated %s -> speedup %.4f"
              % (REQUEST["program"]["value"], speedup))

        status, repeat = client.evaluate_raw(REQUEST)
        if status != 200 or repeat.get("memoized") is not True:
            fail("repeat request was not memoized: %d %r"
                 % (status, {k: repeat.get(k)
                             for k in ("memoized", "stale")}))

        metrics = client.metrics()
        counters = metrics.get("counters", {})
        for name, floor in (("requests_total", 2), ("responses_ok", 2),
                            ("evaluations_completed", 1),
                            ("memo_hits", 1)):
            if counters.get(name, 0) < floor:
                fail("counter %s=%r below %d (counters: %r)"
                     % (name, counters.get(name), floor, counters))
        latency = metrics.get("request_latency", {})
        if latency.get("count", 0) < 1:
            fail("request_latency histogram is empty: %r" % latency)
        if not metrics.get("stages"):
            fail("per-stage telemetry missing from /metrics")
        print("serve-smoke: PASS (requests_total=%d, memo_hits=%d, "
              "latency_count=%d)" % (counters["requests_total"],
                                     counters["memo_hits"],
                                     latency["count"]))
        return 0
    finally:
        daemon.stop()


if __name__ == "__main__":
    sys.exit(main())
