#!/usr/bin/env python
"""CI smoke check for ``repro serve --role coordinator/worker`` (the
``cluster-smoke`` job): boot a coordinator plus two worker-node
processes on localhost, push a deduplicated 8-cell sweep through the
cluster, and assert

* every cluster answer is **byte-identical** (telemetry aside) to an
  in-process ``evaluate_many`` baseline, including the recomputed
  request keys;
* routing matches the rendezvous-hash prediction exactly, and a
  repeated cell is memoized by the owning node;
* after replacing both workers with fresh ones (empty local caches),
  the second sweep is served through the coordinator's remote artifact
  store — remote hits and replications show up in the workers'
  ``/metrics`` and store reads in the coordinator's;
* after each sweep the coordinator's tenant gate has drained: nothing
  in flight or waiting, and every request it was sent admitted.

Usage: PYTHONPATH=src python tools/check_cluster_smoke.py [--work-dir D]
Exits nonzero (with a diagnostic) on any failed expectation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
import time

import _daemon
from repro.api import ServiceClient, ServiceError

#: 8 distinct cells; CELLS[0] is re-posted afterwards to check cluster
#: memoization, so the sweep itself is deduplicated by request key.
CELLS = [
    {"program": {"kind": "registry", "value": "ks"},
     "technique": "gremio", "n_threads": n, "scale": "train",
     "coco": coco}
    for n in (1, 2, 3, 4) for coco in (False, True)
]

NODE_IDS = ("smoke-w0", "smoke-w1")


fail = functools.partial(_daemon.fail, "cluster-smoke")


def _daemon_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_STORE_URL", None)
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def spawn_coordinator(work_dir: str) -> _daemon.Daemon:
    return _daemon.Daemon(
        "cluster-smoke",
        ["--role", "coordinator", "--port", "0", "--queue-limit", "8",
         "--heartbeat-interval", "0.5"],
        _daemon_env(os.path.join(work_dir, "coord-store")))


def spawn_worker(work_dir: str, coordinator: str, node_id: str,
                 generation: int) -> _daemon.Daemon:
    cache_dir = os.path.join(work_dir,
                             "%s-gen%d-cache" % (node_id, generation))
    return _daemon.Daemon(
        "cluster-smoke",
        ["--role", "worker", "--coordinator", coordinator,
         "--node-id", node_id, "--port", "0", "--workers", "0",
         "--heartbeat-interval", "0.5"],
        _daemon_env(cache_dir))


def wait_for_nodes(client: ServiceClient, expected_urls: dict) -> None:
    """Block until every node id is registered at its expected URL and
    healthy (covers both first registration and worker replacement)."""
    deadline = time.time() + _daemon.BOOT_TIMEOUT
    nodes: dict = {}
    while time.time() < deadline:
        try:
            nodes = client.get("/cluster/nodes").get("nodes", {})
        except (OSError, ServiceError):
            time.sleep(0.2)
            continue
        if all(nodes.get(node_id, {}).get("url") == url
               and nodes.get(node_id, {}).get("healthy")
               for node_id, url in expected_urls.items()):
            return
        time.sleep(0.2)
    fail("worker nodes never became healthy at %r (registry: %r)"
         % (expected_urls, nodes))


def canonical(document) -> bytes:
    """Everything but wall-clock telemetry, as stable bytes."""
    stripped = {k: v for k, v in document.items() if k != "telemetry"}
    return json.dumps(stripped, sort_keys=True).encode("utf-8")


def run_sweep(client: ServiceClient) -> list:
    documents = []
    for cell in CELLS:
        status, document = client.evaluate_raw(cell)
        if status != 200:
            fail("cell %r answered %d: %r" % (cell, status, document))
        if document.get("stale") or document.get("memoized"):
            fail("first evaluation carried stale/memoized markers: %r"
                 % {k: document.get(k) for k in ("stale", "memoized")})
        documents.append(document)
    return documents


def check_gate_drained(client: ServiceClient, sent: int) -> None:
    """The coordinator's admission gate holds no slot and no waiter,
    and admitted every one of the ``sent`` requests (one tenant)."""
    admission = client.metrics()["cluster"]["admission"]
    tenants = admission["tenants"]
    if admission["in_flight"] or admission["depth"]:
        fail("admission gate did not drain: %r" % (admission,))
    if set(tenants) != {"default"} \
            or tenants["default"]["admitted"] != sent:
        fail("admission gate admitted %r, expected %d default requests"
             % (tenants, sent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work-dir", default=None,
                        help="scratch directory (default: a tempdir)")
    args = parser.parse_args()
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="cluster-smoke-")
    os.makedirs(work_dir, exist_ok=True)

    # In-process baseline with its own isolated local cache.
    from repro.api import EvaluateRequest, configure_cache, evaluate_many
    from repro.cluster import shard_node
    os.environ.pop("REPRO_STORE_URL", None)
    configure_cache(os.path.join(work_dir, "inprocess-cache"))
    requests = [EvaluateRequest.from_dict(dict(cell)) for cell in CELLS]
    keys = [request.request_key() for request in requests]
    if len(set(keys)) != len(CELLS):
        fail("sweep cells are not deduplicated: %d unique keys"
             % len(set(keys)))
    baseline = [result.as_dict() for result in evaluate_many(requests)]
    print("cluster-smoke: in-process baseline over %d cells" % len(CELLS))

    processes: list = []
    try:
        coordinator = spawn_coordinator(work_dir)
        processes.append(coordinator)
        base = coordinator.wait_listening()
        client = ServiceClient(base, timeout=180.0)
        print("cluster-smoke: coordinator up on %s" % base)

        workers = {node_id: spawn_worker(work_dir, base, node_id, 1)
                   for node_id in NODE_IDS}
        processes.extend(workers.values())
        worker_urls = {node_id: worker.wait_listening()
                       for node_id, worker in workers.items()}
        wait_for_nodes(client, worker_urls)
        print("cluster-smoke: %d worker nodes registered" % len(workers))

        # Sweep 1: byte-identical to the in-process baseline.
        first = run_sweep(client)
        for cell, key, expected, got in zip(CELLS, keys, baseline, first):
            if canonical(got) != canonical(expected):
                fail("cluster answer diverged from evaluate_many for "
                     "%r:\n  expected %s\n  got      %s"
                     % (cell, canonical(expected), canonical(got)))
            echoed = EvaluateRequest.from_dict(
                dict(got["request"])).request_key()
            if echoed != key:
                fail("request key changed through the cluster: %s != %s"
                     % (echoed, key))
        check_gate_drained(client, len(CELLS))
        print("cluster-smoke: sweep 1 byte-identical to evaluate_many")

        # Routing matches the rendezvous prediction; memo on repeat.
        predicted: dict = {}
        for key in keys:
            owner = shard_node(key, list(NODE_IDS))
            predicted[owner] = predicted.get(owner, 0) + 1
        cluster = client.metrics()["cluster"]
        if cluster["shard_distribution"] != predicted:
            fail("shard distribution %r != predicted %r"
                 % (cluster["shard_distribution"], predicted))
        status, repeat = client.evaluate_raw(CELLS[0])
        if status != 200 or repeat.get("memoized") is not True:
            fail("repeated cell was not memoized by its owner: %d %r"
                 % (status, {k: repeat.get(k)
                             for k in ("memoized", "stale")}))
        counters = cluster["counters"]
        for name, floor in (("routed_total", len(CELLS)),
                            ("store_puts", 1), ("events_received", 2)):
            if counters.get(name, 0) < floor:
                fail("coordinator counter %s=%r below %d"
                     % (name, counters.get(name), floor))
        print("cluster-smoke: shards %r, memo hit on repeat"
              % cluster["shard_distribution"])

        # Replace both workers: fresh processes, empty local caches.
        for worker in workers.values():
            worker.stop()
        workers = {node_id: spawn_worker(work_dir, base, node_id, 2)
                   for node_id in NODE_IDS}
        processes.extend(workers.values())
        worker_urls = {node_id: worker.wait_listening()
                       for node_id, worker in workers.items()}
        wait_for_nodes(client, worker_urls)

        # Sweep 2: same bytes, now served through the remote store.
        second = run_sweep(client)
        for cell, expected, got in zip(CELLS, baseline, second):
            if canonical(got) != canonical(expected):
                fail("second-run answer diverged for %r" % (cell,))
        check_gate_drained(client, 2 * len(CELLS) + 1)
        remote_hits = replications = 0
        for node_id, url in worker_urls.items():
            store = (ServiceClient(url).metrics()
                     .get("cache", {}).get("store", {}))
            remote_hits += store.get("remote_hits", 0)
            replications += store.get("replications", 0)
        if remote_hits < 1 or replications < 1:
            fail("fresh workers never read through the remote store "
                 "(remote_hits=%d, replications=%d)"
                 % (remote_hits, replications))
        counters = client.metrics()["cluster"]["counters"]
        if counters.get("store_gets", 0) < 1:
            fail("coordinator served no store reads: %r" % (counters,))
        print("cluster-smoke: PASS (sweep 2 served via remote store: "
              "remote_hits=%d, replications=%d, coordinator "
              "store_gets=%d)"
              % (remote_hits, replications, counters["store_gets"]))
        return 0
    finally:
        for proc in processes:
            proc.stop()
        if args.work_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
