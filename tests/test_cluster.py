"""Cluster subsystem tests: rendezvous sharding, membership + health,
the coordinator's queueing admission, the pluggable artifact store, and the
end-to-end guarantees of ``repro serve --role coordinator``:

* a cluster of 2 worker nodes answers **byte-identically** to a
  standalone daemon (request keys, metrics, fingerprints — everything
  but wall-clock telemetry);
* SIGKILLing a worker node mid-request fails the request over to
  another node, which completes it with ``stale: false`` and the same
  bytes;
* the HTTP artifact store read-through replicates coordinator blobs
  into fresh local tiers, with visible hit counters.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from repro.api import (EvaluateRequest, HttpStore, LocalStore,
                       STORE_URL_ENV, ServiceClient, configure_cache,
                       evaluate, get_cache, make_store)
from repro.cluster import (CoordinatorDaemon, CoordinatorService,
                           MonitoringChannel, NodeRegistry, WorkerNode,
                           rank_nodes, shard_node)
from repro.cluster.monitor import EventPublisher
from repro.service import (AdmissionQueue, QueueFullError, RESULT_STAGE,
                           ServiceConfig, ServiceDaemon)
import repro.cluster.coordinator as coordinator_module
from repro.service.admission import Ticket

#: 4 distinct cells — small enough to keep the e2e test quick, varied
#: enough that rendezvous hashing splits them across both nodes.
CELLS = [
    dict(program={"kind": "registry", "value": "ks"},
         technique="gremio", n_threads=n, scale="train", coco=coco)
    for n in (1, 2) for coco in (False, True)
]


def _canonical(document) -> bytes:
    """A response document minus wall-clock telemetry, as stable bytes.

    Everything else — echoed request, metrics, fingerprints, service
    markers, schema — must be byte-identical between a cluster and a
    standalone daemon."""
    stripped = {k: v for k, v in document.items() if k != "telemetry"}
    return json.dumps(stripped, sort_keys=True).encode("utf-8")


def _request_key(body) -> str:
    return EvaluateRequest.from_dict(dict(body)).request_key()


@pytest.fixture
def clean_env(tmp_path):
    """Isolate the cache + store environment the cluster mutates
    (``WorkerNode`` exports ``REPRO_STORE_URL`` and rebuilds the
    process-wide cache) and restore it afterwards."""
    saved = {name: os.environ.get(name)
             for name in (STORE_URL_ENV, "REPRO_CACHE_DIR")}
    os.environ.pop(STORE_URL_ENV, None)
    previous = configure_cache(str(tmp_path / "baseline-cache"))
    try:
        yield tmp_path
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        configure_cache(previous.directory, previous.enabled)


def _coordinator(tmp_path, **overrides) -> CoordinatorDaemon:
    fields = dict(host="127.0.0.1", port=0, queue_limit=8,
                  request_timeout=120.0, role="coordinator",
                  heartbeat_interval=0.5, quiet=True)
    fields.update(overrides)
    return CoordinatorDaemon(
        ServiceConfig(**fields),
        store_directory=str(tmp_path / "coord-store")).start()


def _wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    assert predicate(), message


class TestRendezvousSharding:
    NODES = ["node-a", "node-b", "node-c"]

    def test_ranking_is_deterministic_and_total(self):
        first = rank_nodes("some-key", self.NODES)
        assert first == rank_nodes("some-key", list(reversed(self.NODES)))
        assert sorted(first) == sorted(self.NODES)
        assert shard_node("some-key", self.NODES) == first[0]

    def test_removal_remaps_only_the_lost_nodes_keys(self):
        keys = ["key-%d" % n for n in range(60)]
        before = {key: shard_node(key, self.NODES) for key in keys}
        survivors = [n for n in self.NODES if n != "node-b"]
        for key in keys:
            after = shard_node(key, survivors)
            if before[key] != "node-b":
                assert after == before[key]  # placement kept -> cache hot

    def test_failover_order_is_the_ranking_without_the_primary(self):
        ranking = rank_nodes("some-key", self.NODES)
        assert rank_nodes("some-key", ranking[1:]) == ranking[1:]

    def test_spreads_keys_across_nodes(self):
        owners = {shard_node("key-%d" % n, self.NODES)
                  for n in range(60)}
        assert owners == set(self.NODES)

    def test_empty_node_set_raises(self):
        with pytest.raises(ValueError):
            shard_node("some-key", [])


class TestNodeRegistry:
    def test_register_heartbeat_and_timeout(self):
        registry = NodeRegistry(heartbeat_timeout=0.05)
        registry.register("w0", "http://127.0.0.1:1/")
        assert registry.healthy() == ["w0"]
        assert registry.url_of("w0") == "http://127.0.0.1:1"
        time.sleep(0.1)
        assert registry.healthy() == []  # silent node sharded around
        assert registry.heartbeat("w0") is True
        assert registry.healthy() == ["w0"]
        assert registry.heartbeat("ghost") is False  # must re-register

    def test_dispatch_failures_mark_unhealthy_until_recovery(self):
        registry = NodeRegistry(heartbeat_timeout=60.0,
                                failure_threshold=3)
        registry.register("w0", "http://127.0.0.1:1")
        for _ in range(3):
            registry.mark_dispatch("w0", ok=False)
        assert registry.healthy() == []
        snapshot = registry.snapshot()["w0"]
        assert snapshot["failed"] == 3 and not snapshot["healthy"]
        # Re-registration (the node restarted) resets health.
        registry.register("w0", "http://127.0.0.1:1")
        assert registry.healthy() == ["w0"]
        registry.mark_dispatch("w0", ok=False)
        registry.mark_dispatch("w0", ok=True)  # success resets the run
        registry.mark_dispatch("w0", ok=False)
        registry.mark_dispatch("w0", ok=False)
        assert registry.healthy() == ["w0"]

    def test_gauge_updates_refresh_heartbeat(self):
        registry = NodeRegistry(heartbeat_timeout=0.05)
        registry.register("w0", "http://127.0.0.1:1")
        time.sleep(0.1)
        assert registry.update_gauges("w0", {"queue": {"depth": 0}})
        assert registry.healthy() == ["w0"]
        assert registry.snapshot()["w0"]["gauges"] == {
            "queue": {"depth": 0}}
        assert registry.update_gauges("ghost", {}) is False


class TestQueueingAdmission:
    """The tenant gate as the coordinator uses it: requests may wait."""

    def test_grants_immediately_under_capacity(self):
        queue = AdmissionQueue(2, tenant_limit=4)
        first = queue.submit("alice", wait=True)
        second = queue.submit("bob", wait=True)
        assert first.wait(0) and second.wait(0)
        assert queue.stats()["in_flight"] == 2

    def test_round_robin_prevents_starvation(self):
        queue = AdmissionQueue(1, tenant_limit=8)
        running = queue.submit("noisy", wait=True)
        assert running.wait(0)
        backlog = [queue.submit("noisy", wait=True) for _ in range(3)]
        quiet = queue.submit("quiet", wait=True)
        # The quiet tenant arrived *after* three noisy waiters, but
        # round-robin serves it second, not fourth.
        queue.release(running)
        assert backlog[0].wait(0) and not quiet.wait(0)
        queue.release(backlog[0])
        assert quiet.wait(0)
        assert not backlog[1].wait(0)
        queue.release(quiet)
        assert backlog[1].wait(0)
        stats = queue.stats()
        assert stats["tenants"]["quiet"]["admitted"] == 1
        assert stats["tenants"]["noisy"]["admitted"] == 3

    def test_sheds_only_the_flooding_tenant(self):
        queue = AdmissionQueue(1, tenant_limit=2)
        running = queue.submit("noisy", wait=True)
        assert running.wait(0)
        queue.submit("noisy", wait=True)
        queue.submit("noisy", wait=True)  # depth now at the tenant bound
        with pytest.raises(QueueFullError) as shed:
            queue.submit("noisy", wait=True)
        assert shed.value.tenant == "noisy" and shed.value.limit == 2
        other = queue.submit("quiet", wait=True)  # unaffected by the flood
        assert not other.wait(0)
        stats = queue.stats()
        assert stats["shed_total"] == 1
        assert stats["tenants"]["noisy"]["shed"] == 1
        assert stats["tenants"]["quiet"]["shed"] == 0
        assert {tenant: counts["depth"] for tenant, counts
                in stats["tenants"].items()} == {"noisy": 2, "quiet": 1}

    def test_cancelled_tickets_are_never_granted(self):
        queue = AdmissionQueue(1, tenant_limit=4)
        running = queue.submit("alice", wait=True)
        abandoned = queue.submit("alice", wait=True)
        follower = queue.submit("alice", wait=True)
        queue.release(abandoned)  # withdrawn before its grant
        queue.release(running)
        assert follower.wait(0) and not abandoned.wait(0)

    def test_tenant_limit_caps_running_requests_too(self):
        queue = AdmissionQueue(3, tenant_limit=1)
        running = queue.submit("noisy", wait=True)
        waiting = queue.submit("noisy", wait=True)
        quiet = queue.submit("quiet", wait=True)
        # A slot is free, but noisy is at its running cap.
        assert running.wait(0) and not waiting.wait(0) and quiet.wait(0)
        queue.release(running)
        assert waiting.wait(0)


def _coordinator_service(tmp_path, **overrides) -> CoordinatorService:
    fields = dict(queue_limit=1, request_timeout=0.05,
                  role="coordinator", quiet=True)
    fields.update(overrides)
    return CoordinatorService(ServiceConfig(**fields),
                              str(tmp_path / "coord-store"))


class TestCoordinatorAdmission:
    def test_grant_racing_the_wait_timeout_returns_its_slot(
            self, tmp_path, monkeypatch):
        # The grant lands just after the wait gives up: the slot must
        # come back, or every later request waits until its 503.
        service = _coordinator_service(tmp_path)
        monkeypatch.setattr(Ticket, "wait", lambda self, timeout=None: False)
        status, document, outcome, _ = service.handle_evaluate(
            CELLS[0], json.dumps(CELLS[0]).encode(), "alice")
        assert (status, outcome) == (503, "overload")
        stats = service.admission.stats()
        assert stats["in_flight"] == 0 and stats["depth"] == 0

    def test_expired_budget_counts_overload_not_shed(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(coordinator_module, "PROXY_SLACK", 0.0)
        service = _coordinator_service(tmp_path)
        held = service.admission.admit("other")  # the only slot
        status, document, outcome, _ = service.handle_evaluate(
            CELLS[0], json.dumps(CELLS[0]).encode(), "alice")
        assert (status, outcome) == (503, "overload")
        assert document["kind"] == "overload"
        assert service.counters["overload_total"] == 1
        assert service.counters["shed_total"] == 0
        stats = service.admission.stats()
        assert stats["in_flight"] == 1 and stats["depth"] == 0
        assert stats["tenants"]["alice"] == {
            "active": 0, "depth": 0, "admitted": 0, "shed": 0}
        service.admission.release(held)
        assert service.admission.stats()["in_flight"] == 0


class TestMonitoringChannel:
    def test_publish_and_recent_feed(self):
        channel = MonitoringChannel(buffer=3)
        accepted = channel.publish("w0", [{"kind": "gauges"},
                                          "not-a-dict",
                                          {"kind": "gauges"}])
        assert accepted == 2
        channel.publish("w1", [{"kind": "gauges"}] * 3)
        recent = channel.recent()
        assert len(recent) == 3  # bounded buffer dropped the oldest
        assert {event["node_id"] for event in recent} == {"w1"}
        assert channel.published_total == 5

    def test_event_publisher_counts_failures(self):
        posted = []
        publisher = EventPublisher(
            snapshot_fn=lambda: {"queue": {"depth": 0}},
            post_fn=posted.append, interval=60.0)
        assert publisher.publish_once()
        assert posted[0]["kind"] == "gauges"
        assert posted[0]["gauges"] == {"queue": {"depth": 0}}

        def explode(event):
            raise OSError("coordinator unreachable")

        failing = EventPublisher(snapshot_fn=dict, post_fn=explode,
                                 interval=60.0)
        assert not failing.publish_once()
        assert failing.failures == 1


class TestArtifactStores:
    def test_local_store_layout_and_roundtrip(self, tmp_path):
        store = LocalStore(str(tmp_path))
        key = "ab" + "c" * 62
        assert store.get("profile", key) is None
        store.put("profile", key, b"payload")
        assert store.get("profile", key) == b"payload"
        # The historical on-disk layout, byte-compatible with caches
        # written before the store interface existed.
        expected = tmp_path / "profile" / "ab" / (key + ".pkl")
        assert expected.read_bytes() == b"payload"
        store.delete("profile", key)
        assert store.get("profile", key) is None

    def test_make_store_selects_from_environment(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv(STORE_URL_ENV, raising=False)
        assert make_store(str(tmp_path)).name == "local"
        monkeypatch.setenv(STORE_URL_ENV, "http://127.0.0.1:1/store")
        store = make_store(str(tmp_path))
        assert store.name == "http"
        assert store.directory == str(tmp_path)

    def test_http_store_degrades_without_a_remote(self, tmp_path):
        # Nothing listens on the remote URL: reads degrade to clean
        # misses and writes to local-only caching — never an exception.
        store = HttpStore("http://127.0.0.1:9/store",
                          LocalStore(str(tmp_path)), timeout=0.2)
        store.put("profile", "aa11", b"payload")
        assert (tmp_path / "profile" / "aa" / "aa11.pkl").exists()
        assert store.get("profile", "aa11") == b"payload"
        assert store.get("profile", "ffee") is None
        counters = store.counters()
        assert counters["remote_errors"] == 2  # failed PUT + failed GET
        assert counters["local_hits"] == 1
        assert counters["remote_stores"] == 0

    def test_read_through_replication_via_coordinator(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        try:
            remote = coordinator.address + "/store"
            writer = HttpStore(remote, LocalStore(str(tmp_path / "w")))
            writer.put("profile", "aa11", b"payload")
            assert writer.counters()["remote_stores"] == 1

            # A fresh node with an empty local tier reads through the
            # coordinator and replicates the blob locally.
            reader = HttpStore(remote, LocalStore(str(tmp_path / "r")))
            assert reader.get("profile", "aa11") == b"payload"
            assert (tmp_path / "r" / "profile" / "aa"
                    / "aa11.pkl").exists()
            assert reader.get("profile", "aa11") == b"payload"
            counters = reader.counters()
            assert counters["remote_hits"] == 1
            assert counters["replications"] == 1
            assert counters["local_hits"] == 1  # second read: no network
            assert reader.get("profile", "ffee") is None
            assert reader.counters()["remote_misses"] == 1

            cluster = coordinator.service.counters
            assert cluster["store_puts"] == 1
            assert cluster["store_gets"] == 1
            assert cluster["store_get_misses"] == 1
        finally:
            coordinator.close()


class TestCoordinatorEdges:
    def test_validation_and_empty_cluster_dispositions(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        try:
            client = ServiceClient(coordinator.address)
            assert client.schema()["role"] == "coordinator"
            assert client.health()["status"] == "degraded"  # no nodes

            status, document = client.evaluate_raw(
                {"program": {"kind": "registry",
                             "value": "no-such-workload"}})
            assert status == 400 and document["kind"] == "validation"

            status, document = client.evaluate_raw(CELLS[0])
            assert status == 503 and document["kind"] == "no-nodes"

            counters = client.metrics()["cluster"]["counters"]
            assert counters["validation_errors"] == 1
            assert counters["no_nodes_total"] == 1
        finally:
            coordinator.close()

    def test_dashboard_renders_html(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        try:
            coordinator.service.register_node("w0", "http://127.0.0.1:1")
            with urllib.request.urlopen(
                    coordinator.address + "/dashboard",
                    timeout=10) as reply:
                assert reply.status == 200
                assert "text/html" in reply.headers["Content-Type"]
                page = reply.read().decode("utf-8")
            assert "w0" in page and "repro cluster" in page
        finally:
            coordinator.close()


class TestCloseWithoutStart:
    """A daemon or node built and closed without ever serving (an error
    or Ctrl-C before ``serve_forever``) closes promptly and frees its
    port: ``HttpDaemon.close`` must not wait for a serving loop that
    never ran."""

    @staticmethod
    def _closes_promptly(node) -> None:
        port = node.port
        closer = threading.Thread(target=node.close, daemon=True)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive(), "close() hung on an unstarted node"
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))

    def test_service_daemon(self):
        self._closes_promptly(ServiceDaemon(ServiceConfig(
            host="127.0.0.1", port=0, workers=0, quiet=True)))

    def test_coordinator_daemon(self, tmp_path):
        self._closes_promptly(CoordinatorDaemon(
            ServiceConfig(host="127.0.0.1", port=0, role="coordinator",
                          quiet=True),
            store_directory=str(tmp_path / "coord-store")))

    def test_worker_node(self, clean_env):
        self._closes_promptly(WorkerNode(ServiceConfig(
            host="127.0.0.1", port=0, workers=0, role="worker",
            coordinator_url="http://127.0.0.1:1", quiet=True)))


class TestClusterEndToEnd:
    def test_two_worker_cluster_matches_standalone_byte_for_byte(
            self, clean_env):
        tmp_path = clean_env

        # Phase 1: the standalone baseline, isolated local cache.
        standalone = ServiceDaemon(ServiceConfig(
            host="127.0.0.1", port=0, workers=0, queue_limit=32,
            request_timeout=120.0, quiet=True)).start()
        try:
            client = ServiceClient(standalone.address)
            baseline = [client.evaluate_raw(cell) for cell in CELLS]
        finally:
            standalone.close()
        assert [status for status, _ in baseline] == [200] * len(CELLS)

        # Phase 2: coordinator + 2 in-process worker nodes, sharing a
        # remote store served by the coordinator.
        coordinator = _coordinator(tmp_path, tenant_limit=4)
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cluster-cache")
        nodes = []
        try:
            for node_id in ("w0", "w1"):
                nodes.append(WorkerNode(ServiceConfig(
                    host="127.0.0.1", port=0, workers=0, queue_limit=32,
                    request_timeout=120.0, role="worker",
                    coordinator_url=coordinator.address,
                    node_id=node_id, heartbeat_interval=0.5,
                    quiet=True)).start())
            registry = coordinator.service.registry
            _wait_until(lambda: registry.healthy() == ["w0", "w1"],
                        30.0, "worker nodes never registered")

            cluster = ServiceClient(coordinator.address, tenant="alice")
            clustered = [cluster.evaluate_raw(cell) for cell in CELLS]
            assert [status for status, _ in clustered] \
                == [200] * len(CELLS)

            # Determinism: a cluster of N workers answers exactly what
            # one standalone daemon answers — same request keys, same
            # metrics, same fingerprints, stale: false everywhere.
            for cell, (_, base), (_, document) in zip(CELLS, baseline,
                                                      clustered):
                assert _canonical(document) == _canonical(base)
                assert document["stale"] is False
                assert document["memoized"] is False
                key = _request_key(document["request"])
                assert key == _request_key(base["request"])
                assert key == _request_key(cell)

            # Routing matches the rendezvous prediction exactly.
            expected = {}
            for cell in CELLS:
                owner = shard_node(_request_key(cell), ["w0", "w1"])
                expected[owner] = expected.get(owner, 0) + 1
            document = cluster.metrics()["cluster"]
            assert document["shard_distribution"] == expected
            counters = document["counters"]
            assert counters["requests_total"] == len(CELLS)
            assert counters["routed_total"] == len(CELLS)
            assert counters["failovers_total"] == 0
            assert counters["store_puts"] > 0  # workers push artifacts
            assert counters["events_received"] >= 2
            assert document["recent_events"]
            admission = document["admission"]
            assert admission["tenants"]["alice"]["admitted"] \
                == len(CELLS)
            assert admission["tenants"]["alice"]["shed"] == 0

            # A repeat is routed to the same owner and memoized there.
            status, again = cluster.evaluate_raw(CELLS[0])
            assert status == 200 and again["memoized"] is True

            # The worker cache ran over the HTTP store: remote misses
            # on first compute, pushes on every artifact written.
            store_counters = get_cache().store_counters()
            assert store_counters["remote_misses"] > 0
            assert store_counters["remote_stores"] > 0
            node_metrics = ServiceClient(nodes[0].address).metrics()
            assert node_metrics["cache"]["store"] == store_counters

            # Cross-node replication: a brand-new node (empty local
            # tier) finds the memoized service result in the
            # coordinator store and replicates it on first touch.
            fresh = HttpStore(coordinator.address + "/store",
                              LocalStore(str(tmp_path / "fresh")))
            blob = fresh.get(RESULT_STAGE, _request_key(CELLS[0]))
            assert blob is not None
            assert fresh.counters()["remote_hits"] == 1
            assert fresh.counters()["replications"] == 1

            health = cluster.health()
            assert health["status"] == "ok"
            assert health["healthy_nodes"] == 2
        finally:
            for node in nodes:
                node.close()
            coordinator.close()


def _spawn_worker_process(coordinator_url: str, node_id: str,
                          cache_dir, delay: float = 0.0):
    """Launch ``repro serve --role worker`` as a real OS process (the
    failover test must SIGKILL it, which in-process threads cannot
    model)."""
    env = dict(os.environ)
    env.pop(STORE_URL_ENV, None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    source_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH",
                                                           "")
    if delay:
        env["REPRO_SERVE_TEST_DELAY"] = str(delay)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--role", "worker",
         "--coordinator", coordinator_url, "--node-id", node_id,
         "--port", "0", "--workers", "0",
         "--heartbeat-interval", "0.2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)


class TestClusterFailover:
    def test_sigkill_mid_request_completes_on_another_node(
            self, clean_env):
        tmp_path = clean_env
        body = CELLS[1]
        expected = evaluate(EvaluateRequest.from_dict(dict(body)))

        coordinator = _coordinator(tmp_path, heartbeat_interval=0.2)
        key = _request_key(body)
        victim, survivor = rank_nodes(key, ["fa", "fb"])
        processes = {}
        try:
            # The shard owner sleeps 8s before evaluating (the test
            # seam), guaranteeing the SIGKILL lands mid-request; the
            # failover target evaluates immediately.
            processes[victim] = _spawn_worker_process(
                coordinator.address, victim,
                tmp_path / "victim-cache", delay=8.0)
            processes[survivor] = _spawn_worker_process(
                coordinator.address, survivor,
                tmp_path / "survivor-cache")
            registry = coordinator.service.registry
            _wait_until(
                lambda: registry.healthy() == sorted([victim, survivor]),
                60.0, "worker node processes never registered")

            results = {}

            def post():
                client = ServiceClient(coordinator.address,
                                       timeout=120.0)
                results["answer"] = client.evaluate_raw(dict(body))

            poster = threading.Thread(target=post)
            poster.start()
            time.sleep(1.5)  # the victim is asleep inside the request
            processes[victim].send_signal(signal.SIGKILL)
            processes[victim].wait(10)
            poster.join(120.0)
            assert "answer" in results, "request never completed"

            status, document = results["answer"]
            assert status == 200
            # The survivor computed the result live: not a stale
            # degradation, and byte-for-byte the single-node answer.
            assert document["stale"] is False
            assert _request_key(document["request"]) == key
            assert document["metrics"] == expected.metrics
            assert document["fingerprints"] == expected.fingerprints

            counters = coordinator.service.counters
            assert counters["failovers_total"] >= 1
            assert counters["routed_total"] == 1
            assert registry.snapshot()[victim]["failed"] >= 1
            _wait_until(lambda: registry.healthy() == [survivor],
                        10.0, "dead node never left the healthy set")
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(10)
            coordinator.close()

    def test_node_restarted_behind_its_url_is_not_a_failover(
            self, clean_env):
        """The coordinator's kept-alive connection to a node that
        restarted on the same port is stale: the transport's one
        silent retry reaches the new node, so nothing fails over."""
        tmp_path = clean_env
        coordinator = _coordinator(tmp_path)
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cluster-cache")

        def node(port):
            return WorkerNode(ServiceConfig(
                host="127.0.0.1", port=port, workers=0, queue_limit=8,
                request_timeout=120.0, role="worker",
                coordinator_url=coordinator.address, node_id="w0",
                heartbeat_interval=0.5, quiet=True)).start()

        first = node(0)
        restarted = None
        try:
            registry = coordinator.service.registry
            _wait_until(lambda: registry.healthy() == ["w0"], 30.0,
                        "worker node never registered")
            cluster = ServiceClient(coordinator.address)
            assert cluster.evaluate_raw(CELLS[0])[0] == 200
            first.close()
            restarted = node(first.port)
            status, document = cluster.evaluate_raw(CELLS[1])
            assert status == 200 and document["memoized"] is False
            counters = coordinator.service.counters
            assert counters["failovers_total"] == 0
            assert counters["routed_total"] == 2
            assert registry.snapshot()["w0"]["failed"] == 0
        finally:
            first.close()
            if restarted is not None:
                restarted.close()
            coordinator.close()
