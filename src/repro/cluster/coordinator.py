"""The coordinator daemon: shard, proxy, failover, aggregate.

``repro serve --role coordinator`` accepts the exact request surface of
a standalone daemon (``POST /v1/evaluate``) but owns no worker pool:
each admitted request is routed to the worker node that rendezvous-
hashing ranks highest for its ``request_key()`` and the node's response
bytes are passed through **verbatim** — the coordinator never re-shapes
a result document, which is what makes cluster results byte-identical
to single-node serve.  The request travels the same way: the node is
sent the body bytes the client sent, not a re-encoding.  A
connection-level failure (the node died mid-request) marks the node,
walks to the next node in the same deterministic ranking, and counts a
failover; an HTTP *error document* from a live node (400/429/504...)
is a real answer and passes through.  A kept-alive connection the node
closed while idle (it restarted, or timed the connection out) is no
failure: the transport retries it once on a fresh connection.

:class:`CoordinatorDaemon` is a :class:`repro.service.wire.HttpDaemon`
— the server, framing, error documents and request log are the ones a
node uses — whose route table adds, beyond ``/healthz``, ``/metrics``,
``/v1/schema`` and ``/v1/evaluate``:

* ``POST /cluster/register`` / ``/cluster/heartbeat``, ``GET
  /cluster/nodes`` — membership (:mod:`~repro.cluster.registry`);
* ``POST /cluster/events`` — the monitoring channel ingest
  (:mod:`~repro.cluster.monitor`);
* ``GET``/``PUT /store/<stage>/<key>`` — the remote artifact store
  workers read through (:mod:`repro.pipeline.store`);
* ``GET /dashboard`` — the ``/metrics`` aggregate (nodes, shard
  distribution, tenant queues, store traffic, recent events) as
  server-rendered HTML.

Admission is the node's tenant gate (:mod:`repro.service.admission`)
given the proxy budget, so the coordinator *queues* where a node sheds:
a flooding tenant fills only its own FIFO while the others keep their
round-robin share of dispatch slots.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Dict, Optional, Tuple

from ..api import (API_SCHEMA_VERSION, LocalStore, default_cache_dir,
                   http_request)
from ..service.admission import (AdmissionQueue, DEFAULT_TENANT,
                                 QueueFullError)
from ..service.config import ServiceConfig
from ..service.wire import (HttpDaemon, Reply, Request, Route, answers,
                            intake, not_found)
from .dashboard import render_dashboard
from .hashring import rank_nodes
from .monitor import MonitoringChannel
from .registry import MISSED_HEARTBEATS, NodeRegistry

METRICS_SCHEMA = "repro.cluster.metrics/v1"

#: Allowed characters in store stage/key path segments (anything else
#: is a 400 — keys are hex digests, stages are short slugs).
_SEGMENT = re.compile(r"^[A-Za-z0-9._-]+$")

#: Extra seconds on top of the per-request budget when proxying to a
#: node: the node itself degrades (stale/504) at ``request_timeout``,
#: so the coordinator only hits this on a truly wedged connection.
PROXY_SLACK = 10.0

COUNTERS = (
    "requests_total", "routed_total", "failovers_total",
    "proxy_errors_total", "no_nodes_total", "shed_total", "overload_total",
    "validation_errors", "store_gets", "store_get_misses", "store_puts",
    "events_received",
)


class CoordinatorService:
    """HTTP-agnostic coordinator core: admission + routing + aggregate."""

    def __init__(self, config: ServiceConfig,
                 store_directory: Optional[str] = None):
        self.config = config.validate()
        self.registry = NodeRegistry(
            heartbeat_timeout=MISSED_HEARTBEATS
            * config.heartbeat_interval)
        self.admission = AdmissionQueue(config.queue_limit,
                                        config.tenant_limit)
        self.channel = MonitoringChannel()
        self.store = LocalStore(store_directory or default_cache_dir())
        self.started_at = time.time()
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._shards: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def close(self) -> None:
        """Nothing to release: the coordinator owns no worker pool."""

    # -- membership --------------------------------------------------------

    def register_node(self, node_id: str, url: str) -> Dict[str, object]:
        self.registry.register(node_id, url)
        return {"ok": True, "node_id": node_id,
                "heartbeat_interval": self.config.heartbeat_interval}

    def ingest_events(self, node_id: str, events) -> Dict[str, object]:
        if not isinstance(events, list):
            events = []
        accepted = self.channel.publish(node_id, events)
        self.incr("events_received", accepted)
        known = True
        for event in events:
            if isinstance(event, dict) and event.get("kind") == "gauges":
                gauges = event.get("gauges")
                if isinstance(gauges, dict):
                    known = self.registry.update_gauges(node_id, gauges)
        return {"ok": True, "accepted": accepted, "known": known}

    # -- request routing ---------------------------------------------------

    def handle_evaluate(self, body: object, raw: bytes,
                        tenant: str = DEFAULT_TENANT) -> Reply:
        """Admit, shard, and proxy one evaluation request: ``body`` is
        the decoded document (validated and keyed here), ``raw`` the
        same body as the client sent it (what the node is sent).
        Returns ``(status, response_bytes, outcome, request_key)`` —
        response bytes are the owning node's answer verbatim."""
        _request, key, rejection = intake(body, self.incr)
        if rejection is not None:
            return rejection
        try:
            ticket = self.admission.admit(
                tenant, self.config.request_timeout + PROXY_SLACK)
        except QueueFullError as error:
            self.incr("shed_total")
            return error.reply(key)
        if ticket is None:
            self.incr("overload_total")
            return (503, {"error": "admission wait timed out",
                          "kind": "overload", "tenant": tenant},
                    "overload", key)
        try:
            return self._route(raw, tenant, key)
        finally:
            self.admission.release(ticket)

    def _route(self, payload: bytes, tenant: str, key: str) -> Reply:
        nodes = self.registry.healthy()
        if not nodes:
            self.incr("no_nodes_total")
            return (503, {"error": "no healthy worker nodes",
                          "kind": "no-nodes"}, "no-nodes", key)
        attempts = 0
        for node_id in rank_nodes(key, nodes):
            url = self.registry.url_of(node_id)
            if url is None:
                continue
            attempts += 1
            try:
                # Any status line from a live node is an answer
                # (400/429/504...), not a transport failure.
                status, answer = http_request(
                    "POST", url + "/v1/evaluate", payload,
                    {"Content-Type": "application/json",
                     "X-Repro-Tenant": tenant},
                    self.config.request_timeout + PROXY_SLACK)
            except Exception:
                # Connection-level failure: the node is gone or wedged
                # — mark it and fail over along the same ranking.
                self.registry.mark_dispatch(node_id, ok=False)
                self.incr("failovers_total")
                continue
            self.registry.mark_dispatch(node_id, ok=True)
            self.incr("routed_total")
            with self._lock:
                self._shards[node_id] = self._shards.get(node_id, 0) + 1
            outcome = "ok" if status == 200 else "node-%d" % status
            return status, answer, outcome, key
        self.incr("proxy_errors_total")
        return (503, {"error": "all %d candidate nodes failed" % attempts,
                      "kind": "failover-exhausted"},
                "failover-exhausted", key)

    # -- store -------------------------------------------------------------

    def store_get(self, stage: str, key: str) -> Optional[bytes]:
        blob = self.store.get(stage, key)
        if blob is None:
            self.incr("store_get_misses")
        else:
            self.incr("store_gets")
        return blob

    def store_put(self, stage: str, key: str, blob: bytes) -> None:
        self.store.put(stage, key, blob)
        self.incr("store_puts")

    # -- observability -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        nodes = self.registry.snapshot()
        healthy = [n for n, doc in nodes.items() if doc["healthy"]]
        return {"status": "ok" if healthy else "degraded",
                "role": "coordinator",
                "nodes": len(nodes), "healthy_nodes": len(healthy),
                "uptime_seconds": time.time() - self.started_at}

    def metrics_document(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self.counters)
            shards = dict(self._shards)
        return {
            "schema": METRICS_SCHEMA,
            "role": "coordinator",
            "uptime_seconds": time.time() - self.started_at,
            "cluster": {
                "nodes": self.registry.snapshot(),
                "healthy_nodes": self.registry.healthy(),
                "shard_distribution": shards,
                "counters": counters,
                "admission": self.admission.stats(),
                "monitoring": {
                    "published_total": self.channel.published_total},
                "recent_events": self.channel.recent(20),
            },
        }


def _store_segments(path: str) -> Optional[Tuple[str, str]]:
    parts = path.split("/")  # ['', 'store', stage, key]
    if (len(parts) != 4 or not _SEGMENT.match(parts[2])
            or not _SEGMENT.match(parts[3])):
        return None
    return parts[2], parts[3]


def _fields(request: Request) -> Dict[str, object]:
    """The JSON-object body (``{}`` for any other JSON value)."""
    return request.body if isinstance(request.body, dict) else {}


def _text(fields: Dict[str, object], name: str) -> str:
    return str(fields.get(name, "")).strip()


class CoordinatorDaemon(HttpDaemon):
    """HTTP surface of one :class:`CoordinatorService`."""

    server_name = "repro-coordinator"

    def __init__(self, config: ServiceConfig,
                 store_directory: Optional[str] = None):
        service = CoordinatorService(config, store_directory)
        super().__init__(config, service, {
            ("GET", "/healthz"): answers(service.health, "health"),
            ("GET", "/metrics"): answers(service.metrics_document,
                                         "metrics"),
            ("GET", "/v1/schema"): answers(
                lambda: {"schema": API_SCHEMA_VERSION,
                         "role": "coordinator"}, "schema"),
            ("POST", "/v1/evaluate"): Route(
                lambda request: service.handle_evaluate(
                    request.body, request.raw, request.tenant)),
            ("GET", "/dashboard"): answers(
                lambda: render_dashboard(
                    service.metrics_document()).encode("utf-8"),
                "dashboard", "text/html; charset=utf-8"),
            ("GET", "/cluster/nodes"): answers(
                lambda: {"nodes": service.registry.snapshot()}, "nodes"),
            ("POST", "/cluster/register"): Route(self._register),
            ("POST", "/cluster/heartbeat"): Route(self._heartbeat),
            ("POST", "/cluster/events"): Route(self._events),
            ("GET", "/store/"): Route(self._store_get,
                                      "application/octet-stream"),
            ("PUT", "/store/"): Route(self._store_put),
        })

    def _register(self, request: Request) -> Reply:
        fields = _fields(request)
        node_id, url = _text(fields, "node_id"), _text(fields, "url")
        if not node_id or not url:
            return (400, {"error": "node_id and url required",
                          "kind": "validation"}, "register-invalid", None)
        return (200, self.service.register_node(node_id, url),
                "register", None)

    def _heartbeat(self, request: Request) -> Reply:
        node_id = _text(_fields(request), "node_id")
        known = self.service.registry.heartbeat(node_id)
        return 200, {"ok": known, "node_id": node_id}, "heartbeat", None

    def _events(self, request: Request) -> Reply:
        fields = _fields(request)
        return (200, self.service.ingest_events(
            _text(fields, "node_id"), fields.get("events")),
            "events", None)

    def _store_get(self, request: Request) -> Reply:
        segments = _store_segments(request.path)
        if segments is None:
            return (400, {"error": "bad store path", "kind": "store"},
                    "store-bad-path", None)
        blob = self.service.store_get(*segments)
        if blob is None:
            return (404, {"error": "no such artifact", "kind": "store"},
                    "store-miss", None)
        return 200, blob, "store-hit", None

    def _store_put(self, request: Request) -> Reply:
        segments = _store_segments(request.path)
        if segments is None:
            return not_found(request.path)
        self.service.store_put(*segments, request.raw)
        return 200, {"ok": True}, "store-put", None
