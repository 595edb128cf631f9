"""Worker nodes: full scheduling daemons that join a coordinator.

``repro serve --role worker --coordinator URL`` boots the ordinary
single-host daemon (:class:`repro.service.daemon.ServiceDaemon` — same
pool, admission, memo, metrics) and wires it into the cluster:

* the process-wide artifact cache is rebuilt over the coordinator's
  remote store (``REPRO_STORE_URL`` → :class:`repro.pipeline.store.
  HttpStore`), exported *before* the worker pool forks so every child
  process reads through the coordinator too — a cell computed on any
  node replicates into this node's local tier on first touch;
* a registration + heartbeat loop announces the node (stable
  ``node_id``, defaulting to ``host:port``) and keeps it in the
  coordinator's healthy set; an unknown-node heartbeat answer (e.g.
  after a coordinator restart) triggers re-registration;
* an :class:`~repro.cluster.monitor.EventPublisher` thread publishes
  the node's gauge document on the monitoring channel each period.

All cluster plumbing is best-effort: an unreachable coordinator never
stops the node from answering direct ``/v1/evaluate`` traffic.  The
node's own HTTP surface is the wrapped daemon's
(:mod:`repro.service.wire`); its calls *to* the coordinator go through
the shared client transport, :func:`repro.api.http_request`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

from ..api import STORE_URL_ENV, configure_cache, http_request
from ..service.config import ServiceConfig
from ..service.daemon import ServiceDaemon
from .monitor import EventPublisher

#: Registration retries before giving up at startup (the heartbeat
#: loop keeps retrying after that, so a late coordinator still works).
REGISTER_ATTEMPTS = 30
REGISTER_BACKOFF = 0.2


class WorkerNode:
    """One cluster member: daemon + store wiring + heartbeats."""

    def __init__(self, config: ServiceConfig,
                 store_url: Optional[str] = None):
        config.validate()
        self.config = config
        self.coordinator_url = (config.coordinator_url or "").rstrip("/")
        # Export the remote store *before* the daemon constructs its
        # pool: forked children inherit the environment, and the
        # ensure_cache() of their first request picks the URL up there.
        os.environ[STORE_URL_ENV] = (store_url
                                     or self.coordinator_url + "/store")
        configure_cache()
        self.daemon = ServiceDaemon(config)
        self.node_id = config.node_id or "%s:%d" % (config.host,
                                                    self.daemon.port)
        self.registered = False
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self.publisher = EventPublisher(
            snapshot_fn=self._gauges,
            post_fn=self._post_event,
            interval=config.heartbeat_interval)

    # -- addresses ---------------------------------------------------------

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def address(self) -> str:
        return self.daemon.address

    # -- coordinator RPC ---------------------------------------------------

    def _post(self, path: str, document: Dict[str, object],
              timeout: float = 5.0) -> Dict[str, object]:
        status, raw = http_request(
            "POST", self.coordinator_url + path,
            json.dumps(document).encode("utf-8"),
            {"Content-Type": "application/json"}, timeout)
        if status != 200:
            raise OSError("coordinator answered %d to %s"
                          % (status, path))
        return json.loads(raw.decode("utf-8"))

    def register(self, attempts: int = REGISTER_ATTEMPTS) -> bool:
        """Announce this node; retries cover a coordinator that is
        still binding its socket."""
        document = {"node_id": self.node_id, "url": self.address}
        for attempt in range(attempts):
            try:
                reply = self._post("/cluster/register", document)
            except Exception:
                if self._stop.wait(REGISTER_BACKOFF * (attempt + 1)):
                    return False
                continue
            self.registered = bool(reply.get("ok"))
            if self.registered:
                self.daemon.log_event({"event": "registered",
                                       "node_id": self.node_id,
                                       "coordinator":
                                           self.coordinator_url})
                return True
        return False

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            try:
                reply = self._post("/cluster/heartbeat",
                                   {"node_id": self.node_id})
                if not reply.get("ok"):
                    # Coordinator restarted and lost the registry.
                    self.register(attempts=1)
            except Exception:
                continue  # next period retries; the node keeps serving

    # -- monitoring channel ------------------------------------------------

    def _gauges(self) -> Dict[str, object]:
        metrics = self.daemon.service.metrics_document()
        return {"queue": metrics.get("queue", {}),
                "counters": metrics.get("counters", {}),
                "cache": metrics.get("cache", {}),
                "tenants": metrics.get("tenants", {}),
                "request_latency": metrics.get("request_latency", {})}

    def _post_event(self, event: Dict[str, object]) -> None:
        self._post("/cluster/events",
                   {"node_id": self.node_id, "events": [event]})

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerNode":
        """Serve + join the cluster on background threads (tests)."""
        self.daemon.start()
        self._join_cluster()
        return self

    def serve_forever(self) -> None:
        """CLI path: join the cluster, then serve on this thread."""
        self._join_cluster()
        self.daemon.serve_forever()

    def _join_cluster(self) -> None:
        self.register()
        self.publisher.publish_once()
        self.publisher.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True,
            name="repro-cluster-heartbeat")
        self._heartbeat_thread.start()

    def close(self) -> None:
        self._stop.set()
        self.publisher.stop()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(2.0)
        self.daemon.close()
