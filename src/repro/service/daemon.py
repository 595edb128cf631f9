"""JSON-over-HTTP front end of one scheduling node: ``python -m repro
serve`` (and, wrapped by :class:`repro.cluster.WorkerNode`, ``--role
worker``).  Server, framing, error documents and the request log are
:mod:`repro.service.wire`; this module is the node's route table over
one :class:`~repro.service.app.SchedulerService`:

* ``POST /v1/evaluate`` — body: an ``EvaluateRequest`` JSON object;
  answers the ``EvaluateResult`` document, or 400/429/500/504 error
  JSON (see :mod:`repro.service.app` for the request lifecycle);
* ``GET /healthz`` — liveness + worker/queue gauges;
* ``GET /metrics`` — the full observability document;
* ``GET /v1/schema`` — the API schema version this daemon speaks.
"""

from __future__ import annotations

from typing import Dict

from ..api import API_SCHEMA_VERSION
from .app import SchedulerService
from .config import ServiceConfig
from .wire import HttpDaemon, Route, answers


class ServiceDaemon(HttpDaemon):
    """Owns one :class:`SchedulerService` plus its HTTP surface."""

    def __init__(self, config: ServiceConfig):
        service = SchedulerService(config)
        super().__init__(config, service, {
            ("GET", "/healthz"): answers(service.health, "health"),
            ("GET", "/metrics"): answers(service.metrics_document,
                                         "metrics"),
            ("GET", "/v1/schema"): answers(
                lambda: {"schema": API_SCHEMA_VERSION}, "schema"),
            ("POST", "/v1/evaluate"): Route(
                lambda request: service.handle_evaluate(request.body,
                                                        request.tenant)),
        })

    def request_gauges(self) -> Dict[str, object]:
        """A node's request-log lines carry its queue gauges."""
        snap = self.service.pool.snapshot()
        return {"queue_depth": snap["queue_depth"],
                "in_flight": snap["in_flight"]}
