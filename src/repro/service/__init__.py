"""``repro.service`` — scheduling as a service (``python -m repro
serve``).

A long-running JSON-over-HTTP daemon that multiplexes many clients over
the shared staged pipeline: requests are admitted through a bounded
queue (429 shedding under overload), dispatched to a supervised
multiprocess worker pool (crash respawn, bounded retry with backoff,
per-request timeout with worker cancellation), memoized by
content-derived request keys, and degraded gracefully to stale cached
artifacts when a fresh evaluation times out.  ``/healthz`` and
``/metrics`` expose queue depth, in-flight count, per-stage latency
histograms, and cache traffic.

Everything HTTP — the server, framing, error documents, the request
log — is :mod:`repro.service.wire`, shared with the cluster coordinator.
The service consumes the pipeline exclusively through the
:mod:`repro.api` facade; see ``docs/architecture.md`` §12 and
``docs/api.md`` for the wire schemas.
"""

from .admission import AdmissionQueue, DEFAULT_TENANT, QueueFullError
from .app import RESULT_STAGE, SchedulerService
from .config import ROLES, ServiceConfig
from .daemon import ServiceDaemon
from .metrics import METRICS_SCHEMA, ServiceMetrics
from .workers import (InlineWorkerPool, ProcessWorkerPool, Task,
                      make_pool)

__all__ = [
    "AdmissionQueue", "DEFAULT_TENANT", "QueueFullError",
    "SchedulerService", "RESULT_STAGE",
    "ServiceConfig", "ROLES", "ServiceDaemon",
    "ServiceMetrics", "METRICS_SCHEMA",
    "InlineWorkerPool", "ProcessWorkerPool", "Task", "make_pool",
]
