"""Multi-node sharded scheduling: coordinator + worker daemons.

``repro serve`` grows two cluster roles on top of the single-host
service (:mod:`repro.service`):

* ``--role coordinator`` — :class:`~repro.cluster.coordinator.
  CoordinatorDaemon`: accepts ``POST /v1/evaluate`` exactly like a
  standalone daemon but *routes* each request to a registered worker
  node chosen by rendezvous-hashing its ``request_key()``
  (:mod:`~repro.cluster.hashring`), with retry-on-another-node failover
  when a worker dies mid-request.  It also serves the remote artifact
  store (``/store/<stage>/<key>``, see :mod:`repro.pipeline.store`),
  aggregates the monitoring channel into cluster-wide ``/metrics``, and
  renders a dependency-free ``/dashboard`` HTML page.
* ``--role worker --coordinator URL`` — :class:`~repro.cluster.worker.
  WorkerNode`: a full scheduling daemon that registers with the
  coordinator, heartbeats, reads/writes artifacts through the
  coordinator's store (read-through replication into its local disk),
  and publishes queue/latency/cache/health events on the monitoring
  channel.

The shape mirrors agent-coordination systems (workers = agents
publishing to a dedicated monitoring channel; the coordinator = the
dashboard/placement tier) and hierarchical thread schedulers (the
coordinator places requests onto nodes the way placers put threads
onto clusters).  Determinism covenant: a cluster of N workers returns
byte-identical ``EvaluateResult`` documents to a single-node daemon —
the coordinator never rewrites worker responses, and request keys
never depend on tenant, node, or transport.
"""

from .coordinator import CoordinatorDaemon, CoordinatorService
from .hashring import rank_nodes, shard_node
from .monitor import MonitoringChannel
from .registry import NodeInfo, NodeRegistry
from .worker import WorkerNode

__all__ = [
    "CoordinatorDaemon", "CoordinatorService", "MonitoringChannel",
    "NodeInfo", "NodeRegistry", "WorkerNode",
    "rank_nodes", "shard_node",
]
