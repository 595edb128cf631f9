"""The CMP machine model: topology, placement, functional MT simulation,
and the timing model.

The timing model exported here (:mod:`.timing`) is the line-for-line
reference, the oracle.  Production simulations — traced ones included —
run :mod:`.fast_timing`, held bit-identical to it; the pipeline chooses
between them (:mod:`repro.pipeline.stages`), callers do not."""

from ..executor.untimed import DeadlockError, MTExecutionLimitExceeded
from .cache import CacheLevel, MemoryHierarchy
from .config import DEFAULT_CONFIG, CacheConfig, MachineConfig, config_table
from .functional import FifoQueues, MTRunResult, run_mt_program
from .placement import (PLACERS, Placement, PlacementError,
                        affinity_placement, identity_placement,
                        make_placement, thread_affinity)
from .timing import (TimedResult, queue_crossing_penalties, simulate_program,
                     simulate_single, simulate_threads)
from .topology import (TOPOLOGIES, Topology, TopologyError, get_topology,
                       topology_names)

__all__ = [
    "CacheLevel", "MemoryHierarchy", "DEFAULT_CONFIG", "CacheConfig",
    "MachineConfig", "config_table", "DeadlockError", "FifoQueues",
    "MTExecutionLimitExceeded", "MTRunResult", "run_mt_program",
    "TimedResult", "simulate_program", "simulate_single", "simulate_threads",
    "queue_crossing_penalties",
    "TOPOLOGIES", "Topology", "TopologyError", "get_topology",
    "topology_names",
    "PLACERS", "Placement", "PlacementError", "make_placement",
    "identity_placement", "affinity_placement", "thread_affinity",
]
