"""The CMP machine model: topology, placement, functional MT simulation,
and the timing model.

``simulate_program`` / ``simulate_single`` run the production core
(:mod:`.fast_timing`), traced or not; :mod:`.timing_oracle` is its
oracle."""

from ..executor.untimed import DeadlockError, MTExecutionLimitExceeded
from .cache import CacheLevel, MemoryHierarchy
from .config import DEFAULT_CONFIG, CacheConfig, MachineConfig, config_table
from .fast_timing import simulate_program, simulate_single
from .functional import FifoQueues, MTRunResult, run_mt_program
from .placement import (PLACERS, Placement, PlacementError,
                        affinity_placement, identity_placement,
                        make_placement, thread_affinity)
from .timing import TimedResult, queue_crossing_penalties
from .topology import (TOPOLOGIES, Topology, TopologyError, get_topology,
                       topology_names)

__all__ = [
    "CacheLevel", "MemoryHierarchy", "DEFAULT_CONFIG", "CacheConfig",
    "MachineConfig", "config_table", "DeadlockError", "FifoQueues",
    "MTExecutionLimitExceeded", "MTRunResult", "run_mt_program",
    "TimedResult", "simulate_program", "simulate_single",
    "queue_crossing_penalties",
    "TOPOLOGIES", "Topology", "TopologyError", "get_topology",
    "topology_names",
    "PLACERS", "Placement", "PlacementError", "make_placement",
    "identity_placement", "affinity_placement", "thread_affinity",
]
