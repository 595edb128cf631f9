"""The benchmark suite: the papers' evaluated functions as IR kernels."""

from .common import (Workload, WorkloadInputs, all_workloads,
                     benchmark_table, get_workload, register,
                     registry_name, unknown_workload_message,
                     workload_names)

__all__ = [
    "Workload", "WorkloadInputs", "all_workloads", "benchmark_table",
    "get_workload", "register", "registry_name",
    "unknown_workload_message", "workload_names",
]
