"""Functional execution: machine state, profiles, and ``run_function``
(:mod:`repro.executor`'s).  :mod:`.step_oracle` is its oracle."""

from .profile import EdgeProfile, static_profile
from .state import Memory, MemoryError_, bind_params, make_memory
from ..executor.records import TrapError
from ..executor.untimed import ExecutionLimitExceeded, RunResult, run_function

__all__ = [
    "TrapError", "ExecutionLimitExceeded", "RunResult", "run_function",
    "EdgeProfile", "static_profile", "Memory", "MemoryError_", "bind_params",
    "make_memory",
]
