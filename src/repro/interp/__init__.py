"""Functional execution: interpreter, thread contexts, profiles."""

from .context import StepResult, StepStatus, ThreadContext, TrapError
from .interpreter import ExecutionLimitExceeded, RunResult, run_function
from .profile import EdgeProfile, static_profile
from .state import Memory, MemoryError_, bind_params, make_memory

__all__ = [
    "StepResult", "StepStatus", "ThreadContext", "TrapError",
    "ExecutionLimitExceeded", "RunResult", "run_function", "EdgeProfile",
    "static_profile", "Memory", "MemoryError_", "bind_params", "make_memory",
]
