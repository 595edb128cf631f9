"""Compiled execution: the record compiler and the executors over it.

:mod:`.records` compiles a thread CFG into flat dispatch records once;
:mod:`.untimed` runs them untimed, one thread (:func:`run_function`) or
many, :mod:`repro.machine.fast_timing` timed.  Their oracles,
:mod:`repro.interp.step_oracle` and :mod:`repro.machine.timing_oracle`,
are off every production path."""

from .records import compile_function
from .untimed import run_function

__all__ = ["compile_function", "run_function"]
