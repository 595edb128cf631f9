"""Compiled execution: the record compiler and the executors over it.

:mod:`.records` compiles a thread CFG into flat dispatch records once;
:mod:`.untimed` runs them untimed, one thread or many (the ``profile``
stage, ``run_mt_program``, the oracle), :mod:`repro.machine.fast_timing`
runs them timed for the simulator.  :mod:`repro.interp` (one
``ThreadContext.step`` per instruction) is the reference both are held
equal to, off every production path."""

from .records import compile_function
from .untimed import run_compiled

__all__ = ["compile_function", "run_compiled"]
