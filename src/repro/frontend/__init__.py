"""Python-to-IR frontend: compile a documented Python subset into the
textual mini-IR, verified and differentially fuzzed against CPython.

Public surface::

    from repro.frontend import compile_source, compile_function
    program = compile_source(open("kernel.py").read())
    program.function          # verified repro.ir Function

See ``docs/frontend.md`` for the supported subset; ``python -m repro
fuzz`` (:mod:`repro.check.fuzz`) checks the lowering against CPython.
"""

from .compiler import (CompiledProgram, ParamSpec, compile_function,
                       compile_source, python_callable, random_inputs)
from .errors import FrontendError

__all__ = [
    "CompiledProgram",
    "ParamSpec",
    "FrontendError",
    "compile_function",
    "compile_source",
    "python_callable",
    "random_inputs",
]
