"""Session registry for inline programs (``ProgramSpec`` ir/source).

Inline programs arrive as text — IR through ``--ir FILE.ir`` or the
serve JSON schema, Python source through ``--source FILE.py`` or the
frontend — and materialize here as ordinary :class:`Workload` objects
under content-hashed names (``inline-py-<digest>`` /
``inline-ir-<digest>``).  :func:`repro.workloads.get_workload` consults
this registry after the static one, so the whole pipeline (stages,
matrix cells, artifact cache, service workers) treats inline programs
exactly like registered workloads.  The registry is per-process: a
request's ``validate()`` materializes its program, which covers both
the parent process and ``repro serve`` workers (each worker re-validates
the request dict it receives).

Inputs are deterministic in the content hash and the scale, so repeated
evaluations — and the single- vs multi-threaded differential check —
see identical data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.cfg import Function
from .common import Workload, WorkloadInputs, rng_for

_INLINE: Dict[str, Workload] = {}


def lookup_inline(name: str) -> Optional[Workload]:
    return _INLINE.get(name)


def inline_names() -> List[str]:
    return sorted(_INLINE)


def materialize_program(spec) -> Workload:
    """Materialize a :class:`~repro.api.types.ProgramSpec` (kind ``ir``
    or ``source``) into the session registry; idempotent per content.
    Raises :class:`~repro.api.types.RequestValidationError` when the
    program does not compile, parse, or verify."""
    from ..api.types import RequestValidationError
    name = spec.workload_name()
    existing = _INLINE.get(name)
    if existing is not None:
        return existing
    if spec.kind == "source":
        workload = source_workload(name, spec.value, spec.name)
    elif spec.kind == "ir":
        workload = _ir_workload(name, spec.value)
    else:
        raise RequestValidationError(
            "program kind %r does not materialize" % (spec.kind,))
    _INLINE[name] = workload
    return workload


def _reject(error) -> "Exception":
    from ..api.types import RequestValidationError
    return RequestValidationError("invalid inline program: %s" % error)


# ---------------------------------------------------------------------------
# Python-source programs (via repro.frontend).

class _SourceProgram:
    """The build/make_inputs/reference callables of a
    frontend-compiled program.  ``program`` is the compile that
    validated the source: it answers every question about the program's
    signature, so only :meth:`build` compiles again.  Pool workers are
    sent cells — workload *names* — never a :class:`Workload`."""

    def __init__(self, workload_name: str, text: str,
                 function_name: Optional[str],
                 scale_args: Optional[Dict[str, Dict[str, int]]],
                 program):
        self.workload_name = workload_name
        self.text = text
        self.function_name = function_name
        self.scale_args = scale_args or {}
        self.program = program

    def build(self) -> Function:
        # A fresh Function each time: pipeline stages normalize and
        # annotate in place, so builds must not share structure.
        from ..frontend import compile_source
        return compile_source(self.text, name=self.function_name).function

    def make_inputs(self, scale: str) -> WorkloadInputs:
        from ..frontend import random_inputs
        args, arrays = random_inputs(
            self.program, rng_for(self.workload_name, scale))
        args.update(self.scale_args.get(scale, {}))
        return WorkloadInputs(args=args, memory=arrays)

    def reference(self, inputs: WorkloadInputs) -> Dict[str, object]:
        from ..frontend import python_callable
        program = self.program
        fn = python_callable(self.text, name=program.name)
        arrays = {k: list(v) for k, v in inputs.memory.items()}
        ordered = [arrays[p.name] if p.kind == "array"
                   else inputs.args[p.name] for p in program.params]
        result = fn(*ordered)
        if program.n_returns == 0:
            values = ()
        elif not isinstance(result, tuple):
            values = (result,)
        else:
            values = result
        out: Dict[str, object] = {
            "__ret%d" % index: value
            for index, value in enumerate(values)}
        out.update(arrays)
        return out


def source_workload(name: str, text: str,
                    function_name: Optional[str] = None,
                    benchmark: str = "inline", suite: str = "inline",
                    exec_percent: int = 100,
                    description: str = "inline Python program "
                                       "(repro.frontend)",
                    scale_args: Optional[Dict[str, Dict[str, int]]] = None,
                    ) -> Workload:
    """A :class:`Workload` whose kernel is frontend-compiled Python
    source and whose oracle is CPython itself.  Shared by inline
    ``--source`` programs and the registered ``synthetic`` family.

    ``scale_args`` pins named scalar parameters per scale (overriding
    the seeded random draw), so registered kernels can make ``ref``
    runs strictly larger than ``train`` via an iteration-count
    parameter."""
    from ..frontend import FrontendError, compile_source

    try:
        program = compile_source(text, name=function_name)
    except FrontendError as error:
        raise _reject(error)

    factory = _SourceProgram(name, text, function_name, scale_args,
                             program)
    return Workload(
        name=name, benchmark=benchmark, function_name=program.name,
        exec_percent=exec_percent, suite=suite, build=factory.build,
        make_inputs=factory.make_inputs, reference=factory.reference,
        output_objects=tuple(p.name for p in program.array_params),
        description=description)


# ---------------------------------------------------------------------------
# Inline textual-IR programs.

class _IrProgram:
    """Picklable counterpart of :class:`_SourceProgram` for raw textual
    IR; the single-threaded reference interpreter *is* the oracle —
    there is no higher-level source of truth."""

    def __init__(self, workload_name: str, text: str,
                 scalar_params: List[str], mem_sizes: Dict[str, int]):
        self.workload_name = workload_name
        self.text = text
        self.scalar_params = scalar_params
        self.mem_sizes = mem_sizes

    def build(self) -> Function:
        from ..ir.parser import parse_function
        return parse_function(self.text)

    def make_inputs(self, scale: str) -> WorkloadInputs:
        rng = rng_for(self.workload_name, scale)
        return WorkloadInputs(
            args={param: rng.randint(-50, 50)
                  for param in self.scalar_params},
            memory={obj: [rng.randint(-50, 50) for _ in range(size)]
                    for obj, size in sorted(self.mem_sizes.items())})

    def reference(self, inputs: WorkloadInputs) -> Dict[str, object]:
        from ..interp.step_oracle import run_step_oracle
        run = run_step_oracle(self.build(), dict(inputs.args),
                              initial_memory={k: list(v) for k, v
                                              in inputs.memory.items()})
        out: Dict[str, object] = dict(run.live_outs)
        for obj in self.mem_sizes:
            out[obj] = run.mem_object(obj)
        return out


def _ir_workload(name: str, text: str) -> Workload:
    from ..ir.builder import BuildError
    from ..ir.parser import ParseError, parse_function
    from ..ir.verify import VerificationError

    try:
        function = parse_function(text)
    except (ParseError, BuildError, VerificationError) as error:
        raise _reject(error)

    scalar_params = [param for param in function.params
                     if param not in function.pointer_params]
    mem_sizes = {obj.name: obj.size
                 for obj in function.mem_objects.values()}
    factory = _IrProgram(name, text, scalar_params, mem_sizes)
    return Workload(
        name=name, benchmark="inline", function_name=function.name,
        exec_percent=100, suite="inline", build=factory.build,
        make_inputs=factory.make_inputs, reference=factory.reference,
        output_objects=tuple(sorted(mem_sizes)),
        description="inline IR program")
