"""AST-based compiler from a Python subset into the mini-IR.

The accepted subset (documented in ``docs/frontend.md``):

* one function with annotated parameters — ``int`` / ``float`` / ``bool``
  scalars and flat arrays declared with string annotations like
  ``"int[64]"`` or ``"float[32]"`` (each array becomes a memory object
  plus a pointer parameter);
* assignments (including augmented and subscript targets), ``if`` /
  ``elif`` / ``else``, ``while``, ``for i in range(...)``, ``break`` /
  ``continue`` / ``return`` / ``pass``;
* arithmetic (``+ - * / // %``), bitwise/shift ops on ints, chained and
  boolean comparisons with Python's short-circuit behaviour, ternary
  expressions, and the intrinsics ``abs`` / ``min`` / ``max`` / ``int``
  / ``float`` / ``bool`` / ``math.sqrt``.

The lowering is *semantics-exact* against CPython on the values the
reference interpreter can observe: opcode flavours are chosen so that
every reachable value compares ``==`` to what the source function
computes (the differential fuzzer in :mod:`repro.check.fuzz` holds
this to account).  Notably ``//`` and ``%`` emit a truncating-to-floor
fix-up sequence, ``int()`` always lowers to ``ftoi`` (exact on ints),
and negative array indices wrap exactly like Python's.

Everything unsupported raises :class:`FrontendError` with the source
line/column.  Every emitted function goes through the IR verifier.
"""

from __future__ import annotations

import ast
import inspect
import random
import re
import textwrap
from typing import Dict, List, Optional, Tuple

from ..ir.builder import FunctionBuilder
from ..ir.cfg import Function
from .errors import FrontendError

_ARRAY_ANNOTATION = re.compile(r"^\s*(int|float)\s*\[\s*([1-9]\d*)\s*\]\s*$")

#: Registers/labels the compiler reserves for itself.
_RESERVED_PREFIXES = ("__", "p__")

_INT = "int"
_FLOAT = "float"


class ParamSpec:
    """One declared parameter: a typed scalar or a flat array."""

    def __init__(self, name: str, kind: str, type_: str, size: int = 0,
                 declared: str = ""):
        self.name = name
        self.kind = kind        # "scalar" | "array"
        self.type = type_       # "int" | "float" (bool narrows to int)
        self.size = size        # array length (0 for scalars)
        self.declared = declared or type_   # annotation as written

    def __repr__(self) -> str:  # pragma: no cover
        if self.kind == "array":
            return "<ParamSpec %s: %s[%d]>" % (self.name, self.type,
                                               self.size)
        return "<ParamSpec %s: %s>" % (self.name, self.declared)


class CompiledProgram:
    """Result of compiling one Python function to IR."""

    def __init__(self, function: Function, source: str, name: str,
                 params: List[ParamSpec], n_returns: int):
        self.function = function
        self.source = source
        self.name = name
        self.params = params
        self.n_returns = n_returns

    @property
    def scalar_params(self) -> List[ParamSpec]:
        return [p for p in self.params if p.kind == "scalar"]

    @property
    def array_params(self) -> List[ParamSpec]:
        return [p for p in self.params if p.kind == "array"]

    def __repr__(self) -> str:  # pragma: no cover
        return "<CompiledProgram %s (%d params, %d returns)>" % (
            self.name, len(self.params), self.n_returns)


def compile_source(source: str, name: Optional[str] = None,
                   filename: str = "<source>") -> CompiledProgram:
    """Compile Python ``source`` (a module containing the target function)
    to a verified IR function.  ``name`` selects the function; when
    omitted the first top-level ``def`` is used."""
    try:
        module = ast.parse(source, filename=filename)
    except SyntaxError as error:
        raise FrontendError("invalid Python: %s" % error.msg,
                            line=error.lineno,
                            col=(error.offset or 1) - 1,
                            filename=filename)
    target: Optional[ast.FunctionDef] = None
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            if name is None or node.name == name:
                target = node
                break
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        elif (isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Constant)
              and isinstance(node.value.value, str)):
            continue  # module docstring
        else:
            raise FrontendError(
                "unsupported top-level statement (only imports and one "
                "function definition are allowed)",
                line=node.lineno, col=node.col_offset, filename=filename)
    if target is None:
        raise FrontendError(
            "no function definition%s found"
            % ("" if name is None else " named %r" % name),
            line=1, col=0, filename=filename)
    lowering = _Lowering(target, source, filename)
    return lowering.compile()


def compile_function(fn) -> CompiledProgram:
    """Compile a live Python function object via its source."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as error:
        raise FrontendError("cannot retrieve source for %r: %s"
                            % (fn, error))
    return compile_source(source, name=fn.__name__,
                          filename=getattr(fn, "__module__", "<function>"))


def python_callable(source: str, name: Optional[str] = None):
    """Execute ``source`` under a restricted namespace and return the
    target function — the CPython side of the differential oracle."""
    import math

    namespace: Dict[str, object] = {
        "__builtins__": {"abs": abs, "min": min, "max": max,
                         "range": range, "int": int, "float": float,
                         "bool": bool, "__import__": __import__},
        "math": math,
        "sqrt": math.sqrt,
    }
    exec(compile(source, "<frontend-source>", "exec"), namespace)
    if name is None:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
                break
    if name is None or name not in namespace:
        raise FrontendError("no function named %r in source" % name)
    return namespace[name]


def random_inputs(program: CompiledProgram, rng: random.Random
                  ) -> Tuple[Dict[str, object], Dict[str, List]]:
    """Deterministic random inputs for a compiled program: scalar args
    keyed by parameter name, array initialisers keyed by array name."""
    args: Dict[str, object] = {}
    arrays: Dict[str, List] = {}
    for param in program.params:
        if param.kind == "array":
            if param.type == _FLOAT:
                arrays[param.name] = [
                    rng.randint(-400, 400) / 16.0
                    for _ in range(param.size)]
            else:
                arrays[param.name] = [rng.randint(-50, 50)
                                      for _ in range(param.size)]
        elif param.declared == "bool":
            args[param.name] = rng.randint(0, 1)
        elif param.type == _FLOAT:
            args[param.name] = rng.randint(-400, 400) / 16.0
        else:
            args[param.name] = rng.randint(-50, 50)
    return args, arrays


# ---------------------------------------------------------------------------
# The lowering itself.

class _Loop:
    __slots__ = ("break_label", "continue_label", "continue_used")

    def __init__(self, break_label: str, continue_label: str):
        self.break_label = break_label
        self.continue_label = continue_label
        self.continue_used = False


class _Lowering:
    def __init__(self, node: ast.FunctionDef, source: str, filename: str):
        self.node = node
        self.source = source
        self.filename = filename
        self.scalars: Dict[str, str] = {}     # name -> "int" | "float"
        self.arrays: Dict[str, Tuple[str, int]] = {}  # name -> (elem, n)
        self.params: List[ParamSpec] = []
        self.loops: List[_Loop] = []
        self.temp_count = 0
        self.label_count = 0
        self.exit_label = "__Lexit"
        self.exit_used = False
        self.n_returns = 0
        self.b: FunctionBuilder = None  # type: ignore[assignment]

    # -- diagnostics --------------------------------------------------------

    def _err(self, node, message: str) -> FrontendError:
        return FrontendError(message,
                             line=getattr(node, "lineno", None),
                             col=getattr(node, "col_offset", None),
                             filename=self.filename)

    def _check_name(self, node, name: str) -> None:
        for prefix in _RESERVED_PREFIXES:
            if name.startswith(prefix):
                raise self._err(node, "identifier %r is reserved (the "
                                      "%r prefix belongs to the compiler)"
                                % (name, prefix))

    # -- fresh names --------------------------------------------------------

    def _temp(self) -> str:
        self.temp_count += 1
        return "__t%d" % self.temp_count

    def _label(self, kind: str) -> str:
        self.label_count += 1
        return "__L%d_%s" % (self.label_count, kind)

    # -- entry point --------------------------------------------------------

    def compile(self) -> CompiledProgram:
        node = self.node
        if node.decorator_list:
            raise self._err(node, "decorators are not supported")
        self._collect_params(node.args)
        self.n_returns = self._scan_returns(node)
        live_outs = ["__ret%d" % i for i in range(self.n_returns)]
        param_regs: List[str] = []
        for param in self.params:
            if param.kind == "array":
                param_regs.append("p__" + param.name)
            else:
                param_regs.append(param.name)
        self.b = FunctionBuilder(node.name, params=param_regs,
                                 live_outs=live_outs)
        for param in self.params:
            if param.kind == "array":
                self.b.mem(param.name, param.size,
                           ptr="p__" + param.name)
        self.b.label("entry")
        body = list(node.body)
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]  # docstring
        falls = self._body(body)
        if falls:
            if self.n_returns:
                raise self._err(node, "control can fall off the end of "
                                      "%r, but it returns values on other "
                                      "paths" % node.name)
            self.b.jmp(self.exit_label)
            self.exit_used = True
        if self.exit_used:
            self.b.label(self.exit_label)
            self.b.exit()
        function = self.b.build(verify=True)
        return CompiledProgram(function, self.source, node.name,
                               self.params, self.n_returns)

    def _collect_params(self, args: ast.arguments) -> None:
        if args.vararg or args.kwarg or args.kwonlyargs:
            raise self._err(self.node, "*args / **kwargs / keyword-only "
                                       "parameters are not supported")
        if args.defaults or args.kw_defaults:
            raise self._err(self.node,
                            "parameter defaults are not supported")
        for arg in list(args.posonlyargs) + list(args.args):
            self._check_name(arg, arg.arg)
            if arg.annotation is None:
                raise self._err(arg, "parameter %r needs a type "
                                     "annotation (int, float, bool, or "
                                     "\"int[N]\" / \"float[N]\")"
                                % arg.arg)
            spec = self._parse_annotation(arg)
            if arg.arg in self.scalars or arg.arg in self.arrays:
                raise self._err(arg, "duplicate parameter %r" % arg.arg)
            self.params.append(spec)
            if spec.kind == "array":
                self.arrays[spec.name] = (spec.type, spec.size)
            else:
                self.scalars[spec.name] = spec.type

    def _parse_annotation(self, arg: ast.arg) -> ParamSpec:
        annotation = arg.annotation
        if isinstance(annotation, ast.Name):
            if annotation.id in ("int", "bool"):
                return ParamSpec(arg.arg, "scalar", _INT,
                                 declared=annotation.id)
            if annotation.id == "float":
                return ParamSpec(arg.arg, "scalar", _FLOAT)
        elif (isinstance(annotation, ast.Constant)
              and isinstance(annotation.value, str)):
            match = _ARRAY_ANNOTATION.match(annotation.value)
            if match:
                return ParamSpec(arg.arg, "array", match.group(1),
                                 size=int(match.group(2)),
                                 declared=annotation.value)
        raise self._err(annotation or arg,
                        "unsupported annotation on parameter %r (use "
                        "int, float, bool, or \"int[N]\" / \"float[N]\")"
                        % arg.arg)

    def _scan_returns(self, node: ast.FunctionDef) -> int:
        arity: Optional[int] = None
        first: Optional[ast.Return] = None
        for child in ast.walk(node):
            if not isinstance(child, ast.Return):
                continue
            if child.value is None or (
                    isinstance(child.value, ast.Constant)
                    and child.value.value is None):
                this = 0
            elif isinstance(child.value, ast.Tuple):
                this = len(child.value.elts)
            else:
                this = 1
            if arity is None:
                arity, first = this, child
            elif arity != this:
                raise self._err(child, "inconsistent return arity (%d "
                                       "here vs %d at line %s)"
                                % (this, arity,
                                   getattr(first, "lineno", "?")))
        return arity or 0

    # -- statements ---------------------------------------------------------

    def _body(self, statements) -> bool:
        """Compile a statement list into the open block; returns whether
        control can fall through to whatever follows.  Statements after a
        terminating one are unreachable in CPython too and are skipped."""
        for statement in statements:
            if not self._stmt(statement):
                return False
        return True

    def _stmt(self, node) -> bool:
        if isinstance(node, ast.Assign):
            return self._compile_assign(node)
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                raise self._err(node, "bare annotations are not supported")
            if not isinstance(node.target, ast.Name):
                raise self._err(node, "annotated assignment targets must "
                                      "be plain names")
            self._assign_to(node.target, *self._expr(node.value))
            return True
        if isinstance(node, ast.AugAssign):
            return self._compile_augassign(node)
        if isinstance(node, ast.If):
            return self._compile_if(node)
        if isinstance(node, ast.While):
            return self._compile_while(node)
        if isinstance(node, ast.For):
            return self._compile_for(node)
        if isinstance(node, ast.Return):
            return self._compile_return(node)
        if isinstance(node, ast.Break):
            if not self.loops:
                raise self._err(node, "'break' outside a loop")
            self.b.jmp(self.loops[-1].break_label)
            return False
        if isinstance(node, ast.Continue):
            if not self.loops:
                raise self._err(node, "'continue' outside a loop")
            self.loops[-1].continue_used = True
            self.b.jmp(self.loops[-1].continue_label)
            return False
        if isinstance(node, ast.Pass):
            return True
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            return True  # stray docstring: harmless
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Call):
                # Diagnose unsupported calls; a supported intrinsic used
                # as a statement is a no-op, exactly as in CPython.
                self._expr(node.value)
                return True
            raise self._err(node, "expression statements have no effect "
                                  "in the supported subset")
        if isinstance(node, ast.FunctionDef):
            raise self._err(node, "nested function definitions are not "
                                  "supported")
        raise self._err(node, "unsupported statement: %s"
                        % type(node).__name__)

    def _compile_assign(self, node: ast.Assign) -> bool:
        if len(node.targets) != 1:
            raise self._err(node, "chained assignment is not supported")
        target = node.targets[0]
        if isinstance(target, ast.Tuple):
            raise self._err(node, "tuple unpacking is not supported")
        value, type_ = self._expr(node.value)
        self._assign_to(target, value, type_)
        return True

    def _assign_to(self, target, value_reg: str, type_: str) -> None:
        if isinstance(target, ast.Name):
            self._check_name(target, target.id)
            if target.id in self.arrays:
                raise self._err(target, "cannot rebind array parameter %r"
                                % target.id)
            self.b.mov(target.id, value_reg)
            self.scalars[target.id] = type_
            return
        if isinstance(target, ast.Subscript):
            name, elem, _ = self._array_of(target)
            if elem == _INT and type_ == _FLOAT:
                raise self._err(target, "cannot store a float into int "
                                        "array %r" % name)
            address = self._subscript_address(target)
            self.b.store(address, value_reg, region=name)
            return
        raise self._err(target, "unsupported assignment target: %s"
                        % type(target).__name__)

    def _compile_augassign(self, node: ast.AugAssign) -> bool:
        target = node.target
        if isinstance(target, ast.Name):
            current, current_type = self._expr(target)
            value, value_type = self._expr(node.value)
            result, type_ = self._apply_binop(
                node.op, current, current_type, value, value_type, node)
            self._assign_to(target, result, type_)
            return True
        if isinstance(target, ast.Subscript):
            name, elem, _ = self._array_of(target)
            address = self._subscript_address(target)
            current = self._temp()
            self.b.load(current, address, region=name)
            value, value_type = self._expr(node.value)
            result, type_ = self._apply_binop(
                node.op, current, elem, value, value_type, node)
            if elem == _INT and type_ == _FLOAT:
                raise self._err(target, "cannot store a float into int "
                                        "array %r" % name)
            self.b.store(address, result, region=name)
            return True
        raise self._err(target, "unsupported assignment target: %s"
                        % type(target).__name__)

    def _compile_if(self, node: ast.If) -> bool:
        cond, _ = self._expr(node.test)
        then_label = self._label("then")
        join_label = self._label("endif")
        else_label = self._label("else") if node.orelse else join_label
        self.b.br(cond, then_label, else_label)
        before = dict(self.scalars)

        self.b.label(then_label)
        then_falls = self._body(node.body)
        then_env = self.scalars
        if then_falls:
            self.b.jmp(join_label)

        if node.orelse:
            self.b.label(else_label)
            self.scalars = dict(before)
            else_falls = self._body(node.orelse)
            else_env = self.scalars
            if else_falls:
                self.b.jmp(join_label)
        else:
            else_falls, else_env = True, before

        if then_falls and else_falls:
            self.scalars = self._merge(then_env, else_env)
        elif then_falls:
            self.scalars = then_env
        elif else_falls:
            self.scalars = else_env
        else:
            self.scalars = dict(before)
            return False
        self.b.label(join_label)
        return True

    def _compile_while(self, node: ast.While) -> bool:
        if node.orelse:
            raise self._err(node, "while/else is not supported")
        header = self._label("while")
        body_label = self._label("whilebody")
        done_label = self._label("whiledone")
        before = dict(self.scalars)
        self.b.jmp(header)
        self.b.label(header)
        cond, _ = self._expr(node.test)
        self.b.br(cond, body_label, done_label)
        self.b.label(body_label)
        self.loops.append(_Loop(done_label, header))
        falls = self._body(node.body)
        self.loops.pop()
        body_env = self.scalars
        if falls:
            self.b.jmp(header)
        self.b.label(done_label)
        self.scalars = self._merge(before, body_env)
        return True

    def _compile_for(self, node: ast.For) -> bool:
        if node.orelse:
            raise self._err(node, "for/else is not supported")
        if not isinstance(node.target, ast.Name):
            raise self._err(node.target, "the loop variable must be a "
                                         "plain name")
        self._check_name(node.target, node.target.id)
        if node.target.id in self.arrays:
            raise self._err(node.target, "cannot rebind array parameter "
                            "%r" % node.target.id)
        call = node.iter
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"):
            raise self._err(node.iter, "only 'for ... in range(...)' "
                                       "loops are supported")
        if call.keywords or len(call.args) not in (1, 2, 3):
            raise self._err(call, "range() takes 1 to 3 positional "
                                  "arguments")
        step = 1
        if len(call.args) == 3:
            step = self._constant_int(call.args[2],
                                      "the range() step must be a "
                                      "non-zero integer constant")
            if step == 0:
                raise self._err(call.args[2], "range() step must not be "
                                              "zero")
        if len(call.args) == 1:
            start_reg = self._temp()
            self.b.movi(start_reg, 0)
            stop_node = call.args[0]
        else:
            start_reg = self._int_bound(call.args[0])
            stop_node = call.args[1]
        stop_reg = self._int_bound(stop_node)

        counter = self._temp()
        cond = self._temp()
        header = self._label("for")
        body_label = self._label("forbody")
        latch_label = self._label("forlatch")
        done_label = self._label("fordone")
        before = dict(self.scalars)

        self.b.mov(counter, start_reg)
        self.b.jmp(header)
        self.b.label(header)
        if step > 0:
            self.b.cmplt(cond, counter, stop_reg)
        else:
            self.b.cmpgt(cond, counter, stop_reg)
        self.b.br(cond, body_label, done_label)
        self.b.label(body_label)
        # Copy the internal counter into the user variable at the top of
        # the body: reassigning it inside the body then matches Python
        # (the next iteration overwrites it), and after an empty range
        # the variable keeps its prior binding, exactly like CPython.
        self.b.mov(node.target.id, counter)
        self.scalars[node.target.id] = _INT
        loop = _Loop(done_label, latch_label)
        self.loops.append(loop)
        falls = self._body(node.body)
        self.loops.pop()
        body_env = self.scalars
        if falls:
            self.b.jmp(latch_label)
        if falls or loop.continue_used:
            self.b.label(latch_label)
            self.b.add(counter, counter, step)
            self.b.jmp(header)
        self.b.label(done_label)
        self.scalars = self._merge(before, body_env)
        return True

    def _int_bound(self, node) -> str:
        reg, type_ = self._expr(node)
        if type_ != _INT:
            raise self._err(node, "range() bounds must be integers")
        return reg

    def _constant_int(self, node, message: str) -> int:
        if (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and type(node.operand.value) is int):
            return -node.operand.value
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        raise self._err(node, message)

    def _compile_return(self, node: ast.Return) -> bool:
        value = node.value
        if value is None or (isinstance(value, ast.Constant)
                             and value.value is None):
            values: List = []
        elif isinstance(value, ast.Tuple):
            values = list(value.elts)
        else:
            values = [value]
        # Arity consistency was checked by the pre-scan.
        for index, expression in enumerate(values):
            reg, _ = self._expr(expression)
            self.b.mov("__ret%d" % index, reg)
        self.b.jmp(self.exit_label)
        self.exit_used = True
        return False

    def _merge(self, left: Dict[str, str],
               right: Dict[str, str]) -> Dict[str, str]:
        """Join two environments at a control-flow merge: a variable
        survives only when assigned on both paths (CPython would raise
        UnboundLocalError otherwise), and its type widens to float when
        the paths disagree — float opcodes subsume int values exactly."""
        merged: Dict[str, str] = {}
        for name, type_ in left.items():
            other = right.get(name)
            if other is None:
                continue
            merged[name] = _FLOAT if _FLOAT in (type_, other) else _INT
        return merged

    # -- expressions --------------------------------------------------------

    def _expr(self, node) -> Tuple[str, str]:
        """Compile an expression; returns (register, static type)."""
        if isinstance(node, ast.Name):
            if node.id in self.scalars:
                return node.id, self.scalars[node.id]
            if node.id in self.arrays:
                raise self._err(node, "array %r used as a scalar value"
                                % node.id)
            raise self._err(node, "name %r is not defined on every path "
                                  "reaching this use" % node.id)
        if isinstance(node, ast.Constant):
            return self._constant(node)
        if isinstance(node, ast.BinOp):
            left, left_type = self._expr(node.left)
            right, right_type = self._expr(node.right)
            return self._apply_binop(node.op, left, left_type,
                                     right, right_type, node)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.BoolOp):
            return self._boolop(node)
        if isinstance(node, ast.IfExp):
            return self._ifexp(node)
        if isinstance(node, ast.Subscript):
            name, elem, _ = self._array_of(node)
            address = self._subscript_address(node)
            dest = self._temp()
            self.b.load(dest, address, region=name)
            return dest, elem
        if isinstance(node, ast.Call):
            return self._call(node)
        raise self._err(node, "unsupported expression: %s"
                        % type(node).__name__)

    def _constant(self, node: ast.Constant) -> Tuple[str, str]:
        value = node.value
        dest = self._temp()
        if isinstance(value, bool):
            self.b.movi(dest, 1 if value else 0)
            return dest, _INT
        if isinstance(value, int):
            self.b.movi(dest, value)
            return dest, _INT
        if isinstance(value, float):
            self.b.movi(dest, value)
            return dest, _FLOAT
        raise self._err(node, "unsupported constant %r (only int, float "
                              "and bool literals)" % (value,))

    _INT_ONLY = {ast.FloorDiv: "//", ast.Mod: "%", ast.LShift: "<<",
                 ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
                 ast.BitXor: "^"}
    _INT_OPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
                ast.LShift: "shl", ast.RShift: "shr", ast.BitAnd: "and",
                ast.BitOr: "or", ast.BitXor: "xor"}
    _FLOAT_OPS = {ast.Add: "fadd", ast.Sub: "fsub", ast.Mult: "fmul"}

    def _apply_binop(self, op, left: str, left_type: str, right: str,
                     right_type: str, node) -> Tuple[str, str]:
        kind = type(op)
        joined = _FLOAT if _FLOAT in (left_type, right_type) else _INT
        if kind in self._INT_ONLY and joined == _FLOAT:
            raise self._err(node, "%r requires int operands in the "
                                  "supported subset"
                            % self._INT_ONLY[kind])
        if kind is ast.Div:
            dest = self._temp()
            self.b.fdiv(dest, left, right)
            return dest, _FLOAT
        if kind is ast.FloorDiv:
            return self._floor_divmod(left, right, want_mod=False), _INT
        if kind is ast.Mod:
            return self._floor_divmod(left, right, want_mod=True), _INT
        if kind is ast.Pow:
            raise self._err(node, "the ** operator is not supported "
                                  "(use repeated multiplication)")
        table = self._FLOAT_OPS if joined == _FLOAT else self._INT_OPS
        name = table.get(kind) or self._INT_OPS.get(kind)
        if name is None:
            raise self._err(node, "unsupported binary operator: %s"
                            % kind.__name__)
        dest = self._temp()
        self.b.alu(name, dest, left, right)
        return dest, joined

    def _floor_divmod(self, left: str, right: str, want_mod: bool) -> str:
        """Python's // and % floor; the machine's idiv/imod truncate.
        q_floor = q_trunc - (r != 0 and sign(a) != sign(b));
        r_floor = r_trunc + fix * b."""
        quotient, remainder = self._temp(), self._temp()
        self.b.idiv(quotient, left, right)
        self.b.imod(remainder, left, right)
        nonzero, sign_l, sign_r = self._temp(), self._temp(), self._temp()
        self.b.cmpne(nonzero, remainder, 0)
        self.b.cmplt(sign_l, left, 0)
        self.b.cmplt(sign_r, right, 0)
        differs, fix = self._temp(), self._temp()
        self.b.xor(differs, sign_l, sign_r)
        self.b.and_(fix, nonzero, differs)
        dest = self._temp()
        if want_mod:
            scaled = self._temp()
            self.b.mul(scaled, fix, right)
            self.b.add(dest, remainder, scaled)
        else:
            self.b.sub(dest, quotient, fix)
        return dest

    def _unary(self, node: ast.UnaryOp) -> Tuple[str, str]:
        if (isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and type(node.operand.value) in (int, float)):
            dest = self._temp()
            self.b.movi(dest, -node.operand.value)
            return dest, (_FLOAT if isinstance(node.operand.value, float)
                          else _INT)
        operand, type_ = self._expr(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand, type_
        dest = self._temp()
        if isinstance(node.op, ast.USub):
            self.b.alu("fneg" if type_ == _FLOAT else "neg",
                       dest, operand)
            return dest, type_
        if isinstance(node.op, ast.Not):
            self.b.alu("cmpeq", dest, operand, 0)
            return dest, _INT
        if isinstance(node.op, ast.Invert):
            if type_ == _FLOAT:
                raise self._err(node, "'~' requires an int operand")
            self.b.alu("not", dest, operand)
            return dest, _INT
        raise self._err(node, "unsupported unary operator")

    _CMP = {ast.Eq: "cmpeq", ast.NotEq: "cmpne", ast.Lt: "cmplt",
            ast.LtE: "cmple", ast.Gt: "cmpgt", ast.GtE: "cmpge"}

    def _compare(self, node: ast.Compare) -> Tuple[str, str]:
        for op in node.ops:
            if type(op) not in self._CMP:
                raise self._err(node, "unsupported comparison: %s"
                                % type(op).__name__)
        previous, _ = self._expr(node.left)
        if len(node.ops) == 1:
            operand, _ = self._expr(node.comparators[0])
            dest = self._temp()
            self.b.alu(self._CMP[type(node.ops[0])], dest, previous,
                       operand)
            return dest, _INT
        # Chained comparison: each link short-circuits, and every middle
        # operand is evaluated exactly once, as in CPython.
        result = self._temp()
        join = self._label("cmpjoin")
        for index, (op, comparator) in enumerate(
                zip(node.ops, node.comparators)):
            operand, _ = self._expr(comparator)
            link = self._temp()
            self.b.alu(self._CMP[type(op)], link, previous, operand)
            self.b.mov(result, link)
            if index < len(node.ops) - 1:
                next_label = self._label("cmpnext")
                self.b.br(result, next_label, join)
                self.b.label(next_label)
            previous = operand
        self.b.jmp(join)
        self.b.label(join)
        return result, _INT

    def _boolop(self, node: ast.BoolOp) -> Tuple[str, str]:
        is_and = isinstance(node.op, ast.And)
        result = self._temp()
        join = self._label("booljoin")
        types: List[str] = []
        for index, value in enumerate(node.values):
            reg, type_ = self._expr(value)
            types.append(type_)
            self.b.mov(result, reg)
            if index < len(node.values) - 1:
                more = self._label("boolnext")
                if is_and:
                    self.b.br(result, more, join)
                else:
                    self.b.br(result, join, more)
                self.b.label(more)
        self.b.jmp(join)
        self.b.label(join)
        joined = _FLOAT if _FLOAT in types else _INT
        return result, joined

    def _ifexp(self, node: ast.IfExp) -> Tuple[str, str]:
        cond, _ = self._expr(node.test)
        result = self._temp()
        then_label = self._label("ternthen")
        else_label = self._label("ternelse")
        join_label = self._label("ternjoin")
        self.b.br(cond, then_label, else_label)
        self.b.label(then_label)
        then_reg, then_type = self._expr(node.body)
        self.b.mov(result, then_reg)
        self.b.jmp(join_label)
        self.b.label(else_label)
        else_reg, else_type = self._expr(node.orelse)
        self.b.mov(result, else_reg)
        self.b.jmp(join_label)
        self.b.label(join_label)
        joined = _FLOAT if _FLOAT in (then_type, else_type) else _INT
        return result, joined

    def _array_of(self, node: ast.Subscript) -> Tuple[str, str, int]:
        if not isinstance(node.value, ast.Name):
            raise self._err(node, "only direct array parameters can be "
                                  "subscripted")
        name = node.value.id
        if name not in self.arrays:
            raise self._err(node, "%r is not an array parameter" % name)
        elem, size = self.arrays[name]
        return name, elem, size

    def _subscript_address(self, node: ast.Subscript) -> str:
        """Address of ``arr[index]`` with Python's negative-index wrap:
        an index in [-N, 0) selects from the end; anything further out
        lands outside the object and traps, as CPython raises."""
        name, _, size = self._array_of(node)
        index_node = node.slice
        if isinstance(index_node, ast.Slice):
            raise self._err(node, "array slices are not supported")
        index, index_type = self._expr(index_node)
        if index_type == _FLOAT:
            raise self._err(index_node, "array indices must be integers")
        negative, wrap, wrapped = (self._temp(), self._temp(),
                                   self._temp())
        self.b.cmplt(negative, index, 0)
        self.b.mul(wrap, negative, size)
        self.b.add(wrapped, index, wrap)
        address = self._temp()
        self.b.add(address, "p__" + name, wrapped)
        return address

    def _call(self, node: ast.Call) -> Tuple[str, str]:
        if node.keywords:
            raise self._err(node, "keyword arguments are not supported")
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif (isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "math"):
            name = node.func.attr
        if name == "abs" and len(node.args) == 1:
            operand, type_ = self._expr(node.args[0])
            dest = self._temp()
            self.b.alu("abs", dest, operand)
            return dest, type_
        if name in ("min", "max") and len(node.args) == 2:
            left, left_type = self._expr(node.args[0])
            right, right_type = self._expr(node.args[1])
            dest = self._temp()
            self.b.alu(name, dest, left, right)
            joined = (_FLOAT if _FLOAT in (left_type, right_type)
                      else _INT)
            return dest, joined
        if name == "int" and len(node.args) == 1:
            operand, _ = self._expr(node.args[0])
            dest = self._temp()
            self.b.ftoi(dest, operand)   # trunc: exact on ints too
            return dest, _INT
        if name == "float" and len(node.args) == 1:
            operand, _ = self._expr(node.args[0])
            dest = self._temp()
            self.b.itof(dest, operand)
            return dest, _FLOAT
        if name == "bool" and len(node.args) == 1:
            operand, _ = self._expr(node.args[0])
            dest = self._temp()
            self.b.alu("cmpne", dest, operand, 0)
            return dest, _INT
        if name == "sqrt" and len(node.args) == 1:
            operand, _ = self._expr(node.args[0])
            dest = self._temp()
            self.b.fsqrt(dest, operand)
            return dest, _FLOAT
        raise self._err(node, "unsupported call%s (intrinsics: abs, "
                              "min, max, int, float, bool, math.sqrt)"
                        % ("" if name is None else " to %r" % name))
