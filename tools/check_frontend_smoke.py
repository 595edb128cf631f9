#!/usr/bin/env python
"""The CI ``frontend-smoke`` gate for the Python-to-IR frontend.

Usage: ``python tools/check_frontend_smoke.py``

Two checks, end to end through real entry points:

1. **compile+evaluate** — ``python -m repro run --source
   examples/user_fn.py --technique gremio`` must exit 0 and report a
   verified evaluation (the example exercises arrays, loops, branches,
   and intrinsics);
2. **oracle agreement** — the compiled example must produce exactly
   CPython's observables (returns and array contents) on seeded random
   inputs, via the in-process frontend API.

Random programs are checked against CPython by ``repro fuzz`` (the CI
``fuzz-smoke`` job), from the frontend down to the simulator.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE = os.path.join("examples", "user_fn.py")


class FrontendSmokeError(AssertionError):
    """One of the frontend-smoke contract checks failed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def check_cli_run() -> None:
    command = [sys.executable, "-m", "repro", "run", "--source", EXAMPLE,
               "--technique", "gremio"]
    completed = subprocess.run(command, env=_env(), cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    if completed.returncode != 0:
        raise FrontendSmokeError(
            "repro run --source failed (exit %d):\n%s"
            % (completed.returncode, completed.stdout))
    if "verified vs single-threaded" not in completed.stdout:
        raise FrontendSmokeError(
            "run output is missing the verification row:\n"
            + completed.stdout)
    print("frontend-smoke: repro run --source %s OK" % EXAMPLE)


def check_oracle_agreement(trials: int = 20) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.frontend import (compile_source, python_callable,
                                random_inputs)
    from repro.interp.interpreter import run_function

    with open(os.path.join(ROOT, EXAMPLE), "r", encoding="utf-8") as f:
        source = f.read()
    program = compile_source(source, filename=EXAMPLE)
    fn = python_callable(source)
    rng = random.Random(0)
    for trial in range(trials):
        args, arrays = random_inputs(program, rng)
        py_arrays = {k: list(v) for k, v in arrays.items()}
        ordered = [py_arrays[p.name] if p.kind == "array"
                   else args[p.name] for p in program.params]
        expected = fn(*ordered)
        run = run_function(program.function, dict(args),
                           initial_memory={k: list(v)
                                           for k, v in arrays.items()})
        observed = tuple(run.live_outs["__ret%d" % i]
                         for i in range(program.n_returns))
        if tuple(expected) != observed:
            raise FrontendSmokeError(
                "trial %d: CPython %r != IR %r"
                % (trial, expected, observed))
        for name in arrays:
            if py_arrays[name] != run.mem_object(name):
                raise FrontendSmokeError(
                    "trial %d: array %r diverged" % (trial, name))
    print("frontend-smoke: %d oracle-agreement trials OK" % trials)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args()
    try:
        check_cli_run()
        check_oracle_agreement()
    except FrontendSmokeError as error:
        print("frontend-smoke: FAIL: %s" % error)
        return 1
    print("frontend-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
