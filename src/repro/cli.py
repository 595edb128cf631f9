"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark registry (the papers' Figure 6(b));
* ``machine`` — the machine configuration (Figure 6(a));
* ``run`` — parallelize one workload and report speedup/communication;
  ``--source FILE.py`` compiles a program with the
  :mod:`repro.frontend` Python subset instead of naming a registry
  workload, and ``--ir FILE.ir`` evaluates textual IR directly (both
  also accepted by ``dump``/``sweep``/``trace``);
* ``dump`` — print the IR of a workload, or the generated thread CFGs;
* ``sweep`` — run every workload under one (or every) configuration and
  summarize; ``--jobs N`` fans cells across a process pool, and the
  persistent artifact cache makes repeat sweeps cheap;
* ``fuzz`` — the differential fuzzing loop of :mod:`repro.check`:
  random Python programs, run under CPython and compiled by the
  frontend, x {GREMIO, DSWP, random partitions} x {COCO on/off}, every
  cell statically validated, differentially executed and simulated on
  the production core against CPython's result, failures shrunk and
  persisted to ``--corpus``;
* ``bench`` — the machine-readable benchmark subsystem of
  :mod:`repro.bench`: run every registered spec (``--smoke`` or
  ``--full``), print the fidelity scorecard of the paper claims they
  judge, emit a schema-versioned ``BENCH_RESULTS.json``, and gate
  against a committed baseline (``--compare``) under per-metric
  tolerance bands; ``--update-baseline`` refreshes the baseline
  (mirroring the ``REPRO_REGEN_GOLDENS`` convention,
  ``REPRO_UPDATE_BASELINE=1`` works too);
* ``serve`` — the scheduling service of :mod:`repro.service`: a
  JSON-over-HTTP daemon with a bounded multiprocess worker pool,
  admission control (429 shedding), per-request timeouts with
  stale-artifact degradation, and ``/healthz`` + ``/metrics``;
* ``trace`` — the execution-tracing subsystem of :mod:`repro.trace`:
  simulate one workload with per-instruction event capture, write a
  Perfetto-loadable ``trace.json``, and report stall attribution and
  the dynamic critical path (``--report`` / ``--report-json``).

``python -m repro --sweep`` is shorthand for ``sweep --technique all``.
Evaluating commands accept ``--check`` to run the static MT validators
(channel balance, queue conflicts, register isolation, deadlock
freedom) over every generated program as a pipeline stage.

Shared flags are declared once on parent parsers so help text cannot
drift between subcommands: ``--timings``/``--no-cache`` (every
pipeline-driving command: run/dump/sweep/report/bench/dot/serve) and
``--jobs`` (sweep/bench).  The cache directory honours
``REPRO_CACHE_DIR`` (default ``~/.cache/repro``).

Everything here consumes the pipeline through the stable
:mod:`repro.api` facade only.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import (PLACERS, STRATEGIES, TECHNIQUES, TOPOLOGIES,
                  EvaluateRequest, ProgramSpec, RequestValidationError,
                  configure_cache, evaluate, evaluate_many,
                  evaluate_workload, get_cache, get_topology,
                  global_telemetry, normalize, parallelize,
                  reset_global_telemetry, resolve_program, workload_names)
from .ir.printer import format_function
from .machine.config import config_table
from .report import headline, table
from .stats import geomean
from .workloads import all_workloads, benchmark_table, get_workload


def _cache_parent() -> argparse.ArgumentParser:
    """``--timings``/``--no-cache``, declared once for every
    pipeline-driving subcommand (run/dump/sweep/report/bench/dot/serve)
    so the flags and their help text cannot drift."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--timings", action="store_true",
                        help="print the per-stage timing / cache table")
    parent.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact cache")
    return parent


def _jobs_parent() -> argparse.ArgumentParser:
    """``--jobs``, declared once for the batch commands (sweep/bench)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1,
                        help="evaluate cells on N worker processes")
    return parent


def _program_parent() -> argparse.ArgumentParser:
    """``--source``/``--ir``, declared once for every command that can
    evaluate an inline program instead of a registry workload
    (run/dump/sweep/trace)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--source", default=None, metavar="FILE.py",
                        help="compile FILE.py with the repro.frontend "
                             "Python subset and evaluate it instead of "
                             "a registry workload")
    parent.add_argument("--ir", default=None, metavar="FILE.ir",
                        help="parse FILE.ir (textual IR) and evaluate "
                             "it instead of a registry workload")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GMT instruction scheduling (GREMIO/DSWP/MTCG/COCO) "
                    "on a dual-core CMP model")
    sub = parser.add_subparsers(dest="command", required=True)
    cache_parent = _cache_parent()
    jobs_parent = _jobs_parent()
    program_parent = _program_parent()

    sub.add_parser("list", help="list the benchmark workloads")
    machine = sub.add_parser("machine",
                             help="print the machine configuration")
    machine.add_argument("--topology", default=None,
                         choices=sorted(TOPOLOGIES),
                         help="print the table for this topology preset "
                              "(default: the papers' flat dual-core)")

    run = sub.add_parser("run", help="parallelize one workload",
                         parents=[cache_parent, program_parent])
    _common_options(run)
    run.add_argument("workload", nargs="?", default=None,
                     help="workload name (see `list`); omit with "
                          "--source/--ir")

    dump = sub.add_parser("dump", help="print workload IR / thread CFGs",
                          parents=[cache_parent, program_parent])
    _common_options(dump)
    dump.add_argument("workload", nargs="?", default=None,
                      help="workload name (see `list`); omit with "
                           "--source/--ir")
    dump.add_argument("--threads-code", action="store_true",
                      help="print the generated per-thread CFGs")

    sweep = sub.add_parser("sweep", help="evaluate every workload",
                           parents=[cache_parent, jobs_parent,
                                    program_parent])
    _common_options(sweep)

    fuzz_help = ("differential fuzzing of the whole pipeline against "
                 "CPython: random Python programs through the frontend, "
                 "then x partitioners x COCO through MTCG, the "
                 "validators, the execution oracle and the production "
                 "simulator")
    fuzz = sub.add_parser("fuzz", help=fuzz_help, description=fuzz_help)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iterations", type=int, default=None,
                      help="fuzzing iterations (default 100; 25 under "
                           "--smoke)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="directory for minimized reproducers and the "
                           "JSON run report")
    fuzz.add_argument("--smoke", action="store_true",
                      help="small fixed-seed CI configuration "
                           "(seed 0, 25 iterations)")
    fuzz.add_argument("--max-threads", type=int, default=3)
    fuzz.add_argument("--depth", type=int, default=2,
                      help="program nesting depth of generated sketches")

    bench = sub.add_parser(
        "bench", help="run the machine-readable benchmark specs and "
                      "emit/compare BENCH_RESULTS.json",
        parents=[cache_parent, jobs_parent])
    mode = bench.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="CI configuration: train inputs, truncated "
                           "benchmark lists (the default)")
    mode.add_argument("--full", action="store_true",
                      help="the papers' methodology: ref inputs, every "
                           "benchmark")
    bench.add_argument("--spec", action="append", default=None,
                       metavar="ID",
                       help="run only this spec (repeatable; default: "
                            "all)")
    bench.add_argument("--out", default="BENCH_RESULTS.json",
                       metavar="PATH",
                       help="where to write the results JSON "
                            "(default: %(default)s)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff the run against this baseline JSON; "
                            "exit 1 on any out-of-tolerance metric")
    bench.add_argument("--host-strict", action="store_true",
                       help="tighten wall-time tolerance bands for "
                            "--compare (quiet dedicated host; baseline "
                            "recorded on the same machine)")
    bench.add_argument("--baseline",
                       default="benchmarks/baselines/bench_baseline.json",
                       metavar="PATH",
                       help="baseline written by --update-baseline "
                            "(default: %(default)s)")
    bench.add_argument("--update-baseline", action="store_true",
                       help="write this run's results to --baseline "
                            "(REPRO_UPDATE_BASELINE=1 also enables)")
    bench.add_argument("--summary", default=None, metavar="FILE",
                       help="append the markdown regression table to "
                            "FILE (CI: $GITHUB_STEP_SUMMARY)")
    bench.add_argument("--list", action="store_true",
                       help="list the registered bench specs and exit")

    trace = sub.add_parser(
        "trace", help="trace one workload's MT simulation: emit a "
                      "Perfetto-loadable trace.json plus a stall-"
                      "attribution / critical-path report",
        parents=[cache_parent, program_parent])
    trace.add_argument("workload", nargs="?", default=None,
                       help="workload name (see `list`); omit with "
                            "--source/--ir")
    trace.add_argument("--partitioner", choices=TECHNIQUES,
                       default="gremio",
                       help="partitioning technique "
                            "(default: %(default)s)")
    trace.add_argument("--threads", type=int, default=2)
    trace.add_argument("--coco", action="store_true",
                       help="enable the COCO communication optimizer")
    trace.add_argument("--scale", default="ref",
                       choices=("train", "ref"))
    trace.add_argument("--out", default="trace.json",
                       help="Chrome Trace Format output path "
                            "(default: %(default)s)")
    trace.add_argument("--report", action="store_true",
                       help="print the markdown stall-attribution / "
                            "critical-path report")
    trace.add_argument("--report-json", default=None, metavar="PATH",
                       help="also write the full analysis as JSON")
    trace.add_argument("--limit", type=int, default=None,
                       help="event ring capacity (default 1,000,000; "
                            "older events are dropped, aggregates stay "
                            "exact)")
    trace.add_argument("--topology", default=None,
                       choices=sorted(TOPOLOGIES),
                       help="machine-topology preset (default: flat "
                            "cores sized to --threads)")
    trace.add_argument("--placer", default="identity", choices=PLACERS,
                       help="thread->core placement policy "
                            "(default: %(default)s)")

    report = sub.add_parser(
        "report", help="print the headline result table as Markdown "
                       "(all workloads x {GREMIO, DSWP} x {MTCG, +COCO})",
        parents=[cache_parent])
    report.add_argument("--threads", type=int, default=2)
    report.add_argument("--scale", default="ref",
                        choices=("train", "ref"))

    tune = sub.add_parser(
        "tune", help="search the partitioner/placement/machine knob "
                     "space for configurations beating the paper "
                     "defaults; emits schema-versioned JSON "
                     "leaderboards plus a markdown summary",
        parents=[cache_parent, jobs_parent])
    tune.add_argument("--workloads", nargs="+", default=None,
                      metavar="NAME",
                      help="workloads to tune (default: all; see "
                           "`list`)")
    tune.add_argument("--strategy", default="greedy",
                      choices=STRATEGIES,
                      help="search strategy (default: %(default)s)")
    tune.add_argument("--budget", type=int, default=64,
                      help="candidate evaluations per workload "
                           "(default: %(default)s)")
    tune.add_argument("--seed", type=int, default=0,
                      help="search seed; equal seed + budget => "
                           "byte-identical leaderboards "
                           "(default: %(default)s)")
    tune.add_argument("--threads", type=int, default=2)
    tune.add_argument("--scale", default="train",
                      choices=("train", "ref"),
                      help="input scale candidates are scored on "
                           "(default: %(default)s)")
    tune.add_argument("--knob", action="append", default=None,
                      metavar="NAME", dest="knobs",
                      help="restrict the search to this knob "
                           "(repeatable; default: the full space)")
    tune.add_argument("--out", default=None, metavar="DIR",
                      help="write tune_result.json, per-workload "
                           "leaderboard_<w>.json, and tune_summary.md "
                           "into DIR")
    tune.add_argument("--top", type=int, default=10,
                      help="leaderboard entries kept per workload "
                           "(default: %(default)s)")
    tune.add_argument("--smoke", action="store_true",
                      help="small fixed CI configuration: adpcmdec+ks, "
                           "greedy, budget 24, train scale")

    serve = sub.add_parser(
        "serve", help="run the scheduling service: a JSON-over-HTTP "
                      "daemon with a bounded worker pool, admission "
                      "control, and /healthz + /metrics",
        parents=[cache_parent])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8184,
                       help="bind port; 0 picks a free one "
                            "(default: %(default)s)")
    serve.add_argument("--workers", type=int, default=2,
                       help="evaluation worker processes; 0 = inline "
                            "threads (default: %(default)s)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admitted-request bound before 429 "
                            "shedding (default: %(default)s)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request evaluation budget; on expiry "
                            "the worker is cancelled and a stale "
                            "cached artifact is served when available "
                            "(default: %(default)s)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="crashed-worker retry budget per request "
                            "(default: %(default)s)")
    serve.add_argument("--role", default="standalone",
                       choices=("standalone", "coordinator", "worker"),
                       help="cluster role: standalone daemon (default), "
                            "coordinator (shard requests across "
                            "registered worker nodes, serve the remote "
                            "artifact store and /dashboard), or worker "
                            "(register with --coordinator and serve "
                            "its shard)")
    serve.add_argument("--coordinator", default=None, metavar="URL",
                       help="coordinator base URL "
                            "(required with --role worker)")
    serve.add_argument("--node-id", default=None,
                       help="stable node identity for rendezvous "
                            "sharding (default: host:port)")
    serve.add_argument("--tenant-limit", type=int, default=0,
                       help="per-tenant cap on running requests, and "
                            "on waiting ones; 0 = the queue limit "
                            "(default: %(default)s)")
    serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="worker heartbeat / monitoring publish "
                            "period (default: %(default)s)")

    dot = sub.add_parser("dot", help="emit Graphviz dot for a workload",
                         parents=[cache_parent])
    _common_options(dot)
    dot.add_argument("workload")
    dot.add_argument("--what", default="cfg",
                     choices=("cfg", "pdg", "threads", "program"),
                     help="which graph to emit")
    return parser


def _common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--technique", choices=TECHNIQUES + ("all",),
                     default="gremio",
                     help="partitioning technique ('all' sweeps every one)")
    sub.add_argument("--threads", type=int, default=2)
    sub.add_argument("--coco", action="store_true",
                     help="enable the COCO communication optimizer")
    sub.add_argument("--alias-mode", default="annotated",
                     choices=("annotated", "provenance", "none"))
    sub.add_argument("--scale", default="ref", choices=("train", "ref"))
    sub.add_argument("--schedule", default=None,
                     choices=("early", "late", "neutral"),
                     help="run the local instruction scheduler with this "
                          "produce/consume priority")
    sub.add_argument("--check", action="store_true",
                     help="run the static MT validators over every "
                          "generated program (the pipeline check stage)")
    sub.add_argument("--topology", default=None,
                     choices=sorted(TOPOLOGIES),
                     help="machine-topology preset (default: flat cores "
                          "sized to --threads, the papers' machine)")
    sub.add_argument("--placer", default="identity", choices=PLACERS,
                     help="thread->core placement policy "
                          "(default: %(default)s)")


def _apply_cache_options(args) -> None:
    if getattr(args, "no_cache", False):
        configure_cache(enabled=False)


def _inline_program(args):
    """The validated :class:`~repro.api.ProgramSpec` of
    ``--source``/``--ir`` (materialized for this session), or ``None``
    without either."""
    source, ir = getattr(args, "source", None), getattr(args, "ir", None)
    picked = [flag for flag, value in
              (("--source", source), ("--ir", ir),
               ("workload", getattr(args, "workload", None))) if value]
    if len(picked) > 1:
        raise SystemExit("pick one program input: %s are mutually "
                         "exclusive" % " and ".join(picked))
    path = source or ir
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SystemExit("cannot read %s: %s" % (path, error))
    spec = (ProgramSpec.source(text) if source
            else ProgramSpec.inline_ir(text))
    try:
        resolve_program(spec)
    except RequestValidationError as error:
        raise SystemExit("%s: %s" % (path, error))
    return spec


def _program(args) -> ProgramSpec:
    """The program a run/dump/trace invocation targets: a registry
    workload (aliases resolved), or an inline program from
    ``--source``/``--ir``."""
    spec = _inline_program(args)
    if spec is not None:
        return spec
    name = getattr(args, "workload", None)
    if not name:
        raise SystemExit("missing program: name a workload (see `list`) "
                         "or pass --source FILE.py / --ir FILE.ir")
    try:
        return ProgramSpec.registry(get_workload(name).name)
    except KeyError as error:
        raise SystemExit(error.args[0])


def _resolve_workload(args):
    return get_workload(_program(args).workload_name())


#: Each request field a command line sets, and the flag (its ``dest``)
#: that sets it; a command that lacks a flag leaves the field to
#: :func:`_request`'s caller or the request's default.
_REQUEST_FLAGS = (("technique", "technique"), ("coco", "coco"),
                  ("n_threads", "threads"), ("scale", "scale"),
                  ("alias_mode", "alias_mode"),
                  ("local_schedule", "schedule"), ("mt_check", "check"),
                  ("topology", "topology"), ("placer", "placer"))


def _request(args, program: ProgramSpec, **fields) -> EvaluateRequest:
    """The request for ``program`` on the command line's axes (run,
    sweep, report); ``fields`` set the axes the command iterates."""
    flags = {field: getattr(args, dest) for field, dest in _REQUEST_FLAGS
             if hasattr(args, dest)}
    return EvaluateRequest(program=program, **dict(flags, **fields))


def _print_telemetry() -> None:
    telemetry = global_telemetry()
    print()
    print(telemetry.timings_table())
    print()
    print(telemetry.counters_table())
    cache = get_cache()
    stats = cache.stats
    # Under --jobs the loads happen in worker processes, so the local
    # CacheStats stay at zero; the merged telemetry still carries them.
    hits = max(stats.hits, telemetry.cache_hits)
    misses = max(stats.misses, telemetry.cache_misses)
    print("artifact cache: %d hits, %d misses, %d invalidations, "
          "%d stores%s" % (
              hits, misses, stats.invalidations, stats.stores,
              " [disabled]" if not cache.enabled
              else " (%s)" % cache.directory))


def _run_one(args) -> int:
    program = _program(args)
    if args.technique == "all":
        raise SystemExit("run: pick one --technique (not 'all')")
    try:
        metrics = evaluate(_request(args, program)).metrics
    except RequestValidationError as error:
        raise SystemExit("run: %s" % error)
    rows = [
        ("single-threaded cycles", "%.0f" % metrics["st_cycles"]),
        ("multi-threaded cycles", "%.0f" % metrics["mt_cycles"]),
        ("speedup", "%.3fx" % metrics["speedup"]),
        ("dynamic instructions (MT)",
         "%d" % metrics["dynamic_instructions"]),
        ("communication instructions",
         "%d" % metrics["communication_instructions"]),
        ("communication share",
         "%.1f%%" % (100 * metrics["communication_fraction"])),
        ("channels", "%d" % metrics["channels"]),
        ("verified vs single-threaded", "yes"),
    ]
    print(table(["metric", "value"], rows,
                title="%s / %s%s / %d threads"
                      % (program.workload_name(), args.technique,
                         "+coco" if args.coco else "", args.threads)))
    if args.timings:
        _print_telemetry()
    return 0


def _dump(args) -> int:
    workload = _resolve_workload(args)
    function = workload.build()
    if not args.threads_code:
        print(format_function(function, show_iids=True))
        return 0
    normalize(function)
    train = workload.make_inputs("train")
    result = parallelize(function, technique=args.technique,
                         n_threads=args.threads, coco=args.coco,
                         profile_args=train.args,
                         profile_memory=train.memory,
                         alias_mode=args.alias_mode, normalized=True,
                         mt_check=args.check, topology=args.topology)
    for index, thread in enumerate(result.program.threads):
        print("; ===== thread %d =====" % index)
        print(format_function(thread))
        print()
    print("; channels:")
    for channel in result.program.channels:
        print(";   %r" % channel)
    return 0


def _trace(args) -> int:
    from .trace import (stall_report_json, stall_report_markdown,
                        write_chrome_trace)
    workload = _resolve_workload(args)
    ev = evaluate_workload(workload, technique=args.partitioner,
                           n_threads=args.threads, coco=args.coco,
                           scale=args.scale, trace=True,
                           trace_limit=args.limit,
                           topology=args.topology, placer=args.placer)
    analysis = ev.trace
    write_chrome_trace(args.out, analysis.collector)
    print("wrote %s (%d events, %d dropped; %.0f simulated cycles)"
          % (args.out, analysis.events_recorded,
             analysis.events_dropped, analysis.total_cycles))
    print("critical path: %.0f cycles over %d instructions; "
          "top stall: %s (%.0f cycles)"
          % (analysis.critical_path.length,
             analysis.critical_path.instructions,
             analysis.top_stall_reason, analysis.top_stall_cycles))
    if args.report_json:
        with open(args.report_json, "w") as handle:
            handle.write(stall_report_json(analysis))
            handle.write("\n")
        print("wrote %s" % args.report_json)
    if args.report:
        print()
        print(stall_report_markdown(analysis))
    if args.timings:
        _print_telemetry()
    return 0


def _sweep(args) -> int:
    techniques = (list(TECHNIQUES) if args.technique == "all"
                  else [args.technique])
    inline = _inline_program(args)
    programs = ([inline] if inline is not None else
                [ProgramSpec.registry(name) for name in workload_names()])
    requests = [_request(args, program, technique=technique)
                for program in programs for technique in techniques]
    try:
        results = evaluate_many(requests, jobs=args.jobs)
    except RequestValidationError as error:
        raise SystemExit("sweep: %s" % error)
    rows = []
    speedups = {technique: [] for technique in techniques}
    for request, result in zip(requests, results):
        metrics = result.metrics
        rows.append((request.workload, request.technique,
                     "%.3f" % result.speedup,
                     "%d" % metrics["communication_instructions"],
                     "%.1f%%" % (100 * metrics["communication_fraction"])))
        speedups[request.technique].append(result.speedup)
    for technique in techniques:
        rows.append(("geomean", technique,
                     "%.3f" % geomean(speedups[technique]), "", ""))
    print(table(["workload", "technique", "speedup", "comm instrs",
                 "comm %"], rows,
                title="%s%s / %d threads / %s inputs / %d job%s"
                      % ("+".join(techniques),
                         "+coco" if args.coco else "",
                         args.threads, args.scale, args.jobs,
                         "s" if args.jobs != 1 else "")))
    _print_telemetry()
    return 0


def _report(args) -> int:
    """The headline result table of every workload, as Markdown
    (:func:`repro.report.headline`, which also renders the table in
    EXPERIMENTS.md's generated block)."""
    names = workload_names()
    keys = [(name, technique, coco) for name in names
            for technique in ("gremio", "dswp") for coco in (False, True)]
    try:
        results = evaluate_many([
            _request(args, ProgramSpec.registry(name), technique=technique,
                     coco=coco)
            for name, technique, coco in keys])
    except RequestValidationError as error:
        raise SystemExit("report: %s" % error)
    cells = {key: result.metrics for key, result in zip(keys, results)}
    print(headline(names, lambda *key: cells[key]))
    if args.timings:
        _print_telemetry()
    return 0


def _fuzz(args) -> int:
    from .check import run_fuzz
    iterations = args.iterations
    if iterations is None:
        iterations = 25 if args.smoke else 100
    seed = 0 if args.smoke else args.seed
    report = run_fuzz(seed=seed, iterations=iterations,
                      corpus_dir=args.corpus,
                      max_threads=args.max_threads, depth=args.depth,
                      progress=print)
    print(report.summary())
    rows = [(name, str(value))
            for name, value in sorted(report.counters.items())]
    print(table(["counter", "total"], rows, title="fuzz counters"))
    if report.failures:
        print()
        for failure in report.failures:
            print("FAILURE iteration %d cell %s (%s): shrunk %d -> %d "
                  "statements"
                  % (failure.iteration, failure.label, failure.kind,
                     failure.original_size, failure.shrunk_size))
            print("  " + failure.detail.replace("\n", "\n  "))
        if args.corpus:
            print("reproducers written to %s" % args.corpus)
        return 1
    return 0


def _bench(args) -> int:
    import os

    from .bench import (MODES, SchemaError, BenchResults, all_specs,
                        compare, run_bench, scorecard, select_specs)

    if args.list:
        rows = [(spec.id, spec.title, str(len(spec.claims)))
                for spec in all_specs()]
        print(table(["id", "title", "claims"], rows,
                    title="registered bench specs"))
        return 0

    mode = MODES["full" if args.full else "smoke"]
    try:
        select_specs(args.spec)
    except KeyError as error:  # unknown id; the message lists the known
        print("bench: %s" % error.args[0], file=sys.stderr)
        return 2
    results = run_bench(mode, jobs=args.jobs, spec_ids=args.spec,
                        progress=lambda line: print("bench: " + line))
    results.save(args.out)
    print("bench: %d specs, %d metrics -> %s (%.1fs, mode=%s)"
          % (len(results.specs), len(results.metric_items()), args.out,
             results.total_seconds, results.mode))
    print()
    print(scorecard(results))
    if args.timings:
        _print_telemetry()

    if args.update_baseline or os.environ.get("REPRO_UPDATE_BASELINE"):
        os.makedirs(os.path.dirname(args.baseline) or ".",
                    exist_ok=True)
        results.save(args.baseline)
        print("bench: baseline updated -> %s" % args.baseline)
        return 0

    if args.compare is None:
        return 0
    try:
        baseline = BenchResults.load(args.compare)
        comparison = compare(baseline, results,
                             host_strict=args.host_strict)
    except FileNotFoundError:
        print("bench: no baseline at %s — generate one with "
              "`python -m repro bench --%s --update-baseline`"
              % (args.compare, mode.name))
        return 1
    except SchemaError as error:
        print("bench: cannot compare: %s" % error)
        return 1
    table_text = comparison.markdown_table()
    print()
    print(table_text)
    print()
    print(comparison.summary())
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write("## Benchmark regression gate (%s)\n\n%s\n\n%s\n"
                         % (mode.name, table_text, comparison.summary()))
    return 0 if comparison.ok else 1


def _serve(args) -> int:
    from .service import ServiceConfig, ServiceDaemon
    config = ServiceConfig(host=args.host, port=args.port,
                           workers=args.workers,
                           queue_limit=args.queue_limit,
                           request_timeout=args.request_timeout,
                           max_retries=args.max_retries,
                           role=args.role,
                           coordinator_url=args.coordinator,
                           node_id=args.node_id,
                           tenant_limit=args.tenant_limit,
                           heartbeat_interval=args.heartbeat_interval)
    try:
        config.validate()
    except ValueError as error:
        print("repro serve: %s" % error, file=sys.stderr)
        return 2
    if config.role == "coordinator":
        from .cluster import CoordinatorDaemon
        node = CoordinatorDaemon(config)
        print("repro serve[coordinator]: listening on %s "
              "(queue_limit=%d, store=/store, dashboard=/dashboard)"
              % (node.address, config.queue_limit))
    elif config.role == "worker":
        from .cluster import WorkerNode
        node = WorkerNode(config)
        print("repro serve[worker %s]: listening on %s "
              "(coordinator=%s, workers=%d)"
              % (node.node_id, node.address, config.coordinator_url,
                 config.workers))
    else:
        node = ServiceDaemon(config)
        print("repro serve: listening on %s (workers=%d, "
              "queue_limit=%d, timeout=%.1fs)"
              % (node.address, config.workers, config.queue_limit,
                 config.request_timeout))
    sys.stdout.flush()
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        node.close()
    if args.timings:
        _print_telemetry()
    return 0


def _dot(args) -> int:
    from .viz import (cfg_to_dot, pdg_to_dot, program_to_dot,
                      thread_graph_to_dot)
    workload = get_workload(args.workload)
    function = workload.build()
    if args.what == "cfg":
        print(cfg_to_dot(function))
        return 0
    normalize(function)
    train = workload.make_inputs("train")
    result = parallelize(function, technique=args.technique,
                         n_threads=args.threads, coco=args.coco,
                         profile_args=train.args,
                         profile_memory=train.memory,
                         alias_mode=args.alias_mode, normalized=True,
                         mt_check=args.check, topology=args.topology)
    if args.what == "pdg":
        print(pdg_to_dot(result.pdg, result.partition))
    elif args.what == "threads":
        print(thread_graph_to_dot(result.pdg, result.partition))
    else:
        print(program_to_dot(result.program))
    return 0


def _tune(args) -> int:
    # Imported here: the tune subsystem (and its leaderboard writer)
    # loads only when the subcommand actually runs.
    from .api import TuneRequest, tune
    from .tune.leaderboard import markdown_summary
    if args.smoke:
        workloads = ("adpcmdec", "ks")
        strategy, budget, scale = "greedy", 24, "train"
        knobs = ()
    else:
        if args.workloads:
            workloads = tuple(args.workloads)
        else:
            workloads = tuple(w.name for w in all_workloads())
        strategy, budget, scale = args.strategy, args.budget, args.scale
        knobs = tuple(args.knobs) if args.knobs else ()
    request = TuneRequest(workloads=workloads, strategy=strategy,
                          budget=budget, seed=args.seed,
                          n_threads=args.threads, scale=scale, knobs=knobs)
    try:
        result = tune(request, jobs=args.jobs, out_dir=args.out,
                      top=args.top, progress=print)
    except RequestValidationError as error:
        raise SystemExit("tune: %s" % error)
    print()
    print(markdown_summary(result), end="")
    if args.timings:
        _print_telemetry()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--sweep":
        # `python -m repro --sweep` = sweep all workloads x techniques.
        argv[0:1] = ["sweep", "--technique", "all"]
    args = build_parser().parse_args(argv)
    _apply_cache_options(args)
    # Telemetry and cache stats are process-global accumulators; scope
    # the printed report to this command.
    reset_global_telemetry()
    get_cache().stats.reset()
    if args.command == "list":
        print(benchmark_table())
        return 0
    if args.command == "machine":
        if args.topology is not None:
            import dataclasses

            from .machine.config import DEFAULT_CONFIG
            preset = get_topology(args.topology)
            print(config_table(dataclasses.replace(
                DEFAULT_CONFIG, topology=preset,
                n_cores=preset.n_cores)))
        else:
            print(config_table())
        return 0
    if args.command == "run":
        return _run_one(args)
    if args.command == "dump":
        return _dump(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "fuzz":
        return _fuzz(args)
    if args.command == "bench":
        return _bench(args)
    if args.command == "tune":
        return _tune(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "dot":
        return _dot(args)
    if args.command == "report":
        return _report(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
