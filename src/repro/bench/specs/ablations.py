"""Specs for the ablation and sensitivity experiments (GREMIO-E3/E4,
EXT-E1..E7), all through the staged pipeline: matrix cells via
:func:`~repro.bench.harness.evaluation`; swept machine configurations
and GREMIO's region-grouped partition via
:func:`~repro.api.evaluate_summary` (its cell-level result entry
answers a repeat); and where a spec reads the
generated program (overhead classes, communication counts under other
profiles, the outlined loop), :func:`~repro.api.parallelize` plus the
one run it needs.

Under the smoke mode these measure on ``train`` inputs and truncated
benchmark lists; the full mode reproduces the papers' methodology
exactly (``ref`` inputs, complete lists).  Each spec is followed by its
claims; a claim over a list the smoke mode truncates judges the
functions present.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, List, Tuple

from ...executor import run_function
from ...ir.instructions import Instruction, Opcode
from ...ir.outline import OutlineError, outline_hottest_loop
from ...machine import (DEFAULT_CONFIG, run_mt_program, simulate_program,
                        simulate_single)
from ...partition.gremio import GremioPartitioner
from ...api import EvaluateRequest, evaluate_summary, parallelize
from ...stats import (arithmetic_mean, geomean,
                      overhead_breakdown as classify_overheads)
from ...workloads import get_workload
from ...workloads.common import WorkloadInputs
from ..harness import cell, evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec


SCALING_BENCHES = ["ks", "181.mcf", "435.gromacs", "188.ammp"]
HIERARCHY_BENCHES = ["ks", "181.mcf", "435.gromacs", "300.twolf",
                     "183.equake", "458.sjeng"]
BRANCH_BENCHES = ["458.sjeng", "183.equake"]
MEMDIS_BENCHES = ["181.mcf", "435.gromacs", "183.equake"]
REGION_BENCHES = ["181.mcf", "183.equake", "adpcmdec", "mpeg2enc"]
SCHEDULER_BENCHES = ["181.mcf", "435.gromacs", "ks", "188.ammp"]
PROFILE_BENCHES = ["ks", "mpeg2enc", "188.ammp", "300.twolf"]
OVERHEAD_BENCHES = ["ks", "181.mcf", "188.ammp", "300.twolf",
                    "458.sjeng"]
MACHINE_SWEEP_BENCH = "181.mcf"
ALIAS_MODES = ("annotated", "provenance", "none")
LATENCIES = (1, 2, 4, 8, 16, 32)
QUEUE_DEPTHS = (1, 2, 4, 8, 32, 128)


def _parallelized(workload, technique: str, **options):
    """``workload``'s 2-thread ``technique`` parallelization, profiled
    on train — an evaluation's cached front half."""
    train = workload.make_inputs("train")
    return parallelize(workload.build(), technique,
                       profile_args=train.args,
                       profile_memory=train.memory, **options)


# -- EXT-E1: thread-count scaling ------------------------------------------


def _scaling_cells(mode: BenchMode) -> List[EvaluateRequest]:
    benches = mode.pick(SCALING_BENCHES)
    cells = [cell(name, technique, False, threads, mode.scale)
             for name in benches
             for technique in ("gremio", "dswp")
             for threads in (2, 3, 4)]
    cells += [cell(name, "dswp", True, threads, mode.scale)
              for name in benches for threads in (2, 4)]
    return cells


@bench_spec(
    id="ext_scaling",
    title="EXT-E1: thread-count scaling (2/3/4 threads)",
    cells=_scaling_cells)
def ext_scaling(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in ("gremio", "dswp"):
        for name in mode.pick(SCALING_BENCHES):
            for threads in (2, 3, 4):
                ev = evaluation(name, technique, coco=False,
                                n_threads=threads, scale=mode.scale)
                prefix = "%s/%s/%dt" % (technique, name, threads)
                metrics["speedup/" + prefix] = Metric(ev["speedup"],
                                                      unit="x")
                metrics["comm_pct/" + prefix] = Metric(
                    100.0 * ev["communication_fraction"], unit="%")
    for threads in (2, 4):
        removed = 0
        for name in mode.pick(SCALING_BENCHES):
            base = evaluation(name, "dswp", coco=False,
                              n_threads=threads, scale=mode.scale)
            opt = evaluation(name, "dswp", coco=True, n_threads=threads,
                             scale=mode.scale)
            # Instruction counts: whole numbers, carried as floats.
            delta = int(base["communication_instructions"]
                        - opt["communication_instructions"])
            # COCO never increases communication at any thread count.
            assert delta >= 0, (name, threads)
            removed += delta
        metrics["coco_removed/%dt" % threads] = Metric(removed,
                                                       unit="count")
    return metrics


@ext_scaling.claim("EXT-E1/gremio-no-collapse",
                   "more threads never collapse performance")
def _gremio_no_collapse(m):
    low = min(m.under("speedup/gremio/").values())
    return "GREMIO min %.3fx at 2/3/4 threads (> 0.5)" % low, low > 0.5


@ext_scaling.claim("EXT-E1/comm-share-grows",
                   "more threads mean a larger communication share")
def _comm_share_grows(m):
    shares = m.under("comm_pct/dswp/")
    two, four = (arithmetic_mean([value for key, value in shares.items()
                                  if key.endswith("/%dt" % threads)])
                 for threads in (2, 4))
    return ("DSWP mean share %.1f %% at 2T, %.1f %% at 4T (≥ 0.9x)"
            % (two, four), four >= two * 0.9)


@ext_scaling.claim("EXT-E1/coco-removes-at-every-count",
                   "COCO removes communication at any thread count")
def _coco_removes(m):
    two, four = m["coco_removed/2t"], m["coco_removed/4t"]
    return ("DSWP %d removed at 2T, %d at 4T" % (two, four),
            two > 0 and four >= 0)


@ext_scaling.claim("EXT-E1/coco-more-pronounced",
                   "COCO's benefit grows with the thread count "
                   "(conjecture)")
def _coco_more_pronounced(m):
    two, four = m["coco_removed/2t"], m["coco_removed/4t"]
    return "DSWP %d removed at 2T, %d at 4T" % (two, four), four > two


# -- GREMIO-E3: scheduling-policy ablation ---------------------------------


@bench_spec(
    id="ablation_hierarchy",
    title="GREMIO-E3: scheduling-policy ablation (full/flat/region)",
    cells=lambda mode: [cell(name, technique, False, 2, mode.scale)
                        for name in mode.pick(HIERARCHY_BENCHES)
                        for technique in ("gremio", "gremio-flat")])
def ablation_hierarchy(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    per_variant: Dict[str, List[float]] = {"full": [], "flat": [],
                                           "grouped": []}
    for name in mode.pick(HIERARCHY_BENCHES):
        grouped = GremioPartitioner(
            DEFAULT_CONFIG, region_grouping=True).partition_of(
                _parallelized(get_workload(name), "gremio"))
        variants = {
            "full": evaluation(name, "gremio", scale=mode.scale),
            "flat": evaluation(name, "gremio-flat", scale=mode.scale),
            "grouped": evaluate_summary(
                get_workload(name), technique="gremio", scale=mode.scale,
                partition=grouped).metrics,
        }
        for variant, ev in variants.items():
            metrics["speedup/%s/%s" % (variant, name)] = \
                Metric(ev["speedup"], unit="x")
            per_variant[variant].append(ev["speedup"])
    for variant, values in per_variant.items():
        metrics["geomean/%s" % variant] = Metric(geomean(values),
                                                 unit="x")
    return metrics


@ablation_hierarchy.claim("GREMIO-E3/hierarchy-pays",
                          "the loop-nest hierarchy beats flat list "
                          "scheduling overall")
def _hierarchy_pays(m):
    full, flat, grouped = (m["geomean/%s" % variant]
                           for variant in ("full", "flat", "grouped"))
    return ("geomean full %.3fx, flat %.3fx, grouped %.3fx "
            "(full ≥ 0.97 flat)" % (full, flat, grouped),
            full >= flat * 0.97)


@ablation_hierarchy.claim("GREMIO-E3/every-variant-runs",
                          "every scheduling policy yields working code")
def _every_variant_runs(m):
    low = min(m.under("speedup/").values())
    return "min %.3fx (> 0.5)" % low, low > 0.5


# -- EXT-E2: machine-parameter sensitivity ---------------------------------


@bench_spec(
    id="ablation_machine",
    title="EXT-E2: operand-network latency and queue-depth sweeps")
def ablation_machine(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}

    def mt_cycles(**fields) -> Metric:
        ev = evaluate_summary(
            get_workload(MACHINE_SWEEP_BENCH), technique="dswp",
            scale=mode.scale,
            config=dataclasses.replace(DEFAULT_CONFIG, **fields)).metrics
        # One single-threaded baseline: no swept field moves it.
        metrics["st_cycles"] = Metric(ev["st_cycles"], unit="cycles")
        return Metric(ev["mt_cycles"], unit="cycles")

    for latency in LATENCIES:
        metrics["mt_cycles/latency/%d" % latency] = mt_cycles(
            sa_access_latency=latency, sa_queue_size=32)
    for depth in QUEUE_DEPTHS:
        metrics["mt_cycles/queue/%d" % depth] = mt_cycles(
            sa_queue_size=depth)
    return metrics


@ablation_machine.claim("EXT-E2/latency-monotone",
                        "a slower operand network never speeds "
                        "execution up")
def _latency_monotone(m):
    cycles = [m["mt_cycles/latency/%d" % latency] for latency in LATENCIES]
    return ("%d to %d MT cycles over latency %d to %d"
            % (cycles[0], cycles[-1], LATENCIES[0], LATENCIES[-1]),
            all(b >= a * 0.999 for a, b in zip(cycles, cycles[1:])))


@ablation_machine.claim("EXT-E2/queue-depth-second-order",
                        "deeper queues never hurt decoupling")
def _queue_depth_second_order(m):
    cycles = [m["mt_cycles/queue/%d" % depth] for depth in QUEUE_DEPTHS]
    return ("spread %.2f %% (≤ 5 %%); depth %d vs %d %+.2f %% (≤ 2 %%)"
            % (100.0 * (max(cycles) / min(cycles) - 1.0), QUEUE_DEPTHS[-1],
               QUEUE_DEPTHS[0], 100.0 * (cycles[-1] / cycles[0] - 1.0)),
            max(cycles) <= min(cycles) * 1.05
            and cycles[-1] <= cycles[0] * 1.02)


# -- EXT-E5: branch-handling sensitivity -----------------------------------


@bench_spec(
    id="branch_prediction",
    title="EXT-E5: branch-handling models (static/bimodal/perfect)")
def branch_prediction(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(BRANCH_BENCHES):
        for predictor in ("static", "bimodal", "perfect"):
            ev = evaluate_summary(
                get_workload(name), technique="dswp", scale=mode.scale,
                config=dataclasses.replace(DEFAULT_CONFIG.for_dswp(),
                                           branch_predictor=predictor)
            ).metrics
            metrics["st_cycles/%s/%s" % (predictor, name)] = \
                Metric(ev["st_cycles"], unit="cycles")
            metrics["speedup/%s/%s" % (predictor, name)] = \
                Metric(ev["speedup"], unit="x")
    return metrics


@branch_prediction.claim("EXT-E5/perfect-front-end-fastest",
                         "a perfect front end is the fastest "
                         "single-threaded model")
def _perfect_front_end_fastest(m):
    ratios = [cycles / min(m["st_cycles/static/" + name],
                           m["st_cycles/bimodal/" + name])
              for name, cycles in m.under("st_cycles/perfect/").items()]
    return ("perfect ≤ %.3f of the better other model (≤ 1.001)"
            % max(ratios), max(ratios) <= 1.001)


@branch_prediction.claim("EXT-E5/bimodal-regimes",
                         "bimodal prediction suits regular loops and "
                         "loses on data-dependent branches")
def _bimodal_regimes(m):
    equake, sjeng = ([m["st_cycles/%s/%s" % (model, name)]
                      for model in ("static", "bimodal")]
                     for name in ("183.equake", "458.sjeng"))
    return ("ST cycles static to bimodal: equake %d to %d, sjeng %d to %d"
            % tuple(equake + sjeng),
            equake[1] <= equake[0] and sjeng[1] > sjeng[0])


# -- EXT-E3: memory-disambiguation sensitivity -----------------------------


@bench_spec(
    id="memory_disambiguation",
    title="EXT-E3: DSWP speedup vs memory-disambiguation power",
    cells=lambda mode: [cell(name, "dswp", False, 2, mode.scale,
                             alias_mode=alias)
                        for name in mode.pick(MEMDIS_BENCHES)
                        for alias in ALIAS_MODES])
def memory_disambiguation(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(MEMDIS_BENCHES):
        for alias in ALIAS_MODES:
            ev = evaluation(name, "dswp", scale=mode.scale,
                            alias_mode=alias)
            metrics["speedup/%s/%s" % (alias, name)] = \
                Metric(ev["speedup"], unit="x")
    return metrics


@memory_disambiguation.claim("EXT-E3/weaker-alias-never-adds",
                             "weaker disambiguation never adds "
                             "parallelism")
def _weaker_alias_never_adds(m):
    annotated = m.under("speedup/annotated/")
    excess = max(m["speedup/%s/%s" % (alias, name)] - speedup
                 for name, speedup in annotated.items()
                 for alias in ALIAS_MODES[1:])
    return "at most %+.3f over `annotated` (≤ 0.02)" % excess, \
        excess <= 0.02


@memory_disambiguation.claim("EXT-E3/no-alias-collapses",
                             "in-loop memory dependences are bidirectional "
                             "and weld a loop onto one thread")
def _no_alias_collapses(m):
    speedups = m.under("speedup/none/").values()
    collapsed = sum(speedup <= 1.02 for speedup in speedups)
    return ("%d/%d at ≤ 1.02x without alias analysis (≥ 2)"
            % (collapsed, len(speedups)), collapsed >= 2)


# -- EXT-E6: region selection ----------------------------------------------


def _outlined_loop_speedup(workload, mode: BenchMode) -> float:
    """Outline the hottest loop of the (normalized) function, then run
    the pipeline on the outlined region alone, its live-ins replayed from
    the enclosing function."""
    whole = _parallelized(workload, "dswp")
    function = whole.function
    extracted = outline_hottest_loop(function, whole.profile)
    loop_fn = extracted.function
    # Re-derive the loop's live-in values: run the enclosing function
    # with the loop header turned into an exit, so the run ends where
    # the loop is first entered (the kernels initialize loop-carried
    # registers in straight-line setup code).
    prefix = copy.deepcopy(function)
    prefix.block(extracted.header).instructions = [Instruction(Opcode.EXIT)]

    def loop_inputs(scale: str) -> WorkloadInputs:
        inputs = workload.make_inputs(scale)
        run = run_function(prefix, inputs.args, inputs.memory)
        return WorkloadInputs(
            {name: run.regs.get(name, 0) for name in loop_fn.params
             if name not in loop_fn.pointer_params},
            {name: run.mem_object(name) for name in loop_fn.mem_objects})

    measure, train = loop_inputs(mode.scale), loop_inputs("train")
    loop = parallelize(loop_fn, "dswp", profile_args=train.args,
                       profile_memory=train.memory, normalized=True)
    st = simulate_single(loop_fn, measure.args, measure.memory,
                         config=loop.config)
    mt = simulate_program(loop.program, measure.args, measure.memory,
                          config=loop.config)
    assert mt.live_outs == st.live_outs
    return st.cycles / mt.cycles


@bench_spec(
    id="region_selection",
    title="EXT-E6: whole procedure vs outlined hottest loop",
    cells=lambda mode: [cell(name, "dswp", False, 2, mode.scale)
                        for name in mode.pick(REGION_BENCHES)])
def region_selection(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(REGION_BENCHES):
        whole = evaluation(name, "dswp", scale=mode.scale)["speedup"]
        metrics["speedup/whole/%s" % name] = Metric(whole, unit="x")
        try:
            loop = _outlined_loop_speedup(get_workload(name), mode)
        except OutlineError:
            loop = float("nan")
        metrics["speedup/outlined/%s" % name] = Metric(loop, unit="x")
    return metrics


@region_selection.claim("EXT-E6/loop-region-suffices",
                        "DSWP's loop region holds the parallelism of the "
                        "whole procedure")
def _loop_region_suffices(m):
    ratios = [m["speedup/outlined/" + name] / whole
              for name, whole in m.under("speedup/whole/").items()]
    # A failed outlining reads NaN, which fails the comparison too.
    return ("outlined/whole min %.3f (≥ 0.8)" % min(ratios),
            all(ratio >= 0.8 for ratio in ratios))


# -- EXT-E4: local-scheduler interaction -----------------------------------


#: EXT-E4's local-scheduler priorities, by metric label.
PRIORITIES = (("none", None), ("early", "early"), ("late", "late"))


@bench_spec(
    id="scheduler_interaction",
    title="EXT-E4: COCO x downstream local scheduler priorities",
    cells=lambda mode: [cell(name, "dswp", True, 2, mode.scale,
                             local_schedule=priority)
                        for name in mode.pick(SCHEDULER_BENCHES)
                        for _, priority in PRIORITIES])
def scheduler_interaction(mode: BenchMode) -> MetricMap:
    # The local scheduler runs over the single-threaded baseline too:
    # the comparison is between equally-optimized codes, as in the
    # papers' toolchain.
    metrics: MetricMap = {}
    for name in mode.pick(SCHEDULER_BENCHES):
        for label, priority in PRIORITIES:
            ev = evaluation(name, "dswp", coco=True, scale=mode.scale,
                            local_schedule=priority)
            metrics["speedup/%s/%s" % (label, name)] = \
                Metric(ev["speedup"], unit="x")
    return metrics


def _by_priority(m) -> Dict[str, Tuple[float, float, float]]:
    """``{function: (unscheduled, comm-early, comm-late)}`` speedups."""
    return {name: (unscheduled, m["speedup/early/" + name],
                   m["speedup/late/" + name])
            for name, unscheduled in m.under("speedup/none/").items()}


@scheduler_interaction.claim("EXT-E4/bad-interaction",
                             "the later local scheduler can slightly "
                             "degrade COCO code")
def _bad_interaction(m):
    degraded = [name for name, (none, early, late) in _by_priority(m).items()
                if max(early, late) < none]
    return "degraded: %s" % (", ".join(degraded) or "none"), bool(degraded)


@scheduler_interaction.claim("EXT-E4/priority-knob",
                             "the produce/consume priority mitigates it")
def _priority_knob(m):
    rows = _by_priority(m).values()
    return ("better priority ≥ %.3f of unscheduled (≥ 0.97)"
            % min(max(early, late) / none for none, early, late in rows),
            all(max(early, late) >= none * 0.97
                for none, early, late in rows))


@scheduler_interaction.claim("EXT-E4/no-first-order-loss",
                             "local scheduling is never a first-order "
                             "loss")
def _no_first_order_loss(m):
    rows = _by_priority(m).values()
    return ("worse priority ≥ %.3f of unscheduled (≥ 0.85)"
            % min(min(early, late) / none for none, early, late in rows),
            all(min(early, late) >= none * 0.85
                for none, early, late in rows))


# -- EXT-E7: COCO profile-source sensitivity -------------------------------


def _comm_with_profile(workload, which: str, mode: BenchMode) -> int:
    """Dynamic communication of DSWP's train partition: plain MTCG
    (``baseline``), or COCO weighing its channels by the ``train``,
    ``oracle`` (measure-input) or ``static`` (no-input) profile."""
    built = _parallelized(workload, "dswp", coco=which != "baseline")
    if which in ("oracle", "static"):
        # The partition itself always uses the train profile (so only
        # COCO's cost source varies); no profiling input means the
        # static estimate.
        profiled = {}
        if which == "oracle":
            oracle = workload.make_inputs(mode.scale)
            profiled = {"profile_args": oracle.args,
                        "profile_memory": oracle.memory}
        built = parallelize(workload.build(), "dswp", coco=True,
                            partition=built.partition, **profiled)
    measure = workload.make_inputs(mode.scale)
    return run_mt_program(built.program, measure.args, measure.memory,
                          queue_capacity=built.config.sa_queue_size
                          ).communication_instructions


@bench_spec(
    id="profile_sensitivity",
    title="EXT-E7: COCO cost source (train/oracle/static profiles)")
def profile_sensitivity(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(PROFILE_BENCHES):
        workload = get_workload(name)
        for source in ("baseline", "train", "oracle", "static"):
            metrics["comm/%s/%s" % (source, name)] = \
                Metric(_comm_with_profile(workload, source, mode),
                       unit="count")
    return metrics


def _by_source(m) -> List[Dict[str, float]]:
    """Per function: ``{source: dynamic communication}``."""
    return [{source: m["comm/%s/%s" % (source, name)]
             for source in ("baseline", "train", "oracle", "static")}
            for name in m.under("comm/baseline/")]


@profile_sensitivity.claim("EXT-E7/profiled-never-exceeds-baseline",
                           "COCO with a profile never adds communication")
def _profiled_never_exceeds(m):
    rows = _by_source(m)
    return ("summed: MTCG %d, train %d, oracle %d"
            % tuple(sum(row[source] for row in rows)
                    for source in ("baseline", "train", "oracle")),
            all(row["train"] <= row["baseline"]
                and row["oracle"] <= row["baseline"] for row in rows))


@profile_sensitivity.claim("EXT-E7/oracle-not-worse-than-train",
                           "a ref-input (oracle) profile is never worse "
                           "than the train profile")
def _oracle_not_worse(m):
    rows = _by_source(m)
    same = sum(row["oracle"] == row["train"] for row in rows)
    return ("oracle = train on %d/%d (oracle ≤ 1.02x train)"
            % (same, len(rows)),
            all(row["oracle"] <= row["train"] * 1.02 for row in rows))


@profile_sensitivity.claim("EXT-E7/static-accurate",
                           "static (Wu-Larus) estimates are also very "
                           "accurate")
def _static_accurate(m):
    rows = _by_source(m)
    static, train = (sum(row[source] for row in rows)
                     for source in ("static", "train"))
    same = sum(row["static"] == row["train"] for row in rows)
    return ("static = train on %d/%d; summed static %d vs train %d "
            "(≤ 1.25x)" % (same, len(rows), static, train),
            static <= train * 1.25
            and all(row["static"] <= row["baseline"] * 1.05
                    for row in rows))


# -- GREMIO-E4: dynamic overhead breakdown ---------------------------------


def _breakdown(name: str, technique: str, coco: bool,
               mode: BenchMode) -> Dict[str, float]:
    workload = get_workload(name)
    built = _parallelized(workload, technique, coco=coco)
    measure = workload.make_inputs(mode.scale)
    run = run_mt_program(built.program, measure.args, measure.memory,
                         queue_capacity=built.config.sa_queue_size)
    return classify_overheads(built.program, run)


@bench_spec(
    id="overhead_breakdown",
    title="GREMIO-E4: dynamic overhead breakdown of generated MT code")
def overhead_breakdown(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(OVERHEAD_BENCHES):
        base = _breakdown(name, "dswp", coco=False, mode=mode)
        coco = _breakdown(name, "dswp", coco=True, mode=mode)
        for klass, value in base.items():
            metrics["pct/base/%s/%s" % (klass, name)] = Metric(value,
                                                               unit="%")
        for klass in ("communication", "replicated_control"):
            metrics["pct/coco/%s/%s" % (klass, name)] = \
                Metric(coco[klass], unit="%")
    return metrics


OVERHEAD_CLASSES = ("computation", "communication", "replicated_control",
                    "glue")


@overhead_breakdown.claim("GREMIO-E4/classes-cover-everything",
                          "every dynamic MT instruction is computation, "
                          "communication, replicated control or glue")
def _classes_cover_everything(m):
    names = m.under("pct/base/computation/")
    error = max(abs(sum(m["pct/base/%s/%s" % (klass, name)]
                        for klass in OVERHEAD_CLASSES) - 100.0)
                for name in names)
    return "classes sum to 100 %% within %.0e" % error, error < 1e-6


@overhead_breakdown.claim("GREMIO-E4/computation-dominates",
                          "MTCG's overheads are material, computation "
                          "still dominates")
def _computation_dominates(m):
    low = min(m.under("pct/base/computation/").values())
    return "computation ≥ %.1f %% (> 40 %%)" % low, low > 40.0


@overhead_breakdown.claim("GREMIO-E4/coco-shrinks-communication",
                          "COCO shifts the communication share down")
def _coco_shrinks_communication(m):
    growth = max(m["pct/coco/communication/" + name] - share
                 for name, share in
                 m.under("pct/base/communication/").items())
    return ("communication share change ≤ %+.1f points (≤ +1)" % growth,
            growth <= 1.0)
