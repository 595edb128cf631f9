"""Specs for the ablation and sensitivity experiments (GREMIO-E3/E4,
EXT-E1..E7): custom pipeline assemblies that bypass the evaluation
matrix (variant partitioners, machine-parameter sweeps, outlined
regions, profile-source swaps).

Under the smoke mode these measure on ``train`` inputs and truncated
benchmark lists; the full mode reproduces the papers' methodology
exactly (``ref`` inputs, complete lists).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, List, Tuple

from ...analysis import build_pdg
from ...coco.driver import optimize as coco_optimize
from ...executor import run_compiled
from ...interp import static_profile
from ...interp.context import ThreadContext
from ...interp.profile import EdgeProfile
from ...interp.state import bind_params, make_memory
from ...ir import Opcode
from ...ir.outline import OutlineError, outline_hottest_loop
from ...machine import DEFAULT_CONFIG, run_mt_program
from ...machine.fast_timing import (
    simulate_program_fast as simulate_program,
    simulate_single_fast as simulate_single)
from ...mtcg import generate
from ...opt.scheduler import (CommPriority, schedule_function,
                              schedule_program)
from ...partition.dswp import DSWPPartitioner
from ...partition.gremio import GremioPartitioner
from ...api import (MatrixCell, make_partitioner, normalize,
                    technique_config)
from ...stats import geomean, overhead_breakdown
from ...workloads import get_workload
from ..harness import evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec


# Per-process memo of the derivation chain every ablation repeats for a
# workload: the train-input profile and the PDG of its normalized
# function.  Workload builds are deterministic — the persistent pipeline
# cache already applies cached profiles/PDGs to freshly built functions —
# so the shared objects are valid against any fresh build; call sites
# still rebuild the Function itself because downstream passes may mutate
# it (local scheduling, outlining).
_TRAIN_DERIVATIONS: dict = {}


def _train_derivation(workload) -> tuple:
    """(train profile, PDG) for the workload's normalized function."""
    cached = _TRAIN_DERIVATIONS.get(workload.name)
    if cached is None:
        function = normalize(workload.build())
        train = workload.make_inputs("train")
        profile = run_compiled(function, train.args,
                               train.memory).profile
        cached = (profile, build_pdg(function))
        _TRAIN_DERIVATIONS[workload.name] = cached
    return cached

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


def _prepare_dswp(name: str, mode: BenchMode,
                  config=None) -> Tuple[object, object, object]:
    """(function, generated MT program, measure inputs) for the fixed
    DSWP assembly the machine/branch sweeps study."""
    workload = get_workload(name)
    function = normalize(workload.build())
    measure = workload.make_inputs(mode.scale)
    profile, pdg = _train_derivation(workload)
    partition = DSWPPartitioner(config or DEFAULT_CONFIG).partition(
        function, pdg, profile, 2)
    program = generate(function, pdg, partition)
    return function, program, measure


# -- EXT-E1: thread-count scaling ------------------------------------------


def _scaling_cells(mode: BenchMode) -> List[MatrixCell]:
    benches = mode.pick(SCALING_BENCHES)
    cells = [MatrixCell(name, technique, False, threads, mode.scale)
             for name in benches
             for technique in ("gremio", "dswp")
             for threads in (2, 3, 4)]
    cells += [MatrixCell(name, "dswp", True, threads, mode.scale)
              for name in benches for threads in (2, 4)]
    return cells


@bench_spec(
    id="ext_scaling",
    title="EXT-E1: thread-count scaling (2/3/4 threads)",
    source="benchmarks/bench_ext_scaling.py",
    cells=_scaling_cells)
def collect_ext_scaling(mode: BenchMode) -> MetricMap:
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


# -- GREMIO-E3: scheduling-policy ablation ---------------------------------


def _speedup_with(workload, partitioner, mode: BenchMode) -> float:
    function = normalize(workload.build())
    measure = workload.make_inputs(mode.scale)
    profile, pdg = _train_derivation(workload)
    partition = partitioner.partition(function, pdg, profile, 2)
    program = generate(function, pdg, partition)
    st = simulate_single(function, measure.args, measure.memory)
    mt = simulate_program(program, measure.args, measure.memory)
    assert mt.live_outs == st.live_outs
    return st.cycles / mt.cycles


@bench_spec(
    id="ablation_hierarchy",
    title="GREMIO-E3: scheduling-policy ablation (full/flat/region)",
    source="benchmarks/bench_ablation_hierarchy.py")
def collect_ablation_hierarchy(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    per_variant: Dict[str, List[float]] = {"full": [], "flat": [],
                                           "grouped": []}
    for name in mode.pick(HIERARCHY_BENCHES):
        workload = get_workload(name)
        variants = {
            "full": GremioPartitioner(DEFAULT_CONFIG),
            "flat": GremioPartitioner(DEFAULT_CONFIG,
                                      hierarchical=False),
            "grouped": GremioPartitioner(DEFAULT_CONFIG,
                                         region_grouping=True),
        }
        for variant, partitioner in variants.items():
            speedup = _speedup_with(workload, partitioner, mode)
            metrics["speedup/%s/%s" % (variant, name)] = \
                Metric(speedup, unit="x")
            per_variant[variant].append(speedup)
    for variant, values in per_variant.items():
        metrics["geomean/%s" % variant] = Metric(geomean(values),
                                                 unit="x")
    return metrics


# -- EXT-E2: machine-parameter sensitivity ---------------------------------


@bench_spec(
    id="ablation_machine",
    title="EXT-E2: operand-network latency and queue-depth sweeps",
    source="benchmarks/bench_ablation_machine.py")
def collect_ablation_machine(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    function, program, measure = _prepare_dswp(MACHINE_SWEEP_BENCH, mode)
    st = simulate_single(function, measure.args, measure.memory)
    metrics["st_cycles"] = Metric(st.cycles, unit="cycles")
    for latency in LATENCIES:
        config = dataclasses.replace(DEFAULT_CONFIG,
                                     sa_access_latency=latency,
                                     sa_queue_size=32)
        mt = simulate_program(program, measure.args, measure.memory,
                              config=config)
        assert mt.live_outs == st.live_outs
        metrics["mt_cycles/latency/%d" % latency] = Metric(mt.cycles,
                                                           unit="cycles")
    for depth in QUEUE_DEPTHS:
        config = dataclasses.replace(DEFAULT_CONFIG, sa_queue_size=depth)
        mt = simulate_program(program, measure.args, measure.memory,
                              config=config)
        assert mt.live_outs == st.live_outs
        metrics["mt_cycles/queue/%d" % depth] = Metric(mt.cycles,
                                                       unit="cycles")
    return metrics


# -- EXT-E5: branch-handling sensitivity -----------------------------------


@bench_spec(
    id="branch_prediction",
    title="EXT-E5: branch-handling models (static/bimodal/perfect)",
    source="benchmarks/bench_branch_prediction.py")
def collect_branch_prediction(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(BRANCH_BENCHES):
        function, program, measure = _prepare_dswp(
            name, mode, config=DEFAULT_CONFIG.for_dswp())
        for predictor in ("static", "bimodal", "perfect"):
            config = dataclasses.replace(DEFAULT_CONFIG.for_dswp(),
                                         branch_predictor=predictor)
            st = simulate_single(function, measure.args, measure.memory,
                                 config=config)
            mt = simulate_program(program, measure.args, measure.memory,
                                  config=config)
            assert mt.live_outs == st.live_outs
            metrics["st_cycles/%s/%s" % (predictor, name)] = \
                Metric(st.cycles, unit="cycles")
            metrics["speedup/%s/%s" % (predictor, name)] = \
                Metric(st.cycles / mt.cycles, unit="x")
    return metrics


# -- EXT-E3: memory-disambiguation sensitivity -----------------------------


@bench_spec(
    id="memory_disambiguation",
    title="EXT-E3: DSWP speedup vs memory-disambiguation power",
    source="benchmarks/bench_memory_disambiguation.py",
    cells=lambda mode: [MatrixCell(name, "dswp", False, 2, mode.scale,
                                   alias)
                        for name in mode.pick(MEMDIS_BENCHES)
                        for alias in ALIAS_MODES])
def collect_memory_disambiguation(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(MEMDIS_BENCHES):
        for alias in ALIAS_MODES:
            ev = evaluation(name, "dswp", scale=mode.scale,
                            alias_mode=alias)
            metrics["speedup/%s/%s" % (alias, name)] = \
                Metric(ev["speedup"], unit="x")
    return metrics


# -- EXT-E6: region selection ----------------------------------------------


def _profile_with_memory(function, args, memory) -> EdgeProfile:
    """Interpret with a pre-built memory image (objects already laid
    out)."""
    mem_copy = copy.deepcopy(memory)
    regs = dict(args)
    for param, obj_name in function.pointer_params.items():
        regs[param] = function.mem_objects[obj_name].base
    context = ThreadContext(function, regs, mem_copy, None)
    profile = EdgeProfile(function)
    profile.count_block(context.block.label)
    while not context.exited:
        previous = context.block.label
        result = context.step()
        instruction = result.instruction
        if instruction is not None and instruction.op in (Opcode.BR,
                                                          Opcode.JMP):
            profile.count_edge(previous, context.block.label)
            profile.count_block(context.block.label)
    return profile


def _image_to_initial(function, memory):
    return {name: memory.read_array(obj.base, obj.size)
            for name, obj in function.mem_objects.items()}


def _whole_function_speedup(workload, mode: BenchMode) -> float:
    function = normalize(workload.build())
    measure = workload.make_inputs(mode.scale)
    profile, pdg = _train_derivation(workload)
    config = DEFAULT_CONFIG.for_dswp()
    partition = DSWPPartitioner(config).partition(function, pdg,
                                                  profile, 2)
    program = generate(function, pdg, partition)
    st = simulate_single(function, measure.args, measure.memory,
                         config=config)
    mt = simulate_program(program, measure.args, measure.memory,
                          config=config)
    assert mt.live_outs == st.live_outs
    return st.cycles / mt.cycles


def _outlined_loop_speedup(workload, mode: BenchMode) -> float:
    """Outline the hottest loop of the (normalized) function, then run
    the pipeline on the outlined region alone (see the EXT-E6 module
    docstring for the replay caveats)."""
    function = normalize(workload.build())
    train = workload.make_inputs("train")
    profile, _ = _train_derivation(workload)
    extracted = outline_hottest_loop(function, profile)
    loop_fn = extracted.function

    def loop_args(inputs):
        # Re-derive the loop's live-in values: interpret the enclosing
        # function until the loop header is first reached (the kernels
        # initialize loop-carried registers in straight-line setup code).
        memory = make_memory(function, inputs.memory)
        regs = bind_params(function, dict(inputs.args))
        context = ThreadContext(function, regs, memory, None)
        while context.block.label != extracted.header:
            context.step()
        return ({name: regs.get(name, 0)
                 for name in loop_fn.params
                 if name not in loop_fn.pointer_params}, memory)

    args, memory = loop_args(workload.make_inputs(mode.scale))
    profile_args, profile_memory = loop_args(train)
    config = DEFAULT_CONFIG.for_dswp()
    pdg = build_pdg(loop_fn)
    loop_profile = _profile_with_memory(loop_fn, profile_args,
                                        profile_memory)
    partition = DSWPPartitioner(config).partition(loop_fn, pdg,
                                                  loop_profile, 2)
    program = generate(loop_fn, pdg, partition)
    st = simulate_single(loop_fn, args,
                         _image_to_initial(loop_fn,
                                           copy.deepcopy(memory)),
                         config=config)
    mt = simulate_program(program, args,
                          _image_to_initial(program.original,
                                            copy.deepcopy(memory)),
                          config=config)
    assert mt.live_outs == st.live_outs
    return st.cycles / mt.cycles


@bench_spec(
    id="region_selection",
    title="EXT-E6: whole procedure vs outlined hottest loop",
    source="benchmarks/bench_region_selection.py")
def collect_region_selection(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(REGION_BENCHES):
        workload = get_workload(name)
        metrics["speedup/whole/%s" % name] = \
            Metric(_whole_function_speedup(workload, mode), unit="x")
        try:
            loop = _outlined_loop_speedup(workload, mode)
        except OutlineError:
            loop = float("nan")
        metrics["speedup/outlined/%s" % name] = Metric(loop, unit="x")
    return metrics


# -- EXT-E4: local-scheduler interaction -----------------------------------


def _scheduled_speedup(name: str, comm_priority,
                       mode: BenchMode) -> float:
    workload = get_workload(name)
    function = normalize(workload.build())
    measure = workload.make_inputs(mode.scale)
    profile, pdg = _train_derivation(workload)
    config = technique_config("dswp")
    partition = make_partitioner("dswp", config).partition(
        function, pdg, profile, 2)
    coco = coco_optimize(function, pdg, partition, profile)
    program = generate(function, pdg, partition,
                       data_channels=coco.data_channels,
                       condition_covered=coco.condition_covered)
    if comm_priority is not None:
        schedule_program(program, config, comm_priority)
        # Schedule the single-threaded baseline too: the comparison is
        # between equally-optimized codes, as in the papers' toolchain.
        schedule_function(function, config, comm_priority)
    st = simulate_single(function, measure.args, measure.memory,
                         config=config)
    mt = simulate_program(program, measure.args, measure.memory,
                          config=config)
    assert mt.live_outs == st.live_outs
    return st.cycles / mt.cycles


@bench_spec(
    id="scheduler_interaction",
    title="EXT-E4: COCO x downstream local scheduler priorities",
    source="benchmarks/bench_scheduler_interaction.py")
def collect_scheduler_interaction(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    priorities = (("none", None), ("early", CommPriority.EARLY),
                  ("late", CommPriority.LATE))
    for name in mode.pick(SCHEDULER_BENCHES):
        for label, priority in priorities:
            metrics["speedup/%s/%s" % (label, name)] = \
                Metric(_scheduled_speedup(name, priority, mode),
                       unit="x")
    return metrics


# -- EXT-E7: COCO profile-source sensitivity -------------------------------


def _comm_with_profile(workload, which: str, mode: BenchMode) -> int:
    function = normalize(workload.build())
    measure = workload.make_inputs(mode.scale)
    config = technique_config("dswp")
    # The partition itself always uses the train profile (so only COCO's
    # cost source varies).
    train_profile, pdg = _train_derivation(workload)
    partition = DSWPPartitioner(config).partition(function, pdg,
                                                  train_profile, 2)
    if which == "baseline":
        program = generate(function, pdg, partition)
    else:
        if which == "train":
            profile = train_profile
        elif which == "oracle":
            profile = run_compiled(function, measure.args,
                                   measure.memory).profile
        else:
            profile = static_profile(function)
        coco = coco_optimize(function, pdg, partition, profile)
        program = generate(function, pdg, partition,
                           data_channels=coco.data_channels,
                           condition_covered=coco.condition_covered)
    result = run_mt_program(program, measure.args, measure.memory,
                            queue_capacity=config.sa_queue_size)
    return result.communication_instructions


@bench_spec(
    id="profile_sensitivity",
    title="EXT-E7: COCO cost source (train/oracle/static profiles)",
    source="benchmarks/bench_profile_sensitivity.py")
def collect_profile_sensitivity(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for name in mode.pick(PROFILE_BENCHES):
        workload = get_workload(name)
        for source in ("baseline", "train", "oracle", "static"):
            metrics["comm/%s/%s" % (source, name)] = \
                Metric(_comm_with_profile(workload, source, mode),
                       unit="count")
    return metrics


# -- GREMIO-E4: dynamic overhead breakdown ---------------------------------


def _breakdown(name: str, technique: str, coco: bool,
               mode: BenchMode) -> Dict[str, float]:
    workload = get_workload(name)
    function = normalize(workload.build())
    train = workload.make_inputs("train")
    measure = workload.make_inputs(mode.scale)
    profile = run_compiled(function, train.args, train.memory).profile
    pdg = build_pdg(function)
    config = technique_config(technique)
    partition = make_partitioner(technique, config).partition(
        function, pdg, profile, 2)
    if coco:
        result = coco_optimize(function, pdg, partition, profile)
        program = generate(function, pdg, partition,
                           data_channels=result.data_channels,
                           condition_covered=result.condition_covered)
    else:
        program = generate(function, pdg, partition)
    run = run_mt_program(program, measure.args, measure.memory,
                         queue_capacity=config.sa_queue_size,
                         count_per_instruction=True)
    return overhead_breakdown(program, run)


@bench_spec(
    id="overhead_breakdown",
    title="GREMIO-E4: dynamic overhead breakdown of generated MT code",
    source="benchmarks/bench_overhead_breakdown.py")
def collect_overhead_breakdown(mode: BenchMode) -> MetricMap:
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
