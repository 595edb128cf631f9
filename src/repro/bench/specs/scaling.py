"""TOPO-E1: topology-aware thread scaling (flat vs clustered machines).

Thread-scaling curves at 1/2/4/8 threads over the machine-topology
presets (:data:`repro.machine.topology.TOPOLOGIES`): the flat presets
(``paper-dual``, ``quad-flat``) keep the papers' uniform
synchronization array, the clustered presets (``quad-2x2``,
``octa-hier``) split it with an inter-cluster crossing penalty and
per-cluster L3 domains.  The cycle counts are deterministic simulator
output (exact tolerance), so the spec doubles as a regression gate for
the clustered machine model.

The second half compares the ``identity`` and ``affinity`` thread
placers on the clustered quad machine — the affinity placer must never
lose to identity (it falls back to the identity placement unless the
estimated crossing cost strictly improves), which the claims below and
the CI scaling-smoke job check from these metrics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...api import TOPOLOGIES, EvaluateRequest
from ..harness import cell, evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec

TECHNIQUES = ("gremio", "dswp")

#: Small, pipeline-heavy kernels so the full 1/2/4/8-thread x preset
#: product stays cheap; the smoke mode truncates to the first entry.
SCALING_BENCHES = ("ks", "adpcmdec")

#: The presets on the scaling curve, flat first.  Thread counts are the
#: powers of two the preset has cores for.
TOPOLOGY_CURVE: Tuple[str, ...] = ("paper-dual", "quad-flat",
                                   "quad-2x2", "octa-hier")

#: The clustered cell the identity-vs-affinity comparison runs on.
PLACER_TOPOLOGY = "quad-2x2"
PLACER_THREADS = 4


def curve_threads(preset: str) -> List[int]:
    """The 1/2/4/8-thread curve truncated to the preset's core count."""
    n_cores = TOPOLOGIES[preset].n_cores
    return [n for n in (1, 2, 4, 8) if n <= n_cores]


def _presets(mode: BenchMode) -> List[str]:
    # Smoke keeps one flat and one clustered preset (the quad pair
    # shares thread counts, so the flat-vs-clustered delta is direct).
    if mode.is_smoke:
        return ["quad-flat", "quad-2x2"]
    return list(TOPOLOGY_CURVE)


def _benches(mode: BenchMode) -> List[str]:
    return mode.pick(list(SCALING_BENCHES), limit=1)


def _scaling_cells(mode: BenchMode) -> List[EvaluateRequest]:
    cells = [cell(name, technique, False, threads, mode.scale,
                  topology=preset)
             for name in _benches(mode)
             for technique in TECHNIQUES
             for preset in _presets(mode)
             for threads in curve_threads(preset)]
    cells += [cell(name, technique, False, PLACER_THREADS, mode.scale,
                   topology=PLACER_TOPOLOGY, placer=placer)
              for name in _benches(mode)
              for technique in TECHNIQUES
              for placer in ("identity", "affinity")]
    return cells


@bench_spec(
    id="topology_scaling",
    title="TOPO-E1: thread scaling across machine topologies",
    cells=_scaling_cells)
def topology_scaling(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        for name in _benches(mode):
            for preset in _presets(mode):
                for threads in curve_threads(preset):
                    ev = evaluation(name, technique,
                                    n_threads=threads,
                                    scale=mode.scale, topology=preset)
                    prefix = "%s/%s/%s/%dt" % (technique, name, preset,
                                               threads)
                    metrics["mt_cycles/" + prefix] = Metric(
                        ev["mt_cycles"], unit="cycles")
                    metrics["speedup/" + prefix] = Metric(ev["speedup"],
                                                          unit="x")
            placed: Dict[str, float] = {}
            for placer in ("identity", "affinity"):
                ev = evaluation(name, technique,
                                n_threads=PLACER_THREADS,
                                scale=mode.scale,
                                topology=PLACER_TOPOLOGY, placer=placer)
                placed[placer] = ev["mt_cycles"]
                metrics["placer_cycles/%s/%s/%s" %
                        (technique, name, placer)] = Metric(
                    placed[placer], unit="cycles")
            # Cycles the affinity placer saved over identity on the
            # clustered quad (>= 0 by the placer's fallback contract).
            metrics["placer_gain/%s/%s" % (technique, name)] = Metric(
                placed["identity"] - placed["affinity"], unit="cycles")
    return metrics


@topology_scaling.claim("TOPO-E1/one-thread-topology-invariant",
                        "the flat dual core is the one-cluster case: one "
                        "thread never crosses clusters")
def _one_thread_invariant(m):
    curves = m.under("mt_cycles/")    # "<technique>/<name>/<preset>/<n>t"
    single: Dict[str, set] = {}
    for key, cycles in curves.items():
        run, _preset, threads = key.rsplit("/", 2)
        if threads == "1t":
            single.setdefault(run, set()).add(cycles)
    same = sum(len(counts) == 1 for counts in single.values())
    low = min(curves.values())
    return ("1T cycles equal on every preset for %d/%d runs; min %d "
            "cycles (> 0)" % (same, len(single), low),
            same == len(single) and low > 0)


@topology_scaling.claim("TOPO-E1/affinity-never-loses",
                        "the affinity placer never loses to identity")
def _affinity_never_loses(m):
    gains = m.under("placer_gain/").values()
    return "gain ≥ %d cycles" % min(gains), min(gains) >= 0


@topology_scaling.claim("TOPO-E1/affinity-improves-somewhere",
                        "crossing-aware placement pays on a clustered "
                        "machine")
def _affinity_improves(m):
    gains = m.under("placer_gain/")
    improved = [key for key, gain in gains.items() if gain > 0]
    return ("improved: %s" % (", ".join(improved) or "none"),
            bool(improved))
