"""One single-threaded baseline per function.

The paper's speedup is single-threaded cycles over multi-threaded
cycles, and every queue configuration of a function — GREMIO's 1-entry
queues, DSWP's 32 — is measured against the same one-core run.  The
pipeline keys and runs that baseline on ``MachineConfig.single_core()``,
which resets the inter-core fields.  These tests hold the projection
sound (no such field changes a one-thread run, locally scheduled or
not) and check that the pipeline shares the baseline across techniques
and synchronization-array overrides.
"""

import dataclasses
import itertools

import pytest

from repro.api import (EvaluateRequest, Telemetry, configure_cache,
                       evaluate, get_cache, get_workload, workload_names)
from repro.check.differential_backend import diff_snapshots, snapshot_result
from repro.machine import simulate_single
from repro.machine.config import DEFAULT_CONFIG
from repro.machine.topology import get_topology
from repro.opt.scheduler import schedule_function
from repro.pipeline.stages import normalize

#: Every combination of the fields ``single_core()`` resets.
VARIANTS = [dataclasses.replace(DEFAULT_CONFIG, sa_queue_size=size,
                                sa_ports=ports, sa_access_latency=access,
                                comm_latency=comm)
            for size, ports, access, comm in itertools.product(
                (1, 8, 32), (1, 4), (1, 2), (1, 2, 4))]


def test_single_core_projection():
    baseline = DEFAULT_CONFIG.single_core()
    assert baseline == DEFAULT_CONFIG.with_cores(1)
    assert all(config.single_core() == baseline for config in VARIANTS)
    assert DEFAULT_CONFIG.for_dswp().single_core() == baseline
    # Everything else is kept: the core model, and the topology (it
    # places the core in its L3 domain).
    slow = dataclasses.replace(DEFAULT_CONFIG, memory_latency=99,
                               topology=get_topology("quad-2x2"))
    projected = slow.single_core()
    assert projected.memory_latency == 99
    assert projected.topology is slow.topology
    assert projected.n_cores == 1


@pytest.mark.parametrize("local_schedule", (None, "early"))
@pytest.mark.parametrize("name", workload_names())
def test_sa_fields_never_change_a_single_threaded_run(name, local_schedule):
    """``simulate_single`` is bit-identical across every variant of
    the reset fields — with the local scheduler run on each variant's
    config first, as the ``schedule`` stage does, or not."""
    workload = get_workload(name)
    inputs = workload.make_inputs("train")

    def run(config):
        function = normalize(workload.build())
        if local_schedule is not None:
            schedule_function(function, config, local_schedule)
        return snapshot_result(simulate_single(
            function, inputs.args, inputs.memory, config=config))

    baseline = run(DEFAULT_CONFIG.single_core())
    for config in VARIANTS:
        divergences = diff_snapshots(baseline, run(config))
        assert not divergences, "%s, %s:\n%s" % (
            name, _fields(config), "\n".join(divergences[:10]))


def _fields(config):
    return ", ".join("%s=%d" % (field, getattr(config, field))
                     for field in ("sa_queue_size", "sa_ports",
                                   "sa_access_latency", "comm_latency"))


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def _simulate_st(*requests):
    """``(runs, hits)`` of the ``simulate-st`` stage over evaluating
    ``requests`` in order, and the baseline cycles of each."""
    telemetry = Telemetry()
    cycles = [evaluate(request, telemetry).metrics["st_cycles"]
              for request in requests]
    record = telemetry.stages["simulate-st"]
    return (record.runs, record.cache_hits), cycles


def _request(**fields):
    return EvaluateRequest.from_dict(dict(
        {"program": {"kind": "registry", "value": "ks"},
         "scale": "train"}, **fields))


@pytest.mark.usefixtures("cache")
class TestSharedBaseline:
    def test_gremio_and_dswp_share_one_simulation(self):
        counts, cycles = _simulate_st(_request(technique="gremio"),
                                      _request(technique="dswp"))
        assert counts == (1, 1)
        assert cycles[0] == cycles[1]

    def test_sa_queue_size_override_pair_shares_one_simulation(self):
        counts, cycles = _simulate_st(
            _request(), _request(overrides=[["machine.sa_queue_size", 8]]))
        assert counts == (1, 1)
        assert cycles[0] == cycles[1]
