"""The topology-aware machine model: presets, flat cycle-invariance,
crossing penalties, per-cluster queue capacity, thread placement, and
the API surface that carries a topology through the pipeline."""

import dataclasses

import pytest

from repro.api import (EvaluateRequest, PLACERS, ProgramSpec,
                       RequestValidationError,
                       TOPOLOGIES, evaluate_workload, get_topology,
                       get_workload, parallelize, topology_names)
from repro.machine import (DEFAULT_CONFIG, Placement,
                           PlacementError, Topology, TopologyError,
                           config_table, identity_placement,
                           make_placement)
from repro.mtcg.queues import QueueAllocationError, check_cluster_capacity


class TestTopology:
    def test_presets_validate(self):
        for name, topology in TOPOLOGIES.items():
            assert topology.validate() is topology
            assert topology.name == name
        assert topology_names() == tuple(sorted(TOPOLOGIES))
        assert TOPOLOGIES["paper-dual"].n_cores == 2
        assert TOPOLOGIES["quad-flat"].n_clusters == 1
        assert TOPOLOGIES["quad-2x2"].clusters == ((0, 1), (2, 3))
        assert TOPOLOGIES["octa-hier"].n_cores == 8
        with pytest.raises(TopologyError):
            get_topology("nonexistent")

    def test_validation_rejects_malformed(self):
        with pytest.raises(TopologyError):
            Topology("bad", clusters=()).validate()
        with pytest.raises(TopologyError):
            Topology("bad", clusters=((0, 2),)).validate()  # gap
        with pytest.raises(TopologyError):
            Topology("bad", clusters=((0,), (0,))).validate()  # dup
        with pytest.raises(TopologyError):
            Topology("bad", clusters=((0, 1),), sa_ports=0).validate()
        with pytest.raises(TopologyError):
            # A single cluster cannot carry an inter-cluster penalty.
            Topology("bad", clusters=((0, 1),),
                     inter_cluster_latency=4).validate()

    def test_crossing_and_domains(self):
        quad = TOPOLOGIES["quad-2x2"]
        assert quad.crossing(0, 1) == 0
        assert quad.crossing(1, 2) == quad.inter_cluster_latency == 4
        assert quad.cluster_of(3) == 1
        assert quad.cluster_map() == {0: 0, 1: 0, 2: 1, 3: 1}
        assert quad.cache_domains() == ((0, 1), (2, 3))  # private L3s
        flat = TOPOLOGIES["quad-flat"]
        assert flat.crossing(0, 3) == 0
        assert flat.cache_domains() == ((0, 1, 2, 3),)
        with pytest.raises(TopologyError):
            quad.cluster_of(7)

    def test_flat_resolution_matches_config_scalars(self):
        config = dataclasses.replace(DEFAULT_CONFIG, n_cores=3,
                                     sa_queues=17, sa_ports=2,
                                     sa_access_latency=5)
        topology = config.resolve_topology()
        assert topology.n_clusters == 1
        assert topology.n_cores == 3
        assert topology.sa_queues == 17
        assert topology.sa_ports == 2
        assert topology.sa_access_latency == 5
        assert config.crossing_cycles(0, 2) == 0

    def test_explicit_topology_wins(self):
        config = dataclasses.replace(DEFAULT_CONFIG,
                                     topology=TOPOLOGIES["quad-2x2"])
        assert config.resolve_topology() is TOPOLOGIES["quad-2x2"]
        assert config.crossing_cycles(0, 2) == 4

    def test_config_table_rows(self):
        table = config_table()
        assert "Operand Network" in table
        assert "Branch Handling" in table
        assert "Topology" in table
        clustered = config_table(dataclasses.replace(
            DEFAULT_CONFIG, n_cores=4, topology=TOPOLOGIES["quad-2x2"]))
        assert "2 cluster(s)" in clustered
        assert "inter-cluster +4 cycles" in clustered


class TestPlacement:
    def test_identity(self):
        placement = identity_placement(4, TOPOLOGIES["quad-2x2"])
        assert placement.cores == (0, 1, 2, 3)
        assert placement.n_threads == 4
        assert placement.core_of(2) == 2
        with pytest.raises(PlacementError):
            identity_placement(3, TOPOLOGIES["paper-dual"])

    def test_make_placement_validates(self):
        with pytest.raises(PlacementError):
            make_placement("nonexistent", 2, TOPOLOGIES["quad-2x2"])
        with pytest.raises(PlacementError):
            # affinity needs the pdg/partition/profile context
            make_placement("affinity", 2, TOPOLOGIES["quad-2x2"])
        assert set(PLACERS) == {"identity", "affinity"}

    def test_affinity_collapses_to_identity_on_flat(self):
        placement = make_placement("affinity", 2,
                                   TOPOLOGIES["paper-dual"],
                                   pdg=object(), partition=object(),
                                   profile=object())
        assert placement.cores == (0, 1)
        assert placement.placer == "affinity"

    def test_signature_is_deterministic(self):
        a = Placement((0, 2), "affinity", "quad-2x2")
        b = Placement((0, 2), "affinity", "quad-2x2")
        assert a.signature() == b.signature()
        assert a.signature() != Placement((0, 1), "affinity",
                                          "quad-2x2").signature()


class TestClusterCapacity:
    class _Channel:
        def __init__(self, queue, source_thread, target_thread):
            self.queue = queue
            self.source_thread = source_thread
            self.target_thread = target_thread

    def test_within_capacity(self):
        quad = TOPOLOGIES["quad-2x2"]
        channels = [self._Channel(q, 0, 1) for q in range(8)]
        usage = check_cluster_capacity(channels, quad)
        assert usage == {0: 8}

    def test_over_capacity_raises(self):
        tiny = dataclasses.replace(TOPOLOGIES["quad-2x2"], sa_queues=2)
        channels = [self._Channel(q, 2, 3) for q in range(3)]
        with pytest.raises(QueueAllocationError) as error:
            check_cluster_capacity(channels, tiny)
        assert "cluster 1" in str(error.value)


class TestTopologyPipeline:
    def test_flat_default_is_cycle_invariant(self):
        """An explicit flat preset must reproduce the legacy flat run
        bit-for-bit (the tentpole's central invariant)."""
        workload = get_workload("ks")
        legacy = evaluate_workload(workload, technique="gremio",
                                   n_threads=2, scale="train")
        preset = evaluate_workload(workload, technique="gremio",
                                   n_threads=2, scale="train",
                                   topology="paper-dual")
        assert preset.mt_result.cycles == legacy.mt_result.cycles
        assert preset.st_result.cycles == legacy.st_result.cycles

    def test_clustered_run_completes_and_differs(self):
        workload = get_workload("ks")
        flat = evaluate_workload(workload, technique="gremio",
                                 n_threads=4, scale="train",
                                 topology="quad-flat")
        clustered = evaluate_workload(workload, technique="gremio",
                                      n_threads=4, scale="train",
                                      topology="quad-2x2")
        # Correctness holds on both machines; the clustered machine's
        # crossings make it at least as slow as the flat quad.
        assert clustered.mt_result.live_outs == flat.mt_result.live_outs
        assert clustered.mt_result.cycles >= flat.mt_result.cycles

    def test_affinity_never_loses_to_identity(self):
        workload = get_workload("ks")
        results = {}
        for placer in PLACERS:
            results[placer] = evaluate_workload(
                workload, technique="gremio", n_threads=4,
                scale="train", topology="quad-2x2", placer=placer)
        assert (results["affinity"].mt_result.cycles
                <= results["identity"].mt_result.cycles)

    def test_placement_stage_fingerprinted(self):
        workload = get_workload("ks")
        evaluation = evaluate_workload(workload, technique="gremio",
                                       n_threads=2, scale="train")
        assert evaluation.fingerprints.get("placement")

    def test_parallelize_accepts_topology(self):
        function = get_workload("ks").build()
        result = parallelize(function, technique="dswp", n_threads=4,
                             topology="quad-2x2")
        assert result.config.topology is TOPOLOGIES["quad-2x2"]


class TestEvaluateRequestTopology:
    def test_round_trip_and_key(self):
        request = EvaluateRequest(program=ProgramSpec.registry("ks"), n_threads=4,
                                  topology="quad-2x2",
                                  placer="affinity").validate()
        assert EvaluateRequest.from_dict(request.as_dict()) == request
        flat = EvaluateRequest(program=ProgramSpec.registry("ks"), n_threads=4)
        assert request.request_key() != flat.request_key()

    def test_validation(self):
        with pytest.raises(RequestValidationError):
            EvaluateRequest(program=ProgramSpec.registry("ks"),
                            topology="nonexistent").validate()
        with pytest.raises(RequestValidationError):
            # 4 threads do not fit the papers' dual-core machine.
            EvaluateRequest(program=ProgramSpec.registry("ks"), n_threads=4,
                            topology="paper-dual").validate()
        with pytest.raises(RequestValidationError):
            EvaluateRequest(program=ProgramSpec.registry("ks"), placer="random").validate()
