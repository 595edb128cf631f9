"""The ``partition`` stage's explicit source: ``parallelize`` /
``evaluate_workload`` / ``evaluate_summary`` given ``partition=`` adopt
that assignment, key it by its digest, and otherwise run the same
stages as a technique run."""

import random

import pytest

from repro.api import (configure_cache, evaluate_summary, evaluate_workload,
                       get_cache, get_workload, normalize, parallelize,
                       workload_names)
from repro.check.generate import random_partition
from repro.interp.profile import static_profile
from repro.partition import PartitionError
from repro.pipeline import stages
from repro.pipeline.core import _evaluation_context, _walk


@pytest.fixture(scope="module")
def module_cache(tmp_path_factory):
    previous = get_cache()
    active = configure_cache(str(tmp_path_factory.mktemp("artifacts")))
    yield active
    configure_cache(previous.directory, previous.enabled)


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def _train_parallelization(name, technique="dswp", **options):
    workload = get_workload(name)
    train = workload.make_inputs("train")
    return parallelize(workload.build(), technique, profile_args=train.args,
                       profile_memory=train.memory, **options)


@pytest.mark.usefixtures("module_cache")
@pytest.mark.parametrize("name", workload_names())
def test_explicit_equals_technique(name):
    """A technique's own partition, given explicitly, measures exactly
    as the technique run does."""
    workload = get_workload(name)
    for technique in ("gremio", "dswp"):
        for coco in (False, True):
            run = evaluate_workload(workload, technique, coco=coco,
                                    scale="train")
            explicit = evaluate_workload(
                workload, technique, coco=coco, scale="train",
                partition=run.parallelization.partition)
            assert explicit.metrics() == run.metrics(), (technique, coco)
            assert explicit.fingerprints["partition"] \
                != run.fingerprints["partition"]


class TestKeyHygiene:
    def test_profile_stays_in_the_coco_and_mtcg_keys(self):
        built = _train_parallelization("ks", coco=True, cache=False)
        keys = []
        for profile in (built.profile, static_profile(built.function)):
            again = parallelize(get_workload("ks").build(), "dswp",
                                coco=True, profile=profile, cache=False,
                                partition=built.partition)
            keys.append(again.fingerprints)
        assert keys[0]["coco"] != keys[1]["coco"]
        assert keys[0]["mtcg"] != keys[1]["mtcg"]

    def test_one_iid_moves_the_partition_and_cell_keys(self):
        built = _train_parallelization("ks", cache=False)
        assignment = dict(built.partition.assignment)
        moved = dict(assignment)
        iid = next(iid for iid, thread in sorted(assignment.items())
                   if thread == 1)
        moved[iid] = 0
        partition_keys, cell_keys = set(), set()
        for candidate in (assignment, moved):
            again = parallelize(get_workload("ks").build(), "dswp",
                                profile=built.profile, cache=False,
                                partition=candidate)
            partition_keys.add(again.fingerprints["partition"])
            ctx = _evaluation_context(get_workload("ks"), "dswp",
                                      scale="train", cache=False,
                                      partition=candidate)
            _walk(ctx, get_workload("ks"), ("normalize",))
            cell_keys.add(stages.cell_key(ctx, True))
        assert len(partition_keys) == len(cell_keys) == 2

    @pytest.mark.parametrize("defect", ("unknown", "missing", "thread"))
    def test_invalid_assignment_fails_before_coco(self, defect,
                                                  monkeypatch):
        def no_coco(*args, **kwargs):
            raise AssertionError("coco ran on an invalid partition")
        monkeypatch.setattr(stages, "coco_optimize", no_coco)
        built = _train_parallelization("ks", cache=False)
        assignment = dict(built.partition.assignment)
        if defect == "unknown":
            assignment[max(assignment) + 1] = 0
        elif defect == "missing":
            del assignment[min(assignment)]
        else:
            assignment[min(assignment)] = 2
        with pytest.raises(PartitionError):
            evaluate_workload(get_workload("ks"), "dswp", coco=True,
                              scale="train", cache=False,
                              partition=assignment)

    def test_technique_fingerprints_stay_pinned(self):
        """The technique path's keys are those of the commit before the
        explicit source existed (cache entries stay valid)."""
        built = _train_parallelization("ks", coco=True, cache=False)
        assert {stage: built.fingerprints[stage]
                for stage in ("partition", "coco", "mtcg")} == {
            "partition": "3a1f51d217cc4a4d8163d4f5fb986fd3"
                         "1cf5f0b78c96c62c31a773a471f5c11d",
            "coco": "0d47981f95df9acb1e219194703aa2f1"
                    "ac4da9d0855a615f5e0d22a15f3035d9",
            "mtcg": "f30b15ceb95bf2f2b3df2cacfd61affa"
                    "0a0b4cada319d737ea383afca3436c2c"}
        ctx = _evaluation_context(get_workload("ks"), "gremio",
                                  scale="train", cache=False)
        _walk(ctx, get_workload("ks"), ("normalize",))
        assert stages.cell_key(ctx, True) == (
            "89ede347b6442f0b0a535c728306327a"
            "714f7ac58792dece31e1555a2ef4c9b3")


def test_partition_sweep_shares_its_prefix(cache):
    """20 random partitions of one function on one cache: the front
    half and the single-threaded baseline run once, everything the
    partition feeds runs per partition — what an enumeration of a
    function's partitions relies on."""
    workload = get_workload("ks")
    function = normalize(workload.build())
    runs = {}
    for seed in range(20):
        partition = random_partition(random.Random(seed), function,
                                     n_threads=2)
        result = evaluate_summary(workload, technique="gremio",
                                  scale="train", partition=partition)
        for name, record in result.telemetry.stages.items():
            runs[name] = runs.get(name, 0) + record.runs
    assert {name: runs[name] for name in ("profile", "pdg", "simulate-st",
                                          "partition", "mtcg",
                                          "simulate-mt")} == {
        "profile": 1, "pdg": 1, "simulate-st": 1,
        "partition": 20, "mtcg": 20, "simulate-mt": 20}
