"""GREMIO's level estimate as a function: ``Level.estimate`` scores any
partition of a level with the cost the greedy search uses, so it must
reproduce the search's own makespan exactly, must not care what the
threads are called on a flat machine, must refuse a partition that
splits an indivisible unit, and reads DSWP's partitions the way
EXPERIMENTS.md's "GREMIO reconstruction gap" table reports them."""

import itertools

import pytest

from repro.analysis.loops import loop_nest_forest
from repro.machine.config import DEFAULT_CONFIG
from repro.partition.gremio import GremioPartitioner, _Nest
from repro.pipeline.stages import make_partitioner, technique_config
from repro.workloads import workload_names

from .helpers import train_front

VARIANTS = {"gremio": {}, "gremio-flat": {"hierarchical": False},
            "grouped": {"region_grouping": True}}


def _levels(name, n_threads, **options):
    """Every level GREMIO can schedule for ``name``: the root level, then
    each loop body (a superset of the levels one partition visits)."""
    function, pdg, profile = train_front(name)
    partitioner = GremioPartitioner(DEFAULT_CONFIG.with_cores(n_threads),
                                    **options)
    headers = [None]
    if partitioner.hierarchical:
        headers += [loop.header
                    for loop in loop_nest_forest(function).all_loops()]
    return [(header, partitioner.body_level(function, pdg, profile,
                                            n_threads, header))
            for header in headers]


def _dswp(name, n_threads):
    function, pdg, profile = train_front(name)
    return make_partitioner(
        "dswp", technique_config("dswp").with_cores(n_threads)).partition(
            function, pdg, profile, n_threads).assignment


@pytest.mark.parametrize("n_threads", [2, 3])
@pytest.mark.parametrize("name", workload_names())
def test_estimate_of_the_search_is_its_makespan(name, n_threads):
    for options in VARIANTS.values():
        for header, level in _levels(name, n_threads, **options):
            makespan, assignment, split = level.search()
            assert level.estimate(assignment, split) == makespan, header


@pytest.mark.parametrize("n_threads", [2, 3])
@pytest.mark.parametrize("name", workload_names())
def test_renaming_threads_keeps_the_estimate(name, n_threads):
    """On a flat topology every thread pair costs the same, so permuting
    the thread names of a partition leaves its estimate unchanged (split
    loops excepted: their home thread comes from the forward-only
    search, which is not symmetric)."""
    dswp = _dswp(name, n_threads)
    for header, level in _levels(name, n_threads):
        _, gremio, split = level.search()
        partitions = [] if split else [gremio]
        dswp_here = {iid: dswp[iid] for unit in level.units for iid in unit}
        try:
            level.estimate(dswp_here)
            partitions.append(dswp_here)
        except ValueError:  # DSWP splits one of this level's units
            pass
        for assignment in partitions:
            expected = level.estimate(assignment)
            for names in itertools.permutations(range(n_threads)):
                renamed = {iid: names[thread]
                           for iid, thread in assignment.items()}
                assert level.estimate(renamed) == expected, (header, names)


def test_straddling_unit_is_refused():
    """DSWP puts sjeng's `scan` loop on both threads, which the `rounds`
    level holds as one unit."""
    function, pdg, profile = train_front("458.sjeng")
    level = GremioPartitioner(DEFAULT_CONFIG.with_cores(2)).body_level(
        function, pdg, profile, 2, "rounds")
    with pytest.raises(ValueError, match="sits on threads"):
        level.estimate(_dswp("458.sjeng", 2))


def test_each_loop_body_is_scheduled_once_per_partition(monkeypatch):
    scheduled = []
    body_level = _Nest.body_level

    def counting(nest, loop):
        scheduled.append((nest.function.name, loop.header))
        return body_level(nest, loop)

    monkeypatch.setattr(_Nest, "body_level", counting)
    for name in workload_names():
        function, pdg, profile = train_front(name)
        GremioPartitioner(DEFAULT_CONFIG.with_cores(2)).partition(
            function, pdg, profile, 2)
    assert len(scheduled) == len(set(scheduled)) == 25


#: "DSWP's partition seen through GREMIO's estimate" at ``train`` with two
#: threads, cycles per loop iteration: (workload, loop header) -> (DSWP's
#: partition, GREMIO's split, the loop atomic on one thread).
REANCHOR_TABLE = {
    # Search error: GREMIO's own cost prefers DSWP's partition.
    ("177.mesa", "span"): (27.5, 31.5, 29.0),
    ("435.gromacs", "jloop"): (273.1, 361.6, 466.8),
    ("188.ammp", "pairs"): (69.7, 106.3, 107.8),
    # Estimator error: DSWP's partition (1.29-1.35x simulated) is rated
    # worse than running the loop on one thread.
    ("adpcmdec", "loop"): (42.5, 40.5, 35.0),
    ("458.sjeng", "scan"): (23.7, 16.4, 15.8),
}


@pytest.mark.parametrize("name,header", sorted(REANCHOR_TABLE))
def test_dswp_through_gremio_estimate(name, header):
    function, pdg, profile = train_front(name)
    level = GremioPartitioner(DEFAULT_CONFIG.with_cores(2)).body_level(
        function, pdg, profile, 2, header)
    dswp = level.estimate(_dswp(name, 2))
    split = level.search()[0]
    atomic = level.estimate({iid: 0 for unit in level.units
                             for iid in unit})
    assert tuple(round(value, 1) for value in (dswp, split, atomic)) \
        == REANCHOR_TABLE[(name, header)]
    if dswp < split:
        assert dswp < atomic    # search error
    else:
        assert dswp > atomic    # estimator error
