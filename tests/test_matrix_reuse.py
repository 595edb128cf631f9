"""Cross-cell artifact reuse between evaluations of one workload.

Back-to-back ``evaluate_workload`` calls whose cells share a workload
recompute the expensive front of the pipeline (normalize, profile, PDG)
only once: every later cell hits the artifact cache.  With the
in-process memory tier those hits don't even touch the disk.  And reuse
must be invisible in the results — a warm sweep is bit-identical to
evaluating each cell cold and serially.
"""

import pytest

from repro.api import (EvaluateRequest, ProgramSpec, configure_cache,
                       get_cache, get_workload)
from repro.api.facade import _run_batch, _run_payload
from repro.check.differential_backend import diff_snapshots, \
    snapshot_result
from repro.pipeline.core import CellResult, evaluate_workload
from repro.service.workers import _evaluate_request_dict

#: One workload, four cells: two techniques x two thread counts.  Every
#: cell shares the normalize/profile/pdg front of the pipeline.
WORKLOAD = "ks"
TECHNIQUES = ("gremio", "dswp")
THREADS = (2, 4)


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def _matrix():
    return [EvaluateRequest(program=ProgramSpec.registry(WORKLOAD),
                            technique=technique, n_threads=n_threads,
                            scale="train", check=False)
            for technique in TECHNIQUES for n_threads in THREADS]


def _sweep():
    cells = _matrix()
    assert len(cells) == 4
    workload = get_workload(WORKLOAD)
    return cells, [evaluate_workload(workload, technique=cell.technique,
                                     n_threads=cell.n_threads,
                                     scale="train", check=False)
                   for cell in cells]


def test_shared_workload_hits_profile_and_pdg_cache(cache):
    _cells, evaluations = _sweep()
    assert len(evaluations) == 4
    stats = cache.stats
    # Cell 1 misses and stores; cells 2-4 each hit profile and pdg
    # (>= 3 hits apiece across the sweep, 6 total; simulate-st adds
    # more where thread counts coincide).
    assert stats.hits >= 6, stats.as_dict()
    assert stats.stores > 0 and stats.misses > 0
    # Same process, so the memory tier served them — no disk reads.
    assert stats.memory_hits == stats.hits, stats.as_dict()


def test_warm_sweep_bit_identical_to_cold_serial(cache):
    cells, warm = _sweep()
    # Cold: fresh pipeline per cell, cache fully disabled, one at a
    # time — the reuse-free baseline.
    configure_cache(enabled=False)
    workload = get_workload(WORKLOAD)
    for cell, evaluation in zip(cells, warm):
        cold = evaluate_workload(workload, technique=cell.technique,
                                 n_threads=cell.n_threads, scale="train",
                                 check=False)
        assert cold.metrics() == evaluation.metrics()
        divergences = diff_snapshots(snapshot_result(cold.mt_result),
                                     snapshot_result(evaluation.mt_result))
        assert not divergences, "\n".join(divergences[:10])
        divergences = diff_snapshots(snapshot_result(cold.st_result),
                                     snapshot_result(evaluation.st_result))
        assert not divergences, "\n".join(divergences[:10])


def test_fresh_process_reuses_disk_artifacts(cache):
    """Drop the memory tier between sweeps (modelling a new process
    against a shared cache directory): the second sweep hits disk."""
    _sweep()
    first = cache.stats.as_dict()
    cache.drop_memory()
    cache.stats.reset()
    _cells, evaluations = _sweep()
    assert len(evaluations) == 4
    stats = cache.stats
    assert stats.stores == 0, stats.as_dict()  # everything reused
    assert stats.hits >= first["stores"]
    # First load of each artifact came from disk, not memory...
    assert stats.memory_hits < stats.hits
    # ...and repopulated the memory tier for the shared-stage hits.
    assert stats.memory_hits > 0, stats.as_dict()


def test_pool_worker_keeps_its_cache_between_cells(cache, tmp_path,
                                                   monkeypatch):
    """A worker evaluating one workload's batch reuses the shared
    front-end artifacts through its memory tier: the payload's cache
    settings match the active cache, so it is kept, not rebuilt."""
    cells = _matrix()
    results = _run_batch([(cell, cache.directory, cache.enabled)
                          for cell in cells])
    # What a pool worker sends back: summaries, nothing materialised.
    assert [type(result) for result in results] == [CellResult] * 4
    assert get_cache() is cache
    assert cache.stats.memory_hits > 0, cache.stats.as_dict()

    # A traced request in a long-lived serve worker keeps that cache
    # too: it used to rebuild an empty one (memory tier, stats and
    # store counters gone) for every ``trace: true`` body.
    body = dict(program={"kind": "registry", "value": WORKLOAD},
                technique="gremio", n_threads=2, scale="train",
                check=False)
    _evaluate_request_dict(body, cache.directory, cache.enabled)
    cache.stats.reset()
    traced = _evaluate_request_dict(dict(body, trace=True),
                                    cache.directory, cache.enabled)
    assert traced["request"]["trace"] is True
    assert get_cache() is cache
    assert cache.stats.memory_hits > 0, cache.stats.as_dict()

    # A payload naming another directory still re-points the process...
    elsewhere = str(tmp_path / "elsewhere")
    payload = (cells[0], elsewhere, True)
    _run_payload(payload)
    moved = get_cache()
    assert moved is not cache and moved.directory == elsewhere
    # ...and so does a remote store exported after the cache was built
    # (the blobs are local by now, so the dead URL is never dialled).
    monkeypatch.setenv("REPRO_STORE_URL", "http://127.0.0.1:9/store/")
    _run_payload(payload)
    remote = get_cache()
    assert remote is not moved
    assert remote.store_backend.remote_url == "http://127.0.0.1:9/store"
    _run_payload(payload)
    assert get_cache() is remote


def test_fast_backend_sweep_shares_the_same_cache(cache):
    """The simulator and its oracle share one cache namespace
    (fingerprints exclude ``backend``), so a sweep after the same cells
    were evaluated on the reference loop recomputes nothing and the
    results are bit-identical."""
    workload = get_workload(WORKLOAD)
    reference = [
        evaluate_workload(workload, technique=technique,
                          n_threads=n_threads, scale="train",
                          check=False, backend="reference")
        for technique in TECHNIQUES for n_threads in THREADS]
    cache.stats.reset()
    _cells, fast = _sweep()
    stats = cache.stats
    assert stats.stores == 0, stats.as_dict()
    assert stats.misses == 0, stats.as_dict()
    for ref_eval, fast_eval in zip(reference, fast):
        assert ref_eval.metrics() == fast_eval.metrics()
