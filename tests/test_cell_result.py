"""The cell-level result entry under the typed facade.

``evaluate`` / ``evaluate_many`` answer a cell that was evaluated before
from one content-addressed blob (artifact-cache stage ``evaluation``)
instead of walking every stage.  These tests pin its key (as
discriminating as all stage fingerprints together), its payload (equal
to what the stage walk returns, counters included), when it is bypassed
or refused, how it recovers from a bad blob, and the pool behaviour of
the batch paths built on it.
"""

import multiprocessing.pool
import os
import pickle
import warnings

import pytest

from repro.api import (EvaluateRequest, ProgramSpec, configure_cache,
                       evaluate, evaluate_many, evaluate_workload,
                       get_cache, get_workload, global_telemetry,
                       reset_global_telemetry, workload_names)
from repro.interp import TrapError
from repro.pipeline import core, fingerprint, stages
from repro.pipeline.fingerprint import SCHEMA_VERSION

STAGE = core.RESULT_STAGE

TRAPS = '''
def boom(n: int, xs: "int[8]"):
    total = 0
    for i in range(8):
        total = total + xs[i] // (n - n)
    return total
'''


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def _request(workload="ks", **fields):
    fields.setdefault("scale", "train")
    return EvaluateRequest(program=ProgramSpec.registry(workload), **fields)


def _entries(cache):
    """key -> path of every cell-level entry on disk."""
    return {name[:-len(".pkl")]: os.path.join(folder, name)
            for folder, _, files in os.walk(
                os.path.join(cache.directory, STAGE))
            for name in files}


def _stages(result):
    return result.telemetry["stages"]


def _comparable(result):
    document = result.as_dict()
    del document["telemetry"]
    return document


class TestKey:
    def test_every_result_affecting_field_changes_the_key(self, cache):
        """Each variant must write an entry under a key no earlier
        variant used: every ``KEY_FIELDS`` field, ``check``,
        each override namespace, and the program text."""
        text = ("def f(n: int, xs: 'int[8]'):\n"
                "    return xs[0] + n + %d\n")
        variants = [
            _request(),
            _request("adpcmdec"),
            _request(technique="dswp"),
            _request(coco=True),
            _request(n_threads=3),
            _request(scale="ref"),
            _request(alias_mode="none"),
            _request(local_schedule="early"),
            _request(mt_check=True),
            _request(topology="quad-2x2"),
            _request(placer="affinity", topology="quad-2x2"),
            _request(check=False),
            _request(overrides=(("machine.comm_latency", 3),)),
            _request(overrides=(("partitioner.split_threshold", 1.5),)),
            EvaluateRequest(program=ProgramSpec.source(text % 1),
                            scale="train"),
            EvaluateRequest(program=ProgramSpec.source(text % 2),
                            scale="train"),
        ]
        for count, request in enumerate(variants, 1):
            evaluate(request)
            assert len(_entries(cache)) == count, request

    def test_key_discriminates_like_the_stage_fingerprints(self, cache):
        """Over the registry x {gremio, dswp} x coco {off, on}: equal
        keys imply equal fingerprints, and no two cells whose stage
        fingerprints differ share a key."""
        by_key = {}
        for name in workload_names():
            for technique in ("gremio", "dswp"):
                for coco in (False, True):
                    before = set(_entries(cache))
                    result = evaluate(_request(name, technique=technique,
                                               coco=coco))
                    (key,) = set(_entries(cache)) - before
                    by_key[key] = tuple(sorted(
                        result.fingerprints.items()))
        assert len(by_key) == 4 * len(workload_names())
        assert len(set(by_key.values())) == len(by_key)


class TestHit:
    def test_hit_equals_the_stage_walk(self, cache):
        request = _request(coco=True, mt_check=True)
        cold = evaluate(request)
        configure_cache(enabled=False)
        walked = evaluate_workload(get_workload("ks"), coco=True,
                                   mt_check=True, scale="train")
        configure_cache(cache.directory)
        warm = evaluate(request)
        assert warm.metrics == cold.metrics == dict(walked.metrics())
        assert warm.fingerprints == cold.fingerprints \
            == walked.fingerprints
        assert STAGE not in warm.fingerprints
        assert warm.telemetry["counters"] == cold.telemetry["counters"] \
            == walked.telemetry.counters
        assert _comparable(warm) == _comparable(cold)

    def test_warm_is_one_load_and_zero_stages(self, cache):
        request = _request(scale="ref")
        cold = evaluate(request)
        # A computed answer's telemetry is the stage walk's, unchanged.
        assert STAGE not in _stages(cold)
        assert _stages(cold)["simulate-mt"]["runs"] == 1
        for tier in ("memory", "disk"):
            cache.stats.reset()
            warm = evaluate(request)
            assert cache.stats.as_dict() == {
                "hits": 1, "misses": 0, "invalidations": 0, "stores": 0,
                "memory_hits": 1 if tier == "memory" else 0}, tier
            assert set(_stages(warm)) == {STAGE}
            assert _stages(warm)[STAGE]["cache_hits"] == 1
            assert _stages(warm)[STAGE]["runs"] == 0
            cache.drop_memory()

    def test_cold_computes_each_root_once(self, cache, monkeypatch):
        calls = {"function": 0, "config": 0, "inputs": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(stages, "fingerprint_function", counted(
            "function", stages.fingerprint_function))
        monkeypatch.setattr(stages, "fingerprint_config", counted(
            "config", stages.fingerprint_config))
        inputs = counted("inputs", fingerprint.fingerprint_inputs)
        monkeypatch.setattr(stages, "fingerprint_inputs", inputs)
        monkeypatch.setattr(fingerprint, "fingerprint_inputs", inputs)
        monkeypatch.setattr(get_workload("ks"), "_inputs_fingerprints", {})
        monkeypatch.setattr(get_workload("ks"), "_ir_fingerprint", None)
        monkeypatch.setattr(stages, "_CONFIG_FINGERPRINTS", {})
        evaluate(_request(scale="ref", coco=True))
        # train + ref images; GREMIO's machine (two cores by default, so
        # it partitions and simulates) and the single-core baseline's.
        assert calls == {"function": 1, "config": 2, "inputs": 2}
        # Once per workload and per distinct configuration in the
        # process: DSWP's 32-entry machine is new, its baseline is not.
        evaluate(_request(scale="ref", technique="dswp"))
        assert calls == {"function": 1, "config": 3, "inputs": 2}
        evaluate(_request(scale="ref", technique="dswp", n_threads=3))
        assert calls == {"function": 1, "config": 4, "inputs": 2}

    def test_timings_counters_do_not_depend_on_cache_state(self, cache):
        requests = [_request(name, technique=technique)
                    for name in ("ks", "adpcmdec")
                    for technique in ("gremio", "dswp")]
        totals = []
        for _ in range(2):
            reset_global_telemetry()
            evaluate_many(requests)
            totals.append(dict(global_telemetry().counters))
        assert totals[0] == totals[1] and totals[0]["mt_cycles"] > 0
        warm = global_telemetry().stages
        assert set(warm) == {STAGE}
        assert warm[STAGE].cache_hits == len(requests)


def _count_loads(cache, monkeypatch):
    """Record ``(stage, hit)`` for every lookup ``cache`` answers."""
    loads = []
    original = cache.load

    def load(stage, key):
        hit, payload = original(stage, key)
        loads.append((stage, hit))
        return hit, payload
    monkeypatch.setattr(cache, "load", load)
    return loads


def _count_builds(monkeypatch, *names):
    """Count ``build()`` and ``make_inputs()`` calls of the named
    workloads (instance attributes, so each is patched where it
    lives)."""
    calls = {"build": 0, "make_inputs": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper
    for workload in map(get_workload, names):
        monkeypatch.setattr(workload, "build",
                            counted("build", workload.build))
        monkeypatch.setattr(workload, "make_inputs",
                            counted("make_inputs", workload.make_inputs))
    return calls


class TestOneLookup:
    """A cell is looked up once, before anything is built once the
    workload's IR fingerprint is known, and a hit is one load."""

    @pytest.mark.parametrize("ir_known", [False, True])
    def test_cold_cell_is_one_evaluation_miss(self, cache, monkeypatch,
                                              ir_known):
        workload = get_workload("ks")
        if ir_known:
            evaluate(_request(technique="dswp"))
        else:
            monkeypatch.setattr(workload, "_ir_fingerprint", None)
        loads = _count_loads(cache, monkeypatch)
        evaluate(_request())
        assert [load for load in loads if load[0] == STAGE] \
            == [(STAGE, False)]
        assert workload.ir_fingerprint() is not None
        loads.clear()
        evaluate(_request())
        assert loads == [(STAGE, True)]

    def test_walk_false_builds_nothing_once_the_ir_is_known(
            self, cache, monkeypatch):
        workload = get_workload("ks")
        evaluate(_request())
        assert workload.ir_fingerprint() is not None
        calls = _count_builds(monkeypatch, "ks")
        cold = core.evaluate_summary(workload, scale="train", coco=True,
                                     walk=False)
        warm = core.evaluate_summary(workload, scale="train", walk=False)
        assert cold is None and warm is not None
        assert calls == {"build": 0, "make_inputs": 0}
        # The miss a walk answers builds once and copies both images.
        core.evaluate_summary(workload, scale="train", coco=True)
        assert calls == {"build": 1, "make_inputs": 2}

    def test_all_warm_pooled_batch_builds_nothing(self, cache,
                                                  monkeypatch):
        requests = [_request(name, technique=technique)
                    for name in ("ks", "adpcmdec")
                    for technique in ("gremio", "dswp")]
        cold = evaluate_many(requests)
        calls = _count_builds(monkeypatch, "ks", "adpcmdec")
        warm = evaluate_many(requests, jobs=2)
        assert calls == {"build": 0, "make_inputs": 0}
        assert [_comparable(r) for r in warm] \
            == [_comparable(r) for r in cold]

    def test_warm_explicit_partition_cell_is_one_load(self, cache,
                                                      monkeypatch):
        workload = get_workload("ks")
        pinned = evaluate_workload(workload, "dswp", scale="train",
                                   cache=False).parallelization.partition
        options = dict(technique="gremio", scale="train",
                       partition=dict(pinned.assignment))
        cold = core.evaluate_summary(workload, **options)
        assert cold.telemetry.stages["partition"].runs == 1
        cache.drop_memory()
        cache.stats.reset()
        calls = _count_builds(monkeypatch, "ks")
        warm = core.evaluate_summary(workload, **options)
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 0, "invalidations": 0, "stores": 0,
            "memory_hits": 0}
        assert set(warm.telemetry.stages) == {STAGE}
        assert warm.telemetry.stages[STAGE].runs == 0
        assert calls == {"build": 0, "make_inputs": 0}
        assert warm.metrics == cold.metrics

    @pytest.mark.parametrize("option", [{"backend": "bogus"},
                                        {"topology": "bogus"}])
    def test_unknown_option_raises_before_any_cache_read(
            self, cache, monkeypatch, option):
        """A lookup ahead of these checks would answer them from the
        warm entry of the cell they otherwise name."""
        workload = get_workload("ks")
        core.evaluate_summary(workload, scale="train")
        loads = _count_loads(cache, monkeypatch)
        with pytest.raises(ValueError, match="unknown"):
            core.evaluate_summary(workload, scale="train", **option)
        assert loads == []


class TestRecovery:
    @pytest.mark.parametrize("damage", ["truncated", "garbage",
                                        "wrong-schema"])
    def test_bad_entry_is_invalidated_and_rewritten(self, cache, damage):
        request = _request()
        good = evaluate(request)
        ((key, path),) = _entries(cache).items()
        with open(path, "rb") as handle:
            blob = handle.read()
        if damage == "truncated":
            blob = blob[:len(blob) // 2]
        elif damage == "garbage":
            blob = b"not a pickle"
        else:
            envelope = pickle.loads(blob)
            envelope["schema"] = "some-other-pipeline"
            blob = pickle.dumps(envelope)
        with open(path, "wb") as handle:
            handle.write(blob)
        cache.drop_memory()
        cache.stats.reset()
        answered = evaluate(request)
        assert cache.stats.invalidations == 1
        assert _comparable(answered) == _comparable(good)
        assert STAGE not in _stages(answered)
        assert _stages(answered)["simulate-mt"]["cache_hits"] == 1
        assert list(_entries(cache)) == [key]
        cache.drop_memory()
        assert set(_stages(evaluate(request))) == {STAGE}


class TestBypass:
    def test_unchecked_entry_never_answers_a_checked_request(self, cache):
        evaluate(_request(check=False))
        checked = evaluate(_request(check=True))
        assert STAGE not in _stages(checked)
        assert _stages(checked)["simulate-mt"]["cache_hits"] == 1
        assert len(_entries(cache)) == 2

    def test_traced_requests_neither_read_nor_write(self, cache):
        traced = evaluate(_request(trace=True))
        assert traced.trace is not None
        assert _entries(cache) == {}
        evaluate(_request())
        traced = evaluate(_request(trace=True))
        assert STAGE not in _stages(traced)
        assert _stages(traced)["simulate-mt"]["runs"] == 1
        assert "critical_path_cycles" in traced.metrics
        assert len(_entries(cache)) == 1

    def test_failed_check_stores_nothing(self, cache, monkeypatch):
        def refuse(*args):
            raise AssertionError("MT memory differs from ST")
        monkeypatch.setattr(core, "_check_results", refuse)
        with pytest.raises(AssertionError, match="differs"):
            evaluate(_request())
        assert _entries(cache) == {}
        monkeypatch.undo()
        assert STAGE not in _stages(evaluate(_request()))
        assert len(_entries(cache)) == 1

    def test_disabled_cache_walks_the_stages(self, cache):
        configure_cache(enabled=False)
        result = evaluate(_request())
        assert STAGE not in _stages(result)
        assert _stages(result)["simulate-mt"]["runs"] == 1


class TestBatches:
    REQUESTS = [("ks", "gremio", True), ("ks", "dswp", True),
                ("adpcmdec", "gremio", False), ("adpcmdec", "dswp", True)]

    def _requests(self):
        return [_request(name, technique=technique, check=check)
                for name, technique, check in self.REQUESTS]

    def test_jobs_do_not_change_documents_cold_or_warm(self, cache,
                                                       tmp_path):
        serial_cold = evaluate_many(self._requests(), jobs=1)
        serial_warm = evaluate_many(self._requests(), jobs=1)
        configure_cache(str(tmp_path / "pooled"))
        pooled_cold = evaluate_many(self._requests(), jobs=2)
        pooled_warm = evaluate_many(self._requests(), jobs=2)
        expected = [_comparable(result) for result in serial_cold]
        for batch in (serial_warm, pooled_cold, pooled_warm):
            assert [_comparable(result) for result in batch] == expected
        assert all(_stages(result)["simulate-mt"]["runs"] == 1
                   for result in pooled_cold)
        assert all(set(_stages(result)) == {STAGE}
                   for result in serial_warm + pooled_warm)

    def test_all_warm_batch_starts_no_process(self, cache, monkeypatch):
        cold = evaluate_many(self._requests())

        def no_pool(*args, **kwargs):
            raise AssertionError("an all-warm batch started a pool")
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        warm = evaluate_many(self._requests(), jobs=4)
        assert [_comparable(r) for r in warm] \
            == [_comparable(r) for r in cold]
        # One cold cell among warm ones is evaluated in the parent too.
        evaluate_many(self._requests() + [_request(coco=True)], jobs=4)

    @pytest.mark.parametrize("batch", [evaluate_many])  # the one engine
    def test_evaluation_error_in_a_worker_propagates_once(self, cache,
                                                          batch):
        """A trap raised by a pooled evaluation is the answer — it used
        to be reported as "parallel evaluation unavailable" and the
        whole matrix re-run serially, only to trap again."""
        spec = ProgramSpec.source(TRAPS)
        requests = [EvaluateRequest(program=spec, technique=technique,
                                    scale="train").validate()
                    for technique in ("gremio", "dswp")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrapError, match="division by zero") as error:
                batch(requests, jobs=2)
        # Raised by the worker, not by a serial re-run in this process.
        assert isinstance(error.value.__cause__,
                          multiprocessing.pool.RemoteTraceback)

    def test_unstartable_pool_still_falls_back_to_serial(
            self, cache, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.warns(RuntimeWarning, match="no semaphores here"):
            results = evaluate_many(self._requests(), jobs=2)
        assert [r.request for r in results] == self._requests()


#: ``Evaluation.metrics()`` names per pipeline schema.  The entry stores
#: these *derived* values, so adding, renaming or redefining a metric
#: must bump ``SCHEMA_VERSION`` (old entries would otherwise answer with
#: the old set) — and then pin the new set here.
METRIC_NAMES = {
    "repro-pipeline-1": frozenset(
        ["speedup", "st_cycles", "mt_cycles", "dynamic_instructions",
         "communication_instructions", "computation_instructions",
         "communication_fraction", "channels"]
        + [prefix + name for prefix in ("cache_", "st_cache_")
           for name in ("coherence_invalidations", "l1_hits", "l1_misses",
                        "l2_hits", "l2_misses", "l3_hits", "l3_misses")]),
}


def test_metric_names_are_pinned_to_the_schema_version(cache):
    names = frozenset(evaluate(_request()).metrics)
    assert METRIC_NAMES.get(SCHEMA_VERSION) == names, (
        "Evaluation.metrics() changed: bump SCHEMA_VERSION so stored "
        "cell-level entries roll over, then pin the new set")
