"""The ``repro tune`` search driver: determinism, budget accounting,
request validation, and the baselines-never-lose invariant."""

import json

import pytest

from repro.api import (RequestValidationError, TuneRequest,
                       configure_cache, tune)
from repro.tune import DEFAULT_SPACE, run_tune
from repro.tune.leaderboard import (markdown_summary, result_json,
                                    workload_leaderboard)
from repro.tune.strategies import make_strategy, strategy_names

WORKLOAD = "adpcmdec"
SMALL_KNOBS = ("machine.comm_latency", "partitioner.split_threshold")


def _request(**overrides):
    fields = dict(workloads=(WORKLOAD,), strategy="greedy", budget=6,
                  seed=0, scale="train",
                  knobs=SMALL_KNOBS)
    fields.update(overrides)
    return TuneRequest(**fields)


def _run(request, tmp_dir, jobs=1):
    previous = configure_cache(str(tmp_dir))
    try:
        return run_tune(request, jobs=jobs)
    finally:
        configure_cache(previous.directory, previous.enabled)


class TestDeterminism:
    def test_same_seed_identical_across_jobs(self, tmp_path):
        """Equal seeds must yield byte-identical leaderboard JSON even
        when the evaluation pool width differs (fresh caches for both
        runs, so memoization cannot mask a nondeterminism bug)."""
        request = _request()
        serial = _run(request, tmp_path / "a", jobs=1)
        pooled = _run(request, tmp_path / "b", jobs=2)
        assert result_json(serial) == result_json(pooled)
        assert (workload_leaderboard(serial, WORKLOAD)
                == workload_leaderboard(pooled, WORKLOAD))

    def test_warm_cache_reproduces(self, tmp_path):
        request = _request()
        cold = _run(request, tmp_path)
        warm = _run(request, tmp_path)
        assert result_json(cold) == result_json(warm)

    def test_leaderboard_json_round_trips(self, tmp_path):
        result = _run(_request(), tmp_path)
        document = json.loads(result_json(result))
        assert document["schema_version"].startswith("repro.tune/")
        assert markdown_summary(result).startswith("#")


class TestBudget:
    def test_budget_honored_exactly(self, tmp_path):
        """The canonical sub-space here has 9 distinct candidates, so a
        budget of 5 must be spent exactly — not rounded to a generation
        boundary."""
        result = _run(_request(budget=5), tmp_path)
        assert result.evaluated == 5

    def test_exhausted_space_stops_early(self, tmp_path):
        """With only 9 canonical candidates a budget of 50 cannot be
        spent; every distinct candidate is scored exactly once."""
        result = _run(_request(strategy="grid", budget=50), tmp_path)
        sub = DEFAULT_SPACE.subspace(SMALL_KNOBS)
        distinct = {sub.canonical(a).key() for a in sub.grid()}
        assert result.evaluated == len(distinct) == 9


class TestBaselines:
    def test_search_never_loses_to_seeded_baselines(self, tmp_path):
        result = _run(_request(knobs=()), tmp_path)
        best = result.best[WORKLOAD]
        cycles = best["metrics"]["mt_cycles"]
        baselines = best["baseline_mt_cycles"]
        assert set(baselines) == {"gremio", "dswp"}
        for label, base in baselines.items():
            assert cycles <= base
            assert best["improvement_pct"][label] >= 0
        sources = {entry["source"]
                   for entry in result.leaderboards[WORKLOAD]}
        assert "baseline:gremio" in sources or \
            "baseline:dswp" in sources

    def test_ranks_are_ordered(self, tmp_path):
        result = _run(_request(), tmp_path)
        ranks = [entry["rank"]
                 for entry in result.leaderboards[WORKLOAD]]
        assert ranks == sorted(ranks) and ranks[0] == 0


class TestValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            _request(strategy="anneal").validate()
        message = str(excinfo.value)
        for name in strategy_names():
            assert name in message

    def test_unknown_knob_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            _request(knobs=("bogus",)).validate()
        message = str(excinfo.value)
        assert "bogus" in message
        assert "machine.comm_latency" in message

    def test_unknown_workload_rejected(self):
        with pytest.raises(RequestValidationError):
            _request(workloads=("nonesuch",)).validate()

    def test_empty_workloads_rejected(self):
        with pytest.raises(RequestValidationError):
            _request(workloads=()).validate()

    def test_bad_budget_rejected(self):
        with pytest.raises(RequestValidationError):
            _request(budget=0).validate()
        with pytest.raises(RequestValidationError):
            _request(budget=True).validate()

    def test_facade_tune_rejects_invalid(self):
        with pytest.raises(RequestValidationError):
            tune(_request(strategy="anneal"))

    def test_strategy_factory_rejects_unknown(self):
        import random
        with pytest.raises(ValueError):
            make_strategy("anneal", DEFAULT_SPACE, random.Random(0))


class TestSpace:
    def test_default_assignment_is_canonical_empty(self):
        """Every default knob value is inert: the default assignment
        canonicalizes to the plain GREMIO cell with no overrides (so
        baselines share cache entries with the legacy matrix)."""
        candidate = DEFAULT_SPACE.canonical(
            DEFAULT_SPACE.default_assignment())
        assert candidate.technique == "gremio"
        assert candidate.overrides == ()
        assert candidate.topology is None

    def test_partitioner_knobs_dropped_for_dswp(self):
        """DSWP takes no partitioner parameters, so GREMIO-only knobs
        are dropped from its canonical form instead of erroring."""
        assignment = DEFAULT_SPACE.default_assignment()
        assignment["technique"] = "dswp"
        assignment["partitioner.split_threshold"] = 2.0
        candidate = DEFAULT_SPACE.canonical(assignment)
        assert candidate.technique == "dswp"
        assert candidate.overrides == ()

    def test_subspace_preserves_order_and_rejects_unknown(self):
        sub = DEFAULT_SPACE.subspace(SMALL_KNOBS)
        assert tuple(sub.names()) == SMALL_KNOBS
        with pytest.raises(ValueError):
            DEFAULT_SPACE.subspace(("nope",))
