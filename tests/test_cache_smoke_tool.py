"""Tests for ``tools/check_cache_smoke.py`` — the cold/warm artifact-
cache contract checker shared by the CI ``cache-smoke`` job."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))

from check_cache_smoke import (CacheSmokeError, check, main,  # noqa: E402
                               metric_rows, parse_summary, stage_rows)

METRICS = """\
benchmark   technique   speedup
181.mcf     gremio      1.523
ks          dswp        1.104
"""

COLD = METRICS + "artifact cache: 0 hits, 24 misses\n"
WARM_SUMMARY = "artifact cache: 24 hits, 0 misses\n"
STAGES = """per-stage timings
stage       runs  hits  misses  seconds
---------------------------------------
evaluation  0     2     0       0.0020
"""
WARM = METRICS + STAGES + WARM_SUMMARY


class TestParsers:
    def test_parse_summary(self):
        assert parse_summary(COLD) == (0, 24)
        assert parse_summary(WARM) == (24, 0)

    def test_parse_summary_missing(self):
        with pytest.raises(CacheSmokeError, match="cold output"):
            parse_summary("no summary here", "cold")

    def test_metric_rows(self):
        rows = metric_rows(COLD)
        assert len(rows) == 2
        assert rows[0].startswith("181.mcf")
        assert metric_rows(WARM) == rows  # stage rows are not metrics

    def test_stage_rows(self):
        assert stage_rows(WARM) == {"evaluation": (0, 2)}
        assert stage_rows(COLD) == {}


class TestCheck:
    def test_contract_holds(self):
        check(COLD, WARM)  # does not raise

    def test_cold_run_must_miss(self):
        with pytest.raises(CacheSmokeError, match="populate"):
            check(METRICS + "artifact cache: 5 hits, 0 misses\n", WARM)

    def test_warm_run_must_hit(self):
        with pytest.raises(CacheSmokeError, match="no cache hits"):
            check(COLD, METRICS + "artifact cache: 0 hits, 0 misses\n")

    def test_warm_run_must_not_miss(self):
        with pytest.raises(CacheSmokeError, match="fully cached"):
            check(COLD, METRICS + "artifact cache: 20 hits, 4 misses\n")

    def test_warm_run_must_answer_from_the_evaluation_entry(self):
        walked = STAGES.replace("evaluation  0     2 ",
                                "simulate-mt 0     2 ")
        with pytest.raises(CacheSmokeError, match="evaluation entry"):
            check(COLD, METRICS + walked + WARM_SUMMARY)
        with pytest.raises(CacheSmokeError, match="evaluation entry"):
            check(COLD, METRICS + WARM_SUMMARY)  # no stage table at all
        # geomean rows are not cells
        geomean = METRICS + "geomean     gremio      1.300\n"
        check(COLD.replace(METRICS, geomean),
              WARM.replace(METRICS, geomean))

    def test_warm_run_must_not_run_stages(self):
        ran = STAGES + "normalize   2     0     0       0.0004\n"
        with pytest.raises(CacheSmokeError, match="ran stages: normalize"):
            check(COLD, METRICS + ran + WARM_SUMMARY)

    def test_metrics_must_match(self):
        drifted = COLD.replace("1.523", "1.524").replace(
            "0 hits, 24 misses", "24 hits, 0 misses")
        with pytest.raises(CacheSmokeError, match="different metrics"):
            check(COLD, drifted)


class TestMain:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_ok_exit_zero(self, tmp_path, capsys):
        cold = self.write(tmp_path, "cold.txt", COLD)
        warm = self.write(tmp_path, "warm.txt", WARM)
        assert main([cold, warm]) == 0
        assert "cache-smoke ok" in capsys.readouterr().out

    def test_violation_exit_one(self, tmp_path, capsys):
        cold = self.write(tmp_path, "cold.txt", COLD)
        bad = self.write(tmp_path, "warm.txt", COLD)
        assert main([cold, bad]) == 1
        assert "cache-smoke FAILED" in capsys.readouterr().err

    def test_usage_exit_two(self, capsys):
        assert main(["only-one-arg"]) == 2
        assert "usage" in capsys.readouterr().err
