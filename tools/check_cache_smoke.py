#!/usr/bin/env python
"""Assert the cold/warm artifact-cache contract over two sweep outputs.

Usage: ``python tools/check_cache_smoke.py cold.txt warm.txt``

The CI ``cache-smoke`` job runs ``python -m repro --sweep`` twice
against one ``REPRO_CACHE_DIR`` and feeds both transcripts here; the
same checks also run as a unit test (``tests/test_cache_smoke_tool``)
over synthetic transcripts, so the contract cannot silently rot in the
workflow file:

* the cold sweep populates the cache (nonzero misses);
* the warm sweep is fully cached (nonzero hits, zero misses);
* both sweeps report bit-identical metric tables;
* the warm sweep answered every cell from its cell-level result entry:
  the ``evaluation`` row of its per-stage table shows one hit per cell,
  and no stage ran.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Tuple

_SUMMARY = re.compile(r"artifact cache: (\d+) hits, (\d+) misses")
_METRIC_ROW = re.compile(r"\S+\s+\S+\s+\d+\.\d{3}")
#: A row of the per-stage timings table: stage, runs, hits, misses, s.
_STAGE_ROW = re.compile(r"(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+\d+\.\d{4}\s*$")


class CacheSmokeError(AssertionError):
    """One of the cold/warm cache-contract checks failed."""


def parse_summary(text: str, label: str = "sweep") -> Tuple[int, int]:
    """(hits, misses) from a sweep transcript's cache summary line."""
    match = _SUMMARY.search(text)
    if not match:
        raise CacheSmokeError("no artifact-cache summary in %s output"
                              % label)
    return int(match.group(1)), int(match.group(2))


def metric_rows(text: str) -> List[str]:
    """The sweep's per-workload metric rows (name, technique, speedup
    ...), the lines whose equality the warm run must preserve."""
    return [line for line in text.splitlines()
            if _METRIC_ROW.match(line)]


def stage_rows(text: str) -> Dict[str, Tuple[int, int]]:
    """stage -> (runs, hits) from a transcript's per-stage table."""
    rows = {}
    for line in text.splitlines():
        match = _STAGE_ROW.match(line)
        if match:
            rows[match.group(1)] = (int(match.group(2)),
                                    int(match.group(3)))
    return rows


def check(cold_text: str, warm_text: str) -> None:
    """Raise :class:`CacheSmokeError` unless the cold/warm pair honours
    the cache contract."""
    _, cold_misses = parse_summary(cold_text, "cold")
    warm_hits, warm_misses = parse_summary(warm_text, "warm")
    if cold_misses == 0:
        raise CacheSmokeError("cold sweep should populate the cache")
    if warm_hits == 0:
        raise CacheSmokeError("warm sweep reported no cache hits")
    if warm_misses != 0:
        raise CacheSmokeError("warm sweep should be fully cached "
                              "(%d misses)" % warm_misses)
    if metric_rows(cold_text) != metric_rows(warm_text):
        raise CacheSmokeError(
            "cold and warm sweeps reported different metrics")
    cells = sum(1 for row in metric_rows(warm_text)
                if not row.startswith("geomean"))
    stages = stage_rows(warm_text)
    if stages.get("evaluation", (0, 0))[1] != cells:
        raise CacheSmokeError(
            "warm sweep should answer each of its %d cells from the "
            "evaluation entry (stage table: %r)" % (cells, stages))
    ran = sorted(name for name, (runs, _) in stages.items() if runs)
    if ran:
        raise CacheSmokeError("warm sweep ran stages: %s"
                              % ", ".join(ran))


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: check_cache_smoke.py COLD.txt WARM.txt",
              file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        cold_text = handle.read()
    with open(argv[1], "r", encoding="utf-8") as handle:
        warm_text = handle.read()
    try:
        check(cold_text, warm_text)
    except CacheSmokeError as error:
        print("cache-smoke FAILED: %s" % error, file=sys.stderr)
        return 1
    print("cache-smoke ok: warm sweep fully cached, metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
