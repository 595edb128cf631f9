"""The cell key looked up before a build is the key a walk stores.

``evaluate_summary`` derives a cell's key from the roots the workload
remembers — its input fingerprints and, after its first normalize in
the process, its IR fingerprint — and from once-per-configuration
machine fingerprints, so a warm cell is one blob load.  These tests
hold that key equal to the one every root recomputed from content
gives, across the axes a cell has, and show that the memo is per
process: a workload that builds differently in the next process
misses there.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

from repro.api import (ProgramSpec, configure_cache, get_cache,
                       get_workload, workload_names)
from repro.check.generate import random_partition
from repro.pipeline import core, stages
from repro.pipeline.fingerprint import fingerprint_config

SOURCE = '''
def scaled(n: int, xs: "int[16]"):
    total = 0
    for i in range(16):
        total = total + xs[i] * 3 + n
    return total
'''


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def _inline():
    spec = ProgramSpec.source(SOURCE).validate()
    return get_workload(spec.workload_name())


def _known(workload):
    """``workload`` with its IR fingerprint remembered, and that build's
    normalized function."""
    ctx = core._evaluation_context(workload, scale="train", cache=False)
    core._walk(ctx, workload, ("normalize",))
    assert workload.ir_fingerprint() is not None
    return ctx.function


def _early_key(workload, check, options):
    ctx = core._evaluation_context(workload, **options)
    assert "ir" in ctx.roots and ctx.function is None
    return stages.cell_key(ctx, check)


def _content_key(workload, check, options, monkeypatch):
    """The key with every root hashed from what this call built."""
    ctx = core._evaluation_context(workload, **options)
    core._load(ctx, workload)
    ctx.roots.clear()
    with monkeypatch.context() as patch:
        patch.setattr(stages, "config_fingerprint", fingerprint_config)
        stages.execute(ctx, ("normalize",))
        return stages.cell_key(ctx, check)


def _variants(technique, function, n_threads):
    """Every axis a cell has beyond workload, technique, coco and
    thread count, one at a time and a few together."""
    machine = dataclasses.replace(stages.technique_config(technique),
                                  comm_latency=3)
    partition = random_partition(random.Random(n_threads), function,
                                 n_threads=n_threads).assignment
    variants = [
        {},
        {"topology": "quad-2x2"},
        {"topology": "quad-2x2", "placer": "affinity"},
        {"config": machine},
        {"config": machine, "topology": "quad-2x2"},
        {"local_schedule": "early"},
        {"alias_mode": "none"},
        {"mt_check": True},
        {"partition": partition},
        {"partition": partition, "topology": "quad-2x2",
         "placer": "affinity", "local_schedule": "late"},
        {"scale": "ref"},
    ]
    if stages.PARTITIONER_PARAMS[technique]:
        variants.append({"partitioner_args": {"split_threshold": 1.5}})
        variants.append({"partitioner_args": {"occupancy_factor": 0.5},
                         "config": machine})
    return variants


@pytest.mark.parametrize("name", workload_names() + ["inline"])
def test_early_key_equals_the_content_key(name, monkeypatch):
    workload = _inline() if name == "inline" else get_workload(name)
    function = _known(workload)
    keys = []
    for technique in stages.TECHNIQUES:
        for coco in (False, True):
            for n_threads in (2, 3):
                for variant in _variants(technique, function, n_threads):
                    for check in (True, False):
                        options = {"scale": "train", "cache": False,
                                   "technique": technique, "coco": coco,
                                   "n_threads": n_threads, **variant}
                        key = _early_key(workload, check, options)
                        assert key == _content_key(
                            workload, check, options, monkeypatch), options
                        keys.append(key)
    assert len(set(keys)) == len(keys)  # and every variant is its own cell


def test_early_key_is_the_key_the_walk_stored(cache, monkeypatch):
    stored = []
    original = cache.store

    def store(stage, key, payload):
        if stage == core.RESULT_STAGE:
            stored.append(key)
        original(stage, key, payload)
    monkeypatch.setattr(cache, "store", store)
    workload = get_workload("ks")
    cells = [dict(scale="train"),
             dict(scale="train", technique="dswp", coco=True,
                  topology="quad-2x2", placer="affinity"),
             dict(scale="train", n_threads=3, local_schedule="early",
                  partitioner_args={"split_threshold": 1.5})]
    for options in cells:
        # The first cell of the workload in a fresh process: the key is
        # derived after normalize, from the IR it hashed.
        monkeypatch.setattr(workload, "_ir_fingerprint", None)
        monkeypatch.setattr(stages, "_CONFIG_FINGERPRINTS", {})
        core.evaluate_summary(workload, **options)
        assert _early_key(workload, True, options) == stored[-1]
    assert len(set(stored)) == len(cells)


PROBE = '''
import json, os, sys
from repro.api import configure_cache, get_cache
from repro.pipeline.core import evaluate_summary
from repro.workloads.inline import source_workload

text = """
def probe(n: int, xs: "int[8]"):
    total = 0
    for i in range(8):
        total = total + xs[i] * %s + n
    return total
""" % os.environ["PROBE_FACTOR"]
workload = source_workload("probe", text)
cache = configure_cache(sys.argv[1])
result = evaluate_summary(workload, scale="train")
print(json.dumps({"stats": cache.stats.as_dict(),
                  "fingerprints": result.fingerprints,
                  "stages": sorted(result.telemetry.stages)}))
'''


def test_a_build_that_changed_misses_in_the_next_process(tmp_path):
    """The IR fingerprint is remembered per process only: a workload
    whose ``build()`` differs in the next process (here picked by an
    environment variable) misses there, and the same build hits."""
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    directory = str(tmp_path / "shared")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    def run(factor):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=src, PROBE_FACTOR=factor)
        out = subprocess.run([sys.executable, str(script), directory],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300).stdout
        return json.loads(out.splitlines()[-1])

    first, edited, again = run("3"), run("5"), run("3")
    assert first["stats"]["hits"] == 0
    assert edited["stats"]["hits"] == 0
    assert edited["stats"]["stores"] == first["stats"]["stores"] > 0
    # Another IR: every stage key differs, not just the cell's.
    assert edited["fingerprints"]["profile"] \
        != first["fingerprints"]["profile"]
    assert again["stats"] == {"hits": 1, "misses": 0, "invalidations": 0,
                              "stores": 0, "memory_hits": 0}
    assert again["stages"] == [core.RESULT_STAGE]
    assert again["fingerprints"] == first["fingerprints"]
