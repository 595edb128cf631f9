"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest perf/tests -q``
(tier-1's ``testpaths`` deliberately does not include them)."""

import os
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_DIR = os.path.dirname(PERF_DIR)
for path in (os.path.join(ROOT_DIR, "src"), PERF_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def api(tmp_path, monkeypatch):
    """The facade on a private cache directory, ``REPRO_*`` scrubbed."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    from repro import api
    previous = api.get_cache()
    api.configure_cache(str(tmp_path / "cache"))
    yield api
    api.configure_cache(previous.directory, previous.enabled)
