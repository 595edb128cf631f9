"""End-to-end: the benchmark command itself, at ``--quick`` size."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import loadgen
import measure
from conftest import PERF_DIR, ROOT_DIR

RUN = os.path.join(PERF_DIR, "run.py")


def _run(*args, cwd=ROOT_DIR, script=RUN):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _leftovers():
    out = os.path.join(PERF_DIR, "out")
    return [name for name in os.listdir(out) if name.startswith("work-")]


def _serve_processes():
    found = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open("/proc/%s/cmdline" % pid, "rb") as handle:
                    command = handle.read().split(b"\0")
            except OSError:
                continue
            if b"serve" in command and b"repro" in command:
                found.append(int(pid))
    return found


def test_quick_run_prints_the_contract_line_and_cleans_up(tmp_path):
    before = set(_serve_processes())
    out = tmp_path / "result.json"
    done = _run("--quick", "--workload", "serve-hot", "--workload",
                "sweep-warm", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 16
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    assert list(last["metrics"]) == \
        [metric["name"] for metric in benchmark["end_to_end"]]
    assert all(metric["value"] > 0 for metric in last["metrics"].values())
    document = json.loads(out.read_text())
    assert document["mode"] == "quick" and document["seed"] == 5
    assert set(document["workloads"]) == {"serve-hot", "sweep-warm"}
    assert document["workloads"]["serve-hot"]["attempted"] == 250
    for name in last["metrics"]:
        assert name in done.stdout
    assert _leftovers() == []
    assert set(_serve_processes()) <= before


def test_traced_quick_run_fills_the_layers(tmp_path):
    done = _run("--quick", "--trace", "1", "--workload", "serve-miss")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    import contract
    assert list(last["metrics"]) == [m["name"] for m in contract.PER_LAYER]
    value = {name: metric["value"] for name, metric in last["metrics"].items()}
    assert value["service.requests_total"] == last["attempted"] == 40
    assert value["service.evaluations_completed"] == 40
    assert value["service.memo_hits"] == 0
    assert value["frontend.compile_ms_p50"] > 0
    assert value["service.pool_overhead_ms_mean"] > 0
    assert value["machine.simulate_mt_runs"] == 40
    assert value["machine.sim_instructions"] > 0
    assert value["cluster.routed_total"] == 0
    with open(os.path.join(PERF_DIR, "out", "spans-serve-miss.json"),
              encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    clients = [span for span in spans if span["name"] == "client.evaluate"]
    handlers = [span for span in spans if span["name"] == "daemon.handler"]
    assert len(clients) == len(handlers) == 40
    by_id = {span["id"]: span for span in spans}
    for span in handlers:
        parent = by_id[span["parent"]]
        assert parent["name"] == "client.evaluate"
        # The handler stops its clock after the client has its answer, and
        # logs 0.1 ms steps: allow it a little more than its parent.
        assert (span["end"] - span["start"]
                <= parent["end"] - parent["start"] + 0.005)


@pytest.mark.parametrize("workload,fault", [("sweep-cold", "metrics"),
                                            ("serve-miss", "metrics"),
                                            ("serve-hot", "shed")])
def test_injected_faults_fail_the_run(workload, fault):
    done = _run("--quick", "--workload", workload, "--inject", fault)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED CHECK" in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
    assert _leftovers() == []


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(PERF_DIR, str(tmp_path / "perf"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT_DIR, "BENCHMARK.json"), str(tmp_path))
    done = _run("--workload", "sweep-cold", "--seed", "1", "--seconds", "8",
                "--trace", "0", cwd=str(tmp_path),
                script=str(tmp_path / "perf" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_daemon_teardown_leaves_no_process(tmp_path):
    env = loadgen.scrubbed_env(os.path.join(ROOT_DIR, "src"),
                               str(tmp_path / "cache"))
    assert not any(name.startswith("REPRO_") and name != "REPRO_CACHE_DIR"
                   for name in env)
    daemon = loadgen.Daemon("daemon", ["--port", "0", "--workers", "2"], env)
    try:
        url = daemon.wait_listening()
        assert url.startswith("http://127.0.0.1:")
        tree = measure.process_tree(daemon.process.pid)
        assert len(tree) == 3  # the daemon and its two pool workers
    finally:
        daemon.stop()
    assert daemon.process.poll() is not None
    for pid in tree:
        assert not os.path.exists("/proc/%d" % pid)


def test_a_daemon_that_never_listens_is_a_clear_error(tmp_path):
    env = loadgen.scrubbed_env(os.path.join(ROOT_DIR, "src"),
                               str(tmp_path / "cache"))
    daemon = loadgen.Daemon("broken", ["--workers", "-1"], env)
    try:
        with pytest.raises(loadgen.DaemonError, match="exited during boot"):
            daemon.wait_listening(timeout=20)
    finally:
        daemon.stop()
    with pytest.raises(loadgen.DaemonError, match="never healthy within 0 s"):
        loadgen.wait_until(lambda: False, "never healthy", timeout=0.05)


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    done = subprocess.run([ruff, "check", PERF_DIR], cwd=ROOT_DIR,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
