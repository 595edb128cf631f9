"""Load generator: ``repro serve`` daemons as subprocesses and the
closed-loop client threads that drive them."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from cells import Op

BOOT_TIMEOUT = 60.0
HEALTH_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0

_LISTENING = re.compile(r"listening on (http://[^\s]+)")


class DaemonError(RuntimeError):
    """A daemon failed to boot, become healthy, or log in time."""


def scrubbed_env(src_dir: str, cache_dir: str) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` variable, with a
    private cache directory and ``src`` importable."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = src_dir
    return env


class Daemon:
    """One ``python -m repro serve`` subprocess.  Both pipes are drained
    continuously into memory, so a full pipe never stalls the daemon and
    the traced run can read the request log."""

    def __init__(self, name: str, serve_args: Sequence[str],
                 env: Dict[str, str]):
        self.name = name
        self.stdout_lines: List[str] = []
        self.stderr_lines: List[str] = []
        self._evaluate_log: List[Dict[str, object]] = []
        self._parsed = 0
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"] + list(serve_args),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        self._readers = [
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.process.stdout, self.stdout_lines)),
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.process.stderr, self.stderr_lines))]
        for reader in self._readers:
            reader.start()
        self.url: Optional[str] = None

    @staticmethod
    def _drain(pipe, lines: List[str]) -> None:
        for line in pipe:
            lines.append(line)
        pipe.close()

    def _tail(self) -> str:
        return "".join(self.stdout_lines[-5:] + self.stderr_lines[-5:])

    def wait_listening(self, timeout: float = BOOT_TIMEOUT) -> str:
        """The base URL from the ``listening on http://...`` line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.stdout_lines):
                match = _LISTENING.search(line)
                if match:
                    self.url = match.group(1)
                    return self.url
            if self.process.poll() is not None:
                raise DaemonError("%s exited during boot (code %d): %s" % (
                    self.name, self.process.returncode, self._tail()))
            time.sleep(0.01)
        raise DaemonError("%s announced no port within %.0f s: %s"
                          % (self.name, timeout, self._tail()))

    def evaluate_log(self) -> List[Dict[str, object]]:
        """The structured request-log lines of ``POST /v1/evaluate`` so
        far (each line is parsed once; call from one thread)."""
        while self._parsed < len(self.stderr_lines):
            line = self.stderr_lines[self._parsed]
            self._parsed += 1
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if (isinstance(record, dict) and record.get("event") == "request"
                    and record.get("path") == "/v1/evaluate"):
                self._evaluate_log.append(record)
        return list(self._evaluate_log)

    def stop(self) -> None:
        """SIGINT, then SIGKILL if the daemon ignores it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(STOP_TIMEOUT)
        for reader in self._readers:
            reader.join(STOP_TIMEOUT)


def wait_until(probe: Callable[[], bool], what: str,
               timeout: float = HEALTH_TIMEOUT) -> None:
    """Poll ``probe`` until true; a clear error, not a hang, otherwise.
    Connection errors while the daemon is still binding count as false."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if probe():
                return
        except OSError:
            pass
        time.sleep(0.02)
    raise DaemonError("%s within %.0f s" % (what, timeout))


def run_clients(make_client: Callable[[], object],
                op_lists: Sequence[Sequence[Op]],
                record: Callable[[int, str, float, float, int, object], None],
                shed_first: bool = False) -> None:
    """Closed loop: one thread per op list, each with its own client,
    posting its next request only after the previous answer; all start
    together.  Calls ``record(client, key, start, end, status, document)``
    after each op and returns after the last answer.  ``shed_first``
    overwrites the first answer's status with 429 (the self-tests'
    injected fault)."""
    barrier = threading.Barrier(len(op_lists))
    errors: List[BaseException] = []

    def loop(index: int, ops: Sequence[Op]) -> None:
        try:
            client = make_client()
            barrier.wait()
            for position, (key, body) in enumerate(ops):
                start = time.perf_counter()
                try:
                    status, document = client.evaluate_raw(body)
                except OSError as error:  # refused, reset, timed out
                    status, document = 0, {"error": str(error)}
                end = time.perf_counter()
                if shed_first and index == 0 and position == 0:
                    status = 429
                record(index, key, start, end, status, document)
        except BaseException as error:  # re-raised by the caller below
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(index, ops))
               for index, ops in enumerate(op_lists)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
