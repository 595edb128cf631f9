"""Shared by the serve/cluster smoke tools: boot a ``python -m repro
serve`` subprocess, wait for its ``listening on http://...`` banner,
stop it.  Requests go through ``repro.api.ServiceClient``, not here.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time

BOOT_TIMEOUT = 90.0
_LISTENING = re.compile(r"listening on (http://[^:]+:\d+)")


def fail(tag: str, message: str) -> "NoReturn":  # noqa: F821
    print("%s: FAIL: %s" % (tag, message))
    sys.exit(1)


class Daemon:
    """One daemon subprocess with captured stdout+stderr lines."""

    def __init__(self, tag: str, serve_args, env=None):
        self.tag = tag
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"] + list(serve_args),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        self.lines: list = []
        threading.Thread(
            target=lambda: self.lines.extend(
                iter(self.process.stdout.readline, "")),
            daemon=True).start()

    def wait_listening(self) -> str:
        """The base URL from the daemon's startup banner."""
        deadline = time.time() + BOOT_TIMEOUT
        while time.time() < deadline:
            if self.process.poll() is not None:
                fail(self.tag, "daemon exited during startup (rc=%d): %s"
                     % (self.process.returncode, " | ".join(self.lines)))
            for line in list(self.lines):
                match = _LISTENING.search(line)
                if match:
                    return match.group(1)
            time.sleep(0.1)
        fail(self.tag, "daemon never announced a port within %.0fs: %s"
             % (BOOT_TIMEOUT, " | ".join(self.lines)))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(10)
