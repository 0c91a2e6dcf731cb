"""Start, watch and stop one ``repro serve`` process.

The server binds a free port (``--port 0``) and announces it on its
first output line; its output goes to a log file rather than a pipe,
so a chatty server can never block on a full pipe.  ``stop`` always
ends the process: SIGINT first (the CLI then closes its server and
store), SIGKILL if it has not exited in time.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_ANNOUNCE = re.compile(rb"on http://[0-9.]+:(\d+)")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


def child_setup(cpu: int | None = None) -> None:  # pragma: no cover
    """Runs in a child process (server or probe) before it starts.

    A shell starts background jobs with SIGINT ignored, and Python then
    never turns SIGINT into KeyboardInterrupt; restore the default so
    ``stop`` can shut the server down cleanly.  Also ask Linux to
    SIGKILL the child if the benchmark itself dies, and pin it to
    ``cpu`` when one is given.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


class ServerProcess:
    """One server process; ``launch`` returns once its port is known."""

    def __init__(self, root: Path, argv: list[str], log_path: Path,
                 cpu: int, launcher: list[str] | None = None):
        self.root = root
        self.cpu = cpu
        self.argv = argv
        self.log_path = log_path
        self.launcher = launcher or ["-m", "repro.cli"]
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.started_at = 0.0

    def launch(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "wb") as log:
            self.started_at = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, *self.launcher, *self.argv],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=lambda: child_setup(self.cpu))
        deadline = self.started_at + START_TIMEOUT
        while time.perf_counter() < deadline:
            match = _ANNOUNCE.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start:\n{self.log_tail()}")

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the live server process."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kilobytes / 1024.0

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.log_path.read_bytes()[-limit:].decode(
                errors="replace")
        except OSError:
            return ""

    def stop(self) -> int | None:
        """End the process and wait for it; return its exit code."""
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        return process.returncode
