"""The speed of the server's CPU, measured through the run, so timings
can be reported at a fixed reference speed.

A CPU of a shared host runs the same code at one of two speeds, about
1.6x apart, and switches between them every few seconds as other
tenants come and go; each CPU switches on its own.  The slowdown is the
same for interpreter loops, JSON and small NumPy calls alike, and it
shows in CPU time as much as in wall time.  So the benchmark pins the
server to one CPU and runs a probe process on that CPU at the idle
scheduling class (``SCHED_IDLE``): the probe runs only while the server
leaves the CPU idle, repeats ``reference_work`` (a fixed mix of the
three, independent of the program under test) and logs the CPU time of
each repeat.  A timing divided by the host factor of its moment (the
probe's nearby CPU time per repeat over ``REFERENCE_S``) is what it
would have been at the reference speed.  Beside a loop busy 85% of the
time, the probe's factor tracked the loop's own speed with a
correlation of 0.94 over half-second bins.

The benchmark also runs a probe on the generator's CPU, which keeps that
CPU from halting between responses (see README.md).

Run as a script, this file is the probe: ``hostspeed.py CPU LOG``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: CPU time of ``reference_work`` at the reference speed.  A reported
#: time is what the run would have taken on a CPU where the reference
#: work takes this long (a CPU of a shared 2-CPU cloud VM at its faster
#: speed).
REFERENCE_S = 0.0025
#: Probe repeats around a moment whose median gives its host factor.
NEIGHBOURS = 15
START_TIMEOUT = 30.0
STOP_TIMEOUT = 10.0

_DOCUMENT = [i * 0.37 for i in range(1_000)]


def reference_work() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    json.loads(json.dumps(_DOCUMENT))
    vector = np.arange(64.0)
    for _ in range(500):
        vector = vector * 1.0001 + 1.0
    return total


def _probe(cpu: int, log: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda signum, frame: sys.exit(0))
    # Line-buffered: every repeat is on disk even if the probe is killed.
    with open(log, "w", buffering=1) as out:
        while True:
            start = time.thread_time()
            reference_work()
            out.write(f"{time.perf_counter():.6f} "
                      f"{time.thread_time() - start:.7f}\n")


class HostSpeed:
    """The probe on one CPU; after ``stop``, host factors by moment on
    the ``time.perf_counter`` clock (system-wide on Linux) the
    generator's and the probe's timestamps share."""

    def __init__(self, cpu: int, log: Path, child_setup):
        self.cpu = cpu
        self.log = log
        self.child_setup = child_setup
        self.process: subprocess.Popen | None = None
        self.times = np.empty(0)
        self.factors = np.empty(0)

    def start(self) -> None:
        """Start the probe; return once it runs at the idle class."""
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu), str(self.log)],
            stdin=subprocess.DEVNULL, preexec_fn=self.child_setup)
        deadline = time.perf_counter() + START_TIMEOUT
        while not (self.log.exists()
                   and self.log.read_bytes().count(b"\n") >= NEIGHBOURS):
            if (self.process.poll() is not None
                    or time.perf_counter() > deadline):
                raise RuntimeError("the host-speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        """End the probe and wait for it."""
        process, self.process = self.process, None
        if process is None:
            return
        process.terminate()
        try:
            process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def load(self) -> None:
        """Read the stopped probe's log."""
        lines = [line.split() for line in self.log.read_text().splitlines()]
        samples = np.array([[float(t), float(d)] for t, d in
                            (line for line in lines if len(line) == 2)])
        if len(samples) < NEIGHBOURS:
            raise RuntimeError(f"the host-speed probe ran only "
                               f"{len(samples)} times")
        self.times = samples[:, 0]
        # Each repeat's factor is the median of its NEIGHBOURS nearest,
        # which drops repeats that a preemption or a cold cache slowed.
        half = NEIGHBOURS // 2
        padded = np.pad(samples[:, 1], half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                           NEIGHBOURS)
        self.factors = np.median(windows, axis=1) / REFERENCE_S

    def at(self, moment: float) -> float:
        """The host factor at ``moment``: that of the nearest repeat."""
        index = int(np.searchsorted(self.times, moment))
        if index == len(self.times) or (
                index > 0 and moment - self.times[index - 1]
                < self.times[index] - moment):
            index -= 1
        return float(self.factors[index])

    def median(self) -> float:
        return float(np.median(self.factors))


if __name__ == "__main__":
    _probe(int(sys.argv[1]), Path(sys.argv[2]))
