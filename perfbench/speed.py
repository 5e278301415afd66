"""Host-speed probe: how fast this host runs a fixed loop while a region runs.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent within seconds, each core on its own, because of load the
benchmark cannot see.  A raw wall time then measures the neighbours as much
as mislab.  `SpeedProbe` times a fixed loop every `INTERVAL_S` of wall time,
from a SIGALRM handler, so the samples are taken on the cores that run the
work and at the moments they run it: on the main thread, and in every
process forked while the probe is active (mislab's worker pool and the
harness's), which write their samples to the same file.  `rescale` turns a
measured duration into reference seconds: the time the same work would take
at the speed at which the loop takes its reference time.

Three loops: "python", integer arithmetic in a tight loop, for deep
pure-Python searches; "objects", many small calls building lists and dicts,
for work made of many tiny calls; "numpy", bitwise passes over a
2^16-element int64 array like the search scan's, for work that is mostly
numpy.  Each workload names the loop most like its hot path.  The loop is
timed in thread CPU time, so waiting for a CPU inside this machine (with 2
workers, the parent shares the cores with them) does not read as a slow
host.
"""

from __future__ import annotations

import fcntl
import os
import signal
import statistics
import struct
import tempfile
import time

INTERVAL_S = 0.05
RECORD = struct.Struct("=dd")  # loop time in thread CPU seconds, wall cost


def python_loop() -> int:
    s = 0
    d = {}
    for i in range(10_000):
        s += i * i % 7
        d[i & 255] = s
    return s


def _push(x: int, row: list) -> list:
    return row + [x & 7] if x & 1 else row


def objects_loop() -> int:
    out = 0
    for i in range(400):
        row: list = []
        for j in range(8):
            row = _push(i ^ j, row)
        d = dict(enumerate(row))
        out += len(d) + sum(d.values())
    return out


_ARRAY = []


def numpy_loop() -> int:
    import numpy as np

    if not _ARRAY:
        _ARRAY.append(np.arange(1 << 16, dtype=np.int64))
    a = _ARRAY[0]
    ok = (a & np.int64(0x5A5A)) == 0
    for c in (3, 5, 9, 17, 33, 65, 129, 257):
        ok &= (a & np.int64(c)) != 0
    return int(ok.sum())


# Loop and its time at the reference speed: about its time on the 2-core
# Xeon host the benchmark was written on, in one of that host's fast spells.
LOOPS = {
    "python": (python_loop, 1.2e-3),
    "objects": (objects_loop, 1.1e-3),
    "numpy": (numpy_loop, 0.55e-3),
}

_active: SpeedProbe | None = None


def _start_in_child() -> None:
    # A fork keeps the signal handler but not the interval timer.
    if _active is not None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


os.register_at_fork(after_in_child=_start_in_child)


class SpeedProbe:
    """Context manager sampling the loop's time while a region runs.  After
    it, `samples` holds the loop times of every process and `cost_s` the
    wall time the samples took, all inside the region."""

    def __init__(self, kind: str = "python") -> None:
        self.loop, self.ref_s = LOOPS[kind]
        self.samples: list[float] = []
        self.cost_s = 0.0
        self._fd = -1
        self._old = None

    def sample(self, *_) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        self.loop()
        loop_s = time.thread_time() - cpu
        os.write(self._fd, RECORD.pack(loop_s, time.perf_counter() - wall))

    def __enter__(self) -> "SpeedProbe":
        global _active
        # One unlinked append-only file: each record is one write, so the
        # processes' records never interleave.
        self._fd, path = tempfile.mkstemp(prefix="speed-")
        os.unlink(path)
        fcntl.fcntl(self._fd, fcntl.F_SETFL, os.O_APPEND)
        self.loop()  # builds the loop's data before the first sample
        _active = self
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        _active = None
        size = os.fstat(self._fd).st_size // RECORD.size * RECORD.size
        data = os.pread(self._fd, size, 0)
        os.close(self._fd)
        for loop_s, cost_s in RECORD.iter_unpack(data):
            self.samples.append(loop_s)
            self.cost_s += cost_s

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference speed.  The
        mean of speeds, not of loop times: equal wall intervals at speeds s_i
        do work in proportion to the sum of s_i.  A region too short for any
        sample gets one taken now, after it."""
        if not self.samples:
            cpu = time.thread_time()
            self.loop()
            self.samples.append(time.thread_time() - cpu)
        return statistics.fmean(self.ref_s / s for s in self.samples)

    def rescale(self, seconds: float, workers: int = 1) -> float:
        """Reference seconds for `seconds` of wall time spent in the region.
        The samples' own time is taken out first, shared over `workers`
        busy cores."""
        return max(seconds - self.cost_s / workers, 0.0) * self.speed()
