"""A reference for the host's speed, measured alongside the jobs.

The vCPUs of a shared host change speed by up to 1.7x in stretches of
seconds, on each vCPU separately, and CPU time moves with wall time, so a
job's own times spread too much to compare two runs. `Speed` runs this file
as a calibration process on the same CPU as the jobs, at the lowest
priority: it gets about 1.5% of that CPU, in slices of milliseconds between
the job's, and repeats a fixed pure-Python unit of `Fraction` and set
arithmetic. It keeps two cumulative counters (units done, their CPU
nanoseconds) in a shared file. Over a window, CPU nanoseconds per unit is
the host's speed in that window; `to_reference` scales a CPU time measured
in the window to the speed at which one unit costs `REF_UNIT_NS`.

    python3 bench/speed.py COUNTER_FILE   # runs until SIGTERM
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import subprocess
import sys
import time
from fractions import Fraction

# About the CPU nanoseconds of one unit, sharing its CPU with a job, on the
# 2-vCPU Xeon VM where the benchmark was written, in its fast stretches;
# only a scale for the reported times.
REF_UNIT_NS = 800_000
MIN_UNITS = 5  # fewer units in a window measure no speed
LAYOUT = struct.Struct("<QQQ")  # sequence (odd while writing), units, CPU ns


def unit():
    """A fixed piece of work like the library's: rational products and sums,
    and set and dict lookups."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 120):
        total += Fraction(i % 7, i % 5 + 1) * Fraction(3, i)
        key = frozenset((i % 11, i % 13))
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


def calibrate(path):
    os.nice(19)
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    parent = os.getppid()  # a killed benchmark cannot stop us; then we stop ourselves
    with open(path, "r+b") as f, mmap.mmap(f.fileno(), LAYOUT.size) as shared:
        units, seq, start = 0, 0, time.process_time_ns()
        while not stopping and os.getppid() == parent:
            unit()
            units += 1
            cpu = time.process_time_ns() - start
            LAYOUT.pack_into(shared, 0, seq + 1, units, cpu)
            seq += 2
            struct.pack_into("<Q", shared, 0, seq)


class Speed:
    """The calibration process and its counters; use as a context manager,
    which stops the process and waits for it on every way out."""

    def __init__(self, work):
        path = work / "speed"
        path.write_bytes(bytes(LAYOUT.size))
        self._file = open(path, "r+b")
        self._shared = mmap.mmap(self._file.fileno(), LAYOUT.size)
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)], stdin=subprocess.DEVNULL)

    def __enter__(self):
        deadline = time.monotonic() + 30
        while self.read()[0] < MIN_UNITS:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                raise SystemExit("the speed reference did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._shared.close()
        self._file.close()

    def read(self):
        """(units, CPU ns) so far, as one consistent pair."""
        while True:
            seq, units, cpu = LAYOUT.unpack_from(self._shared, 0)
            if seq % 2 == 0 and struct.unpack_from("<Q", self._shared, 0)[0] == seq:
                return units, cpu
            time.sleep(0.001)  # the writer was stopped mid-write; let it finish

    def to_reference(self, cpu_s, start, end):
        """`cpu_s` measured between the readings `start` and `end`, scaled to
        reference speed."""
        units, cpu_ns = end[0] - start[0], end[1] - start[1]
        if units < MIN_UNITS:
            raise SystemExit(f"the speed reference ran {units} units in a window; it needs {MIN_UNITS}")
        return cpu_s * REF_UNIT_NS * units / cpu_ns


if __name__ == "__main__":
    calibrate(sys.argv[1])
