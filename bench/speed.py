"""A probe of how fast one CPU runs Python at each moment.

The benchmark runs on shared machines whose speed is not steady: the
same run of the program takes up to 80% longer for seconds or minutes at
a time, on each CPU on its own, and no hardware counter is available to
count work instead. The benchmark therefore pins what it measures to one
CPU and runs this probe on the same CPU. Every :data:`PERIOD` seconds
the probe runs :func:`reference_work` and records the CPU time it took.
A time measured over an interval is then scaled to the *reference
speed*: the speed at which :func:`reference_work` takes
:data:`REFERENCE_S`. Each scaling uses the probe's samples around that
interval, so it follows the machine as its speed changes.

:func:`reference_work` is interpreter work with a small working set:
dictionary updates and integer arithmetic. Probes that chased pointers
through megabytes of objects followed the program's slow phases less
well, because their own cache misses depended on what the program had
just done.

Usage (:class:`Probe` starts it)::

    python bench/speed.py CPU

The probe pins itself to CPU, prints ``ready``, samples until its stdin
reaches end of file, then prints its samples as one JSON list of
``[monotonic time, CPU seconds]`` pairs.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between two samples; each takes about half a millisecond of CPU.
PERIOD = 0.025
#: CPU seconds :func:`reference_work` takes at the reference speed (about
#: its mean on the quiet 2-vCPU machine where the benchmark was written).
REFERENCE_S = 0.0004
#: Samples this far before and after an interval also describe it.
PAD_S = 0.25
#: An interval with fewer samples uses this many nearest ones instead.
MIN_SAMPLES = 5
#: Share of the samples dropped at each end before averaging; the rest
#: are averaged, so that a slow phase counts in proportion to its length.
TRIM = 0.1


def reference_work() -> int:
    """A fixed amount of dictionary and integer work."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += i * i
    return acc


def sample(cpu: int) -> None:
    """The probe process: sample until stdin closes, then print."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD)
        if readable and not sys.stdin.buffer.read1(4096):
            break
        at = time.monotonic()
        used = time.thread_time()
        reference_work()
        samples.append((at, time.thread_time() - used))
    json.dump(samples, sys.stdout)


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.mean(values[cut:len(values) - cut])


class Probe:
    """A probe process on ``cpu`` for the length of a ``with`` block.

    After the block, :meth:`scaled` turns a time measured inside it into
    seconds at the reference speed.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self._proc.stdout.readline() != b"ready\n":
            self.__exit__(None, None, None)
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *_exc) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        if proc.returncode == 0:
            self.samples = [tuple(pair) for pair in json.loads(out)]

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed during [start, end]."""
        durations = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        if len(durations) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda pair: abs(pair[0] - middle))
            durations = [d for _t, d in nearest[:MIN_SAMPLES]]
        if not durations:
            raise RuntimeError("the speed probe recorded no samples")
        return REFERENCE_S / trimmed_mean(durations)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured during [start, end], at the reference speed."""
        return seconds * self.factor(start, end)


if __name__ == "__main__":
    sample(int(sys.argv[1]))
