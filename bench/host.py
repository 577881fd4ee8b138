"""Host readings shared by the benchmark's processes.

The reference host is a shared 2-CPU VM whose speed swings by up to
~1.8x within seconds while other tenants load it; CPU time swings with
wall time, so neither alone repeats from run to run.  :class:`Steps`
therefore brackets every timed step with :func:`probe_s`, a fixed
pure-Python loop run on the same CPU, and scales the step's wall time
by the mean of its two probes (:func:`at_ref`): seconds as they would
read on the reference host when it is quiet.  :func:`segments` does the
same for a child process that probes between its own stretches of work.
"""

from __future__ import annotations

import contextlib
import os
import resource
import time

#: Median :func:`probe_s` on the reference host (2-CPU Xeon VM at
#: 2.1 GHz, Python 3.11) while quiet.
PROBE_REF_S = 0.0335


def probe_s(n: int = 300_000) -> float:
    """Wall seconds of a fixed interpreter-bound loop (≈ 35 ms)."""
    start = time.perf_counter()
    x = 0.0
    table = {}
    for i in range(n):
        x += (i % 7) * 0.5
        table[i & 1023] = x
    return time.perf_counter() - start


def at_ref(seconds: float, probe: float) -> float:
    """``seconds`` measured next to ``probe``, at the reference speed."""
    return seconds * PROBE_REF_S / probe


def segments(start, end, before, after, probes):
    """Walls and reference-speed seconds of the stretches of a process
    that lie between its probes.

    The process ran from ``start`` to ``end`` (``time.monotonic``) and
    ran probes at the ``(start, end)`` stamps in ``probes``; ``before``
    and ``after`` are the parent's probe durations right around it.
    Each stretch is scaled by the mean of the probes on either side.
    """
    bounds = [start, *(stamp for probe in probes for stamp in probe), end]
    durations = [before, *(stop - begin for begin, stop in probes), after]
    walls = [bounds[2 * i + 1] - bounds[2 * i] for i in range(len(probes) + 1)]
    scaled = [at_ref(wall, (durations[i] + durations[i + 1]) / 2)
              for i, wall in enumerate(walls)]
    return walls, scaled


class Steps:
    """Times consecutive steps, each bracketed by host speed probes."""

    def __init__(self):
        self.walls: list[float] = []
        #: CPU seconds of the steps (self + reaped children).
        self.cpu = 0.0
        self.probes: list[float] = [probe_s()]

    @contextlib.contextmanager
    def step(self):
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls.append(time.perf_counter() - start)
            self.cpu += cpu_seconds() - cpu
            self.probes.append(probe_s())

    def scaled(self) -> list[float]:
        """Each step's wall time at the reference speed."""
        return [
            at_ref(wall, (before + after) / 2)
            for wall, before, after in zip(
                self.walls, self.probes, self.probes[1:]
            )
        ]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def nproc() -> int:
    """The machine's CPUs (single-process workloads run pinned to one)."""
    return os.cpu_count() or 1
