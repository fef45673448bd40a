"""Machine-speed calibration for the benchmark's timings.

The 2-core box this benchmark was tuned on runs the same code at speeds
that swing by up to 2x within a minute (contention from outside the
box: same work and seed, CPU time moving with wall time).  No run
length averages that away, so every timing the benchmark gates on is
converted to *reference seconds*: wall time scaled by how fast a fixed
calibration kernel ran *during* the measured interval, relative to
:data:`KERNEL_REFERENCE_S`.

:class:`Stopwatch` samples the kernel from a ``SIGALRM`` interval timer
every :data:`PROBE_INTERVAL_S` while it runs, so the speed estimate
follows the machine through a multi-second simulation; the probe's own
time is subtracted from the interval.  The kernel is frozen benchmark
code that imitates one engine dispatch — small-vector numpy arithmetic,
a partial sort, a ring-buffer write, attribute and dict traffic — and
imports nothing from ``repro``: a change to the program moves the
program's reference seconds, never the kernel's.  It draws from its own
generator and touches no program state, so probed runs produce the
same outputs as unprobed ones (the series digests check that).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

__all__ = ["KERNEL_REFERENCE_S", "PROBE_INTERVAL_S", "Stopwatch", "warm_up"]

#: What one kernel pass takes on the reference machine (the tuning box
#: in its fast state); it only sets the scale of reference seconds.
KERNEL_REFERENCE_S = 0.003

#: Interval timer period of the in-flight probe (about 3 % overhead).
PROBE_INTERVAL_S = 0.1

#: Kernel samples a measurement needs; short intervals top up at exit.
_MIN_SAMPLES = 3
_ITERATIONS = 300

#: The kernel's ring buffer: rows of one 400-provider vector, a few MiB
#: like the engine's ring logs, so cache pressure from outside slows the
#: kernel roughly as it slows the program.  Pages are touched lazily.
_RING = np.zeros((2000, 400))


class _Slot:
    pass


def _kernel() -> float:
    rng = np.random.default_rng(0)
    vector = rng.random(400)
    slot = _Slot()
    table: dict[int, int] = {}
    total = 0.0
    for step in range(_ITERATIONS):
        values = vector * 0.5 + 0.25
        np.maximum(values, 0.3, out=values)
        best = np.argpartition(values, 1)[:1]
        _RING[(step * 613) % 2000] = values
        total += float(values[best[0]])
        total += float(_RING[(step * 7919) % 2000, step % 400])
        slot.value = step
        table[step % 50] = slot.value
        total += float(rng.random())
    return total


def _timed_kernel() -> float:
    started = perf_counter()
    _kernel()
    return perf_counter() - started


def warm_up() -> None:
    """Run the kernel until its first-call costs are paid."""
    for _ in range(2 * _MIN_SAMPLES):
        _kernel()


class Stopwatch:
    """Times a block in wall, CPU and reference seconds.

    Use as ``with Stopwatch() as watch: ...``; afterwards ``wall_s`` and
    ``cpu_s`` exclude the probe's own time, ``gross_s`` includes it, and
    :meth:`reference` converts a duration measured inside the block.
    Main thread only (signal handlers run there).  With ``probe=False``
    the kernel runs only right before and after the block — for blocks
    that wait on a child process, which the probe would compete with.
    """

    def __init__(self, probe: bool = True) -> None:
        self._probing = probe
        self.samples: list[float] = []
        self._probe_s = 0.0
        self.wall_s = self.cpu_s = self.gross_s = 0.0

    def _probe(self, signum, frame) -> None:
        spent = _timed_kernel()
        self.samples.append(spent)
        self._probe_s += spent

    def __enter__(self) -> "Stopwatch":
        if self._probing:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            self._previous_timer = signal.setitimer(
                signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
            )
        else:
            self.samples.extend(_timed_kernel() for _ in range(_MIN_SAMPLES))
        self._cpu = process_time()
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.gross_s = perf_counter() - self._started
        cpu = process_time() - self._cpu
        if self._probing:
            # Disarm before handing SIGALRM back: a late tick must never
            # reach the previous handler (by default it kills the process).
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            signal.setitimer(signal.ITIMER_REAL, *self._previous_timer)
        self.wall_s = self.gross_s - self._probe_s
        self.cpu_s = cpu - self._probe_s
        minimum = _MIN_SAMPLES if self._probing else 2 * _MIN_SAMPLES
        while len(self.samples) < minimum:
            self.samples.append(_timed_kernel())

    @property
    def speed(self) -> float:
        """Machine speed during the block (1.0: the reference machine)."""
        return KERNEL_REFERENCE_S / statistics.fmean(self.samples)

    def reference(self, seconds: float) -> float:
        """``seconds`` measured inside the block, in reference seconds."""
        return seconds * self.speed

    @property
    def reference_s(self) -> float:
        return self.reference(self.wall_s)

    @property
    def reference_cpu_s(self) -> float:
        return self.reference(self.cpu_s)
