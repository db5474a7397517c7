"""Timings at reference speed on a host whose speed drifts.

On a small shared VM the same code runs up to ~1.9x slower for stretches of
5-25 s, in CPU time as well as in wall time, so raw timings of one commit
disagree from run to run. A timer signal therefore runs a fixed reference
kernel every ``TICK_S`` seconds: set lookups, generator sums and small sorts
like the layers' per-cell Python loops, plus an in-cache numpy gather and
count like proximal overlap. The kernel's CPU time over its nominal time is
the host's slowdown; every timed piece (in process CPU time, so preemption by
other processes does not count) is divided by the slowdown around it, so it
reads as if the host ran at nominal speed.

Memory-bound variants of the kernel tracked the program worse than this
compute-bound one: the program's arrays stay hot in cache between steps,
while a kernel's arrays touched once per tick are cold. Time spent inside
the signal handler is subtracted from every piece, and the garbage collector
is held off while the kernel runs so that a collection of the program's
objects is never charged to the kernel.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

TICK_S = 0.05
WINDOW_S = 0.5
# Kernel CPU time on the reference host (2-core Xeon VM, Python 3.11,
# numpy 2.4) in a quiet stretch. Timings are reported at this speed.
NOMINAL_S = 1.30e-3


class RefClock:
    """Reference-kernel sampler plus a clock that excludes sampling time.

    Use as a context manager; ``mark`` / ``since`` time a piece, ``scale``
    turns raw piece times into times at reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(20150928)
        self._set = frozenset(range(0, 3000, 3))
        self._on = rng.random(4096) < 0.03
        self._src = rng.integers(0, 4096, size=(64, 256))
        self.times: list[float] = []
        self.durations: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _kernel(self) -> int:
        hits = 0
        for seg in range(50):
            sources = list(range(seg, seg + 64))
            hits += sum(1 for s in sources if s in self._set)
            sorted(((s * 7) % 101, s) for s in sources)
        for _ in range(20):
            hits += int(np.count_nonzero(self._on[self._src], axis=1)[0])
        return hits

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            c1 = time.process_time()
            self._kernel()
            c2 = time.process_time()
        finally:
            if collecting:
                gc.enable()
        self.times.append(t1)
        self.durations.append(c2 - c1)
        self.handler_s += time.process_time() - c0

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def cpu(self) -> float:
        """Process CPU seconds, excluding the time spent sampling."""
        return time.process_time() - self.handler_s

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.cpu()

    def since(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, CPU seconds) of a piece; start and end are wall times."""
        return mark[0], time.perf_counter(), self.cpu() - mark[1]

    def scale(self, pieces) -> np.ndarray:
        """Raw piece times divided by the host slowdown around each piece.

        A piece that spans three or more samples is divided by their mean
        slowdown (the host's average speed over the piece); a shorter one by
        the median slowdown of the samples within ``WINDOW_S`` of it, at
        least two on each side.
        """
        if not pieces:
            return np.zeros(0)
        if len(self.times) < 4:
            raise RuntimeError("too few reference samples; the run was too short")
        p = np.asarray(pieces, dtype=np.float64)
        ts = np.asarray(self.times)
        slow = np.asarray(self.durations) / NOMINAL_S
        inner0 = np.searchsorted(ts, p[:, 0])
        inner1 = np.searchsorted(ts, p[:, 1])
        lo = np.minimum(np.searchsorted(ts, p[:, 0] - WINDOW_S), inner0 - 2).clip(0)
        hi = np.maximum(np.searchsorted(ts, p[:, 1] + WINDOW_S), inner1 + 2)
        factor = np.array(
            [
                slow[a:b].mean() if b - a >= 3 else np.median(slow[l:h])
                for a, b, l, h in zip(inner0, inner1, lo, hi)
            ]
        )
        return p[:, 2] / factor

    def summary(self) -> dict:
        return {"ref_kernel_ms": 1e3 * float(np.median(self.durations)), "ref_samples": len(self.times)}
