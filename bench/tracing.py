"""Per-module spans recorded from outside the program.

``Tracer.install`` replaces public functions of the program's modules with
wrappers that record one span per call: name, start, end, and self time
(duration minus the spans nested in it). Spans stay in memory until the run
ends. The program's own code is not changed; ``uninstall`` restores it.
"""

from __future__ import annotations

import contextlib
import functools
import time

from minicolumn import encoders, experiments, pattern, persistence, pooling, transition

from refclock import RefClock

# (owner, attribute, span name, True when the span reports its full duration
# rather than its self time). TmLayer.step is named by its ``learn`` flag;
# raw_overlaps calls that PoolingLayer inherits get a span name of their own.
TRACED = [
    (encoders.CategoryEncoder, "encode", "encoders.encode", False),
    (encoders.ScalarEncoder, "encode", "encoders.encode", False),
    (pattern.PatternLayer, "raw_overlaps", "pattern.raw_overlaps", False),
    (pattern.PatternLayer, "learn", "pattern.learn", False),
    (pattern.PatternLayer, "reconstruct", "pattern.reconstruct", False),
    (transition.TmLayer, "step", None, False),
    (pooling.PoolingLayer, "tp_step", "pooling.tp_step", True),
    (pooling.PoolingLayer, "tp_learn", "pooling.tp_learn", True),
    (persistence, "save", "persistence.save", False),
    (persistence, "load", "persistence.load", False),
    (experiments, "decode_prediction", "experiments.decode", False),
]


def _span_name(name, args, kwargs) -> str:
    if name is None:
        learn = kwargs.get("learn", args[2] if len(args) > 2 else True)
        return "transition.learn_step" if learn else "transition.infer_step"
    if name == "pattern.raw_overlaps" and isinstance(args[0], pooling.PoolingLayer):
        return "pattern.pool_raw_overlaps"
    return name


class Tracer:
    def __init__(self, clock: RefClock):
        self.clock = clock
        self.spans: list[tuple[str, float, float, float]] = []  # name, start, end, seconds
        self.enabled = True
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, inclusive):
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = _span_name(name, args, kwargs)
            t0 = time.perf_counter()
            c0 = clock.cpu()
            self._stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock.cpu() - c0
                t1 = time.perf_counter()
                nested = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self.spans.append((label, t0, t1, duration if inclusive else duration - nested))

        return wrapper

    def install(self) -> None:
        for owner, attr, name, inclusive in TRACED:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, inclusive))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True
