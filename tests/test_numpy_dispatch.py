"""The step kernels call numpy's C entry points: ndarray methods, ufunc
methods and the functions implemented in C. numpy's Python wrappers
(``np.argmax``, ``np.sort``, ``np.searchsorted`` and the rest of
``fromnumeric.py``, and ``ndarray.sum``, ``any``, ``min`` through
``_methods.py``) run the same C code but add Python calls to every step.

A profiler watches a trained desk-scale layer through a predicted read-out
step, a bursting read-out step and proximal learning plus a back-projection,
and must see no frame from those two files. Without this guard one later
``np.argmax(...)`` brings the wrappers back unnoticed.
"""

import os
import sys
from functools import partial

import numpy as np
import pytest

from minicolumn import Sdr, TmLayer

pytestmark = pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="numpy < 2 keeps its wrappers in numpy/core and dispatches through other "
    "Python modules, so the files this guard watches are numpy 2's",
)

WRAPPERS = ("fromnumeric.py", "_methods.py")


def _draw(method, *args, **kwargs):
    return method(*args, **kwargs)


class Draws:
    """Stands in for a ``Generator`` and forwards every call to it through
    one Python frame, ``_draw``. ``Generator.integers`` checks an array of
    bounds with ``np.any`` from its compiled code, which no caller controls;
    under ``_draw`` the profile can tell such calls from the layer's own."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return partial(_draw, getattr(self.rng, name))


def wrapper_frames(call) -> list[tuple[str, str, str]]:
    """Every frame from numpy's wrapper files that ``call()`` enters, as
    (file, function, caller), except those entered under ``_draw``."""
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or os.path.basename(code.co_filename) not in WRAPPERS:
            return
        caller = frame.f_back
        while caller is not None and caller.f_code is not _draw.__code__:
            caller = caller.f_back
        if caller is None:
            seen.append((code.co_filename, code.co_name, frame.f_back.f_code.co_name))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.fixture(scope="module")
def trained():
    """A desk-scale layer (1024 bits into 512 columns x 8 cells, 10 active)
    after 30 passes over eight codes with resets."""
    tm = TmLayer(1024, 512, 8, n_active=10, seed=1)
    rng = np.random.default_rng(1)
    codes = [Sdr(1024, rng.choice(1024, 20, replace=False)) for _ in range(8)]
    for _ in range(30):
        tm.reset()
        for code in codes:
            tm.step(code)
    return tm, codes


def test_guard_sees_a_wrapper():
    assert ("argmax", "<lambda>") in [f[1:] for f in wrapper_frames(lambda: np.argmax([1, 2]))]
    assert ("_sum", "<lambda>") in [f[1:] for f in wrapper_frames(lambda: np.ones(2).sum())]


def test_guard_skips_calls_under_a_draw():
    rng = np.random.default_rng(0)
    highs = np.array([2, 3])
    assert wrapper_frames(lambda: rng.integers(highs))  # numpy's own np.any
    assert wrapper_frames(lambda: Draws(rng).integers(highs)) == []


def test_predicted_read_out_step_skips_wrappers(trained, monkeypatch):
    tm, codes = trained
    monkeypatch.setattr(tm, "_rng", Draws(tm._rng))
    tm.reset()
    tm.step(codes[0], learn=False)
    out = []
    assert wrapper_frames(lambda: out.append(tm.step(codes[1], learn=False))) == []
    assert out[0].predicted_cells


def test_bursting_read_out_step_skips_wrappers(trained, monkeypatch):
    """After a reset no segment is scored, so every active column bursts and
    picks a winner among its cells with fewest segments by a random draw."""
    tm, codes = trained
    monkeypatch.setattr(tm, "_rng", Draws(tm._rng))
    tm.reset()
    before = tm._rng.rng.bit_generator.state
    out = []
    assert wrapper_frames(lambda: out.append(tm.step(codes[0], learn=False))) == []
    assert out[0].burst_cells and not out[0].predicted_cells
    assert tm._rng.rng.bit_generator.state != before  # the step drew its winners


def test_proximal_learning_and_back_projection_skip_wrappers(trained):
    tm, codes = trained
    pattern = tm.pattern
    winners = pattern.compute_sdr(codes[2])

    def learn_and_reconstruct():
        pattern.learn(codes[2], winners)
        pattern.reconstruct(winners)

    assert wrapper_frames(learn_and_reconstruct) == []
