"""Reference work that times are normalized by.

On a shared host the speed a process gets drifts by tens of percent within
minutes, and every computation slows together, so a raw time tells as much
about the host as about the program.  Each gated operation, or each step of
a long one, is therefore bracketed by a fixed computation, timed just
before and just after it; the step's time divided by the mean of the two is
its cost in reference units, in which the host's drifts largely cancel.

Different code slows by different amounts under contention, so each
workload's reference resembles its work (``workloads.REFERENCE``).  The
``interpreter`` reference mixes, in about equal parts, integer arithmetic in
the interpreter, exact rational arithmetic on growing integers and many
small numpy calls; the ``arrays`` reference draws and reduces a few
megabytes of random numbers in a handful of numpy calls, as Monte Carlo
sampling does.  Over ten runs, the Monte Carlo pipelines' cost in
``interpreter`` units fell as the host slowed (correlation -0.8), which is
what a reference of the wrong kind does.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np


def _integers() -> int:
    acc = 0
    for i in range(35_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def _rationals() -> Fraction:
    x = Fraction(0)
    for i in range(1, 500):
        x = (x + Fraction(1, i)) * Fraction(i, i + 1)
    return x


def _small_arrays() -> np.ndarray:
    a = np.ones((4, 4), complex)
    for _ in range(1000):
        a = a @ a * 0.25
    return a


def _interpreter() -> None:
    _integers()
    _rationals()
    _small_arrays()


def _arrays() -> int:
    rng = np.random.Generator(np.random.Philox(0))
    bits = rng.random((120_000, 10)) < 0.05
    return int((bits << np.arange(10)).sum(axis=1).sum())


# Set-up time is reported in seconds at a fixed host speed: that at which the
# interpreter reference takes 10 ms (it took 8-17 ms on one shared 2-CPU
# x86-64 host with Python 3.11, depending on the other tenants' load).
INTERPRETER_NOMINAL_S = 0.010

REFERENCES = {"interpreter": _interpreter, "arrays": _arrays}
work = _interpreter  # this process's reference; see select()


def select(kind: str) -> None:
    """Use the reference named kind in this process from now on."""
    global work
    work = REFERENCES[kind]


def reference_seconds() -> float:
    """Wall time of this process's reference work (8-20 ms on a shared x86-64 host)."""
    start = perf_counter()
    work()
    return perf_counter() - start


def steady_reference_seconds() -> float:
    """Median of three reference timings, so one preempted timing does not
    count; for bracketing a single long interval such as set-up."""
    return statistics.median(reference_seconds() for _ in range(3))


def timed_steps(steps) -> tuple[list, list[tuple[float, float]]]:
    """Run zero-argument callables in turn, with the reference work before
    the first and after each.  Returns the results and, per step, (wall
    seconds, mean of the reference seconds just before and just after).

    A full garbage collection, untimed, precedes each step, so every step
    starts from the same collector state and pays only for its own garbage.
    """
    refs = [reference_seconds()]
    results, seconds = [], []
    for step in steps:
        gc.collect()
        start = perf_counter()
        results.append(step())
        seconds.append(perf_counter() - start)
        refs.append(reference_seconds())
    return results, [(t, (a + b) / 2) for t, a, b in zip(seconds, refs, refs[1:])]


def timed(fn, *args):
    """(fn(*args), wall seconds of the call, reference seconds around it)."""
    (result,), [(seconds, ref)] = timed_steps([lambda: fn(*args)])
    return result, seconds, ref
