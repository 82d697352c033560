"""Host-speed probe: a fixed piece of work timed between boosting rounds.

The benchmark runs on a shared host whose speed swings by up to 2x for
seconds to minutes at a time, with CPU time equal to wall time (NOTES.md).
A job runs ``probe()`` before its set-up and after every ``PROBE_EVERY``-th
round, outside every timed interval.  The probe calls nothing of ogboost, so
a change to the package cannot change its time; a change in its time is a
change in host speed.

The end-to-end times are reported at the nominal host speed: a measured
time is scaled by (``NOMINAL_PROBE_US`` / p) ** e, where p is the median
probe time of the same stretch of rounds, or of the whole job for set-up
and wall time.  The scale does not depend on the program, so a program
twice as fast reads twice as fast at any host speed.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

PROBE_EVERY = 100         # rounds between probes
NOMINAL_PROBE_US = 400.0  # about the probe's median time on the host that built the benchmark
BURST = 20                # probes before set-up, after as many unmeasured ones
# e: the workloads' times move less than the probe's when the host speeds
# up or slows down, and their p99s less than their medians (NOTES.md)
SPEED_EXPONENT = 0.8
TAIL_SPEED_EXPONENT = 0.4

# the workloads spend their time in the interpreter (dict OGD, per-stage
# dispatch) and in numpy calls on short vectors (Hedge, accounting); the
# probe does some of each
_VEC = np.linspace(0.1, 1.0, 17)


def _interpreter_work() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(600):
        k = (i * 7) % 61
        table[k] = table.get(k, 0.0) * 0.5 + i * 0.001
        acc += table[k] * 1.0001
    return acc


def _small_numpy_work() -> float:
    v = _VEC
    for _ in range(12):
        a = np.exp(-0.01 * v)
        v = a / a.sum()
        v = v + np.outer(v, v).sum(axis=0) * 0.001
    return float(v[0])


def probe() -> int:
    """Run the fixed work once; returns its duration in ns."""
    t = perf_counter_ns()
    _interpreter_work()
    _small_numpy_work()
    return perf_counter_ns() - t


def burst() -> list[int]:
    for _ in range(BURST):
        probe()
    return [probe() for _ in range(BURST)]


def scale(probe_ns, exponent: float):
    """Scale from measured time to time at the nominal host speed, given the
    median probe time of the stretch (a number or an array)."""
    return (NOMINAL_PROBE_US * 1e3 / probe_ns) ** exponent


def factor(probe_ns) -> float:
    """Scale for a whole job's set-up and wall time, from all its probes."""
    return float(scale(float(np.median(probe_ns)), SPEED_EXPONENT))
