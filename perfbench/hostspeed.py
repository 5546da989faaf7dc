"""Host-speed correction: time a call and scale its wall time to a reference
host speed measured while the call runs.

On a shared VM the speed the host gives one process flips between a fast
and a slow state, up to 1.6x apart, several times a second to once a minute;
CPU time follows wall time.  A `Speedometer` samples that speed with a
probe: a fixed round of pure-Python Fraction elimination and dict-keyed
polynomial arithmetic that touches nothing of the program, and so runs at
the host's current speed whatever the program's code is.  The probe runs
once just before and once just after each timed call, and from a SIGALRM
handler every `INTERVAL_S` of wall time during it.  The handler's own time
is taken off the call's wall time.  The scaled time is the call's net wall
time times the mean of `REFERENCE_S / probe time` over those samples, which
are even in wall time: a program that gets twice as fast still reads twice
as fast, while the host's state cancels.

The handler runs in the main thread between bytecodes, so a call that sits
in C code for long gets its samples late, not wrong.  While a Speedometer
is timing, the process's SIGALRM and ITIMER_REAL belong to it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# The probe's wall time on the reference host, a 2-core shared VM running
# CPython 3.11 in its fast state: scaled times read in that host's seconds.
REFERENCE_S = 0.0003
INTERVAL_S = 0.02

# The probe's fixed inputs: a 4x4 rational matrix and a bivariate integer
# polynomial, the program's two commonest kinds of work in miniature.
_N = 4
_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j * j + 1) % 19 - 9, (i + 2 * j) % 5 + 1)
          for j in range(_N))
    for i in range(_N))
_POLY = {(i, j): (i * 31 + j * 17) % 23 - 11 for i in range(5) for j in range(5)}


def _reduce_matrix():
    m = [list(row) for row in _MATRIX]
    for c in range(_N):
        pivot = next((r for r in range(c, _N) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def _square_poly():
    out = {}
    for (i1, j1), a in _POLY.items():
        for (i2, j2), b in _POLY.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + a * b


def probe_seconds() -> float:
    """Wall time of one run of the probe."""
    t0 = perf_counter()
    _reduce_matrix()
    _square_poly()
    return perf_counter() - t0


class Speedometer:
    """Times calls in reference-host seconds; one call at a time."""

    def __init__(self):
        self._samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._samples.append(probe_seconds())
        self._spent += perf_counter() - t0

    def timed(self, fn, *args):
        """(fn's result, net wall seconds, reference-host seconds)."""
        self._samples = [probe_seconds()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        net = elapsed - self._spent
        self._samples.append(probe_seconds())
        speed = sum(REFERENCE_S / s for s in self._samples) / len(self._samples)
        return result, net, net * speed
