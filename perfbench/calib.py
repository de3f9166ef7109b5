"""How fast the machine runs right now, from a fixed piece of pure-Python work.

On a shared host the same requests run up to twice as slowly for minutes at
a time, and CPU time slows with wall time, so raw seconds from runs a few
minutes apart are not comparable.  `measure()` times `work()`, a few
milliseconds of exact rational arithmetic and tuple hashing like the
program's own; `one_pass.py` times it between the requests of a pass, and
`scale(c)` turns a request's seconds into reference seconds, the seconds it
would have taken at the speed at which `work()` takes REF_SECONDS.  The work
is plain stdlib code in the benchmark, so no change to gpcount moves it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About what work() took on the reference machine (2 shared cores of a
# 2.1 GHz host, Python 3.11).  A fixed constant: it sets the unit of every
# scaled time, so changing it changes every recorded figure.
REF_SECONDS = 0.004


def work() -> Fraction:
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 700):
        key = tuple((i * j) % 7 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i % 13, i % 11 + 1)
    return acc


def measure() -> float:
    start = perf_counter()
    work()
    return perf_counter() - start


def scale(calibration_s: float) -> float:
    """Factor from seconds at the current speed to reference seconds."""
    return REF_SECONDS / calibration_s
