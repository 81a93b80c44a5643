"""Calibrated seconds: measured times corrected for the machine's speed.

On a shared 2-vCPU virtual machine (CPython 3.11) the speed drifted by
+-20% within a minute as other tenants' load came and went; process CPU
time drifted the same way, so the drift is slower execution, not
descheduling.  A fixed reference computation is therefore timed next to
every measured interval, and each measured time t is reported as
t * NOMINAL_S / r, where r is the reference time measured around it.  On
that machine this cut the spread of a dim-sweep pass from 21% to 3%.

The reference is benchmark code and never calls the program, so a change
to the program cannot move it.  Its mix follows the program's small and
large requests: an argparse parse, big-int arithmetic with a decimal
conversion, Fraction sums, and sorting and hashing of small objects.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

# about the reference's time on that machine when quiet, so calibrated
# seconds read close to seconds there
NOMINAL_S = 0.0015

_BIG = 3**3000


def reference() -> str:
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        sub = commands.add_parser(name)
        for flag in ("x", "y", "z", "depth", "output"):
            sub.add_argument(f"--{flag}")
    parser.parse_args(["b", "--x", "3/7", "--depth", "5"])
    x = _BIG
    for _ in range(3):
        x = (x * x) >> 4700
    digits = str(x)
    total, prod = Fraction(0), 1
    for d in range(2, 30):
        prod *= d
        total += Fraction(1, prod)
    rng = random.Random(7)
    items = sorted((rng.random(), i) for i in range(300))
    return json.dumps({str(i): v for v, i in items})[:3] + digits[:3]


def time_reference() -> float:
    started = perf_counter()
    reference()
    return perf_counter() - started


def factors(refs: list[float]) -> list[float]:
    """Calibration factor of each of len(refs) - 1 intervals.

    refs[i] was timed just before interval i and refs[i + 1] just after;
    the median of refs[i-1 .. i+2] keeps one disturbed reference from
    skewing its neighbours.
    """
    return [NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i in range(len(refs) - 1)]
