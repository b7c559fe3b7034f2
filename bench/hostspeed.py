"""Host speed probe: a fixed piece of work owned by the benchmark, timed
between requests so that request times from different runs share one scale.

The benchmark is meant for shared machines, whose speed switches between a
fast and a slow state (about 1.6x apart on a 2-vCPU Xeon VM) in phases of a
few seconds.  The raw CPU time of a run then depends on how much of it the
host spent in the slow state, and the quartiles of ten runs spread by 0.3 of
their median.  `probe` is timed right before every request.  `normalise`
divides each request's CPU time by the median probe time around it and
multiplies by `REF_S`, a fixed reference time of the probe (about its
median on that VM).  The result reads as the request's time on a host that
runs the probe in `REF_S` and no longer depends on the host's state: in five-seed trials the spread of the time metrics fell from
0.15-0.3 to 0.01-0.12.  The state is not one number, and the probe does not
follow every kind of work exactly, so some spread remains.

The probe mixes the kinds of work the library does (30-digit mpmath
elementary functions, a 40-digit mpmath series like the library's Airy
series, a pure-Python integer loop, dict building and a sort) and never
calls `dope`, so no change to the library moves it.  The series is there
because the slow state slows the library's requests more than it slows the
other parts (request time against probe time across host states had a
log-log slope of about 1.2 for tw and bessel-gap requests) and slows the
series more (slope about 0.9); with the series as about 40 % of the probe
the slope is close to 1, so a run's scale no longer leans with the share
of it the host spent slow.
"""

from __future__ import annotations

import statistics
from time import process_time

import mpmath

REF_S = 2.4e-3
# Probes on each side of a request that set its scale.
HALF_WINDOW = 4


def _work() -> int:
    with mpmath.workdps(30):
        s = mpmath.mpf(0)
        for k in range(1, 20):
            s += mpmath.exp(mpmath.mpf(k) / 7) * mpmath.sin(k)
    with mpmath.workdps(40):
        x, term = mpmath.mpf(1) / 3, mpmath.mpf(1)
        for k in range(1, 140):
            term = term * x / k
            s += term * (k % 5)
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    table = {i: (i * 7919) % 1009 for i in range(1500)}
    return acc + len(sorted(table.values())) + int(s)


def probe() -> float:
    """CPU seconds of one run of the fixed work."""
    t0 = process_time()
    _work()
    return process_time() - t0


def warm(times: int = 20) -> None:
    """Run the probe untimed, so mpmath's constants are cached."""
    for _ in range(times):
        _work()


def normalise(times: list[float], probes: list[float]) -> list[float]:
    """Request times on the reference scale.  ``probes[i]`` was taken right
    before request i and ``probes[-1]`` after the last one."""
    assert len(probes) == len(times) + 1
    return [
        t * REF_S / statistics.median(probes[max(0, i - HALF_WINDOW + 1) : i + HALF_WINDOW + 1])
        for i, t in enumerate(times)
    ]
