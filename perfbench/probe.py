"""A fixed pure-Python loop that reads the host's current speed.

The host is shared: its speed changes by up to a factor of two for minutes
at a time.  Every timed call is bracketed by probes in the same process, and
its time is reported in reference seconds,

    seconds * PROBE_REF_S / (mean probe time around the call),

the time the call would take on a host where one probe takes PROBE_REF_S.
A change to the program moves the call's time and not the probe's, so it
shows in full; a change of host speed moves both and cancels.  The probe
does what the engine's hot loops do (a sparse product over exponent tuples,
mod p) and nothing else: it imports nothing and never touches cyclecalc.
"""

import time

PROBE_REF_S = 0.002
REPS = 3

_P = 32003
_TERMS = {(i, j, i ^ j): (7 * i + 13 * j) % _P for i in range(9) for j in range(9)}


def probe() -> float:
    """Mean seconds of REPS sparse products of two 81-term polynomials."""
    total = 0.0
    for _ in range(REPS):
        t0 = time.perf_counter()
        out: dict = {}
        for e1, c1 in _TERMS.items():
            for e2, c2 in _TERMS.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = (out.get(e, 0) + c1 * c2) % _P
        total += time.perf_counter() - t0
    return total / REPS
