"""Fixed loops of the benchmark's own code, timed between operations.

The shared machine the benchmark runs on drifts in speed by tens of percent
over seconds to minutes, so a 40 s run cannot average the drift out.  A probe
times a fixed amount of work:

* ``"py"`` -- Python tuples, dicts and frozensets, like `sets` and `certify`;
* ``"np"`` -- numpy gathers, bitwise ops and popcounts on 16 KB arrays, like
  the pair kernel in `search`;
* ``"mix"`` -- both, the mean of their slowdowns.

`slowdown(kind)` is the probe's time over its time at the reference speed
(`REF_S`).  `Clock` takes a slowdown before a pass and again after every
stretch of at least `SEGMENT_S` seconds of operations, and adds each
stretch's time divided by the mean of the slowdowns before and after it: the
time the stretch would have taken at the reference speed.  The probes call
nothing in nullcert, so a change to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np

PY_ROUNDS = 50000
NP_ROUNDS = 800
NP_BITS = 12

# Seconds one probe takes at the reference speed: its median on the machine
# the benchmark was added on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
REF_S = {"py": 0.045, "np": 0.060}
SEGMENT_S = 0.5


def _py_work() -> int:
    total = 0
    counts: dict = {}
    for i in range(PY_ROUNDS):
        a, b = i % 31, (i * 7) % 29
        key = (a * b % 31, (a + b) % 31)
        counts[key] = counts.get(key, 0) + 1
        total += len(frozenset((a, b, key[0])) | {key[1]})
    return total + len(counts)


_ALL = np.arange(1 << NP_BITS, dtype=np.uint32)
_MASKS = _ALL[1:]
_SHIFT = np.stack([
    ((_ALL << np.uint32(a)) | (_ALL >> np.uint32(NP_BITS - a))) & np.uint32((1 << NP_BITS) - 1)
    for a in range(NP_BITS)
])


def _np_work() -> int:
    total = 0
    for r in range(NP_ROUNDS):
        once = np.zeros(len(_MASKS), dtype=np.uint32)
        twice = np.zeros(len(_MASKS), dtype=np.uint32)
        for a in (r % NP_BITS, (r * 5 + 1) % NP_BITS, (r * 7 + 3) % NP_BITS):
            shifted = _SHIFT[a][_MASKS & np.uint32(~(1 << a) & 0xFFFFFFFF)]
            twice |= once & shifted
            once |= shifted
        total += int(np.bitwise_count(once & ~twice).sum())
    return total


WORK = {"py": _py_work, "np": _np_work}


def probe_s(kind: str) -> float:
    """Seconds one run of the `kind` probe ("py" or "np") takes now."""
    start = time.perf_counter()
    WORK[kind]()
    return time.perf_counter() - start


def slowdown(kind: str) -> float:
    """How many times its reference time the `kind` probe takes now."""
    parts = ("py", "np") if kind == "mix" else (kind,)
    return sum(probe_s(part) / REF_S[part] for part in parts) / len(parts)


def at_ref_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` timed between slowdowns `before` and `after`, at the reference speed."""
    return seconds * 2 / (before + after)


class Clock:
    """Sums operation time at the reference speed of the `kind` probe; one per pass."""

    def __init__(self, kind: str):
        self.kind = kind
        self.slowdowns = [slowdown(kind)]
        self.segment = 0.0
        self.ref_s = 0.0

    def add(self, seconds: float, last: bool = False) -> None:
        """Count one operation's `seconds`; `last` closes the pass."""
        self.segment += seconds
        if self.segment >= SEGMENT_S or last:
            self.slowdowns.append(slowdown(self.kind))
            self.ref_s += at_ref_speed(self.segment, *self.slowdowns[-2:])
            self.segment = 0.0
