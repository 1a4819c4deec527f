"""Host-speed calibration: fixed pure-Python probes timed between ops.

The host's speed drifts by more than a tenth between runs, and an op's real
time drifts with it.  Probes of fixed pure-Python work (no program code),
timed interleaved with the measured ops over the whole measured span, drift
the same way, so a measured duration can be expressed in *reference-host*
units: the time it would have taken on a host where the probe takes its
reference time.  The collector is paused while a probe runs so that a
collection triggered by the ops' garbage does not land in a sample.

Each sample runs two probes:

* a **relay**: two threads hand a token back and forth through a
  ``threading.Condition``, as the simulated ranks hand messages to each
  other (wall time);
* a **compute block** of small-object allocation, attribute and dict
  access, float arithmetic and a sort (thread CPU time).
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

#: token hand-offs per relay sample
RELAY_HANDOFFS = 100


def _relay(handoffs: int) -> float:
    cond = threading.Condition()
    turn = [0]

    def partner() -> None:
        for _ in range(handoffs):
            with cond:
                while turn[0] != 1:
                    cond.wait()
                turn[0] = 0
                cond.notify()

    thread = threading.Thread(target=partner, name="calib-relay")
    thread.start()
    t0 = time.perf_counter()
    for _ in range(handoffs):
        with cond:
            turn[0] = 1
            cond.notify()
            while turn[0] != 0:
                cond.wait()
    dt = time.perf_counter() - t0
    thread.join()
    return dt


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _compute() -> int:
    def cross(a: _P, b: _P, c: _P) -> float:
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    acc = 0
    table = {}
    pts = [_P((i * 37 % 101) * 0.5, (i * 53 % 97) * 0.25) for i in range(300)]
    for i in range(1, len(pts) - 1):
        if cross(pts[i - 1], pts[i], pts[i + 1]) > 0:
            acc += 1
        table[(i % 61, i % 7)] = pts[i].x
    for k in sorted(table, key=lambda k: (k[1], -k[0])):
        acc += int(table[k])
    words = [f"{p.x:.3f},{p.y:.3f}" for p in pts[:120]]
    return acc + sum(len(w.split(",")[0]) for w in words)


class Calibrator:
    """Collects probe samples, each tagged with the kind of op it followed,
    and converts measured durations to reference-host seconds.

    The factor is the geometric mean of the two probes' factors.  On this
    program the ops' process CPU time equals their wall time, so what
    drifts is the speed at which the host runs this code; each probe alone
    tracked that drift well on one workload and poorly on another, and
    their geometric mean tracked all three (see README.md).
    """

    #: compute-block repetitions per sample
    REPEAT = 4

    def __init__(self, relay_ref: float, cpu_ref: float) -> None:
        self.relay_ref = relay_ref
        self.cpu_ref = cpu_ref
        self.samples: List[Tuple[str, float, float]] = []

    def sample(self, kind: str) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            relay = _relay(RELAY_HANDOFFS)
            c0 = time.thread_time()
            for _ in range(self.REPEAT):
                _compute()
            self.samples.append((kind, relay, time.thread_time() - c0))
        finally:
            if enabled:
                gc.enable()

    def medians(self, kind: Optional[str] = None) -> Dict[str, float]:
        picked = [s for s in self.samples if kind is None or s[0] == kind]
        return {
            "relay_s": statistics.median(s[1] for s in picked),
            "cpu_s": statistics.median(s[2] for s in picked),
        }

    def factor(self, kind: Optional[str] = None) -> float:
        """Multiply a real duration by this to get reference-host seconds
        (samples of one *kind* of op, or all)."""
        m = self.medians(kind)
        return math.sqrt(self.relay_ref / m["relay_s"] * self.cpu_ref / m["cpu_s"])
