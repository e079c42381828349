"""Machine-speed calibration, so timings from a shared box can be compared.

The small machines this benchmark runs on share their cores with other
tenants, and their speed drifts by a third or more over seconds to minutes
(measured on a 2-core box: the same fixed batch took 10.3 s in one run and
16.0 s a few minutes later). The benchmark therefore measures the machine's
speed while it works and reports every time scaled to a reference speed.

``Meter`` runs a fixed reference task, a proper-walk BFS over a seeded
colored graph that exercises the same interpreter paths as the library's hot
loops, from a ``SIGVTALRM`` handler every ``INTERVAL_S`` of the process's CPU
time, so the samples fall evenly over the work, inside long items too. Its
clock, ``now``, leaves out the time the handler takes. ``scale(a, b)`` is the
mean of ``REF_SAMPLE_S / sample time`` over the samples taken between ``a``
and ``b`` and the ``CONTEXT`` samples just before ``a``; a raw time times its
scale reads as seconds on a machine that runs the reference task in
``REF_SAMPLE_S``, a round figure near what a 2-core x86-64 box with Python 3.11
takes (6 to 11 ms, depending on load). Raw times stay in the full record next
to the scales.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from collections import deque

REF_SAMPLE_S = 0.010
INTERVAL_S = 0.1  # CPU time between samples: a sample costs about a tenth
CONTEXT = 3
START_SAMPLES = 5


def _reference_graph(seed: int = 20160223, n: int = 400, m: int = 1200, k: int = 3):
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    inc = [[] for _ in range(n)]
    for u, v in sorted(edges):
        col = rng.randint(1, k)
        inc[u].append((v, col))
        inc[v].append((u, col))
    return inc


_INC = _reference_graph()
_SOURCES = 8
_REACHED = _SOURCES * len(_INC)  # the graph is connected under proper walks


def _reference_task() -> int:
    reached = 0
    for s in range(_SOURCES):
        seen = set()
        out = {s}
        q = deque()
        for w, col in _INC[s]:
            seen.add((w, col))
            q.append((w, col))
        while q:
            v, last = q.popleft()
            out.add(v)
            for w, col in _INC[v]:
                if col != last and (w, col) not in seen:
                    seen.add((w, col))
                    q.append((w, col))
        reached += len(out)
    return reached


class Meter:
    """Speed samples taken evenly over the work, and a clock without them."""

    def __init__(self):
        self.at: list[float] = []  # ``now`` when each sample was taken
        self.ratio: list[float] = []  # REF_SAMPLE_S / sample time
        self.stolen = 0.0  # time spent in samples so far

    def start(self) -> None:
        for _ in range(START_SAMPLES):
            self._sample()
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def _on_tick(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reached = _reference_task()
        dt = time.perf_counter() - t0
        if reached != _REACHED:
            raise RuntimeError("reference task gave a different answer")
        self.at.append(t0 - self.stolen)
        self.ratio.append(REF_SAMPLE_S / dt)
        self.stolen += dt

    def now(self) -> float:
        """Seconds, leaving out the time spent taking samples."""
        return time.perf_counter() - self.stolen

    def scale(self, a: float, b: float) -> float:
        """Mean speed ratio over [a, b] on the ``now`` clock."""
        lo = max(0, bisect.bisect_left(self.at, a) - CONTEXT)
        hi = bisect.bisect_right(self.at, b)
        return statistics.fmean(self.ratio[lo:hi])
