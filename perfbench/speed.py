"""Times on a shared host, corrected for the host's speed at that moment.

On a shared two-core virtual machine the same operation's time varies by up
to 1.8 times from one second to the next, and whole minutes run about 1.6
times slower than others; CPU time follows wall time, so the slowdown comes
from other load on the host. A speed probe is a fixed piece of work that
does not touch qbuchi. Run on the same core right before and right after a
timed segment, it slows down with the segment: over ten runs, the sum of
per-operation median times spread by 15-30% between runs, and the same sum
divided by the adjacent probes spread by 2-8%.

A ``Meter`` therefore reports every segment twice: in seconds as measured,
and in reference seconds, ``seconds * ref_s / mean(probe before, probe
after)``, where ``ref_s`` is the probe's median time on the host the
benchmark was sized on (an "Intel(R) Xeon(R) Processor" virtual machine,
two cores). Reference seconds read like seconds on that host at its usual
speed; they stay comparable across hosts as long as the program and the
probe change speed together.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_LARGE = _rng.normal(size=(243, 243)) + 1j * _rng.normal(size=(243, 243))


def inprocess_probe() -> None:
    """Interpreter loop plus small and dimension-243 matrix-vector products:
    the mix of work the in-process workloads do."""
    v = np.ones(8, dtype=np.complex128)
    for _ in range(500):
        v = _SMALL @ v
        v = v / np.linalg.norm(v)
    w = np.ones(243, dtype=np.complex128)
    for _ in range(100):
        w = _LARGE @ w
        w = w / np.linalg.norm(w)
    s = 0
    for i in range(10000):
        s += i * 3 % 7


def spawn_probe() -> None:
    """Start and stop a bare interpreter, as every CLI call does."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# probe -> its median time on the reference host, in seconds
PROBES = {"inprocess": (inprocess_probe, 7.3e-3), "spawn": (spawn_probe, 56e-3)}


class Meter:
    """Accumulates timed segments, each normalised by the probes around it.

    ``split()`` closes the open segment, runs the probe and opens the next
    segment, so a segment's "after" probe is the next one's "before". The
    probe's own time is never part of a segment.
    """

    def __init__(self, kind: str):
        self.probe, self.ref_s = PROBES[kind]
        self.probe()  # the first call runs cold and reads slow
        self.last = self._probe()
        self.raw = self.ref = 0.0
        self.t0 = perf_counter()

    def _probe(self) -> float:
        t0 = perf_counter()
        self.probe()
        return perf_counter() - t0

    def refresh(self) -> None:
        """Probe again, so that the next segment's "before" probe is fresh."""
        self.last = self._probe()

    def split(self) -> None:
        raw = perf_counter() - self.t0
        before, self.last = self.last, self._probe()
        self.raw += raw
        self.ref += raw * self.ref_s / ((before + self.last) / 2)
        self.t0 = perf_counter()

    def time(self, fn):
        """Run ``fn`` as one segment, or as several when it calls ``split``:
        its result, seconds and reference seconds."""
        self.raw = self.ref = 0.0
        self.t0 = perf_counter()
        out = fn()
        self.split()
        return out, self.raw, self.ref
