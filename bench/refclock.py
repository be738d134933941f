"""A clock that reads in seconds at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to a factor of two within seconds as other tenants come and go; a plain
wall clock measures that more than the program.  This clock times a fixed
probe (pure Python and small numpy calls, the instruction mix of the program)
every ``interval`` seconds of work and converts the work's wall time between
two probes to reference seconds: the wall time times the probe's reference
time over the mean of the two probe times.  A change that makes the program
faster leaves the probe as it is, so it shows in full.

Contention slows Python bytecode more than numpy kernels, so a probe must
match the instruction mix of the work it scales.  ``python_probe`` matches
the searches and episodes, which spend their time in Python and in numpy
calls on tiny arrays.  ``array_probe`` matches building the macro library,
which spends its time in the PAM swap loop over a distance matrix.

Probes run only at probe points: the starts of the program calls that
``install`` wraps, and where the benchmark calls ``tick`` or ``probe``.
Their own time is left out of the work's time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# a probe's time is read as the median of it and this many neighbours on each
# side, because a single probe is easily hit by an interrupt
SMOOTHING = 2
_STATE = np.linspace(0.0, 1.0, 8)
_TABLE = np.linspace(0.0, 1.0, 64 * 12).reshape(64, 12)
# the PAM distance matrix of the default library is 163 x 163
_DIST = np.abs(np.sin(np.arange(163 * 163, dtype=float))).reshape(163, 163)
_MEDOIDS = np.arange(0, 163, 4)


def python_probe() -> float:
    """Host seconds of one fixed piece of work, independent of the program:
    Python arithmetic and numpy calls on tiny arrays, as in ``world.step``."""
    start = perf_counter()
    total = 0.0
    for i in range(300):
        v = _STATE.copy()
        v[0] = np.clip(v[0] + 0.25 * i, 0.0, 10.0)
        total += float(np.hypot(v[0] - v[4], v[1] - v[5]))
        if i % 8 == 0:
            total += float(np.min(np.sum((_TABLE - v[0]) ** 2, axis=1)))
        for j in range(12):
            total += j * 0.5
    return perf_counter() - start


def array_probe() -> float:
    """Host seconds of one pass of a PAM swap loop over a fixed matrix."""
    start = perf_counter()
    rows = np.arange(len(_DIST))
    med_dist = _DIST[:, _MEDOIDS]
    order = np.argsort(med_dist, axis=1)
    nearest_d = med_dist[rows, order[:, 0]]
    second_d = med_dist[rows, order[:, 1]]
    others = np.setdiff1d(rows, _MEDOIDS)
    best = float("inf")
    for pos in range(len(_MEDOIDS)):
        without = np.where(order[:, 0] == pos, second_d, nearest_d)
        costs = np.minimum(_DIST[:, others], without[:, None]).sum(axis=0)
        best = min(best, float(costs[int(np.argmin(costs))]))
    return perf_counter() - start


# about each probe's fastest time on the development machine (2-vCPU KVM
# guest, Python 3.11.7, numpy 2.4.6), so that a reference second is about a
# host second when nothing else runs
REFERENCE_S = {python_probe: 0.002, array_probe: 0.0015}


class ReferenceClock:
    """Work time with probes left out, and its conversion to reference seconds."""

    def __init__(self, interval: float, probe=python_probe):
        self.interval = interval
        self.probe_fn = probe
        self.paused = 0.0  # host seconds spent in probes
        self.probe_at: list[float] = []  # work time of each probe
        self.probe_s: list[float] = []  # host seconds each probe took
        self._saved: list[tuple] = []

    def now(self) -> float:
        """Host seconds since an arbitrary origin, without probe time."""
        return perf_counter() - self.paused

    def probe(self, count: int = 1) -> None:
        """Record the median time of ``count`` probes run back to back."""
        at = self.now()
        start = perf_counter()
        cost = statistics.median(self.probe_fn() for _ in range(count))
        self.paused += perf_counter() - start
        self.probe_at.append(at)
        self.probe_s.append(cost)

    def tick(self) -> None:
        """Probe if ``interval`` seconds of work have passed since the last."""
        if not self.probe_at or self.now() - self.probe_at[-1] >= self.interval:
            self.probe()

    def install(self, points) -> None:
        """Make the start of each ``(owner, attribute)`` callable a probe point."""
        for owner, attr in points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._ticking(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _ticking(self, fn):
        def ticking(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)
        return ticking

    def reference(self, times) -> np.ndarray:
        """Reference seconds at each work time, from the first probe on.

        Between two probes the host ran at the mean of their (smoothed)
        speeds; times must lie between the first and the last probe.
        """
        at = np.asarray(self.probe_at)
        cost = np.asarray([np.median(self.probe_s[max(0, i - SMOOTHING):i + SMOOTHING + 1])
                           for i in range(len(self.probe_s))])
        slope = REFERENCE_S[self.probe_fn] / (0.5 * (cost[:-1] + cost[1:]))
        ref_at = np.concatenate(([0.0], np.cumsum(np.diff(at) * slope)))
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < at[0] or times.max() > at[-1]):
            raise ValueError("a time lies outside the probed span")
        return np.interp(times, at, ref_at)

    def durations(self, spans) -> list[float]:
        """Reference seconds of each ``(start, end)`` pair of work times."""
        if not spans:
            return []
        ref = self.reference([t for span in spans for t in span])
        return list(ref[1::2] - ref[0::2])
