"""Host speed, sampled with a fixed reference kernel all through the timed work.

On a shared machine the same call can take anywhere from 1x to 3x its unloaded
time: the host's other tenants slow the CPU down in bursts of a few seconds,
and the process's CPU time grows with its wall time, so no statistic of either
repeats from run to run.  The benchmark therefore rescales each measured time
to a reference host speed.  While a ``Clock`` runs, a timer signal interrupts
the work every ``PERIOD_S`` of wall time and runs one slice of a fixed kernel
in the same thread; the slice's own time is taken out of the work's time, and
the mean slice time over the work gives the host speed at which it ran:

    ref_seconds = work_seconds * REF_S / mean(slice_seconds during the work)

Because the slices are spread through every call rather than taken between
calls, a burst of load that hits a call hits its slices too.

The kernel is the program's own kind of work: RK4 steps of a Lindblad-type
right-hand side on 4x4, 6x6 and 8x8 complex density matrices, one small
numpy operation at a time.  It uses numpy only and none of topoflux, so a
change to topoflux cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# slice time, in seconds, that defines the reference host speed (about an unloaded 2.x GHz Xeon)
REF_S = 0.005
SLICE_STEPS = 30
KERNEL_DIMS = (4, 6, 8)
# wall time between slices; the slices take about a tenth of the run
PERIOD_S = 0.05


def _operators():
    rng = np.random.default_rng(12345)
    ops = []
    for d in KERNEL_DIMS:
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
        ops.append((h + h.conj().T, a, a.conj().T, np.arange(d, dtype=float)))
    return ops


_OPS = _operators()


def _rhs(rho, h, a, a_dag, nd):
    out = -1j * (h @ rho - rho @ h)
    return out + 0.05 * (2.0 * (a @ rho @ a_dag) - nd[:, None] * rho - rho * nd[None, :])


def slice_seconds() -> float:
    """Wall time of one slice of the reference kernel."""
    t0 = time.perf_counter()
    for h, a, a_dag, nd in _OPS:
        rho = np.zeros_like(h)
        rho[0, 0] = 1.0
        dt = 1e-3
        for step in range(SLICE_STEPS):
            hs = np.sin(step * dt) ** 2 * h
            k1 = _rhs(rho, hs, a, a_dag, nd)
            k2 = _rhs(rho + (dt / 2) * k1, hs, a, a_dag, nd)
            k3 = _rhs(rho + (dt / 2) * k2, hs, a, a_dag, nd)
            k4 = _rhs(rho + dt * k3, hs, a, a_dag, nd)
            rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    seconds = time.perf_counter() - t0
    if not np.isfinite(rho).all():
        raise RuntimeError("reference kernel diverged")
    return seconds


class Clock:
    """Times work in wall and in reference seconds, with kernel slices run through it.

    ``mark()`` before the work, ``since(mark)`` after it.  Only the main
    thread can use a Clock (it owns SIGALRM while it runs).
    """

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0  # wall time inside slices, taken out of every measurement
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.slices.append(slice_seconds())
        self.spent += time.perf_counter() - t0

    def mark(self, start: float | None = None):
        """Now, or a ``perf_counter()`` time ``start`` from before this clock first started."""
        if start is not None:
            return start, 0.0, 0
        return time.perf_counter(), self.spent, len(self.slices)

    def since(self, mark) -> tuple[float, float]:
        """(wall, reference) seconds of the work since ``mark``, slices taken out.

        Work too short to hold a slice is rescaled by the slice just after it.
        """
        t0, spent, n = mark
        wall = time.perf_counter() - t0 - (self.spent - spent)
        if len(self.slices) == n:
            self._tick()
        return wall, wall * REF_S / statistics.fmean(self.slices[n:])

    def host_speed(self) -> float:
        """Reference slice time over the run's median slice time."""
        return REF_S / statistics.median(self.slices)
