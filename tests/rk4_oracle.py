"""Classical RK4 integration of the master equation: the tests' reference integrator.

``topoflux.dynamics`` propagates every pulse with matrix exponentials.  This
module integrates the same interaction-picture master equation directly, in
the lab time of the pulse and with the contamination phase e^{+-iEt} written
out, in ``ceil(duration/dt)`` equal classical RK4 steps.  It shares only the
operators of ``dynamics._Workspace`` with the code it checks; the
Hamiltonian, the dissipators, the step split and the step rule are its own.
"""

from __future__ import annotations

import math

import numpy as np

from topoflux.dynamics import NoiseParams, PulseSegment, _Workspace
from topoflux.hilbert import HilbertSpec

# RK4 must resolve the e^{+-iEt} phase; hard floor on points per period
MIN_STEPS_PER_PHASE_PERIOD = 100
DEFAULT_STEPS_PER_PHASE_PERIOD = 200
DEFAULT_TOTAL_STEPS = 10_000


def interaction_hamiltonian(t: float, pulse: PulseSegment, spec: HilbertSpec) -> np.ndarray:
    """Interaction-picture Hamiltonian at time t since the pulse start."""
    return _hamiltonian(_Workspace(spec), pulse, t)


def _hamiltonian(ws: _Workspace, seg: PulseSegment, tau: float) -> np.ndarray:
    env = seg.envelope(tau)
    h = (-0.5 * seg.g_value * env) * ws.exchange
    if seg.g_prime_value != 0.0:
        ph = np.exp(1j * (seg.phase_freq * tau))
        h = h + (-0.5 * seg.g_prime_value * env) * (ph * ws.contam_up + np.conj(ph) * ws.contam_down)
    return h


def lindblad_rhs(
    rho: np.ndarray, h: np.ndarray, noise: NoiseParams, spec: HilbertSpec
) -> np.ndarray:
    """Right-hand side of the master equation for a given Hamiltonian snapshot."""
    ws = _Workspace(spec)
    return _rhs_with(ws, rho, h, noise.relaxation_rate, noise.dephasing_rate)


def _rhs_with(ws, rho, h, gamma1, gamma2):
    out = -1j * (h @ rho - rho @ h)
    if gamma1 > 0.0:
        nd = ws.number_diag
        out = out + 0.5 * gamma1 * (
            2.0 * (ws.a @ rho @ ws.a_dag) - nd[:, None] * rho - rho * nd[None, :]
        )
    if gamma2 > 0.0:
        zd = ws.z_diag
        out = out + gamma2 * (zd[:, None] * rho * zd[None, :] - rho)
    return out


def default_dt(pulse: PulseSegment) -> float:
    """RK4 step size resolving both the pulse duration and its phase."""
    dt = pulse.duration / DEFAULT_TOTAL_STEPS
    if pulse.phase_freq != 0.0:
        dt = min(dt, (2.0 * math.pi / abs(pulse.phase_freq)) / DEFAULT_STEPS_PER_PHASE_PERIOD)
    return dt


def _rk4(f, y, h, n_steps):
    """``n_steps`` classical RK4 steps of size h for dy/dtau = f(tau, y) from tau = 0."""
    tau = 0.0
    for _ in range(n_steps):
        k1 = f(tau, y)
        k2 = f(tau + h / 2, y + (h / 2) * k1)
        k3 = f(tau + h / 2, y + (h / 2) * k2)
        k4 = f(tau + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
    return y


def propagate(y, hamiltonian, duration, dt, generator):
    """Integrate dy/dt = generator(hamiltonian(t), y) from t = 0 to ``duration``.

    The step is the largest one <= dt that divides the duration evenly.
    """
    n_steps = max(1, math.ceil(duration / dt))

    def f(tau, m):
        return generator(hamiltonian(tau), m)

    return _rk4(f, y, duration / n_steps, n_steps)


def propagate_pulse(y, pulse: PulseSegment, spec: HilbertSpec, generator, dt=None):
    """``propagate`` over the pulse; dt defaults to ``default_dt(pulse)`` and must resolve its phase."""
    ws = _Workspace(spec)
    if dt is None:
        dt = default_dt(pulse)
    if pulse.phase_freq != 0.0:
        limit = (2.0 * math.pi / abs(pulse.phase_freq)) / MIN_STEPS_PER_PHASE_PERIOD
        assert dt <= limit, f"dt={dt:.3e} ns cannot resolve the phase (need dt <= {limit:.3e} ns)"
    return propagate(y, lambda tau: _hamiltonian(ws, pulse, tau), pulse.duration, dt, generator)


def lindblad(spec: HilbertSpec, noise: NoiseParams):
    """The master-equation generator (H, rho) -> drho/dt for ``noise``."""
    ws = _Workspace(spec)
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    return lambda h, rho: _rhs_with(ws, rho, h, gamma1, gamma2)


def final_state(rho0, pulse: PulseSegment, noise: NoiseParams, spec: HilbertSpec, dt=None):
    """The density matrix at the end of the pulse."""
    return propagate_pulse(np.array(rho0, dtype=complex), pulse, spec, lindblad(spec, noise), dt)

