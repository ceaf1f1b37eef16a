"""Classical RK4 integration of the master equation: the tests' reference integrator.

``topoflux.dynamics`` propagates every pulse with matrix exponentials.  This
module integrates the same interaction-picture master equation directly, in
the lab time of the pulse and with the contamination phase e^{+-iEt} written
out, in ``ceil(duration/dt)`` equal classical RK4 steps.  It shares only the
operators of ``dynamics._Workspace`` with the code it checks; the
Hamiltonian, the dissipators, the step split and the step rule are its own.

The right-hand side is linear in rho and in H, so RK4 runs on the row-major
vec(rho) with the generator L(t) = D + sum_j c_j(t) C_j: D the dissipators and
C_j the commutators -i[H_j, .] of the Hamiltonian's three fixed terms, each the
right-hand side applied to the unit matrices, and c_j(t) the Hamiltonian's
coefficients.  L is formed at every half step, a chunk of steps at a time
(``CHUNK_ENTRIES``), and each step's four stages are products with it.
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
# the generators formed at once hold about this many entries (16 MB): 4097 half steps at
# 2 levels, 51 at 6
CHUNK_ENTRIES = 2**20


def interaction_hamiltonian(t: float, pulse: PulseSegment, spec: HilbertSpec) -> np.ndarray:
    """Interaction-picture Hamiltonian at time t since the pulse start."""
    ws = _Workspace(spec, tuple(range(spec.dim)))
    terms = ws.exchange, ws.contam_up, ws.contam_down
    return sum(c * term for c, term in zip(_coefficients(pulse, t), terms))


def _coefficients(seg: PulseSegment, tau):
    """The Hamiltonian at tau (a float or an array) as its coefficients on the exchange,
    contam_up and contam_down terms."""
    env = seg.envelope(tau)
    ph = np.exp(1j * (seg.phase_freq * tau))
    contam = -0.5 * seg.g_prime_value * env
    return -0.5 * seg.g_value * env, contam * ph, contam * np.conj(ph)


def lindblad_rhs(
    rho: np.ndarray, h: np.ndarray, noise: NoiseParams, spec: HilbertSpec
) -> np.ndarray:
    """Right-hand side of the master equation for a given Hamiltonian snapshot."""
    ws = _Workspace(spec, tuple(range(spec.dim)))
    return _rhs_with(ws, rho, h, noise.relaxation_rate, noise.dephasing_rate)


def _rhs_with(ws, rho, h, gamma1, gamma2):
    """The right-hand side at rho, or at each matrix of a stack of them."""
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


def _superoperators(ws, gamma1, gamma2) -> np.ndarray:
    """D and the C_j, stacked, on the row-major vec(rho): column k of each is the right-hand
    side at the k-th unit matrix, with H = 0 and noise for D, and H_j without noise for C_j."""
    d = len(ws.exchange)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    parts = [_rhs_with(ws, units, np.zeros((d, d)), gamma1, gamma2)]
    terms = ws.exchange, ws.contam_up, ws.contam_down
    parts += [_rhs_with(ws, units, h, 0.0, 0.0) for h in terms]
    return np.stack([part.reshape(d * d, d * d).T for part in parts])


def default_dt(pulse: PulseSegment) -> float:
    """RK4 step size resolving both the pulse duration and its phase."""
    dt = pulse.duration / DEFAULT_TOTAL_STEPS
    if pulse.phase_freq != 0.0:
        dt = min(dt, (2.0 * math.pi / abs(pulse.phase_freq)) / DEFAULT_STEPS_PER_PHASE_PERIOD)
    return dt


def _rk4(y, h, stages):
    """Classical RK4 steps of size h for dy/dtau = L(tau) y, one per (L(tau), L(tau + h/2),
    L(tau + h)) of ``stages``."""
    for l1, l2, l4 in stages:
        k1 = l1 @ y
        k2 = l2 @ (y + (h / 2) * k1)
        k3 = l2 @ (y + (h / 2) * k2)
        k4 = l4 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def final_state(rho0, pulse: PulseSegment, noise: NoiseParams, spec: HilbertSpec, dt=None):
    """The density matrix at the end of the pulse, after ``ceil(duration/dt)`` equal steps,
    the largest ones <= dt that divide the duration evenly; dt defaults to
    ``default_dt(pulse)`` and must resolve the pulse's phase."""
    if dt is None:
        dt = default_dt(pulse)
    if pulse.phase_freq != 0.0:
        limit = (2.0 * math.pi / abs(pulse.phase_freq)) / MIN_STEPS_PER_PHASE_PERIOD
        assert dt <= limit, f"dt={dt:.3e} ns cannot resolve the phase (need dt <= {limit:.3e} ns)"
    ws = _Workspace(spec, tuple(range(spec.dim)))
    parts = _superoperators(ws, noise.relaxation_rate, noise.dephasing_rate)
    n_steps = max(1, math.ceil(pulse.duration / dt))
    h = pulse.duration / n_steps
    chunk = max(1, CHUNK_ENTRIES // (2 * parts[0].size))
    y = np.array(rho0, dtype=complex).ravel()
    for start in range(0, n_steps, chunk):
        stop = min(start + chunk, n_steps)
        # L at the half steps j h/2 from the chunk's first step's start to its last's end
        tau = np.arange(2 * start, 2 * stop + 1) * (h / 2)
        coef = np.stack((np.ones_like(tau), *_coefficients(pulse, tau)), axis=1)
        gens = (coef @ parts.reshape(4, -1)).reshape(len(tau), *parts[0].shape)
        y = _rk4(y, h, zip(gens[:-1:2], gens[1::2], gens[2::2]))
    return y.reshape(np.shape(rho0))
