"""Open-system time evolution of the hybrid qubit pair under pulsed coupling.

The working frame is the interaction picture at resonance.  The Hamiltonian
has an excitation-conserving exchange part and a contaminating part that flips
the topological spin without moving a flux quantum, oscillating at the wire
energy E:

    H(t) = -(g(t)/2) (a^dag s- + a s+)
           -(g'(t)/2) sigma_f^z (s+ e^{i phase(t)} + s- e^{-i phase(t)})

with phase(t) = E t, starting at 0 when the pulse starts.  Decoherence
enters through flux relaxation (jump operator a, rate 1/tf1) and flux
dephasing (sigma_f^z, rate 1/tf2):

    drho/dt = -i [H, rho] + (1/(2 tf1)) (2 a rho a^dag - a^dag a rho - rho a^dag a)
              + (1/tf2) (sigma_f^z rho sigma_f^z - rho)

A pulse is one ``PulseSegment``.  ``evolve`` propagates a rectangular pulse
exactly: in the frame rho = V rho' V^dag with V(t) = exp(i E t N) and
N = a^dag a + |up><up|, the contamination phase becomes the static term E N,
both dissipators are unchanged, and the master equation has one constant
generator L.  One matrix exponential exp(L ds) (``expm``) then carries the
state from one sample to the next.  A sin^2-ramped pulse, ``evolve_static``
and ``pulse_propagator`` step through ``_propagate``: ``ceil(duration/dt)``
equal classical RK4 steps (``_rk4``), at most ``MAX_STEPS`` of them.  The
trajectories of ``evolve`` and ``evolve_static`` come from one recorder,
``_Recorder``, which samples every duration/200 unless told otherwise,
rejects a diverged (non-finite) state and assembles the ``Trajectory``.  No
renormalization is applied, so trace drift measures integration quality
directly.  ``evolve`` is a pure function of its inputs; independent
evolutions are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .hilbert import (
    DOWN,
    UP,
    HilbertSpec,
    annihilation_op,
    embed,
    flux_qubit_z,
    hermiticity_error,
    min_eigenvalue,
    purity,
    sigma_minus,
    sigma_plus,
    trace_error,
)

RECTANGULAR = "rectangular"
SIN2_RAMP = "sinSquaredRamp"

# RK4 must resolve the e^{+-iEt} phase; hard floor on points per period
MIN_STEPS_PER_PHASE_PERIOD = 100
DEFAULT_STEPS_PER_PHASE_PERIOD = 200
DEFAULT_TOTAL_STEPS = 10_000
# refuse a run that would take hours: 100x the default RK4 step count; it
# also bounds the samples of an exact propagation
MAX_STEPS = 1_000_000
TRACE_DRIFT_LIMIT = 1e-6
# |rho - rho^dag|_F above twice hilbert.fidelity_pure's 1e-10 bound on an
# imaginary part could give a fidelity with a larger one
HERMITICITY_LIMIT = 2e-10


@dataclass(frozen=True)
class PulseSegment:
    """One coupling pulse with constant setpoints under its envelope.

    g_value / g_prime_value are the plateau couplings in rad/ns; both follow
    the same envelope since they share one physical origin (the slope of the
    wire energy, switched by the phase controller).  phase_freq is the
    interaction-picture phase rate E in rad/ns.
    """

    duration: float
    g_value: float
    g_prime_value: float = 0.0
    phase_freq: float = 0.0
    shape: str = RECTANGULAR
    ramp_time: float = 0.0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(f"pulse duration must be positive and finite, got {self.duration}")
        if self.shape not in (RECTANGULAR, SIN2_RAMP):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.shape == SIN2_RAMP:
            if self.ramp_time <= 0:
                raise ValueError("sin^2 ramp needs ramp_time > 0")
            if self.ramp_time > self.duration / 2:
                raise ValueError(
                    f"ramp_time {self.ramp_time} exceeds half the duration {self.duration}"
                )

    def envelope(self, tau: float) -> float:
        """Dimensionless envelope at time tau since the pulse start."""
        if self.shape == RECTANGULAR:
            return 1.0
        r = self.ramp_time
        if tau < r:
            return math.sin(math.pi * tau / (2.0 * r)) ** 2
        if tau > self.duration - r:
            return math.sin(math.pi * (self.duration - tau) / (2.0 * r)) ** 2
        return 1.0

    def area(self) -> float:
        """Integral of g(t) over the pulse."""
        if self.shape == RECTANGULAR:
            return self.g_value * self.duration
        # each sin^2 ramp integrates to g * ramp_time / 2
        return self.g_value * (self.duration - self.ramp_time)


@dataclass(frozen=True)
class NoiseParams:
    tf1: float = math.inf
    tf2: float = math.inf
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and (self.tf1 <= 0 or self.tf2 <= 0):
            raise ValueError("tf1 and tf2 must be positive when noise is enabled")

    @property
    def relaxation_rate(self) -> float:
        return 1.0 / self.tf1 if self.enabled else 0.0

    @property
    def dephasing_rate(self) -> float:
        return 1.0 / self.tf2 if self.enabled else 0.0


NO_NOISE = NoiseParams(enabled=False)


@dataclass
class Trajectory:
    """Sampled evolution record.

    The four complex series follow the state-transfer labeling:
    rho11 = <down,1| rho |down,1>, rho22 = <up,0| rho |up,0>,
    rho21 = <up,0| rho |down,1>, rho12 = <down,1| rho |up,0>.
    """

    times: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    rho12: np.ndarray
    rho21: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    min_eigenvalue: np.ndarray
    final_state: np.ndarray

    def __len__(self):
        return len(self.times)


class _Workspace:
    """Static operators for one Hilbert space, built once per evolution."""

    def __init__(self, spec: HilbertSpec):
        n = spec.n_fock
        self.spec = spec
        self.a = embed(annihilation_op(n), "flux", spec)
        self.a_dag = self.a.conj().T
        self.s_minus = embed(sigma_minus(), "topological", spec)
        self.s_plus = embed(sigma_plus(), "topological", spec)
        zf = embed(flux_qubit_z(n), "flux", spec)
        self.exchange = self.a_dag @ self.s_minus + self.a @ self.s_plus
        self.contam_up = zf @ self.s_plus
        self.contam_down = zf @ self.s_minus
        # diagonal operators enter the dissipators as broadcast scalings
        self.number_diag = np.real(np.diag(self.a_dag @ self.a)).copy()
        self.z_diag = np.real(np.diag(zf)).copy()
        # N = a^dag a + |up><up|: the exchange conserves it, s+ raises it by one
        self.excitation_diag = self.number_diag + np.real(np.diag(self.s_plus @ self.s_minus))


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


# Pade-13 coefficients b_0..b_13 and the largest 1-norm for which Pade-13 is
# accurate to double precision without scaling (Higham 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005).  A matrix with a
    non-finite entry, or whose 1-norm overflows, raises IntegrationError.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        raise IntegrationError(f"cannot exponentiate a generator of 1-norm {norm}")
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (odd + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    v = v + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _frame_liouvillian(ws: _Workspace, pulse: PulseSegment, noise: NoiseParams) -> np.ndarray:
    """The constant generator of a rectangular pulse in the frame exp(i E t N).

    There H' = -(g/2) exchange - (g'/2)(contam_up + contam_down) + E N.  The
    superoperator acts on the row-major vec(rho'), where
    vec(A rho B) = (A kron B^T) vec(rho); every diagonal operator (E N, both
    anticommutators, the dephasing sandwich) enters as one diagonal.
    """
    eye = np.eye(ws.spec.dim)
    h = (-0.5 * pulse.g_value) * ws.exchange - (0.5 * pulse.g_prime_value) * (
        ws.contam_up + ws.contam_down
    )
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    nx, nd, zd = ws.excitation_diag, ws.number_diag, ws.z_diag
    diagonal = (
        (-1j * pulse.phase_freq) * np.subtract.outer(nx, nx)
        - (0.5 * gamma1) * np.add.outer(nd, nd)
        + gamma2 * (np.multiply.outer(zd, zd) - 1.0)
    )
    gen[np.diag_indices_from(gen)] += diagonal.ravel()
    if gamma1 > 0.0:
        gen += gamma1 * np.kron(ws.a, ws.a.conj())
    return gen


def _propagate_exact(
    rho0, ws: _Workspace, pulse: PulseSegment, noise: NoiseParams, recorder: _Recorder
) -> np.ndarray:
    """Exact propagation of a rectangular pulse; returns the state at its end.

    One exponential exp(L ds) carries the frame state from each sample to the
    next, ds being the recorder's sample period; a remainder shorter than ds
    gets its own exponential.  The samples are taken in the frame, which
    changes none of the recorded quantities, and only the final state is
    turned back, by the elementwise phases of V(T) rho' V(T)^dag.
    """
    duration, period = pulse.duration, recorder.sample_period
    # compared as a float, so a ratio that overflows to inf is refused too
    if not duration / period <= MAX_STEPS:
        raise IntegrationError(
            f"a {duration:.4g} ns pulse sampled every {period:.3e} ns needs more than "
            f"{MAX_STEPS} samples"
        )
    # sample times k * period strictly before the end; the tolerance keeps a
    # period that divides the duration from adding a sample at the end
    n_samples = max(1, math.ceil(duration / period - 1e-9))
    gen = _frame_liouvillian(ws, pulse, noise)
    d = ws.spec.dim
    y = rho0.reshape(-1)
    # an overflow leaves a non-finite state, which the recorder refuses
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(gen * period) if n_samples > 1 else None
        for k in range(n_samples):
            if k:
                y = step @ y
            recorder.record(k * period, y.reshape(d, d))
        rest = duration - (n_samples - 1) * period
        if step is None or not math.isclose(rest, period, rel_tol=1e-12):
            step = expm(gen * rest)
        nx = ws.excitation_diag
        frame = np.exp((1j * pulse.phase_freq * duration) * np.subtract.outer(nx, nx))
        return frame * (step @ y).reshape(d, d)


def _rk4(f, y, h, n_steps, before_step=None):
    """``n_steps`` classical RK4 steps of size h for dy/dtau = f(tau, y) from tau = 0.

    ``before_step(y, h)``, when given, sees the state before every step.
    """
    tau = 0.0
    for _ in range(n_steps):
        if before_step is not None:
            before_step(y, h)
        k1 = f(tau, y)
        k2 = f(tau + h / 2, y + (h / 2) * k1)
        k3 = f(tau + h / 2, y + (h / 2) * k2)
        k4 = f(tau + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
    return y


def _propagate(y, hamiltonian, duration, dt, generator, before_step=None):
    """Integrate dy/dt = generator(hamiltonian(t), y) from t = 0 to ``duration``.

    The step is the largest one <= dt that divides the duration evenly.
    """
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    # compared as a float, so a ratio that overflows to inf is refused too
    if not duration / dt <= MAX_STEPS:
        raise IntegrationError(
            f"a {duration:.4g} ns run in steps of dt={dt:.3e} ns needs more than "
            f"{MAX_STEPS} RK4 steps"
        )
    n_steps = max(1, math.ceil(duration / dt))

    def f(tau, m):
        return generator(hamiltonian(tau), m)

    return _rk4(f, y, duration / n_steps, n_steps, before_step)


def _propagate_pulse(y, ws: _Workspace, pulse: PulseSegment, dt, generator, before_step=None):
    """``_propagate`` over the pulse.

    dt defaults to ``default_dt(pulse)`` and must resolve the pulse's phase.
    """
    if dt is None:
        dt = default_dt(pulse)
    if pulse.phase_freq != 0.0:
        limit = (2.0 * math.pi / abs(pulse.phase_freq)) / MIN_STEPS_PER_PHASE_PERIOD
        if dt > limit:
            raise IntegrationError(
                f"dt={dt:.3e} ns cannot resolve the phase frequency "
                f"{pulse.phase_freq:.3f} rad/ns (need dt <= {limit:.3e} ns)"
            )
    return _propagate(
        y, lambda tau: _hamiltonian(ws, pulse, tau), pulse.duration, dt, generator, before_step
    )


def _lindblad(ws: _Workspace, noise: NoiseParams):
    """The master-equation generator (H, rho) -> drho/dt for ``noise``."""
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    return lambda h, rho: _rhs_with(ws, rho, h, gamma1, gamma2)


class _Recorder:
    """Samples the state at most once per sample period and builds the Trajectory."""

    def __init__(self, spec: HilbertSpec, duration: float, sample_period: float | None):
        if sample_period is None:
            sample_period = duration / 200.0
        if not sample_period > 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.sample_period = sample_period
        self.i_dn1 = spec.index(DOWN, 1)
        self.i_up0 = spec.index(UP, 0)
        self.t = 0.0
        self.next_sample = 0.0
        self.rows = []

    def before_step(self, rho, h):
        """The RK4 hook: samples the state before a step of size h when one is due."""
        if self.t >= self.next_sample - 1e-12:
            self.record(self.t, rho)
            self.next_sample = self.t + self.sample_period
        self.t += h

    def record(self, t, rho):
        """Sample ``rho`` as the state at time t."""
        if not np.all(np.isfinite(rho.view(float))):
            raise IntegrationError(f"state diverged by t={t:.4g} ns")
        i, j = self.i_dn1, self.i_up0
        # one row per sample, in Trajectory field order
        self.rows.append(
            (
                t,
                rho[i, i],
                rho[j, j],
                rho[i, j],
                rho[j, i],
                np.real(np.trace(rho)),
                purity(rho),
                min_eigenvalue(rho),
            )
        )

    def finish(self, rho, t=None) -> Trajectory:
        """Record the final state, at t or where the steps ended, and return the trajectory."""
        self.record(self.t if t is None else t, rho)
        columns = (np.array(col) for col in zip(*self.rows))
        return Trajectory(*columns, final_state=rho)


def evolve(
    rho0: np.ndarray,
    pulse: PulseSegment,
    noise: NoiseParams,
    spec: HilbertSpec | None = None,
    dt: float | None = None,
    sample_period: float | None = None,
) -> Trajectory:
    """Integrate the master equation over one pulse.

    A rectangular pulse is propagated exactly, one matrix exponential per
    sample period, and ``dt`` is unused.  A sin^2-ramped pulse runs RK4 steps.

    Parameters
    ----------
    rho0 : ndarray
        Initial density matrix on the composite space.
    pulse : PulseSegment
        The coupling pulse; its interaction-picture phase starts at 0 when
        the pulse starts.
    noise : NoiseParams
        Relaxation / dephasing times; pass NO_NOISE for closed evolution.
    spec : HilbertSpec, optional
        Defaults to the two-level flux truncation.
    dt : float, optional
        RK4 step in ns for a sin^2-ramped pulse; defaults to
        ``default_dt(pulse)``.  The pulse runs in the largest step <= dt that
        divides its duration evenly.  Unused for a rectangular pulse.
    sample_period : float, optional
        Time between samples in ns; defaults to 1/200 of the pulse duration.

    Returns
    -------
    Trajectory with samples every ``sample_period`` (a rectangular pulse) or
    at the first RK4 step after each period has passed, plus the initial and
    final points.

    Raises
    ------
    IntegrationError if dt cannot resolve the phase factor, a ramped pulse
    needs more than ``MAX_STEPS`` RK4 steps, a rectangular one more than
    ``MAX_STEPS`` samples or an exponential of a non-finite generator, the
    state diverges, the final trace drifts by more than 1e-6 or the final
    state is not Hermitian to ``HERMITICITY_LIMIT``.  ValueError if
    ``sample_period`` is not positive.
    """
    spec = spec or HilbertSpec()
    if rho0.shape != (spec.dim, spec.dim):
        raise ValueError(f"rho0 must be {spec.dim}x{spec.dim}, got {rho0.shape}")
    ws = _Workspace(spec)
    recorder = _Recorder(spec, pulse.duration, sample_period)
    rho0 = np.array(rho0, dtype=complex)
    if pulse.shape == RECTANGULAR:
        rho = _propagate_exact(rho0, ws, pulse, noise, recorder)
        traj = recorder.finish(rho, pulse.duration)
    else:
        rho = _propagate_pulse(rho0, ws, pulse, dt, _lindblad(ws, noise), recorder.before_step)
        traj = recorder.finish(rho)

    drift = trace_error(rho)
    if not math.isfinite(drift) or drift > TRACE_DRIFT_LIMIT:
        raise IntegrationError(f"final trace drift {drift:.3e} exceeds {TRACE_DRIFT_LIMIT:.0e}")
    skew = np.linalg.norm(rho - rho.conj().T)
    if not skew <= HERMITICITY_LIMIT:
        raise IntegrationError(
            f"final state is not Hermitian: |rho - rho^dag| = {skew:.3e} exceeds "
            f"{HERMITICITY_LIMIT:.0e}"
        )
    return traj


def build_lab_hamiltonian(omega_f, energy, g, g_prime, spec: HilbertSpec | None = None) -> np.ndarray:
    """Static frame Hamiltonian used to cross-validate the rotating-wave step.

    The topological splitting is diagonal in the simulation basis, |up> sitting
    at +energy/2, and both couplings act through the transverse operator
    s+ + s-; taking the interaction picture of this matrix and dropping the
    doubly-rotating exchange terms reproduces the working Hamiltonian exactly.
    """
    spec = spec or HilbertSpec()
    a = embed(annihilation_op(spec.n_fock), "flux", spec)
    a_dag = a.conj().T
    x_t = embed(sigma_plus() + sigma_minus(), "topological", spec)
    z_t = embed(np.diag([1.0, -1.0]).astype(complex), "topological", spec)  # (down, up)
    z_f = embed(flux_qubit_z(spec.n_fock), "flux", spec)
    return (
        omega_f * (a_dag @ a)
        - 0.5 * energy * z_t
        - 0.5 * g * ((a + a_dag) @ x_t)
        - 0.5 * g_prime * (z_f @ x_t)
    )


def evolve_static(
    rho0: np.ndarray,
    hamiltonian: np.ndarray,
    duration: float,
    noise: NoiseParams = NO_NOISE,
    spec: HilbertSpec | None = None,
    dt: float = 1e-4,
    sample_period: float | None = None,
) -> Trajectory:
    """Evolve under a fixed Hamiltonian (lab-frame cross-checks).

    The relaxation and dephasing operators commute with the free rotation, so
    the same dissipators are valid in this frame.  Steps and samples follow
    the same rules as ``evolve`` (default sample period duration/200); a
    diverged state or more than ``MAX_STEPS`` steps raise IntegrationError.
    """
    spec = spec or HilbertSpec()
    generator = _lindblad(_Workspace(spec), noise)
    recorder = _Recorder(spec, duration, sample_period)
    rho0 = np.array(rho0, dtype=complex)
    rho = _propagate(rho0, lambda _tau: hamiltonian, duration, dt, generator, recorder.before_step)
    return recorder.finish(rho)


def pulse_propagator(pulse: PulseSegment, spec: HilbertSpec | None = None) -> np.ndarray:
    """Closed-system propagator U of a pulse, dU/dt = -i H(t) U, at ``default_dt``.

    Gives the unitary actually generated by the pulse, for comparison against
    closed-form gate constructions.
    """
    spec = spec or HilbertSpec()
    u = np.eye(spec.dim, dtype=complex)
    return _propagate_pulse(u, _Workspace(spec), pulse, None, lambda h, m: -1j * (h @ m))


def pulse_duration_for_area(
    area: float, g_value: float, shape: str = RECTANGULAR, ramp_time: float = 0.0
) -> float:
    """Duration making the time integral of the shaped g(t) equal ``area``.

    Both shapes solve in closed form: each sin^2 ramp carries half the area
    of a flat ramp of the same length, so a ramped pulse is the rectangular
    pulse lengthened by one ramp time (``PulseSegment.area``).
    """
    if g_value == 0.0:
        raise ValueError("g_value must be nonzero")
    if area == 0.0:
        raise ValueError("area must be nonzero")
    if math.copysign(1.0, area) != math.copysign(1.0, g_value):
        raise ValueError(f"area {area} and g {g_value} must have the same sign")
    if shape == RECTANGULAR:
        return area / g_value
    if shape != SIN2_RAMP:
        raise ValueError(f"unknown pulse shape {shape!r}")
    if ramp_time <= 0:
        raise ValueError("sin^2 ramp needs ramp_time > 0")
    flat_equiv = abs(area / g_value)
    if flat_equiv < ramp_time:
        raise ValueError(
            f"|area/g| = {flat_equiv:.4f} ns is shorter than the ramp time {ramp_time} ns"
        )
    return area / g_value + ramp_time


def trajectory_checks(traj: Trajectory) -> dict:
    """Worst-case diagnostics over all samples (used by tests and summaries)."""
    herm = hermiticity_error(traj.final_state)
    return {
        "max_trace_error": float(np.max(np.abs(traj.trace - 1.0))),
        "final_hermiticity_error": float(herm),
        "min_eigenvalue": float(np.min(traj.min_eigenvalue)),
        "final_purity": float(traj.purity[-1]),
    }
