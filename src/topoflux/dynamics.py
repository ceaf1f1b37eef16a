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

A pulse is one ``PulseSegment``: its duration, its plateau couplings g and
g', E, and the length of its sin^2 ramps (0 for a rectangular pulse).  Every
pulse is propagated by one core, ``_propagate``.  In the frame
rho = V rho' V^dag with V(t) = exp(i E t N) and N = a^dag a + |up><up|, the
contamination phase becomes the static term E N, both dissipators are
unchanged, and the generator is L(t) = L0 + env(t) L1: L0 holds -i[E N, .]
and both dissipators, L1 the coupling commutator.  On the plateau (env = 1)
one matrix exponential (``expm``) carries the state from one sample to the
next; on a sin^2 ramp, sixth-order Magnus steps (three-point Gauss-Legendre;
Blanes, Casas & Ros, BIT 40, 434, 2000) do, in steps that the pulse alone
sets (``_ramp_step``).  Each step's Omega combines 10 fixed matrices
(``_magnus_basis``); the coefficients of a block of steps, which may span
many sample times, are formed at once, and their Omega in a few chunks.
Each step's exponential is applied to the state as a Taylor polynomial
(``_taylor_apply``: one matmul per power of Omega, then one sum over the
powers) of the degree its own norm bound needs (``_taylor_degree``).  Only
the final state is turned back to the working frame.  ``pulse_propagator``
runs the same core on the Hilbert-space pair (-i E N, -i H_coupling).  The
trajectory of ``evolve`` comes from ``_Recorder``, which samples at the times k * sample_period
(default duration/200) and at the end.  It keeps up to ``SAMPLE_BLOCK`` states, then checks them for finite
entries and reduces them to trajectory columns, one numpy call per diagnostic
for the whole block.  No renormalization is applied, so trace drift
measures the propagation's precision directly.  ``evolve`` is a pure
function of its inputs; independent evolutions are safe to run concurrently.
"""

from __future__ import annotations

import functools
import itertools
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

# Magnus step on a ramp: h = min(ramp / RAMP_STEPS, MAX_PHASE_STEP / (|E| + c)),
# c = max(|g|, |g'|) in rad/ns, so that no step turns the phase E t plus the
# coupling by more than MAX_PHASE_STEP rad.  With sixth-order steps, ramped
# states at the fig2a and altParams operating points (0.02-1 ns ramps, 2-6
# levels) lie within 3e-11 of RK4; MAX_PHASE_STEP = 0.25 left 1.2e-10 on a
# 0.02 ns altParams ramp.  On 0.02-0.2 ns ramps with g up to 3000 rad/ns, g'
# up to 1e4 and E down to 3, states lay within 3e-11 of runs at a quarter of
# the step.  c belongs in the rate: steps of ramp/16 shortened only by
# sqrt(40/c) left 8e-6 at g' = 1e4 and E = 3.
RAMP_STEPS = 16
MAX_PHASE_STEP = 0.2
# refuse a run that would take more than minutes: samples plus ramp steps,
# where a ramp step costs about 0.14 ms at fockLevels 6 (one BLAS thread on a
# 2-vCPU Xeon)
MAX_STEPS = 1_000_000
# states the recorder keeps at once: its memory stays flat on runs of up to MAX_STEPS samples
SAMPLE_BLOCK = 256
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
    interaction-picture phase rate E in rad/ns.  ramp is the length in ns of
    each sin^2 ramp; 0 makes the pulse rectangular.
    """

    duration: float
    g_value: float
    g_prime_value: float = 0.0
    phase_freq: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(f"pulse duration must be positive and finite, got {self.duration}")
        if not 0 <= self.ramp <= self.duration / 2:
            raise ValueError(f"ramp {self.ramp} must lie in [0, half the duration {self.duration}]")

    def envelope(self, tau):
        """Dimensionless envelope at the time (or array of times) tau since the pulse start."""
        r = self.ramp
        if not r:
            return np.ones(np.shape(tau))
        # the time to the nearer end, capped at the ramp, where sin^2 reaches 1
        edge = np.minimum(np.minimum(tau, self.duration - tau), r)
        return np.sin(np.pi * edge / (2.0 * r)) ** 2

    def area(self) -> float:
        """Integral of g(t) over the pulse."""
        # each sin^2 ramp integrates to g * ramp / 2
        return self.g_value * (self.duration - self.ramp)


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

    def coupling(self, pulse: PulseSegment) -> np.ndarray:
        """The plateau coupling in the frame exp(i E t N), where it is static."""
        return (-0.5 * pulse.g_value) * self.exchange - (0.5 * pulse.g_prime_value) * (
            self.contam_up + self.contam_down
        )


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
# the largest 1-norm expm accepts.  A step keeps rho Hermitian and its trace
# only to about 1e-16 times its generator's 1-norm, so runs above 1.7e7 often
# fail the trace or Hermiticity check already; of about 1300 probed runs (the
# fig2a, fig2b and altParams presets, noise on, off and up to 1e12 times
# stronger, pulses up to 2e9 pi), none above 1.4e9 passed them.
EXPM_MAX_NORM = 1e10


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005).  A matrix with a
    non-finite entry, or whose 1-norm is above ``EXPM_MAX_NORM``, raises
    IntegrationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(a, 1)
    if not norm <= EXPM_MAX_NORM:
        raise IntegrationError(
            f"cannot exponentiate a generator of 1-norm {norm:.3e}: a step above "
            f"{EXPM_MAX_NORM:.0e} is too long for double precision"
        )
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


def _taylor_degree(theta):
    """The smallest m with theta^(m+1)/(m+1)! e^theta <= 1e-17, which bounds the remainder of
    exp(a)'s degree-m Taylor series at 1-norms up to theta: m = 10 at theta = 0.1 and 19 at
    theta = 1 (as in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).

    theta is a float or an array of them, each at most ``TAYLOR_MAX_NORM``.  The
    remainders r_m = theta^(m+1)/(m+1)! e^theta shrink by theta/(m+1) <= 1 from one m to
    the next, so m is the number of them above 1e-17.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    factors = theta / np.arange(2.0, _MAX_DEGREE + 2.0)
    remainders = np.cumprod(np.concatenate((theta * np.exp(theta), factors), axis=-1), axis=-1)
    m = np.count_nonzero(remainders > 1e-17, axis=-1)
    return int(m) if np.ndim(m) == 0 else m


@functools.cache
def _reciprocal_factorials(m: int, dtype: np.dtype) -> np.ndarray:
    """1/j! for j = 0..m, computed in the real type of dtype; read-only, as callers share it."""
    c = 1 / np.cumprod(np.maximum(np.arange(m + 1, dtype=np.finfo(dtype).dtype), 1))
    c.flags.writeable = False
    return c


def _taylor_apply(a: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """exp(a) @ y by the degree-m Taylor series, sum_j a^j y / j! for j = 0..m.

    Each power a^j y is one matmul into a buffer of all m + 1 of them, which one
    product with the 1/j! then sums over its leading axis.  y may be a vector or,
    for ``pulse_propagator``, a matrix; the buffer is flattened to (m + 1) rows
    for the sum, so that it runs over the powers in either case.
    """
    v = np.empty((m + 1, *y.shape), dtype=np.result_type(a, y))
    v[0] = y
    for j in range(1, m + 1):
        np.matmul(a, v[j - 1], out=v[j])
    return np.dot(_reciprocal_factorials(m, v.dtype), v.reshape(m + 1, -1)).reshape(y.shape)


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i[h, .] on the row-major vec(rho), where vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(len(h))
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _free_generator(ws: _Workspace, energy: float, noise: NoiseParams) -> np.ndarray:
    """-i[energy N, .] plus both dissipators, on the row-major vec(rho).

    All but the jump term a rho a^dag are diagonal superoperators.
    """
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    nx, nd, zd = ws.excitation_diag, ws.number_diag, ws.z_diag
    diagonal = (
        (-1j * energy) * np.subtract.outer(nx, nx)
        - (0.5 * gamma1) * np.add.outer(nd, nd)
        + gamma2 * (np.multiply.outer(zd, zd) - 1.0)
    )
    gen = np.diag(diagonal.ravel())
    if gamma1 > 0.0:
        gen += gamma1 * np.kron(ws.a, ws.a.conj())
    return gen


def _ramp_step(pulse: PulseSegment) -> float:
    """The Magnus step on the pulse's ramps."""
    h = pulse.ramp / RAMP_STEPS
    rate = abs(pulse.phase_freq) + max(abs(pulse.g_value), abs(pulse.g_prime_value))
    if rate:
        h = min(h, MAX_PHASE_STEP / rate)
    # a ramp shorter than RAMP_STEPS subnormals still gets a nonzero step
    return max(h, math.ulp(0.0))


# the three Gauss-Legendre nodes of a step sit at 1/2 - _GAUSS, 1/2 and 1/2 + _GAUSS of it
_GAUSS = math.sqrt(15.0) / 10.0
# the largest 1-norm bound at which a ramp step's exponential is a Taylor
# series (degree 25 at 2); longer steps take expm
TAYLOR_MAX_NORM = 2.0
# the Taylor degree at TAYLOR_MAX_NORM
_MAX_DEGREE = 25
# the ramp steps whose envelope nodes, coefficients, norm bounds and Taylor
# degrees are formed at once, across sample pieces (a few hundred kB)
RAMP_BLOCK_STEPS = 1024
# the ramp steps whose Omega are formed at once hold at most this many entries
# (256 kB), or are 4 steps, in one buffer that every chunk of steps reuses.
# Each chunk reads all 10 basis matrices, so at 6 levels chunks of one step
# made a ramp step 40% slower than chunks of 3; 2**18 raised the peak RSS of
# the ramped workload's evolutions by 4 MB, 9% of a perfbench run's 48 MB.
OMEGA_BLOCK_ENTRIES = 2**14


def _commutator_of(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _magnus_basis(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The 10 fixed matrices that every sixth-order Magnus step of a0 + env(t) a1
    combines, flattened into the rows of one array (order as in ``_magnus_coefficients``)."""
    basis = np.empty((10, *a0.shape), dtype=complex)
    basis[0], basis[1] = a0, a1
    c = basis[2] = _commutator_of(a0, a1)
    d0 = basis[3] = _commutator_of(a0, c)
    d1 = basis[4] = _commutator_of(a1, c)
    # [a1, [a0, C]] = [a0, [a1, C]] by the Jacobi identity
    for k, (x, y) in enumerate(((a0, d0), (a0, d1), (a1, d1), (c, d0), (c, d1)), start=5):
        basis[k] = _commutator_of(x, y)
    return basis.reshape(10, -1)


def _magnus_coefficients(s: float, e1, e2, e3) -> np.ndarray:
    """The (n_steps, 10) coefficients of Omega over ``_magnus_basis`` for steps of length s.

    e1, e2, e3 are the envelope at each step's three Gauss nodes.  The scheme is
    Blanes, Casas & Ros, BIT 40, 434 (2000):

        alpha1 = s A2,  alpha2 = (sqrt(15)/3) s (A3 - A1),  alpha3 = (10/3) s (A3 - 2 A2 + A1)
        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60
        Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240

    With A = a0 + e a1, alpha2 = q a1 and alpha3 = r a1, so the outer commutator
    is [x0 a0 + x1 a1 + xc C, y1 a1 + yc C + ya [a0, C] + yb [a1, C]].
    """
    q = (math.sqrt(15.0) / 3.0) * s * (e3 - e1)
    r = (10.0 / 3.0) * s * (e3 - 2.0 * e2 + e1)
    x0, x1, xc = -20.0 * s, -20.0 * s * e2 - r, s * q
    y1, yc, ya, yb = q, (-s / 30.0) * r, (-s * s / 60.0) * q, (-s * s / 60.0) * e2 * q
    return np.stack(
        (
            np.full_like(q, 240.0 * s),
            240.0 * s * e2 + 20.0 * r,
            x0 * y1,
            x0 * yc,
            x1 * yc - xc * y1,
            x0 * ya,
            x0 * yb + x1 * ya,
            x1 * yb,
            xc * ya,
            xc * yb,
        ),
        axis=1,
    ) / 240.0


def _propagate(y, a0, a1, pulse: PulseSegment, period: float, record=None):
    """Carry y over the pulse under dy/dt = (a0 + env(t) a1) y; returns y at its end.

    The pulse is walked in sample intervals [k period, (k+1) period], the last
    one ending at the pulse's end, each cut at the ramp ends.  A plateau piece
    takes one exponential, shared by every piece of the same length; a ramp
    piece takes ceil(length/h) equal sixth-order Magnus steps
    (``_magnus_coefficients``), h the pulse's ``_ramp_step``.  Because the
    generator is a0 + env(t) a1, each step's Omega is a combination of the 10
    fixed matrices of ``_magnus_basis`` with coefficients from the envelope at
    the step's three Gauss nodes (on the plateau they are equal and Omega is
    the exact s (a0 + a1)).  The walk takes its ramp steps from one stream per
    pulse, which forms the nodes, coefficients, norm bounds and Taylor degrees
    of ``RAMP_BLOCK_STEPS`` steps at a time, across sample pieces, and their
    Omega in chunks of ``OMEGA_BLOCK_ENTRIES // a0.size`` steps, at least 4;
    each step's Omega is applied to y as a Taylor polynomial of the degree its
    own bound needs.  ``record(t, y)``, when given, sees y at every sample
    time k * period before the end.
    """
    duration, ramp, h = pulse.duration, pulse.ramp, _ramp_step(pulse)
    # compared as a float, so a count that overflows to inf is refused too
    if not duration / period + (2.0 * ramp / h if ramp else 0.0) <= MAX_STEPS:
        steps = f", with ramp steps of {h:.3e} ns," if ramp else ""
        raise IntegrationError(
            f"a {duration:.4g} ns pulse sampled every {period:.3e} ns{steps} needs more than "
            f"{MAX_STEPS} samples and ramp steps"
        )
    # sample times k * period strictly before the end; the tolerance keeps a
    # period that divides the duration from adding a sample at the end
    n_samples = max(1, math.ceil(duration / period - 1e-9))
    rest = duration - (n_samples - 1) * period
    if math.isclose(rest, period, rel_tol=1e-12):
        rest = period
    cache = {}

    def plateau(y, length):
        if length not in cache:
            cache[length] = expm(length * (a0 + a1))
        return cache[length] @ y

    def intervals():
        """(t0, pieces) for each sample interval.  A piece is (a, b, length): length is
        the plateau length its exponential spans, or None for a piece of the ramps."""
        for k in range(n_samples):
            t0 = k * period
            last = k == n_samples - 1
            t1 = duration if last else t0 + period
            if ramp <= t0 and t1 <= duration - ramp:
                yield t0, [(t0, t1, rest if last else period)]
                continue
            cuts = [c for c in dict.fromkeys((ramp, duration - ramp)) if t0 < c < t1]
            yield t0, [
                (a, b, b - a if ramp <= a and b <= duration - ramp else None)
                for a, b in zip([t0, *cuts], [*cuts, t1])
            ]

    def step_starts():
        """(a, s, i) for each ramp step in walk order: step i of the piece from a, of length s."""
        for _, pieces in intervals():
            for a, b, length in pieces:
                if length is None:
                    n = math.ceil((b - a) / h)
                    for i in range(n):
                        yield a, (b - a) / n, i

    def ramp_steps():
        """(omega, m) for each ramp step in walk order, m None where the step takes expm."""
        basis = _magnus_basis(a0, a1)
        norms = np.linalg.norm(basis.reshape(10, *a0.shape), 1, axis=(1, 2))
        chunk = max(4, OMEGA_BLOCK_ENTRIES // a0.size)
        # the Omega of one chunk of steps, as real and imaginary parts
        buffer = np.empty((chunk, 2 * a0.size))
        starts = step_starts()
        # a block of steps may span many sample pieces, and cut one
        while block := list(itertools.islice(starts, RAMP_BLOCK_STEPS)):
            a, s, i = np.array(block).T
            mid = a + (i + 0.5) * s
            nodes = (pulse.envelope(mid + c * s) for c in (-_GAUSS, 0.0, _GAUSS))
            coef = _magnus_coefficients(s, *nodes)
            # bounds on each step's 1-norm; above TAYLOR_MAX_NORM a step takes expm
            thetas = np.abs(coef) @ norms
            taylor = thetas <= TAYLOR_MAX_NORM
            degrees = _taylor_degree(np.where(taylor, thetas, 0.0)).tolist()
            degrees = [m if t else None for m, t in zip(degrees, taylor.tolist())]
            for j in range(0, len(coef), chunk):
                # real coefficients times the real and imaginary parts of the basis; the
                # walk is done with the last chunk's Omega when it asks for the next
                rows = coef[j : j + chunk]
                omegas = np.matmul(rows, basis.view(float), out=buffer[: len(rows)])
                yield from zip(omegas.view(complex).reshape(-1, *a0.shape), degrees[j : j + chunk])

    steps = ramp_steps()
    for t0, pieces in intervals():
        if record is not None:
            record(t0, y)
        for a, b, length in pieces:
            if length is not None:
                y = plateau(y, length)
                continue
            for omega, m in itertools.islice(steps, math.ceil((b - a) / h)):
                y = expm(omega) @ y if m is None else _taylor_apply(omega, y, m)
    return y


class _Recorder:
    """Samples the state, reduces it in blocks of ``SAMPLE_BLOCK`` and builds the Trajectory."""

    def __init__(self, spec: HilbertSpec, duration: float, sample_period: float | None):
        if sample_period is None:
            # a subnormal duration / 200 underflows to 0: sample the ends only
            sample_period = duration / 200.0 or duration
        if not sample_period > 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.sample_period = sample_period
        self.dim = spec.dim
        self.i_dn1 = spec.index(DOWN, 1)
        self.i_up0 = spec.index(UP, 0)
        self.times, self.states, self.blocks = [], [], []

    def record(self, t, y):
        """Sample the state whose row-major vec is ``y`` as the state at time t."""
        self.times.append(t)
        self.states.append(y.reshape(self.dim, self.dim))
        if len(self.states) == SAMPLE_BLOCK:
            self._reduce()

    def _reduce(self):
        """Check the kept states and turn them into one block of trajectory columns."""
        rho = np.array(self.states)
        finite = np.isfinite(rho).all(axis=(1, 2))
        if not finite.all():
            raise IntegrationError(f"state diverged by t={self.times[np.argmin(finite)]:.4g} ns")
        i, j = self.i_dn1, self.i_up0
        # rho11, rho22, rho12, rho21, copied out so that no column keeps the block alive
        entries = rho[:, (i, j, i, j), (i, j, j, i)].T
        trace = np.real(np.trace(rho, axis1=1, axis2=2))
        # in Trajectory field order
        self.blocks.append((np.array(self.times), *entries, trace, purity(rho), min_eigenvalue(rho)))
        self.times, self.states = [], []

    def finish(self, rho, t) -> Trajectory:
        """Record the final state at time t and return the trajectory."""
        self.record(t, rho)
        if self.states:
            self._reduce()
        columns = (np.concatenate(col) for col in zip(*self.blocks))
        return Trajectory(*columns, final_state=rho)


def evolve(
    rho0: np.ndarray,
    pulse: PulseSegment,
    noise: NoiseParams,
    spec: HilbertSpec | None = None,
    sample_period: float | None = None,
) -> Trajectory:
    """Propagate the master equation over one pulse.

    The pulse runs in the frame exp(i E t N) through ``_propagate``: one
    matrix exponential per sample period on the plateau (the whole of a
    rectangular pulse), sixth-order Magnus steps of ``_ramp_step`` on a
    sin^2 ramp, each applied as a Taylor polynomial of the degree its norm
    bound needs.  The step follows from the pulse alone: no argument sets it.

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
    sample_period : float, optional
        Time between samples in ns; defaults to 1/200 of the pulse duration.

    Returns
    -------
    Trajectory with samples at the times k * sample_period before the end of
    the pulse, plus the final point.

    Raises
    ------
    IntegrationError if the pulse needs more than ``MAX_STEPS`` samples and
    ramp steps, a step's generator is non-finite or too long for double
    precision (``EXPM_MAX_NORM``), the state is not finite, the final trace
    drifts by more than ``TRACE_DRIFT_LIMIT`` or the final state is not
    Hermitian to ``HERMITICITY_LIMIT``.  ValueError if ``sample_period`` is
    not positive.
    """
    spec = spec or HilbertSpec()
    if rho0.shape != (spec.dim, spec.dim):
        raise ValueError(f"rho0 must be {spec.dim}x{spec.dim}, got {rho0.shape}")
    ws = _Workspace(spec)
    recorder = _Recorder(spec, pulse.duration, sample_period)
    y = np.array(rho0, dtype=complex).reshape(-1)
    # expm refuses a generator that overflows, and the recorder a state
    with np.errstate(over="ignore", invalid="ignore"):
        l0 = _free_generator(ws, pulse.phase_freq, noise)
        l1 = _commutator(ws.coupling(pulse))
        y = _propagate(y, l0, l1, pulse, recorder.sample_period, recorder.record)
        nx = ws.excitation_diag
        frame = np.exp((1j * pulse.phase_freq * pulse.duration) * np.subtract.outer(nx, nx))
        rho = frame * y.reshape(spec.dim, spec.dim)
    traj = recorder.finish(rho, pulse.duration)

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


def pulse_propagator(pulse: PulseSegment, spec: HilbertSpec | None = None) -> np.ndarray:
    """Closed-system propagator U of a pulse, dU/dt = -i H(t) U.

    Gives the unitary actually generated by the pulse, for comparison against
    closed-form gate constructions: ``_propagate`` runs it in the frame
    exp(i E t N) from the identity, and the frame factor V(T) turns it back.
    """
    spec = spec or HilbertSpec()
    ws = _Workspace(spec)
    nx = ws.excitation_diag
    u = _propagate(
        np.eye(spec.dim, dtype=complex),
        np.diag(-1j * pulse.phase_freq * nx),
        -1j * ws.coupling(pulse),
        pulse,
        pulse.duration,
    )
    return np.exp((1j * pulse.phase_freq * pulse.duration) * nx)[:, None] * u


def pulse_duration_for_area(area: float, g_value: float, ramp: float = 0.0) -> float:
    """Duration making the time integral of g(t) equal ``area`` with ramps of ``ramp`` ns.

    Each sin^2 ramp carries half the area of a flat ramp of the same length,
    so a ramped pulse is the rectangular pulse (ramp 0) lengthened by one
    ramp time (``PulseSegment.area``).
    """
    if g_value == 0.0:
        raise ValueError("g_value must be nonzero")
    if area == 0.0:
        raise ValueError("area must be nonzero")
    if math.copysign(1.0, area) != math.copysign(1.0, g_value):
        raise ValueError(f"area {area} and g {g_value} must have the same sign")
    flat_equiv = abs(area / g_value)
    if flat_equiv < ramp:
        raise ValueError(f"|area/g| = {flat_equiv:.4f} ns is shorter than the ramp time {ramp} ns")
    return area / g_value + ramp


def trajectory_checks(traj: Trajectory) -> dict:
    """Worst-case diagnostics over all samples (used by tests and summaries)."""
    herm = hermiticity_error(traj.final_state)
    return {
        "max_trace_error": float(np.max(np.abs(traj.trace - 1.0))),
        "final_hermiticity_error": float(herm),
        "min_eigenvalue": float(np.min(traj.min_eigenvalue)),
        "final_purity": float(traj.purity[-1]),
    }
