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
and both dissipators, L1 the coupling commutator.  Each of them maps a
Hermitian rho to a Hermitian one, so ``evolve`` carries rho as its D_s^2 real
coordinates in an orthonormal Hermitian basis (``_HermitianBasis``), where
L0, L1 and every step built from them are real matrices.  D_s counts the
basis states the walk keeps (``_support``): those where rho0 has a nonzero
row or column, and |down,1> and |up,0>, which the trajectory records, closed
under the nonzero pattern of the coupling and, with relaxation on, of the
jump a.  E N, a^dag a and sigma_f^z are diagonal and add none, so a rho on
the span of these states stays there exactly.  From |up,0> that is all 4
states at 2 levels and 5 (|up,0>, |down,0>, |down,1>, |up,1>, |down,2>) at 3
or more, because sigma_f^z is zero on n >= 2.  The final state is put back
into D x D; each unreached state adds an exact zero eigenvalue, so when
states were left out the smallest-eigenvalue column is min(eig(rho_S), 0).
When every state is kept, nothing is copied; the operators, whole or on a
smaller support, and the parts of L0 that only they fix (the outer-product
patterns of its diagonal and the jump superoperator) are built once per
truncation and set of states (``_workspace``), and the kept states once per
set of nonzero patterns of rho0, the coupling and the jump (``_closure``).
On the plateau (env = 1) one matrix exponential P (``expm``) carries the state from one sample to the next; it is formed on
the row-major generator and turned into the Hermitian coordinates once per
length, and the imaginary part that this drops, the anti-Hermitian round-off
of the exponential, bounds how far from Hermitian the complex walk would have
strayed (``_Plateau``).  A run of plateau samples fills the recorder's block
by products with P's powers.  On a
sin^2 ramp, sixth-order Magnus steps (three-point Gauss-Legendre; Blanes,
Casas & Ros, BIT 40, 434, 2000) do, in steps that the pulse alone sets
(``_ramp_step``), and a piece of plateau that shares a sample interval with a
ramp is one more such step.  Each step's Omega combines 10 fixed matrices
(``_magnus_basis``, eight of them commutators), and its exponential is applied
to the state as a Taylor polynomial that stops on the state's own terms
(``_TaylorSeries``; Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011),
in two power buffers that the steps use in turn, each step's sum written
where the next step's powers start, and at the latest at the degree
its 1-norm bound allows, one lookup in a table of the largest 1-norm per
degree (``_taylor_degree``, ``_DEGREE_NORMS``), or, for a step too long for
the series, is the real ``expm`` of Omega.  Only the final state is turned
back to a matrix in the working frame, Hermitian by construction.  ``evolve``
is the only propagator: a closed-system check runs it with noise off.  The
trajectory of ``evolve`` comes from ``_Recorder``, which samples at the times
k * sample_period (default duration/200) and at the end.  It allocates the
trajectory columns once, after the walk's ``MAX_STEPS`` refusal.  Its block
holds ``SAMPLE_BLOCK`` states; a full one is checked for finite coordinates,
turned into matrices in one scatter and reduced into its slice of the columns,
one numpy call per diagnostic for the whole block, and the final state is
reduced with the last block into the columns' last row.  Purity is the
squared norm of each state's real coordinates, tr(rho^2) = |x|^2 in the
orthonormal basis, so the matrices serve the trace, the recorded entries and
``eigvalsh``.  The walk asks the recorder for rows once per run of sample
intervals (those before the plateau run, the run, those after it), and once
more each time a block fills.  No renormalization is applied, so trace drift
measures the propagation's precision directly.  ``evolve`` is a pure function
of its inputs.  Independent evolutions are safe to run concurrently: the
caches hold read-only arrays or tuples, and the arrays a ramped walk writes
before it reads (the Taylor power buffers, the Magnus basis stack and the
Omega buffer, ``_WalkScratch``) are kept per thread and per state size
(``_walk_scratch``), so walks in one thread reuse them and no two threads
share them.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
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
    kron,
    min_eigenvalue,
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
# where a ramp step costs at most about 0.07 ms at fockLevels 6, on all 12
# states (a whole 1 ns fig2a ramp evolution from |up,5> without dephasing,
# 3436 steps, took 0.17-0.25 s on one BLAS thread of a 2-vCPU Xeon); from
# |up,0>, on 5 states, the same ramp took 0.03-0.06 s at 6 levels, as at 2
MAX_STEPS = 1_000_000
# states the recorder keeps at once: its memory stays flat on runs of up to MAX_STEPS samples
SAMPLE_BLOCK = 256
# the largest power of the plateau propagator P (a power of 2) that a run of samples forms:
# at 6 levels a squaring of P costs about 25 of its products with a state, and squaring up
# to P^128 made a 200-sample walk there slower than one product per sample
PLATEAU_STRIDE = 8
TRACE_DRIFT_LIMIT = 1e-6
# |rho - rho^dag|_F above twice hilbert.fidelity_pure's 1e-10 bound on an
# imaginary part could give a fidelity with a larger one; the same bound
# applies to rho0 and to the anti-Hermitian round-off of the plateau
# exponentials (``_Plateau.dropped``)
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


@dataclass(eq=False)
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
    """Static operators for one Hilbert space, or for the span of the basis states ``keep``
    (sorted indices), and the parts of ``_free_generator`` built from them.  ``evolve``
    shares one read-only instance per truncation and set of states (``_workspace``)."""

    def __init__(self, spec: HilbertSpec, keep: tuple[int, ...] | None = None):
        n = spec.n_fock
        self.a = embed(annihilation_op(n), "flux", spec)
        self.a_dag = self.a.conj().T
        s_minus = embed(sigma_minus(), "topological", spec)
        s_plus = embed(sigma_plus(), "topological", spec)
        zf = embed(flux_qubit_z(n), "flux", spec)
        self.exchange = self.a_dag @ s_minus + self.a @ s_plus
        self.contam_up = zf @ s_plus
        self.contam_down = zf @ s_minus
        # diagonal operators enter the dissipators as broadcast scalings
        self.number_diag = np.real(np.diag(self.a_dag @ self.a)).copy()
        self.z_diag = np.real(np.diag(zf)).copy()
        # N = a^dag a + |up><up|: the exchange conserves it, s+ raises it by one
        self.excitation_diag = self.number_diag + np.real(np.diag(s_plus @ s_minus))
        if keep is not None:
            rows = list(keep)
            cut = np.ix_(rows, rows)
            vars(self).update(
                {name: op[cut] if op.ndim == 2 else op[rows] for name, op in vars(self).items()}
            )
        # the diagonal superoperators' patterns, one entry per pair of kept states, and the
        # jump a rho a^dag on the row-major vec(rho): only the rates and E scale them
        nx, nd, zd = self.excitation_diag, self.number_diag, self.z_diag
        self.excitation_gaps = np.subtract.outer(nx, nx)
        self.number_sums = np.add.outer(nd, nd)
        self.dephasing_factors = np.multiply.outer(zd, zd) - 1.0
        self.jump = kron(self.a, self.a.conj())

    def coupling(self, pulse: PulseSegment) -> np.ndarray:
        """The plateau coupling in the frame exp(i E t N), where it is static."""
        return (-0.5 * pulse.g_value) * self.exchange - (0.5 * pulse.g_prime_value) * (
            self.contam_up + self.contam_down
        )


@functools.lru_cache(maxsize=64)
def _workspace(spec: HilbertSpec, keep: tuple[int, ...] | None = None) -> _Workspace:
    """The ``_Workspace`` of ``spec``, or of its basis states ``keep``, built once per
    truncation and set of states; its arrays are read-only, so no caller can change
    another's operators."""
    ws = _Workspace(spec, keep)
    for op in vars(ws).values():
        op.flags.writeable = False
    return ws


def _support(rho0: np.ndarray, recorded, operators) -> tuple[int, ...]:
    """The sorted basis states that ``evolve`` can reach: those where rho0 has a nonzero row
    or column and the ``recorded`` ones, closed under the nonzero pattern of each operator
    (a state i joins when op[i, j] != 0 for a state j of the set).

    With the coupling and, when relaxation is on, the jump a among the operators, a rho on
    the span of the set stays on it: the rest of the generator is diagonal.  A nonzero entry
    is one that is not exactly 0, so a nan keeps its states.  rho0 and the operators are
    matrices of one size.  The states follow from the nonzero patterns alone, so the closure
    runs once per set of patterns (``_closure``).
    """
    patterns = tuple(np.not_equal(m, 0).tobytes() for m in (rho0, *operators))
    return _closure(len(rho0), tuple(recorded), patterns)


@functools.lru_cache(maxsize=256)
def _closure(dim: int, recorded: tuple[int, ...], patterns: tuple[bytes, ...]):
    """``_support`` on the nonzero patterns of rho0 and of the operators, each the bytes of a
    dim x dim boolean array.  The closure walks the pattern in plain Python: on matrices this
    small, a numpy call per step would cost more."""
    rho0, *operators = (np.frombuffer(p, dtype=bool).reshape(dim, dim) for p in patterns)
    rows, cols = np.nonzero(rho0)
    keep = {*rows.tolist(), *cols.tolist(), *recorded}
    reach = {}
    for op in operators:
        rows, cols = np.nonzero(op)
        for i, j in zip(rows.tolist(), cols.tolist()):
            reach.setdefault(j, []).append(i)
    unvisited = list(keep)
    while unvisited:
        for i in reach.get(unvisited.pop(), ()):
            if i not in keep:
                keep.add(i)
                unvisited.append(i)
    return tuple(sorted(keep))


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
    """The smallest m with theta^(m+1)/(m+1)! e^theta <= TAYLOR_TOL, which bounds the remainder
    of exp(a)'s degree-m Taylor series at 1-norms up to theta: m = 10 at theta = 0.1 and 19 at
    theta = 1 (as in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).

    theta is a float or an array of them, each at most ``TAYLOR_MAX_NORM``.  The degree is
    the number of ``_DEGREE_NORMS`` below theta, one ``np.searchsorted``.
    """
    m = np.searchsorted(_DEGREE_NORMS, theta)
    return int(m) if np.ndim(m) == 0 else m


def _stop_scales(theta1, theta_inf, size):
    """The factor (e^theta2 - 1)^2 size / TAYLOR_TOL^2 of ``_TaylorSeries.apply``'s stop, with
    theta2 = sqrt(theta1 theta_inf) >= |a|_2 for 1- and inf-norm bounds theta1, theta_inf of a
    (floats or arrays) and y of ``size`` entries."""
    return np.expm1(np.sqrt(theta1 * theta_inf)) ** 2 * (size / TAYLOR_TOL**2)


@functools.cache
def _taylor_weights(dtype: np.dtype) -> tuple[tuple, tuple]:
    """The squared 1/j! (j = 0 .. _MAX_DEGREE) as floats, for the stop, and the prefixes
    1/0! .. 1/m! of the weights as read-only arrays of ``dtype``, one per m, for the sum:
    computed in the real type of dtype, then cast to it, so that the sum is one product.
    Built once per dtype."""
    j = np.arange(_MAX_DEGREE + 1, dtype=np.finfo(dtype).dtype)
    weights = 1 / np.cumprod(np.maximum(j, 1))
    squared = tuple((weights**2).tolist())
    weights = weights.astype(dtype)
    weights.flags.writeable = False
    return squared, tuple(weights[: m + 1] for m in range(_MAX_DEGREE + 1))


class _WalkScratch:
    """The arrays that a ramped walk on states of ``size`` real coordinates, with Omega
    chunks of ``chunk`` steps, writes before it reads: a ``_TaylorSeries``, the
    (11, size, size) ``stack`` that ``_magnus_basis`` writes into, and the Omega
    ``buffer``, (chunk, size^2), with a list of its rows as size x size views (``omegas``),
    since iterating a list costs a fifth of making each view anew."""

    def __init__(self, size: int, chunk: int):
        self.series = _TaylorSeries((size,), float)
        self.stack = np.empty((11, size, size))
        self.buffer = np.empty((chunk, size * size))
        self.omegas = list(self.buffer.reshape(chunk, size, size))


# the ramped walks' scratch, one set per thread and per key of ``_walk_scratch``
_SCRATCH = threading.local()


def _walk_scratch(size: int, chunk: int) -> _WalkScratch:
    """The calling thread's ``_WalkScratch`` for this size and chunk, built on the thread's
    first such walk, with its series' ``degree`` set back to 0.  A walk writes every entry
    before it reads it, so its results do not depend on the walks before it, and no two
    threads share one."""
    try:
        cache = _SCRATCH.walks
    except AttributeError:
        cache = _SCRATCH.walks = {}
    scratch = cache.get((size, chunk))
    if scratch is None:
        scratch = cache[size, chunk] = _WalkScratch(size, chunk)
    scratch.series.degree = 0
    return scratch


class _TaylorSeries:
    """exp(a) @ y by the Taylor series sum_j a^j y / j!, in two buffers of the powers a^j y
    that every step of a walk reuses, in turn (and, through ``_walk_scratch``, every walk
    in the same thread on states of the same size).

    The degree follows y's own terms.  Since |a^(j+i) y|_2 <= theta2^i |a^j y|_2 for
    theta2 >= |a|_2, the remainder after degree j is at most (e^theta2 - 1) |a^j y|_2 / j!.
    ``apply`` stops at the first checked j where that is at most TAYLOR_TOL |y|_2 / sqrt(n),
    n the entries of y, which puts the remainder's 1-norm under TAYLOR_TOL |y|_1; and at
    the latest at the ceiling m it is given, ``_taylor_degree`` of a's 1-norm bound.  The
    norms are those of the coordinates y is given in: for ``evolve``, the real coordinates
    of rho in ``_HermitianBasis``, whose 2-norm is rho's Frobenius norm.  The first check is
    at the degree where the previous step stopped, so a typical step takes one norm of a
    power besides |y|_2.  Each squared norm is the dot of a buffer row's entries, viewed as
    reals, with themselves: |row|_2^2 for real and complex rows of any shape.

    A step takes its powers in one buffer, whose row 0 holds y, and writes their weighted
    sum into row 0 of the other (``buffers``), which holds the next step's y: a walk that
    hands each result to the next step copies no state and allocates no array.  A y from
    elsewhere is copied into row 0 first.  A step calls ndarray methods only, each power
    one call of the bound ``a.dot`` from a buffer row into the next (``pairs``): on states
    of 16 to 64 reals numpy's function dispatch costs about as much as a product.
    """

    def __init__(self, shape, dtype):
        self.squared_weights, weights = _taylor_weights(np.dtype(dtype))
        self.buffers = tuple(np.empty((_MAX_DEGREE + 1, *shape), dtype=dtype) for _ in range(2))
        sides = []
        for powers in self.buffers:
            rows = list(powers)
            flat = powers.reshape(_MAX_DEGREE + 1, -1)
            # row 0 as y's shape and flat; (row j, row j + 1), as a^(j+1) y is a times the
            # row before it; the rows viewed as reals, for their norms; and per degree m, the
            # weights and the rows that the sum to m takes
            pairs = list(zip(rows[:-1], rows[1:]))
            sums = [(w, flat[: m + 1]) for m, w in enumerate(weights)]
            sides.append((rows[0], flat[0], pairs, list(flat.view(powers.real.dtype)), sums))
        # the side that holds the next step's y, and the side its sum goes to
        self.here, self.there = sides
        self.degree = 0

    def apply(self, a, y, m, scale):
        """exp(a) @ y by the series to degree at most m; scale is ``_stop_scales`` of a's
        norm bounds and y's size.  ``degree`` is where it stopped.

        The result is row 0 of one of ``buffers``, never y's memory.  It stays valid through
        the next step when that step is given it as y, and is overwritten by the step after
        that, or by the next step when that one is given another y."""
        here, there = self.here, self.there
        head, _, pairs, reals, sums = here
        if y is not head:
            head[...] = y
        dot = a.dot
        y_squared = reals[0].dot(reals[0])
        # min(degree, m), without a builtin call per step
        j, d = 0, self.degree if self.degree < m else m
        while True:
            for power, out in pairs[j:d]:
                dot(power, out)
            term = reals[d]
            if d == m or scale * self.squared_weights[d] * term.dot(term) <= y_squared:
                break
            j, d = d, d + 1
        self.degree = d
        weights, powers = sums[d]
        weights.dot(powers, there[1])
        self.here, self.there = there, here
        return there[0]


class _HermitianBasis:
    """The orthonormal Hermitian basis B_k of D x D matrices, a generalized Gell-Mann basis
    (Bertlmann & Krammer, J. Phys. A 41, 235303, 2008): the D diagonal units E_kk, then
    (E_ij + E_ji)/sqrt(2) for each i < j, then i(E_ji - E_ij)/sqrt(2) in the same order.

    A Hermitian rho has the real coordinates x_k = tr(B_k rho), and a superoperator L that
    maps Hermitian matrices to Hermitian ones the real matrix T^dag L T, T the unitary whose
    columns are the row-major vec(B_k).  Each column of T has at most two nonzero entries,
    so every change of basis here is one index gather and one product.  ``_hermitian_basis``
    keeps one per dimension.
    """

    def __init__(self, dim: int):
        i, j = np.triu_indices(dim, 1)
        diag, upper, lower = np.arange(dim) * (dim + 1), i * dim + j, j * dim + i
        n, r = len(i), math.sqrt(0.5)
        self.dim = dim
        # the two row-major vec(rho) entries of each column of T, and their weights; a
        # diagonal unit splits its 1 in halves
        self.entries = np.stack(
            (np.concatenate((diag, upper, upper)), np.concatenate((diag, lower, lower)))
        )
        half, ones = np.full(dim, 0.5), np.ones(n)
        self.weights = np.stack(
            (
                np.concatenate((half, r * ones, -1j * r * ones)),
                np.concatenate((half, r * ones, 1j * r * ones)),
            )
        )
        self.conj = self.weights.conj()
        # the real and imaginary parts of the row-major vec(rho), as one gather of x times
        # one scale: E_kk's are x_k and 0 x_k, E_ij's (i < j) r x_S and -r x_A, E_ji's
        # r x_S and r x_A
        pick, scale = np.zeros((dim * dim, 2), dtype=int), np.zeros((dim * dim, 2))
        pick[diag], scale[diag, 0] = np.arange(dim)[:, None], 1.0
        pick[upper] = pick[lower] = np.stack((dim + np.arange(n), dim + n + np.arange(n)), axis=1)
        scale[upper], scale[lower] = (r, -r), (r, r)
        self.pick, self.scale = pick.ravel(), scale.ravel()

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """The coordinates x = T^dag vec(rho) of rho's Hermitian part."""
        return (self.conj * rho.reshape(-1)[self.entries]).sum(axis=0).real

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian matrices (..., D, D) whose coordinates are the rows of x (..., D^2)."""
        d = self.dim
        flat = np.empty((*x.shape[:-1], d * d), dtype=complex)
        np.multiply(x[..., self.pick], self.scale, out=flat.view(float))
        return flat.reshape(*x.shape[:-1], d, d)

    def superoperator(self, gen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T^dag gen T for a superoperator, or a stack of them, on the row-major vec(rho):
        its real part, and the 1-norm of the imaginary part that this drops (round-off, for
        a map that keeps rho Hermitian)."""
        right = (gen[..., self.entries] * self.weights).sum(axis=-2)
        both = (self.conj[:, :, None] * right[..., self.entries, :]).sum(axis=-3)
        return both.real.copy(), np.abs(both.imag).sum(axis=-2).max(axis=-1)


@functools.lru_cache(maxsize=16)
def _hermitian_basis(dim: int) -> _HermitianBasis:
    """The ``_HermitianBasis`` of D x D matrices, built once per dimension."""
    return _HermitianBasis(dim)


class _Plateau:
    """The plateau propagators exp(length gen), one per length, for ``_propagate``'s runs.

    Each is formed on the row-major gen and turned into the basis's real coordinates.
    ``dropped`` sums, over every application (``applications`` per call), the 1-norm of the
    imaginary part that this drops: the anti-Hermitian round-off that a walk on the complex
    vec(rho) would have carried.
    """

    def __init__(self, gen: np.ndarray, basis: _HermitianBasis):
        self.gen, self.basis = gen, basis
        self.cache, self.dropped = {}, 0.0

    def __call__(self, length: float, applications: int) -> np.ndarray:
        if length not in self.cache:
            self.cache[length] = self.basis.superoperator(expm(length * self.gen))
        propagator, dropped = self.cache[length]
        self.dropped += applications * dropped
        return propagator


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i[h, .] on the row-major vec(rho), where vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(len(h))
    return -1j * (kron(h, eye) - kron(eye, h.T))


def _free_generator(ws: _Workspace, energy: float, noise: NoiseParams) -> np.ndarray:
    """-i[energy N, .] plus both dissipators, on the row-major vec(rho), from the parts that
    ``ws`` holds.

    All but the jump term a rho a^dag are diagonal superoperators.
    """
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    diagonal = (
        (-1j * energy) * ws.excitation_gaps
        - (0.5 * gamma1) * ws.number_sums
        + gamma2 * ws.dephasing_factors
    )
    gen = np.diag(diagonal.ravel())
    if gamma1 > 0.0:
        gen += gamma1 * ws.jump
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
# the nodes' offsets from a step's midpoint, in steps, as a column
_GAUSS_NODES = np.array([[-_GAUSS], [0.0], [_GAUSS]])
_GAUSS_NODES.flags.writeable = False
# the largest 1-norm bound at which a ramp step's exponential is a Taylor
# series (degree 25 at 2); longer steps take expm
TAYLOR_MAX_NORM = 2.0
# the Taylor degree at TAYLOR_MAX_NORM
_MAX_DEGREE = 25
# a Taylor series leaves a remainder of at most TAYLOR_TOL |y|_1
TAYLOR_TOL = 1e-17
# entry m is the largest 1-norm theta at which degree m meets TAYLOR_TOL: the largest double
# where the remainder theta^(m+1)/(m+1)! e^theta, evaluated as the cumulative product
# theta e^theta (theta/2) (theta/3) ... (theta/(m+1)), is at most TAYLOR_TOL.  The remainders
# shrink from one m to the next (by theta/(m+2) <= 1) and grow with theta, so the degree at
# theta is the number of entries below it; at TAYLOR_MAX_NORM it is _MAX_DEGREE
_DEGREE_NORMS = (
    1e-17,
    4.472135944999579e-09,
    3.914862532449314e-06,
    0.00012446272265511084,
    0.0010369222254966255,
    0.004391075584354974,
    0.012576706748811586,
    0.028129564022370424,
    0.05324675430087693,
    0.08955441565171794,
    0.13807285737807304,
    0.19928850783125046,
    0.27326550716913933,
    0.35975921114910964,
    0.45831464950173123,
    0.5683448260741353,
    0.6891895206778218,
    0.8201575452815816,
    0.9605559288222978,
    1.1097092367704653,
    1.2669716860865181,
    1.4317341365556335,
    1.6034275260417519,
    1.7815238998604273,
    1.9655358615461562,
)
# the ramp steps whose envelope nodes, coefficients, norm bounds and Taylor
# degrees are formed at once, across sample pieces (a few hundred kB), and the
# sample intervals that ``_ramp_plan`` cuts into pieces at once
RAMP_BLOCK_STEPS = 1024
# the ramp steps whose Omega are formed at once hold at most this many entries
# (256 kB), or are 4 steps, in one buffer that every chunk of steps reuses.
# Each chunk reads all 10 basis matrices, so at 6 levels chunks of one step
# made a ramp step 40% slower than chunks of 3; 2**18 raised the peak RSS of
# the ramped workload's evolutions by 4 MB, 9% of a perfbench run's 48 MB.
OMEGA_BLOCK_ENTRIES = 2**14


def _magnus_basis(a0: np.ndarray, a1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 10 fixed matrices that every sixth-order Magnus step of a0 + env(t) a1
    combines, flattened into the rows of one array (order as in ``_magnus_coefficients``):
    a0, a1, C = [a0, a1], [a0, C], [a1, C], then [a0, [a0, C]], [a0, [a1, C]],
    [a1, [a1, C]], [C, [a0, C]] and [C, [a1, C]] ([a1, [a0, C]] = [a0, [a1, C]] by the
    Jacobi identity).  Each of the eight commutators [x, y] = x y - y x is two products,
    written in place into ``out``, an (11, n, n) array whose last matrix takes y x, or
    into a new one; the result is a view of its first 10."""
    if out is None:
        out = np.empty((11, *a0.shape), dtype=np.result_type(a0, a1))
    out[0], out[1] = a0, a1
    a0, a1, c, d0, d1, *outer, yx = out

    def commutator(x, y, xy):
        np.matmul(x, y, out=xy)
        np.matmul(y, x, out=yx)
        np.subtract(xy, yx, out=xy)

    commutator(a0, a1, c)
    commutator(a0, c, d0)
    commutator(a1, c, d1)
    for (x, y), xy in zip(((a0, d0), (a0, d1), (a1, d1), (c, d0), (c, d1)), outer):
        commutator(x, y, xy)
    return out[:10].reshape(10, -1)


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


def _ramp_plan(pulse: PulseSegment, h: float, period: float, n_samples: int, skip: range):
    """The Magnus steps of a ramped pulse's walk, as blocks of ``RAMP_BLOCK_STEPS`` of them
    (the last may hold fewer): arrays (first, a, s, i, on_ramp) in walk order, for step i of
    length s of the piece from a, first the sample interval k at an interval's first step,
    else -1.

    The walk covers the sample intervals k < n_samples outside ``skip``, the plateau run,
    each [k period, (k+1) period] (the last ends at the pulse's end) cut at the ramp ends
    inside it, once when they coincide.  A ramp piece takes ceil(length/h) equal steps, a
    plateau piece one.  Intervals are cut into pieces RAMP_BLOCK_STEPS at a time, and the
    pieces' steps are numbered only as the blocks hand them out, so a pulse of any length
    holds one block of steps and a window of pieces at a time.
    """
    duration, ramp, last, size = pulse.duration, pulse.ramp, n_samples - 1, RAMP_BLOCK_STEPS
    end = duration - ramp
    cuts = np.array(list(dict.fromkeys((ramp, end))))
    walked, width = n_samples - len(skip), len(cuts) + 2
    # (first, a, s, n, on_ramp) of the pieces not yet handed out in full, of which the
    # first's steps before ``done`` were
    pieces, done = None, 0
    for j in range(0, walked, size):
        k = np.arange(j, min(j + size, walked))
        if skip:
            k[k >= skip.start] += len(skip)
        # each interval's edges t0, the cuts and t1 in a row, kept where they bound pieces:
        # a piece runs from a kept edge to the next one in its row
        edges = np.empty((len(k), width))
        t0, t1 = edges[:, 0], edges[:, -1]
        t0[:], edges[:, 1:-1] = k * period, cuts
        t1[:] = t0 + period
        if k[-1] == last:
            t1[-1] = duration
        kept = np.ones(edges.shape, dtype=bool)
        kept[:, 1:-1] = (t0[:, None] < cuts) & (cuts < t1[:, None])
        firsts = np.full((len(k), width - 1), -1)
        firsts[:, 0] = k
        a, b = edges[:, :-1][kept[:, :-1]], edges[:, 1:][kept[:, 1:]]
        # a piece is on a ramp unless it lies within [ramp, end]
        length, on_ramp = b - a, (a < ramp) | (b > end)
        n = np.ceil(length / h, out=np.ones_like(length), where=on_ramp)
        new = (firsts[kept[:, :-1]], a, length / n, n, on_ramp)
        pieces = new if pieces is None else [np.concatenate(p) for p in zip(pieces, new)]
        ends = np.cumsum(pieces[3])
        # full blocks, and at the end what is left
        while ends[-1] - done >= size or (j + size >= walked and ends[-1] > done):
            g = np.arange(done, min(done + size, ends[-1]))
            p = np.searchsorted(ends, g, side="right")
            first, a, s, n, on_ramp = (x[p] for x in pieces)
            i = g - (ends[p] - n)
            yield np.where(i == 0, first, -1), a, s, i, on_ramp
            done = g[-1] + 1
        # drop the pieces handed out in full
        q = np.searchsorted(ends, done, side="right")
        pieces, done = [x[q:] for x in pieces], done - (ends[q - 1] if q else 0)


def _propagate(y, l0, l1, pulse: PulseSegment, recorder: _Recorder):
    """Carry y, rho's real coordinates in ``recorder.basis``, over the pulse under
    drho/dt = (l0 + env(t) l1) rho, l0 and l1 on the row-major vec(rho); returns y at the
    end and the plateau exponentials' ``_Plateau.dropped``.

    The walk goes by sample intervals [k period, (k+1) period], period the recorder's
    ``sample_period`` and the last interval ending at the pulse's end; their number comes
    from ``recorder.start()``, which allocates the trajectory once a pulse that needs more
    than ``MAX_STEPS`` samples and ramp steps has been refused.  ``record(n)``, the
    recorder's ``rows``, returns the rows it fills with y at the next samples, at most n of
    them.  The intervals on the plateau before the last form one run, which ``run``
    carries with the powers of P, the ``_Plateau`` of l0 + l1; on a rectangular pulse, one
    interval of the length left follows.  On a ramped pulse one loop walks the other
    intervals, cut at the ramp ends, in sixth-order Magnus steps: ceil(length/h) equal ones
    per ramp piece, h the pulse's ``_ramp_step``, and one per plateau piece, its Gauss nodes
    set to 1.  ``_ramp_plan`` forms these steps with numpy, a block of ``RAMP_BLOCK_STEPS``
    at a time from a window of whole intervals, so no step costs a Python yield.  The loop
    records y at each interval's first step and calls ``run`` before interval ``stop``; it
    asks ``record`` for the rows of every walked interval up to the run, or to the end, and
    fills all it is handed before it asks again.  Each step's Omega combines the 10
    ``_magnus_basis`` matrices of l0 and l1 in ``basis``, formed a block of steps at a
    time.  A step whose 1-norm bound is at most ``TAYLOR_MAX_NORM`` is applied by one
    ``_TaylorSeries``, which stops on y's own terms; a longer one, on a ramp piece or a
    plateau piece, takes the real expm of its Omega.  The series, the basis stack and the
    Omega buffer are the thread's ``_walk_scratch``, so the y returned may be a row of the
    series' buffers, valid until the thread's next ramped walk on states of its size.
    """
    basis, period, record = recorder.basis, recorder.sample_period, recorder.rows
    duration, ramp, h = pulse.duration, pulse.ramp, _ramp_step(pulse)
    # compared as a float, so a count that overflows to inf is refused too
    if not duration / period + (2.0 * ramp / h if ramp else 0.0) <= MAX_STEPS:
        steps = f", with ramp steps of {h:.3e} ns," if ramp else ""
        raise IntegrationError(
            f"a {duration:.4g} ns pulse sampled every {period:.3e} ns{steps} needs more than "
            f"{MAX_STEPS} samples and ramp steps"
        )
    n_samples = recorder.start()
    last = n_samples - 1
    plateau = _Plateau(l0 + l1, basis)

    def run(y, n, length):
        """y after n plateau intervals of this length, recording y and the states after it.
        Each chunk of rows from ``record`` starts from the state and is filled by products
        with P = plateau(length) and its squares, rows[m:m+k] = rows[m-k:m] (P^k)^T: k = m
        (doubling) up to ``PLATEAU_STRIDE``, then k = PLATEAU_STRIDE, cut at the chunk's end."""
        step = plateau(length, n)
        # P^(2^j) up to P^PLATEAU_STRIDE, as far as a chunk of min(n, SAMPLE_BLOCK) rows needs
        powers = [step]
        while len(powers) < min(n - 1, SAMPLE_BLOCK - 1, PLATEAU_STRIDE).bit_length():
            powers.append(powers[-1] @ powers[-1])
        while n:
            out = record(n)
            out[0], m = y, 1
            while m < len(out):
                j = min(m.bit_length(), len(powers)) - 1
                k = min(1 << j, len(out) - m)
                out[m - (1 << j) : m - (1 << j) + k].dot(powers[j].T, out[m : m + k])
                m += k
            y, n = step @ out[-1], n - len(out)
        return y

    if not ramp:
        rest = duration - last * period
        if math.isclose(rest, period, rel_tol=1e-12):
            rest = period
        if last:
            y = run(y, last, period)
        return run(y, 1, rest), plateau.dropped

    end = duration - ramp
    # the run [start, stop): the intervals before the last that lie on the plateau
    start = bisect.bisect_left(range(last), True, key=lambda k: ramp <= k * period)
    stop = bisect.bisect_left(range(last), True, key=lambda k: k * period + period > end)

    chunk = max(4, OMEGA_BLOCK_ENTRIES // y.size**2)
    scratch = _walk_scratch(y.size, chunk)
    buffer, omegas, apply = scratch.buffer, scratch.omegas, scratch.series.apply
    (a0, a1), _ = basis.superoperator(np.stack((l0, l1)))
    matrices = _magnus_basis(a0, a1, scratch.stack)
    # each basis matrix's 1- and inf-norm (its largest column and row abs-sum), the columns
    # of one (10, 2) array
    entries = np.abs(matrices).reshape(10, *a0.shape)
    norms = np.stack((entries.sum(axis=1).max(axis=1), entries.sum(axis=2).max(axis=1)), axis=1)
    # the rows the recorder handed out for the walked intervals, of which the first r are filled
    out, r = (), 0
    # a block of steps may span many sample intervals, and cut one
    for first, a, s, i, on_ramp in _ramp_plan(pulse, h, period, n_samples, range(start, stop)):
        # the envelope at each step's three Gauss nodes, one row per node
        nodes = np.where(on_ramp, pulse.envelope(a + (i + 0.5) * s + _GAUSS_NODES * s), 1.0)
        coef = _magnus_coefficients(s, *nodes)
        # bounds on each step's 1- and inf-norm; above TAYLOR_MAX_NORM a step takes expm
        bounds = np.abs(coef) @ norms
        taylor = bounds[:, 0] <= TAYLOR_MAX_NORM
        bounds[~taylor] = 0.0
        # each step's Taylor degree, or -1 for one that takes expm
        ceilings = np.where(taylor, _taylor_degree(bounds[:, 0]), -1).tolist()
        scales = _stop_scales(bounds[:, 0], bounds[:, 1], y.size).tolist()
        firsts = first.tolist()
        for j in range(0, len(coef), chunk):
            cut = slice(j, j + chunk)
            rows = coef[cut]
            rows.dot(matrices, buffer[: len(rows)])
            for k, omega, m, scale in zip(firsts[cut], omegas, ceilings[cut], scales[cut]):
                if k >= 0:
                    if k == stop > start:
                        y = run(y, stop - start, period)
                    if r == len(out):
                        # rows for the walked intervals up to the run, or to the end
                        out, r = record((start if k < start < stop else n_samples) - k), 0
                    out[r] = y
                    r += 1
                y = apply(omega, y, m, scale) if m >= 0 else expm(omega) @ y
    return y, plateau.dropped


class _Recorder:
    """Samples the state, reduces it in blocks of ``SAMPLE_BLOCK`` into the trajectory's
    columns and builds the Trajectory.

    ``start`` allocates the columns once, a row for each of the run's samples and one for
    the end.  ``_propagate`` writes the sampled states straight into the rows of one
    preallocated block (``rows``), as their coordinates in the ``_HermitianBasis`` of
    ``dim`` x ``dim`` matrices.  A full block is reduced into its slice of the columns, and
    ``finish`` reduces the last one with the final state in the row after it, so that the
    final state lands in the columns' last row.  i_dn1 and i_up0 are the positions of
    |down,1> and |up,0> among the dim basis states that the walk carries.
    """

    def __init__(
        self, dim: int, i_dn1: int, i_up0: int, duration: float, sample_period: float | None
    ):
        if sample_period is None:
            # a subnormal duration / 200 underflows to 0: sample the ends only
            sample_period = duration / 200.0 or duration
        if not sample_period > 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.duration, self.sample_period = duration, sample_period
        self.basis = _hermitian_basis(dim)
        self.i_dn1, self.i_up0 = i_dn1, i_up0
        # a block of samples and the final state after the last one
        self.block = np.empty((SAMPLE_BLOCK + 1, dim**2))
        # the samples in the block, and those reduced before it
        self.filled, self.reduced = 0, 0

    def start(self) -> int:
        """Allocate the columns for the samples at the times k * sample_period strictly before
        the end, and for the end; returns the number of samples, ``n_samples``."""
        # the tolerance keeps a period that divides the duration from adding a sample at the end
        n_samples = max(1, math.ceil(self.duration / self.sample_period - 1e-9))
        self.times, self.trace, self.purity, self.min_eigenvalue = np.empty((4, n_samples + 1))
        # rho11, rho22, rho12, rho21
        self.entries = np.empty((4, n_samples + 1), dtype=complex)
        return n_samples

    def rows(self, n):
        """The block's rows for the next samples, at most n, for the caller to fill.  A full
        block is reduced first and keeps its states: the next rows still hold its first ones."""
        if self.filled == SAMPLE_BLOCK:
            self._reduce()
        start = self.filled
        self.filled = min(start + n, SAMPLE_BLOCK)
        return self.block[start : self.filled]

    def _reduce(self, final=None):
        """Check the filled rows, and the ``final`` state after them when given (its
        coordinates, its matrix and its time), and write their slice of the columns."""
        n, start = self.filled, self.reduced
        if final is not None:
            x_end, rho_end, t = final
            self.block[n] = x_end
            n += 1
        x = self.block[:n]
        rho = self.basis.matrices(x)
        cut = slice(start, start + n)
        times = np.multiply(np.arange(start, start + n), self.sample_period, out=self.times[cut])
        # each entry of a sample's matrix is one of its coordinates times 0 or a weight of
        # size 1 or sqrt(1/2), and each coordinate enters one with a nonzero weight, so the
        # matrix is finite exactly when the coordinates are; the final matrix also carries
        # the frame, and is checked itself
        finite = np.isfinite(x).all(axis=1)
        if final is not None:
            rho[-1], times[-1] = rho_end, t
            finite[-1] &= np.isfinite(rho_end).all()
        if not finite.all():
            raise IntegrationError(f"state diverged by t={times[np.argmin(finite)]:.4g} ns")
        i, j, d = self.i_dn1, self.i_up0, self.basis.dim
        self.entries[:, cut] = rho.reshape(n, d * d).T[[i * d + i, j * d + j, i * d + j, j * d + i]]
        self.trace[cut] = np.real(np.trace(rho, axis1=1, axis2=2))
        # tr(rho^2) = |x|^2, the basis being orthonormal
        self.purity[cut] = (x * x).sum(axis=1)
        self.min_eigenvalue[cut] = min_eigenvalue(rho)
        self.filled, self.reduced = 0, start + n

    def finish(self, x, rho, t) -> Trajectory:
        """Record the final state, its coordinates x and its matrix rho, at time t and return
        the trajectory."""
        self._reduce((x, rho, t))
        return Trajectory(
            self.times, *self.entries, self.trace, self.purity, self.min_eigenvalue, final_state=rho
        )


def evolve(
    rho0: np.ndarray,
    pulse: PulseSegment,
    noise: NoiseParams,
    *,
    sample_period: float | None = None,
) -> Trajectory:
    """Propagate the master equation over one pulse.

    The pulse runs in the frame exp(i E t N) through ``_propagate``, on rho's
    real coordinates in ``_HermitianBasis`` on the basis states that rho0 can
    reach (``_support``; the final state is put back into D x D): on the plateau
    (the whole of a rectangular pulse) a block of samples at a time, by the
    powers of one matrix exponential per sample period; sixth-order Magnus steps
    of ``_ramp_step`` on a sin^2 ramp, each applied as a Taylor polynomial that
    stops on the state's own terms.  The step and the states follow from the
    inputs alone: no argument sets them.

    Parameters
    ----------
    rho0 : ndarray
        Initial density matrix on the composite space, Hermitian to
        ``HERMITICITY_LIMIT``; its shape 2n x 2n fixes the truncation,
        ``HilbertSpec(n)``.
    pulse : PulseSegment
        The coupling pulse; its interaction-picture phase starts at 0 when
        the pulse starts.
    noise : NoiseParams
        Relaxation / dephasing times; pass NO_NOISE for closed evolution.
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
    drifts by more than ``TRACE_DRIFT_LIMIT``, or the plateau exponentials'
    anti-Hermitian round-off (``_Plateau.dropped``) exceeds ``HERMITICITY_LIMIT``.
    ValueError if ``rho0`` is not a 2n x 2n matrix with n >= 2, is not
    Hermitian to ``HERMITICITY_LIMIT``, or has a trace off 1 by more than
    ``TRACE_DRIFT_LIMIT``, or ``sample_period`` is not positive.
    """
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or len(rho0) % 2:
        raise ValueError(f"rho0 must be a 2n x 2n matrix, got shape {rho0.shape}")
    spec = HilbertSpec(len(rho0) // 2)
    # the Hermitian coordinates would drop an anti-Hermitian part without notice
    skew = np.linalg.norm(rho0 - rho0.conj().T)
    if not skew <= HERMITICITY_LIMIT:
        raise ValueError(
            f"rho0 is not Hermitian: |rho0 - rho0^dag| = {skew:.3e} exceeds {HERMITICITY_LIMIT:.0e}"
        )
    # the walk keeps the trace, so the final drift check would refuse it after the whole pulse
    if not trace_error(rho0) <= TRACE_DRIFT_LIMIT:
        trace = np.trace(rho0).real
        raise ValueError(f"rho0 must have trace 1 to {TRACE_DRIFT_LIMIT:.0e}, got {trace:.9g}")
    ws = _workspace(spec)
    recorded = spec.index(DOWN, 1), spec.index(UP, 0)
    # expm refuses a generator that overflows, and the recorder a state
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = ws.coupling(pulse)
        # the walk carries only the states rho0 can reach, and the recorder's two
        jump = (ws.a,) if noise.relaxation_rate > 0.0 else ()
        keep = _support(rho0, recorded, (coupling, *jump))
        whole = len(keep) == spec.dim
        if not whole:
            cut = np.ix_(keep, keep)
            ws = _workspace(spec, tuple(keep))
            coupling, rho0 = coupling[cut], rho0[cut]
        i_dn1, i_up0 = (keep.index(i) for i in recorded)
        recorder = _Recorder(len(keep), i_dn1, i_up0, pulse.duration, sample_period)
        basis = recorder.basis
        l0 = _free_generator(ws, pulse.phase_freq, noise)
        l1 = _commutator(coupling)
        x = basis.coordinates(rho0)
        x, dropped = _propagate(x, l0, l1, pulse, recorder)
        frame = np.exp((1j * pulse.phase_freq * pulse.duration) * ws.excitation_gaps)
        rho = frame * basis.matrices(x)
    traj = recorder.finish(x, rho, pulse.duration)
    if not whole:
        rho = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho[cut] = traj.final_state
        traj.final_state = rho
        # each unreached state adds an exact zero eigenvalue
        np.minimum(traj.min_eigenvalue, 0.0, out=traj.min_eigenvalue)

    drift = trace_error(rho)
    if not math.isfinite(drift) or drift > TRACE_DRIFT_LIMIT:
        raise IntegrationError(f"final trace drift {drift:.3e} exceeds {TRACE_DRIFT_LIMIT:.0e}")
    if not dropped <= HERMITICITY_LIMIT:
        raise IntegrationError(
            f"state is not Hermitian: the plateau exponentials drop an anti-Hermitian part "
            f"of up to {dropped:.3e}, above {HERMITICITY_LIMIT:.0e}"
        )
    return traj


def pulse_duration_for_area(area: float, g_value: float, ramp: float = 0.0) -> float:
    """Duration making the time integral of g(t) equal ``area`` with ramps of ``ramp`` ns.

    Each sin^2 ramp of length r integrates to r/2, half the area of a flat ramp
    of the same length, so the pulse's area is g * (duration - ramp): a ramped
    pulse is the rectangular pulse (ramp 0) lengthened by one ramp time.
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
    return {
        "max_trace_error": float(np.max(np.abs(traj.trace - 1.0))),
        "min_eigenvalue": float(np.min(traj.min_eigenvalue)),
        "final_purity": float(traj.purity[-1]),
    }
