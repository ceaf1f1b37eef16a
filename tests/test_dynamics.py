import dataclasses
import gc
import inspect
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rk4_oracle as rk4
from lab_oracle import build_lab_hamiltonian, evolve_static, purity
from rk4_oracle import interaction_hamiltonian
from topoflux import dynamics
from topoflux.config import resolve
from topoflux.device import ghz_to_angular
from topoflux.dynamics import (
    HERMITICITY_LIMIT,
    NO_NOISE,
    SAMPLE_BLOCK,
    NoiseParams,
    PulseSegment,
    _commutator,
    _free_generator,
    _hermitian_basis,
    _magnus_basis,
    _magnus_coefficients,
    _Recorder,
    _stop_scales,
    _taylor_degree,
    _TaylorSeries,
    _Workspace,
    evolve,
    expm,
    pulse_duration_for_area,
    trajectory_checks,
)
from topoflux.errors import IntegrationError
from topoflux.experiments import initial_state
from topoflux.hilbert import (
    DOWN,
    UP,
    HilbertSpec,
    kron,
    min_eigenvalue,
    pure_density,
)
from topoflux.presets import scenario_preset

TWO_PI = 2.0 * math.pi

# weak-contamination operating point, resolved to rad/ns
G1 = ghz_to_angular(-2.0595918)
GP1 = ghz_to_angular(-1.0439816)
E1 = ghz_to_angular(49.963987)
NOISE1 = NoiseParams(tf1=900.0, tf2=20.0)

SPEC = HilbertSpec(2)


def taylor_series(a, y, theta1, series=None):
    """exp(a) @ y by the ramp walk's Taylor series at the 1-norm bound theta1 (and a's own
    inf-norm), and the degree where it stopped."""
    series = series or _TaylorSeries(y.shape, np.result_type(a, y))
    theta_inf = float(np.max(np.sum(np.abs(a), axis=1)))
    z = series.apply(a, y, _taylor_degree(theta1), _stop_scales(theta1, theta_inf, y.size))
    return z, series.degree


def taylor_degree_rule(theta):
    """The Taylor degree that ``_taylor_degree`` tables, by its rule: the number of remainders
    r_m = theta^(m+1)/(m+1)! e^theta, m = 0 .. 25, above TAYLOR_TOL, each formed as the
    cumulative product theta e^theta (theta/2) ... (theta/(m+1)); theta a float or an array."""
    theta = np.asarray(theta, dtype=float)[..., None]
    factors = theta / np.arange(2.0, dynamics._MAX_DEGREE + 2.0)
    remainders = np.cumprod(np.concatenate((theta * np.exp(theta), factors), axis=-1), axis=-1)
    return np.count_nonzero(remainders > dynamics.TAYLOR_TOL, axis=-1)


def magnus_basis_pairwise(a0, a1):
    """``_magnus_basis`` formed one commutator, two products, at a time: 16 products."""

    def commutator(x, y):
        return x @ y - y @ x

    basis = np.empty((10, *a0.shape), dtype=np.result_type(a0, a1))
    basis[0], basis[1] = a0, a1
    c = basis[2] = commutator(a0, a1)
    d0 = basis[3] = commutator(a0, c)
    d1 = basis[4] = commutator(a1, c)
    for k, (x, y) in enumerate(((a0, d0), (a0, d1), (a1, d1), (c, d0), (c, d1)), start=5):
        basis[k] = commutator(x, y)
    return basis.reshape(10, -1)


def make_pulse(g=G1, g_prime=0.0, phase_freq=0.0, duration=None, **kw):
    if duration is None:
        duration = math.pi / abs(g) if g else 1.0
    return PulseSegment(
        duration=duration, g_value=g, g_prime_value=g_prime, phase_freq=phase_freq, **kw
    )


def envelope_area(pulse, t):
    """The integral of a sin^2-ramped pulse's envelope over [0, t], in closed form: a ramp's
    first u ns integrate to u/2 - r sin(pi u/r)/(2 pi)."""
    r, duration = pulse.ramp, pulse.duration

    def ramp_area(u):
        return u / 2.0 - r * np.sin(np.pi * u / r) / TWO_PI

    rise = ramp_area(np.minimum(t, r))
    flat = np.clip(t - r, 0.0, duration - 2.0 * r)
    fall = r / 2.0 - ramp_area(np.minimum(duration - t, r))
    return rise + flat + fall


class TestHamiltonian:
    def test_exchange_subspace(self):
        # with g' = 0 the only couplings are <down,1|H|up,0> = -g/2 and h.c.
        seg = PulseSegment(duration=1.0, g_value=G1)
        h = interaction_hamiltonian(0.3, seg, SPEC)
        i_dn1, i_up0 = SPEC.index(DOWN, 1), SPEC.index(UP, 0)
        assert h[i_dn1, i_up0] == pytest.approx(-G1 / 2.0)
        assert h[i_up0, i_dn1] == pytest.approx(-G1 / 2.0)
        h2 = h.copy()
        h2[i_dn1, i_up0] = 0.0
        h2[i_up0, i_dn1] = 0.0
        assert np.max(np.abs(h2)) == 0.0

    def test_zero_couplings(self):
        seg = PulseSegment(duration=1.0, g_value=0.0, g_prime_value=0.0, phase_freq=E1)
        h = interaction_hamiltonian(0.7, seg, SPEC)
        assert np.max(np.abs(h)) == 0.0

    @given(
        st.floats(0.0, 10.0),
        st.floats(-30.0, 30.0),
        st.floats(-60.0, 60.0),
        st.floats(0.0, 400.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_hermitian(self, t, g, gp, e):
        seg = PulseSegment(duration=20.0, g_value=g, g_prime_value=gp, phase_freq=e)
        h = interaction_hamiltonian(t, seg, SPEC)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_contamination_couples_same_fock_level(self):
        seg = PulseSegment(duration=1.0, g_value=0.0, g_prime_value=GP1, phase_freq=E1)
        h = interaction_hamiltonian(0.0, seg, SPEC)
        i_dn0, i_up0 = SPEC.index(DOWN, 0), SPEC.index(UP, 0)
        i_dn1, i_up1 = SPEC.index(DOWN, 1), SPEC.index(UP, 1)
        # sigma_f^z gives opposite signs on n = 0 and n = 1
        assert h[i_up0, i_dn0] == pytest.approx(-GP1 / 2.0)
        assert h[i_up1, i_dn1] == pytest.approx(+GP1 / 2.0)


class TestLabFrame:
    def test_decoupled_spectrum(self):
        omega_f, energy = E1, ghz_to_angular(48.0)
        h = build_lab_hamiltonian(omega_f, energy, 0.0, 0.0, SPEC)
        expected = sorted(
            n * omega_f + s * energy / 2.0 for n in range(2) for s in (-1.0, 1.0)
        )
        assert np.allclose(np.linalg.eigvalsh(h), expected)

    def test_hermitian(self):
        h = build_lab_hamiltonian(E1, E1, G1, GP1, SPEC)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_rwa_agreement_over_pi_pulse(self):
        # counter-rotating corrections scale as g/omega_f ~ 0.04
        duration = math.pi / abs(G1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj_i = evolve(
            rho0,
            make_pulse(g=G1, g_prime=GP1, phase_freq=E1),
            NO_NOISE,
            sample_period=duration / 50,
        )
        h_lab = build_lab_hamiltonian(E1, E1, G1, GP1, SPEC)
        traj_l = evolve_static(rho0, h_lab, duration, NO_NOISE, SPEC, sample_period=duration / 50)
        n = min(len(traj_i), len(traj_l))
        d22 = np.max(np.abs(np.real(traj_i.rho22[:n] - traj_l.rho22[:n])))
        d11 = np.max(np.abs(np.real(traj_i.rho11[:n] - traj_l.rho11[:n])))
        assert max(d22, d11) < 0.05


def frame_rhs(rho, pulse, noise, tau=0.0, spec=SPEC):
    """drho'/dt from the generator evolve runs, L0 + env(tau) L1, on the row-major vec(rho')."""
    ws = _Workspace(spec)
    gen = _free_generator(ws, pulse.phase_freq, noise)
    gen = gen + pulse.envelope(tau) * _commutator(ws.coupling(pulse))
    return (gen @ rho.reshape(-1)).reshape(rho.shape)


class TestLindbladRhs:
    def test_generator_is_trace_free(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        seg = PulseSegment(duration=1.0, g_value=G1, g_prime_value=GP1, phase_freq=E1, ramp=0.4)
        out = frame_rhs(rho, seg, NOISE1, tau=0.2)
        assert abs(np.trace(out)) < 1e-12

    def test_dark_state_zero_derivative(self):
        rho = pure_density(SPEC.ket(DOWN, 0))
        seg = PulseSegment(duration=1.0, g_value=G1, phase_freq=E1)
        out = frame_rhs(rho, seg, NOISE1)
        assert np.max(np.abs(out)) < 1e-14

    def test_population_decay_rate(self):
        # H = 0: d rho11/dt = -rho11 / tf1
        rho = pure_density(SPEC.ket(DOWN, 1))
        out = frame_rhs(rho, PulseSegment(duration=1.0, g_value=0.0), NOISE1)
        i_dn1 = SPEC.index(DOWN, 1)
        i_dn0 = SPEC.index(DOWN, 0)
        assert out[i_dn1, i_dn1].real == pytest.approx(-1.0 / 900.0, rel=1e-12)
        assert out[i_dn0, i_dn0].real == pytest.approx(+1.0 / 900.0, rel=1e-12)

    def test_coherence_decay_rate(self):
        # H = 0: the up0/down1 coherence decays at 1/(2 tf1) + 2/tf2
        psi = (SPEC.ket(UP, 0) + SPEC.ket(DOWN, 1)) / math.sqrt(2.0)
        rho = pure_density(psi)
        out = frame_rhs(rho, PulseSegment(duration=1.0, g_value=0.0), NOISE1)
        i_up0, i_dn1 = SPEC.index(UP, 0), SPEC.index(DOWN, 1)
        expected = -(1.0 / (2.0 * 900.0) + 2.0 / 20.0) * rho[i_up0, i_dn1]
        assert out[i_up0, i_dn1] == pytest.approx(expected, rel=1e-12)

    def test_matches_oracle_rhs_at_the_frame_start(self):
        # rho = V rho' V^dag with V(0) = 1 gives drho/dt = drho'/dt + i[E N, rho] at t = 0
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        seg = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        nx = _Workspace(SPEC).excitation_diag
        lab = frame_rhs(rho, seg, NOISE1) + 1j * E1 * np.subtract.outer(nx, nx) * rho
        expected = rk4.lindblad_rhs(rho, interaction_hamiltonian(0.0, seg, SPEC), NOISE1, SPEC)
        assert np.max(np.abs(lab - expected)) < 1e-12


class TestEvolve:
    def test_rabi_oracle(self):
        # noise off, g' = 0: rho22(t) = cos^2(|g| t / 2) exactly
        duration = TWO_PI / abs(G1)
        pulse = make_pulse(duration=duration)
        traj = evolve(
            pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, sample_period=duration / 50
        )
        expected = np.cos(np.abs(G1) * traj.times / 2.0) ** 2
        assert np.max(np.abs(np.real(traj.rho22) - expected)) < 1e-6

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("ramp", [0.02, 0.05, 0.1])
    def test_ramped_rabi_oracle(self, ramp, levels):
        # noise off, g' = 0: rho22(t) = cos^2(A(t)/2) with A(t) the area so far
        spec = HilbertSpec(levels)
        duration = pulse_duration_for_area(-math.pi, G1, ramp)
        pulse = make_pulse(duration=duration, ramp=ramp)
        traj = evolve(
            pure_density(spec.ket(UP, 0)), pulse, NO_NOISE, sample_period=duration / 50
        )
        expected = np.cos(G1 * envelope_area(pulse, traj.times) / 2.0) ** 2
        assert np.max(np.abs(np.real(traj.rho22) - expected)) < 1e-12

    @pytest.mark.parametrize("levels", [2, 4])
    @pytest.mark.parametrize("ramp, area", [(0.05, 1), (0.2, 3)], ids=["pi", "3pi"])
    def test_ramped_rabi_at_the_operating_point(self, ramp, area, levels):
        # as above at fig2a's g and E (G1, E1), sampled every duration/200: rho22 =
        # cos^2(A(t)/2) and rho11 = sin^2(A(t)/2) at every sample.  Measured at most
        # 2.4e-14, on the 3 pi pulse; a dropped or repeated ramp piece moves the area of
        # every later sample by one piece
        spec = HilbertSpec(levels)
        duration = pulse_duration_for_area(-area * math.pi, G1, ramp)
        pulse = make_pulse(duration=duration, phase_freq=E1, ramp=ramp)
        traj = evolve(pure_density(spec.ket(UP, 0)), pulse, NO_NOISE)
        half = G1 * envelope_area(pulse, traj.times) / 2.0
        assert np.max(np.abs(np.real(traj.rho22) - np.cos(half) ** 2)) < 1e-12
        assert np.max(np.abs(np.real(traj.rho11) - np.sin(half) ** 2)) < 1e-12

    def test_dark_state_stationary(self):
        pulse = make_pulse(duration=10.0)
        traj = evolve(pure_density(SPEC.ket(DOWN, 0)), pulse, NOISE1, sample_period=5.0)
        dev = np.max(np.abs(traj.final_state - pure_density(SPEC.ket(DOWN, 0))))
        assert dev < 1e-9

    def test_noise_free_purity(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NO_NOISE, sample_period=pulse.duration / 100)
        assert np.max(np.abs(traj.purity - 1.0)) < 1e-7

    def test_invariants_with_noise(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NOISE1, sample_period=pulse.duration / 100)
        checks = trajectory_checks(traj)
        assert checks["max_trace_error"] < 1e-7
        f = traj.final_state
        assert np.max(np.abs(f - f.conj().T)) < 1e-9
        assert checks["min_eigenvalue"] > -1e-8

    def test_transfer_fidelity_with_noise(self):
        # pi pulse with decoherence lands near 0.993
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NOISE1, sample_period=pulse.duration / 100)
        i_dn1 = SPEC.index(DOWN, 1)
        assert traj.final_state[i_dn1, i_dn1].real == pytest.approx(0.993, abs=0.005)

    def test_trajectories_compare_by_identity(self):
        # a Trajectory holds arrays, whose == gives no single truth value, so == is
        # identity: two runs with and without noise, equal in shape, compare unequal
        rho0, pulse = pure_density(SPEC.ket(UP, 0)), make_pulse()
        quiet, noisy = evolve(rho0, pulse, NO_NOISE), evolve(rho0, pulse, NOISE1)
        assert len(quiet) == len(noisy)
        assert quiet == quiet and quiet != noisy and not quiet == evolve(rho0, pulse, NO_NOISE)

    def test_trace_drift_error(self):
        # sigma_f^z is zero on n >= 2, so at 3 levels dephasing drains the
        # trace: a 25 ns altParams pulse loses 3.8e-6 of it
        raw = scenario_preset("altParams")
        raw["pulse"]["areaOverPi"] = -101.0
        raw["hilbert"] = {"fockLevels": 3}
        scn = resolve(raw)
        with pytest.raises(IntegrationError, match="trace drift"):
            evolve(initial_state(scn.spec), scn.pulse, scn.noise)

    def test_rho0_must_be_hermitian(self):
        # the Hermitian coordinates would drop rho0's anti-Hermitian part
        rho0 = pure_density(SPEC.ket(UP, 0))
        pulse = make_pulse()
        rho0[0, 1] = 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(rho0, pulse, NO_NOISE)
        rho0[0, 1] = 1e-10  # |rho0 - rho0^dag|_F = 1.4e-10
        assert len(evolve(rho0, pulse, NO_NOISE)) == 201

    @pytest.mark.parametrize("factor", [2.0, 0.0, 1.0 + 2e-6, 1.0 - 2e-6])
    def test_rho0_must_have_trace_one(self, factor, monkeypatch):
        # the walk keeps the trace, so an rho0 off 1 is refused before any step, not after
        # the whole pulse by the final drift check
        rho0, pulse = factor * pure_density(SPEC.ket(UP, 0)), make_pulse()

        def walk(*args):
            raise AssertionError("walked")

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_propagate", walk)
            with pytest.raises(ValueError, match=rf"trace 1 to 1e-06, got {factor:.9g}$"):
                evolve(rho0, pulse, NOISE1)
        # within TRACE_DRIFT_LIMIT of 1 the run goes on, and keeps that trace
        rho0 = (1.0 + 0.5e-6) * pure_density(SPEC.ket(UP, 0))
        assert abs(evolve(rho0, pulse, NOISE1).trace[-1] - (1.0 + 0.5e-6)) < 1e-12

    @pytest.mark.parametrize(
        "shape",
        [(), (4,), (4, 6), (5, 5), (2, 2), (0, 0), (4, 4, 4)],
        ids=["0-d", "1-d", "non-square", "odd", "2x2", "0x0", "3-d"],
    )
    def test_rho0_must_be_2n_by_2n(self, shape):
        # rho0's shape fixes the truncation, HilbertSpec(n) for 2n x 2n, and n >= 2
        with pytest.raises(ValueError, match="2n x 2n|n_fock must be >= 2"):
            evolve(np.zeros(shape, dtype=complex), make_pulse(), NO_NOISE)

    def test_truncation_is_read_from_rho0(self):
        # no argument sets it: a truncation passed after the noise is refused at the call
        params = inspect.signature(evolve).parameters
        assert list(params) == ["rho0", "pulse", "noise", "sample_period"]
        assert params["sample_period"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError, match="3 positional arguments"):
            evolve(pure_density(SPEC.ket(UP, 0)), make_pulse(), NO_NOISE, SPEC)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_rho0_is_left_unchanged(self, levels):
        # fidelities shares one rho0 across its points.  From |up,0> the walk keeps every
        # state at 2 levels and a cut of 5 at 3
        scn, pulse = rectangular("fig2a", levels)
        rho0 = initial_state(scn.spec)
        before = rho0.copy()
        evolve(rho0, pulse, scn.noise)
        assert np.array_equal(rho0, before)

    @pytest.mark.parametrize("share, refused", [(0.9, False), (1.1, True)])
    def test_plateau_round_off_is_refused(self, share, refused, monkeypatch):
        # i eps 1 added to each plateau exponential is imaginary in the Hermitian basis,
        # with 1-norm eps; the pulse applies it once per sample, 200 times in all
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        eps = share * HERMITICITY_LIMIT / 200
        exact = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda a: exact(a) + 1j * eps * np.eye(len(a)))
        if refused:
            with pytest.raises(IntegrationError, match="not Hermitian"):
                evolve(rho0, pulse, NOISE1)
        else:
            assert len(evolve(rho0, pulse, NOISE1)) == 201

    def test_static_divergence_error(self):
        # a non-finite generator is refused before it is exponentiated, and a
        # non-finite state by the oracle's finite-state check, which names
        # the first sample that is not finite
        rho0 = pure_density(SPEC.ket(UP, 0))
        h = interaction_hamiltonian(0.0, PulseSegment(1.0, g_value=1.0), SPEC)
        with pytest.raises(IntegrationError):
            evolve_static(rho0, h * np.nan, 1.0, NO_NOISE, SPEC)
        with pytest.raises(IntegrationError, match=r"diverged by t=0 ns"):
            evolve_static(np.full_like(rho0, np.nan), h, 1.0, NO_NOISE, SPEC)

    def test_static_matches_evolve_for_rectangular_pulse(self):
        # g' = 0 and a flat envelope make H constant: evolve propagates it in
        # the frame exp(i E t N) and evolve_static in the lab frame, both
        # exactly and at the same sample times
        duration = math.pi / abs(G1)
        sample_period = duration / 37
        pulse = make_pulse(duration=duration)
        rho0 = pure_density(SPEC.ket(UP, 0))
        a = evolve(rho0, pulse, NOISE1, sample_period=sample_period)
        h = interaction_hamiltonian(0.0, pulse, SPEC)
        b = evolve_static(rho0, h, duration, NOISE1, SPEC, sample_period=sample_period)
        assert len(a) == len(b)
        assert np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.final_state - b.final_state)) < 1e-10

    def test_larger_truncation_matches_two_level(self):
        # from |up,0> the exchange never populates n >= 2; N = 4 must agree closely
        spec4 = HilbertSpec(4)
        rho0_4 = pure_density(spec4.ket(UP, 0))
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        t4 = evolve(rho0_4, pulse, NOISE1, sample_period=1.0)
        t2 = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NOISE1, sample_period=1.0)
        f4 = t4.final_state[spec4.index(DOWN, 1), spec4.index(DOWN, 1)].real
        f2 = t2.final_state[SPEC.index(DOWN, 1), SPEC.index(DOWN, 1)].real
        assert f4 == pytest.approx(f2, abs=5e-4)


def operating_point(name, ramp, levels, overrides=None):
    """The preset's resolved scenario with a sin^2 ramp, and its pulse.

    A 1 ns ramp needs |area/g| >= 1 ns, so it runs a 5 pi pulse.
    """
    raw = scenario_preset(name)
    area = -5.0 if ramp > 0.5 else -1.0
    raw["pulse"] = {"areaOverPi": area, "shape": "sinSquaredRamp", "rampTime_ns": ramp}
    raw["hilbert"] = {"fockLevels": levels}
    if overrides:
        raw["overrides"] = overrides
    scn = resolve(raw)
    return scn, scn.pulse


def ramps_that_meet(levels):
    """fig2a's 0.05 ns ramped pulse with ramp = duration / 2: all ramp, no plateau."""
    scn, pulse = operating_point("fig2a", 0.05, levels)
    return scn, dataclasses.replace(pulse, ramp=pulse.duration / 2)


def plan_oracle(pulse, h, period, n_samples, skip):
    """The steps of the ramp walk, as ``_ramp_plan`` gives them, one interval and one step at
    a time in plain Python: (first, a, s, i, on_ramp) for step i of length s of the piece
    from a, first the sample interval k at its first step, else -1."""
    duration, ramp = pulse.duration, pulse.ramp
    end, last, steps = duration - ramp, n_samples - 1, []
    for k in range(n_samples):
        if k in skip:
            continue
        t0 = k * period
        t1 = duration if k == last else t0 + period
        cuts = [c for c in dict.fromkeys((ramp, end)) if t0 < c < t1]
        for a, b in zip([t0, *cuts], [*cuts, t1]):
            on_ramp = not (ramp <= a and b <= end)
            n = math.ceil((b - a) / h) if on_ramp else 1
            for i in range(n):
                steps.append((k, a, (b - a) / n, i, on_ramp))
                k = -1
    return steps


# (preset, ramp ns, fockLevels, noise on, RK4 step ns, overrides).  Each ramp
# meets both operating points and both noise settings, and every truncation
# meets both noise settings.  Each RK4 step keeps the oracle's own error
# within 2e-11 (measured against steps 2-4 times shorter); altParams, with
# g' = 3g, needs 5e-5 ns where fig2a's 1 ns ramp does with 1e-4.  The
# g' = 300 rad/ns case checks that the ramp step shrinks with the coupling;
# its RK4 steps leave about 6e-12.  In the last case every ramp step's
# 1-norm bound lies in 1.08-1.14, so it checks the Taylor series above 1
# (a 0.05 ns ramp's 3-step sample pieces keep the bound below 0.94).
RAMPED_CASES = [
    ("fig2a", 0.02, 3, True, 5e-5, None),
    ("fig2a", 0.05, 4, False, 5e-5, None),
    ("fig2a", 0.2, 3, False, 5e-5, None),
    ("fig2a", 1.0, 2, True, 1e-4, None),
    ("altParams", 0.02, 2, False, 5e-5, None),
    ("altParams", 0.05, 4, True, 5e-5, None),
    ("altParams", 0.2, 2, True, 5e-5, None),
    ("altParams", 1.0, 2, False, 5e-5, None),
    ("fig2a", 0.05, 2, False, 1.25e-5, {"gPrime_GHz": -300.0 / ghz_to_angular(1.0)}),
    ("fig2a", 0.1, 6, True, 5e-5, None),
]


class TestExactPropagation:
    @pytest.mark.parametrize("noise", [NOISE1, NO_NOISE], ids=["noise", "closed"])
    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_matches_rk4(self, levels, noise):
        # the RK4 oracle at its default step, on the weak-contamination pi pulse
        spec = HilbertSpec(levels)
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        starts = [pure_density(spec.ket(UP, 0))]
        if levels == 3 and noise is NO_NOISE:
            # a full-rank state keeps every basis state: the whole closed map, g' and E on
            rng = np.random.default_rng(7)
            m = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
            starts.append(m @ m.conj().T / np.trace(m @ m.conj().T))
        for rho0 in starts:
            exact = evolve(rho0, pulse, noise).final_state
            assert np.max(np.abs(exact - rk4.final_state(rho0, pulse, noise, spec))) < 1e-10
            # rebuilt from real coordinates, the final state is Hermitian bit for bit
            assert np.array_equal(exact, exact.conj().T)

    @pytest.mark.parametrize("name, ramp, levels, noisy, dt, overrides", RAMPED_CASES)
    def test_ramped_matches_rk4(self, name, ramp, levels, noisy, dt, overrides):
        scn, pulse = operating_point(name, ramp, levels, overrides)
        noise = scn.noise if noisy else NO_NOISE
        rho0 = initial_state(scn.spec)
        magnus = evolve(rho0, pulse, noise).final_state
        assert np.max(np.abs(magnus - rk4.final_state(rho0, pulse, noise, scn.spec, dt))) < 1e-10
        assert np.array_equal(magnus, magnus.conj().T)

    @pytest.mark.parametrize("samples", [600, 7.5])
    @pytest.mark.parametrize("levels", [2, 4])
    def test_ramps_that_meet_match_rk4(self, levels, samples):
        # all ramp, so no plateau run: the ramps meet at the 300th of 600 samples, or inside
        # the fourth of 7.5 sample intervals
        scn, pulse = ramps_that_meet(levels)
        rho0 = initial_state(scn.spec)
        magnus = evolve(rho0, pulse, scn.noise, sample_period=pulse.duration / samples).final_state
        oracle = rk4.final_state(rho0, pulse, scn.noise, scn.spec, 5e-5)
        assert np.max(np.abs(magnus - oracle)) < 1e-10

    def test_magnus_expansion_matches_the_scheme(self):
        # Omega over the 10 fixed matrices equals the scheme's matrix form
        rng = np.random.default_rng(11)
        a0, a1 = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2))
        s = 0.3
        e = rng.random(3)
        a = [a0 + ei * a1 for ei in e]

        def comm(x, y):
            return x @ y - y @ x

        alpha1 = s * a[1]
        alpha2 = (math.sqrt(15.0) / 3.0) * s * (a[2] - a[0])
        alpha3 = (10.0 / 3.0) * s * (a[2] - 2.0 * a[1] + a[0])
        c1 = comm(alpha1, alpha2)
        c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
        omega = alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
        coef = _magnus_coefficients(s, *(np.array([ei]) for ei in e))
        expanded = (coef @ _magnus_basis(a0, a1)).reshape(6, 6)
        assert np.max(np.abs(expanded - omega)) <= 1e-14 * np.max(np.abs(omega))
        assert np.array_equal(_magnus_basis(a0, a1), magnus_basis_pairwise(a0, a1))

    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
    @pytest.mark.parametrize("levels", [2, 3, 6])
    def test_magnus_basis_matches_the_pairwise_commutators(self, levels, noisy, monkeypatch):
        # the walk's basis is the oracle's, bit for bit, on the generators of the fig2a
        # 0.05 ns ramp
        scn, pulse = operating_point("fig2a", 0.05, levels)
        noise = scn.noise if noisy else NO_NOISE
        magnus_basis, generators = dynamics._magnus_basis, []

        def spy(a0, a1, out):
            basis = magnus_basis(a0, a1, out)
            generators.append((a0, a1, basis.copy()))
            return basis

        monkeypatch.setattr(dynamics, "_magnus_basis", spy)
        evolve(initial_state(scn.spec), pulse, noise)
        [(a0, a1, basis)] = generators
        assert a0.dtype == a1.dtype == float
        # written in place into the walk's scratch, as into a new array
        assert np.array_equal(basis, magnus_basis_pairwise(a0, a1))
        assert np.array_equal(magnus_basis(a0, a1), basis)

    def test_ramp_steps_are_sixth_order(self, monkeypatch):
        # one sample, so each ramp is one piece of exactly RAMP_STEPS steps:
        # halving the step cuts the error 63-fold; a fourth-order step gives 16
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        monkeypatch.setattr(dynamics, "MAX_PHASE_STEP", math.inf)

        def final_state(steps):
            monkeypatch.setattr(dynamics, "RAMP_STEPS", steps)
            return evolve(rho0, pulse, scn.noise, sample_period=pulse.duration).final_state

        reference = final_state(256)
        coarse, fine = (np.max(np.abs(final_state(n) - reference)) for n in (16, 32))
        assert fine > 1e-11
        assert coarse >= 32.0 * fine

    def test_omega_blocks_split_a_piece(self, monkeypatch):
        # one sample, so each ramp is one piece of 82 steps; Omega chunks of 4
        # steps (the floor under the 3 steps' entries set here) give the state
        # of one chunk per block of steps
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        whole = evolve(rho0, pulse, scn.noise, sample_period=pulse.duration).final_state
        monkeypatch.setattr(dynamics, "OMEGA_BLOCK_ENTRIES", 3 * scn.spec.dim**4)
        split = evolve(rho0, pulse, scn.noise, sample_period=pulse.duration).final_state
        assert np.max(np.abs(split - whole)) < 1e-14

    def test_steps_above_the_taylor_bound_take_expm(self, monkeypatch):
        # with no step under the bound, every ramp step is an expm, which the
        # Taylor series matches
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        taylor = evolve(rho0, pulse, scn.noise).final_state
        monkeypatch.setattr(dynamics, "TAYLOR_MAX_NORM", 0.0)
        monkeypatch.setattr(_TaylorSeries, "apply", None)
        exponentials = evolve(rho0, pulse, scn.noise).final_state
        assert np.max(np.abs(exponentials - taylor)) < 1e-14

    def test_steps_above_the_taylor_bound_take_a_real_expm(self, monkeypatch):
        # the fig2a 0.05 ns pulse at 6 levels from |up,5>: relaxation and the exchange reach
        # all 12 states, where the two plateau pieces that share a sample interval with a
        # ramp have 1-norm bounds above TAYLOR_MAX_NORM (2.33).  Each takes the real expm of
        # its Omega, as a ramp step would, and the plateau's sample intervals share the one
        # complex expm.  (From |up,0> the walk keeps 5 states, where they stay under it.)
        # Dephasing is off: it drains the trace from levels n >= 2
        scn, pulse = operating_point("fig2a", 0.05, 6)
        noise = dataclasses.replace(scn.noise, tf2=math.inf)
        exponential, norms = dynamics.expm, {}

        def spy(a):
            norms.setdefault(a.dtype.kind, []).append(np.linalg.norm(a, 1))
            return exponential(a)

        monkeypatch.setattr(dynamics, "expm", spy)
        evolve(pure_density(scn.spec.ket(UP, 5)), pulse, noise)
        assert len(norms["c"]) == 1 and len(norms["f"]) == 2
        assert min(norms["f"]) > dynamics.TAYLOR_MAX_NORM

    @pytest.mark.parametrize("block", [None, 8], ids=["default-block", "8-step-block"])
    def test_ramp_steps_are_formed_a_block_at_a_time(self, block, monkeypatch):
        # the benchmark's fig2a 0.05 ns ramp at 2 levels, sampled every duration/200:
        # 70 sample pieces of about 3 steps, 206 steps in all, plus the two plateau
        # pieces that share a sample interval with a ramp, one step each.  Their
        # coefficients are formed once per block of steps, not once per piece, and
        # blocks that cut pieces give the same state.  The Taylor series stops on
        # the state's own terms, at 10.5 powers a step (13 at the 1-norm bounds),
        # and the plateau's sample intervals share the one expm
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        whole = evolve(rho0, pulse, scn.noise).final_state
        if block is not None:
            monkeypatch.setattr(dynamics, "RAMP_BLOCK_STEPS", block)
        rows, ramp_rows, degrees, exponentials = [], [], [], []
        coefficients, apply, exponential = (
            dynamics._magnus_coefficients,
            _TaylorSeries.apply,
            dynamics.expm,
        )

        def count_coefficients(s, e1, e2, e3):
            coef = coefficients(s, e1, e2, e3)
            rows.append(len(coef))
            # a plateau step's envelope is 1 at its nodes, a ramp step's is below 1 at its middle one
            ramp_rows.append(np.count_nonzero(e2 < 1.0))
            return coef

        def count_apply(series, *args):
            y = apply(series, *args)
            degrees.append(series.degree)
            return y

        def count_expm(a):
            exponentials.append(1)
            return exponential(a)

        monkeypatch.setattr(dynamics, "_magnus_coefficients", count_coefficients)
        monkeypatch.setattr(_TaylorSeries, "apply", count_apply)
        monkeypatch.setattr(dynamics, "expm", count_expm)
        split = evolve(rho0, pulse, scn.noise).final_state
        assert sum(ramp_rows) == 206
        assert len(degrees) == sum(rows) == 206 + 2
        assert len(rows) == math.ceil((206 + 2) / dynamics.RAMP_BLOCK_STEPS)
        assert np.mean(degrees) <= 11
        assert len(exponentials) == 1
        assert np.max(np.abs(split - whole)) < 1e-14

    def test_ramp_steps_make_no_numpy_module_calls(self, monkeypatch):
        # numpy's function dispatch costs about as much as a product on a state of 16 to
        # 64 reals, so a Taylor step calls ndarray methods only.  The fig2a 0.2 ns ramp at
        # 2 levels takes 726 Taylor steps; the lookups on the module (block set-up, Omega
        # chunks, plateau exponentials, the recorder) stay fewer than the steps, where
        # np.dot, np.vdot and np.copyto made about 15 lookups a step
        scn, pulse = operating_point("fig2a", 0.2, 2)
        lookups, steps, apply = [], [], _TaylorSeries.apply

        class CountingNumpy:
            def __getattr__(self, name):
                lookups.append(name)
                return getattr(np, name)

        def count_apply(series, *args):
            steps.append(1)
            return apply(series, *args)

        monkeypatch.setattr(dynamics, "np", CountingNumpy())
        monkeypatch.setattr(_TaylorSeries, "apply", count_apply)
        evolve(initial_state(scn.spec), pulse, scn.noise)
        assert len(steps) == 726
        assert len(lookups) < len(steps)

    def test_sample_times_are_multiples_of_the_period(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        period = pulse.duration / 7.5  # a remainder of half a period
        traj = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NOISE1, sample_period=period)
        assert np.array_equal(traj.times[:-1], np.arange(8) * period)
        assert traj.times[-1] == pulse.duration

    @pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 1e1, 1e2, 1e3])
    @pytest.mark.parametrize("dim", [4, 16])
    def test_expm_matches_eigh(self, norm, dim):
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = m + m.conj().T
        h *= norm / np.linalg.norm(h, 1)
        w, v = np.linalg.eigh(h)
        assert np.max(np.abs(expm(-1j * h) - (v * np.exp(-1j * w)) @ v.conj().T)) < 1e-10

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.3, 1.0, 2.0])
    def test_taylor_series_matches_expm(self, norm):
        # a ramp step's series, stopped on its own terms under its 1-norm bound's degree
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a *= norm / np.linalg.norm(a, 1)
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        z, degree = taylor_series(a, y, norm)
        assert degree <= _taylor_degree(norm)
        assert np.max(np.abs(z - expm(a) @ y)) < 1e-14

    @pytest.mark.parametrize("norm", [0.1, 1.0, 2.0])
    def test_taylor_series_of_a_matrix_matches_expm(self, norm):
        # the series takes y of any shape: here a D x D matrix
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a *= norm / np.linalg.norm(a, 1)
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        z, degree = taylor_series(a, y, norm)
        assert degree <= _taylor_degree(norm)
        assert np.max(np.abs(z - expm(a) @ y)) < 1e-14

    def test_taylor_degree(self):
        assert [_taylor_degree(t) for t in (0.0, 1e-3, 0.1, 1.0, 2.0)] == [0, 4, 10, 19, 25]

    def test_taylor_degree_table_follows_its_rule(self):
        # the table gives the rule's degree on a dense log grid up to TAYLOR_MAX_NORM, and on
        # both sides of every tabled 1-norm, where the degree steps up by one
        grid = np.geomspace(5e-324, dynamics.TAYLOR_MAX_NORM, 200_001)
        assert np.array_equal(_taylor_degree(grid), taylor_degree_rule(grid))
        norms = np.array(dynamics._DEGREE_NORMS)
        assert len(norms) == dynamics._MAX_DEGREE and np.all(np.diff(norms) > 0)
        below, above = np.nextafter(norms, 0.0), np.nextafter(norms, np.inf)
        for theta in (below, norms, above):
            assert np.array_equal(_taylor_degree(theta), taylor_degree_rule(theta))
        assert np.array_equal(taylor_degree_rule(norms), np.arange(dynamics._MAX_DEGREE))
        assert np.array_equal(taylor_degree_rule(above), np.arange(1, dynamics._MAX_DEGREE + 1))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.3, 1.0, 2.0])
    def test_taylor_series_meets_its_bound(self, norm):
        # a cyclic shift with unit phases keeps |a^k y|_1 = norm^k |y|_1, so the
        # dropped terms are as large as the degree's bound allows.  Summed in
        # extended precision, the series stays within 1e-17 |y|_1 of exp(a) y;
        # two terms fewer miss it by 1.6e-16 |y|_1 at norm 1.
        n = 16
        rng = np.random.default_rng(5)
        phases = np.exp(2j * np.pi * rng.random(n))
        a = (norm * np.roll(np.eye(n), 1, axis=0) * phases).astype(np.clongdouble)
        y = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.clongdouble)
        term, exact = y, y
        for k in range(1, 60):
            term = (a @ term) / k
            exact = exact + term
        z, degree = taylor_series(a, y, norm)
        assert degree <= _taylor_degree(norm)
        error = np.sum(np.abs(z - exact))
        assert error <= 1e-17 * np.sum(np.abs(y))

    def test_taylor_series_stops_on_fast_decaying_terms(self):
        # a has 1- and inf-norm 1 (degree 19), but y lies where a is 2.9e-6, so
        # (e - 1) |a^j y|_2 / j! is 7.0e-18 |y|_2 at j = 3 and 5.1e-24 |y|_2 at 4:
        # under 1e-17 |y|_2 / sqrt(4) first at degree 4
        a = np.diag([1.0, 2.9e-6, 2.9e-6, 1.0]).astype(complex)
        y = np.array([0.0, 1.0, 1j, 0.0])
        series = _TaylorSeries(y.shape, complex)
        z, degree = taylor_series(a, y, 1.0, series)
        assert degree == 4
        assert np.max(np.abs(z - np.exp(np.diag(a)) * y)) < 1e-15
        # a step whose terms need more goes on past where the last one stopped,
        # and the next step checks first where that one stopped
        w = np.array([1.0, 0.0, 0.0, 1.0j])
        z, slow = taylor_series(a, w, 1.0, series)
        assert degree < slow <= _taylor_degree(1.0)
        assert np.max(np.abs(z - np.exp(np.diag(a)) * w)) < 1e-15
        assert taylor_series(a, y, 1.0, series)[1] == slow

    @pytest.mark.parametrize("theta", [0.0, 5e-324], ids=["zero", "subnormal"])
    def test_taylor_series_of_a_vanishing_step(self, theta):
        # Omega = 0, or one of subnormal norm, is degree 0: y comes back unchanged, after a
        # step that stopped at a higher degree, in memory apart from y's.  The walk hands
        # each result to the next step, and the result holds through that step
        rng = np.random.default_rng(3)
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        series = _TaylorSeries(y.shape, complex)
        series.degree = 9
        a = theta * np.roll(np.eye(16), 1, axis=0).astype(complex)
        z, degree = taylor_series(a, y, theta, series)
        assert degree == 0
        assert np.array_equal(z, y)
        assert not np.shares_memory(z, y)
        kept = z.copy()
        b = np.roll(np.eye(16), 1, axis=0).astype(complex)
        w, _ = taylor_series(b, z, 1.0, series)
        assert np.array_equal(z, kept)
        assert not np.shares_memory(w, z)
        assert np.max(np.abs(w - expm(b) @ kept)) < 1e-14

    def test_walk_takes_its_taylor_results_from_two_buffers(self, monkeypatch):
        # the fig2a 0.05 ns ramp at 2 levels: every Taylor step writes its result into one
        # of the series' own two buffers, so the walk's 208 steps allocate no state
        scn, pulse = operating_point("fig2a", 0.05, 2)
        apply, results = _TaylorSeries.apply, []

        def spy(series, *args):
            z = apply(series, *args)
            results.append((series, z))
            return z

        monkeypatch.setattr(_TaylorSeries, "apply", spy)
        evolve(initial_state(scn.spec), pulse, scn.noise)
        assert len(results) == 208
        series = results[0][0]
        assert all(s is series for s, _ in results)
        assert len(series.buffers) == 2
        assert all(any(np.shares_memory(z, b) for b in series.buffers) for _, z in results)
        assert len({z.__array_interface__["data"][0] for _, z in results}) == 2

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    def test_expm_refuses_non_finite_generator(self, value):
        with pytest.raises(IntegrationError):
            expm(np.full((2, 2), value))


def kept_states(monkeypatch, rho0, pulse, noise):
    """The basis states that evolve(rho0, pulse, noise) walks on, as (spin, n) pairs, and
    its trajectory."""
    support, kept = dynamics._support, []

    def spy(*args):
        kept.append(support(*args))
        return kept[-1]

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_support", spy)
        traj = evolve(rho0, pulse, noise)
    return {divmod(i, len(rho0) // 2) for i in kept[0]}, traj


# the states the exchange, the contamination and the jump a reach from |up,0>
FROM_UP0 = {(UP, 0), (DOWN, 0), (DOWN, 1), (UP, 1), (DOWN, 2)}


class TestSupport:
    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
    def test_states_reached_from_up0(self, levels, monkeypatch):
        scn, pulse = operating_point("fig2a", 0.05, levels)
        kept, _ = kept_states(monkeypatch, initial_state(scn.spec), pulse, scn.noise)
        assert kept == {(s, n) for s, n in FROM_UP0 if n < levels}

    @pytest.mark.parametrize(
        "g_prime, noise, kept",
        [
            # without relaxation the contamination still reaches all five
            (GP1, NoiseParams(tf2=20.0), FROM_UP0),
            # relaxation carries |down,1> to |down,0>
            (0.0, NOISE1, {(UP, 0), (DOWN, 1), (DOWN, 0)}),
            (0.0, NO_NOISE, {(UP, 0), (DOWN, 1)}),
        ],
        ids=["dephasing-only", "exchange-and-relaxation", "exchange-only"],
    )
    def test_smaller_without_contamination_or_relaxation(
        self, g_prime, noise, kept, monkeypatch
    ):
        # each against the RK4 oracle on all 6 states of 3 levels
        spec = HilbertSpec(3)
        pulse = make_pulse(g=G1, g_prime=g_prime, phase_freq=E1)
        rho0 = pure_density(spec.ket(UP, 0))
        got, traj = kept_states(monkeypatch, rho0, pulse, noise)
        assert got == kept
        oracle = rk4.final_state(rho0, pulse, noise, spec)
        assert np.max(np.abs(traj.final_state - oracle)) < 1e-10

    def test_follows_rho0(self, monkeypatch):
        # (|up,0> + |down,3>)/sqrt(2) at 4 levels: the exchange joins |down,3> to |up,2>,
        # relaxation walks both down their ladders; nothing reaches |up,3>.  Dephasing is
        # off: it drains the trace from levels n >= 2
        scn, pulse = operating_point("fig2a", 0.05, 4)
        spec, noise = scn.spec, dataclasses.replace(scn.noise, tf2=math.inf)
        rho0 = pure_density((spec.ket(UP, 0) + spec.ket(DOWN, 3)) / math.sqrt(2.0))
        kept, traj = kept_states(monkeypatch, rho0, pulse, noise)
        assert kept == FROM_UP0 | {(DOWN, 3), (UP, 2)}
        oracle = rk4.final_state(rho0, pulse, noise, spec, 5e-5)
        assert np.max(np.abs(traj.final_state - oracle)) < 1e-10

    @pytest.mark.parametrize("levels", [3, 4, 6])
    def test_matches_the_walk_on_every_state(self, levels, monkeypatch):
        # the fig2a 0.05 ns ramp on its 5 states against the walk on all 2 * levels,
        # whose unreached states hold exact zeros
        scn, pulse = operating_point("fig2a", 0.05, levels)
        args = (initial_state(scn.spec), pulse, scn.noise)
        kept = evolve(*args)
        monkeypatch.setattr(dynamics, "_support", lambda rho0, *_: list(range(len(rho0))))
        every = evolve(*args)
        assert largest_difference(kept, every) < 1e-14
        assert np.array_equal(kept.times, every.times)

    def test_columns_are_the_reductions_of_the_embedded_states(self, monkeypatch):
        # the fig2a 0.05 ns ramp at 4 levels keeps 5 of 8 states: each sample, put back
        # into 8 x 8, gives the trace, purity and smallest eigenvalue (one of the three
        # exact zeros, or below) that the trajectory holds
        scn, pulse = operating_point("fig2a", 0.05, 4)
        rows, states = _Recorder.rows, []

        def keep(recorder, n):
            handed = rows(recorder, n)
            states.append((recorder.basis, handed))
            return handed

        monkeypatch.setattr(_Recorder, "rows", keep)
        kept, traj = kept_states(monkeypatch, initial_state(scn.spec), pulse, scn.noise)
        # a run's rows are filled by the time the walk asks for more, and the block is
        # reduced only when full, so every row is read after the walk
        samples = np.concatenate([basis.matrices(handed) for basis, handed in states])
        assert kept == FROM_UP0 and len(samples) == len(traj) - 1
        index = sorted(scn.spec.index(spin, n) for spin, n in kept)
        embedded = np.zeros((len(traj), scn.spec.dim, scn.spec.dim), dtype=complex)
        embedded[np.ix_(range(len(samples)), index, index)] = samples
        embedded[-1] = traj.final_state
        assert np.max(np.abs(traj.trace - np.real(np.trace(embedded, axis1=1, axis2=2)))) < 1e-14
        assert np.max(np.abs(traj.purity - purity(embedded))) < 1e-14
        assert np.max(np.abs(traj.min_eigenvalue - min_eigenvalue(embedded))) < 1e-14
        assert np.all(traj.min_eigenvalue <= 0.0)
        i, j = scn.spec.index(DOWN, 1), scn.spec.index(UP, 0)
        assert np.array_equal(traj.rho11, embedded[:, i, i])
        assert np.array_equal(traj.rho12, embedded[:, i, j])


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [4, 6, 12])
    def test_orthonormal_hermitian_basis(self, dim):
        basis = _hermitian_basis(dim)
        b = basis.matrices(np.eye(dim * dim))
        assert np.array_equal(b, b.conj().transpose(0, 2, 1))
        t = b.reshape(dim * dim, -1).T
        assert np.max(np.abs(t.conj().T @ t - np.eye(dim * dim))) < 1e-15

    @pytest.mark.parametrize("dim", [4, 8, 12])
    def test_hermitian_matrices_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        basis = _hermitian_basis(dim)
        b = basis.matrices(np.eye(dim * dim))
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            x = basis.coordinates(rho)
            assert x.dtype == float
            # x_k = tr(B_k rho)
            assert np.max(np.abs(np.einsum("kij,ji->k", b, rho) - x)) < 1e-15
            assert np.max(np.abs(basis.matrices(x) - rho)) < 1e-15

    def test_superoperator_is_the_dense_change_of_basis(self):
        dim = 6
        rng = np.random.default_rng(2)
        gen = rng.normal(size=(dim * dim, dim * dim)) + 1j * rng.normal(size=(dim * dim, dim * dim))
        basis = _hermitian_basis(dim)
        t = basis.matrices(np.eye(dim * dim)).reshape(dim * dim, -1).T
        dense = t.conj().T @ gen @ t
        real, dropped = basis.superoperator(gen)
        assert np.max(np.abs(real - dense.real)) < 1e-13
        assert dropped == pytest.approx(np.linalg.norm(dense.imag, 1), rel=1e-13)
        # a stack converts as its members do
        stacked, norms = basis.superoperator(np.stack((gen, gen.conj())))
        assert np.array_equal(stacked[0], real) and norms[0] == dropped

    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "closed"])
    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "altParams"])
    def test_generators_are_real_in_the_basis(self, name, levels, noisy):
        # L0 and L1 keep rho Hermitian, so the imaginary part the change of basis
        # drops is round-off against their 1-norms
        scn = resolve(dict(scenario_preset(name), hilbert={"fockLevels": levels}))
        ws = _Workspace(scn.spec)
        l0 = _free_generator(ws, scn.pulse.phase_freq, scn.noise if noisy else NO_NOISE)
        l1 = _commutator(ws.coupling(scn.pulse))
        _, dropped = _hermitian_basis(scn.spec.dim).superoperator(np.stack((l0, l1)))
        norms = np.linalg.norm(l0, 1), np.linalg.norm(l1, 1)
        assert np.all(dropped <= 1e-13 * np.array(norms))


# (ramp in ns, None for 0.05, or "meet"; sample intervals in the duration), fig2a at 2 levels
PLAN_CASES = {
    "benchmark": (None, 200),
    "zero-length-plateau": ("meet", 200),
    "ramp-end-inside-an-interval": (None, 8),
    "period-does-not-divide": (None, 7.5),
    "one-interval": (None, 0.5),
    "1ns-ramp-sampled-once": (1.0, 1),
}


class TestRampPlan:
    @pytest.mark.parametrize("block", [None, 8], ids=["default-block", "8-step-block"])
    @pytest.mark.parametrize("case", PLAN_CASES)
    def test_matches_the_oracle(self, case, block, monkeypatch):
        # the walk's steps, from the arguments evolve gives _ramp_plan, equal the oracle's
        # bit for bit, in blocks of RAMP_BLOCK_STEPS but the last
        ramp, intervals = PLAN_CASES[case]
        if ramp == "meet":
            scn, pulse = ramps_that_meet(2)
        else:
            scn, pulse = operating_point("fig2a", ramp or 0.05, 2)
        if block is not None:
            monkeypatch.setattr(dynamics, "RAMP_BLOCK_STEPS", block)
        plan, calls = dynamics._ramp_plan, []

        def spy(*args):
            calls.append((args, list(plan(*args))))
            return iter(calls[-1][1])

        monkeypatch.setattr(dynamics, "_ramp_plan", spy)
        evolve(initial_state(scn.spec), pulse, scn.noise, sample_period=pulse.duration / intervals)
        [(args, blocks)] = calls
        sizes = [len(b[0]) for b in blocks]
        assert set(sizes[:-1]) <= {dynamics.RAMP_BLOCK_STEPS}
        assert 0 < sizes[-1] <= dynamics.RAMP_BLOCK_STEPS
        first, a, s, i, on_ramp = (np.concatenate(column) for column in zip(*blocks))
        k, a0, s0, i0, on_ramp0 = zip(*plan_oracle(pulse, *args[1:]))
        assert first.tolist() == list(k) and i.tolist() == list(i0)
        assert on_ramp.tolist() == list(on_ramp0)
        assert a.tobytes() == np.array(a0).tobytes() and s.tobytes() == np.array(s0).tobytes()
        # each case reaches what it names: n_samples = args[3], period = args[2]
        reached = {
            "benchmark": len(a) == 206 + 2,
            "zero-length-plateau": pulse.ramp == pulse.duration - pulse.ramp,
            # a piece that starts inside its interval starts at a ramp end
            "ramp-end-inside-an-interval": np.any((first < 0) & (i == 0)),
            "period-does-not-divide": args[3] * args[2] > pulse.duration,
            "one-interval": args[3] == 1,
            "1ns-ramp-sampled-once": args[3] == 1 and len(a) > 3000,
        }
        assert reached[case]

    @pytest.mark.parametrize("per_sample", [None, 64], ids=["sampled-once", "64-steps-a-sample"])
    def test_memory_stays_flat_on_long_ramps(self, per_sample, monkeypatch):
        # ramps that meet, in steps of h = MAX_PHASE_STEP/|g|, sampled once or every 64
        # steps, with blocks of 32 steps: doubling the steps from 2048 to 4096 must not
        # raise the peak by more than about one block (16 kB).  It rose by 0.3 and 2.8 kB;
        # with every block handed out at once, by 106 and 108 kB
        monkeypatch.setattr(dynamics, "RAMP_BLOCK_STEPS", 32)
        h = dynamics.MAX_PHASE_STEP / abs(G1)
        rho0 = pure_density(SPEC.ket(UP, 0))

        def peak_bytes(steps):
            ramp = steps / 2 * h
            pulse = PulseSegment(duration=2 * ramp, g_value=G1, ramp=ramp)
            assert dynamics._ramp_step(pulse) == h
            tracemalloc.start()
            try:
                evolve(rho0, pulse, NO_NOISE, sample_period=(per_sample or steps) * h)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(2048)  # fills the caches of the workspace and the basis
        assert peak_bytes(4096) - peak_bytes(2048) < dynamics.RAMP_BLOCK_STEPS * 512


class TestRecorder:
    @pytest.mark.parametrize("levels", [2, 4])
    def test_block_diagnostics_match_each_sample(self, levels, monkeypatch):
        # fig2a sampled 601 times: two full blocks and part of a third.  The recorder
        # hands out rows for 600 samples as Hermitian coordinates, and gets the final
        # state as its coordinates and its matrix, both on the states the walk keeps: 4 of
        # 4 at 2 levels, 5 of 8 at 4, where each of the 3 unreached states adds an
        # eigenvalue 0.  Rows it handed out are filled by the time it is asked for more,
        # and a reduced block keeps its rows, so each is read at the next call.  Purity is
        # the squared norm of each state's coordinates, tr(rho^2) up to round-off
        scn = resolve(dict(scenario_preset("fig2a"), hilbert={"fockLevels": levels}))
        coordinates, handed, recorders = [], [], []
        rows, finish = _Recorder.rows, _Recorder.finish

        def keep(recorder, n):
            if handed:
                coordinates.extend(handed.pop().copy())
            handed.append(rows(recorder, n))
            return handed[-1]

        def last(recorder, x, rho, t):
            coordinates.extend(handed.pop().copy())
            coordinates.append(x)
            recorders.append((recorder, rho))
            return finish(recorder, x, rho, t)

        monkeypatch.setattr(_Recorder, "rows", keep)
        monkeypatch.setattr(_Recorder, "finish", last)
        period = scn.pulse.duration / 600
        traj = evolve(initial_state(scn.spec), scn.pulse, scn.noise, sample_period=period)
        recorder, final = recorders[0]
        states = [*recorder.basis.matrices(np.array(coordinates[:-1])), final]
        assert len(traj) == len(states) == 601 > 2 * SAMPLE_BLOCK
        assert len(states[0]) == {2: 4, 4: 5}[levels]
        i, j = recorder.i_dn1, recorder.i_up0
        floor = 0.0 if len(states[0]) < scn.spec.dim else np.inf
        assert np.array_equal(traj.rho11, [rho[i, i] for rho in states])
        assert np.array_equal(traj.rho21, [rho[j, i] for rho in states])
        assert np.array_equal(traj.trace, [np.real(np.trace(rho)) for rho in states])
        assert np.array_equal(traj.purity, [(x * x).sum() for x in coordinates])
        assert np.max(np.abs(traj.purity - [purity(rho) for rho in states])) <= 1e-15
        assert np.array_equal(
            traj.min_eigenvalue, [min(min_eigenvalue(rho), floor) for rho in states]
        )

    @pytest.mark.parametrize("samples", [200, 600])
    def test_asks_for_rows_once_per_run_of_samples(self, samples, monkeypatch):
        # the benchmark's fig2a 0.05 ns ramp at 2 levels: the walk asks for the rows of the
        # walked intervals before the plateau run in one request, the run for its own and
        # the walk for those after it, plus one more each time a block fills.  One request
        # per walked interval made 71 at 200 samples
        scn, pulse = operating_point("fig2a", 0.05, 2)
        calls, rows = [], _Recorder.rows

        def count(recorder, n):
            calls.append(n)
            return rows(recorder, n)

        monkeypatch.setattr(_Recorder, "rows", count)
        period = pulse.duration / samples
        traj = evolve(initial_state(scn.spec), pulse, scn.noise, sample_period=period)
        assert len(traj) == samples + 1
        assert len(calls) <= 3 + math.ceil(samples / SAMPLE_BLOCK)

    @pytest.mark.parametrize(
        "first, time", [(0, "0"), (508, r"1\.016")], ids=["first-block", "second-block"]
    )
    def test_names_the_first_sample_that_is_not_finite(self, first, time):
        # 1000 samples every 0.002 ns, overflowed from sample 0, or from sample 508 in
        # the second block; evolve's errstate hides the inf * 0 of turning them into matrices
        x = _hermitian_basis(SPEC.dim).coordinates(pure_density(SPEC.ket(UP, 0)))
        recorder = _Recorder(SPEC.dim, SPEC.index(DOWN, 1), SPEC.index(UP, 0), 2.0, 0.002)
        assert recorder.start() == 1000
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match=rf"diverged by t={time} ns"):
                filled = 0
                while filled < 1000:
                    rows = recorder.rows(1000 - filled)
                    rows[:] = x
                    rows[max(first - filled, 0) :] = np.inf
                    filled += len(rows)
                final = np.full(len(x), np.inf), np.full((SPEC.dim, SPEC.dim), np.inf)
                recorder.finish(*final, 2.0)

    def test_keeps_one_block_of_states(self):
        # each further sample costs its trajectory row, 8 numbers, and not its
        # state: 144 reals at 6 levels, all of them kept from the mixed state
        spec = HilbertSpec(6)
        rho0 = np.eye(spec.dim) / spec.dim
        pulse = make_pulse(duration=1.0)

        def peak_bytes(samples):
            tracemalloc.start()
            try:
                evolve(rho0, pulse, NO_NOISE, sample_period=1.0 / samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 8 * SAMPLE_BLOCK
        per_sample = (peak_bytes(2 * n) - peak_bytes(n)) / n
        assert per_sample < spec.dim**2 * 16 / 4

    def test_long_run_peaks_near_its_trajectory(self):
        # fig2a sampled 1e5 times: the columns are allocated once and each block is reduced
        # into its slice, so the trajectory itself is nearly all of the peak (1.03 times it);
        # a walk that held each column twice would peak above twice it
        scn = resolve(scenario_preset("fig2a"))
        args = (initial_state(scn.spec), scn.pulse, scn.noise)
        tracemalloc.start()
        try:
            traj = evolve(*args, sample_period=scn.pulse.duration / 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(getattr(traj, field.name).nbytes for field in dataclasses.fields(traj))
        assert len(traj) == 100_001
        assert peak <= 1.3 * size

    def test_refused_run_allocates_no_columns(self):
        # twice MAX_STEPS samples would take 192 MB of columns; the refusal comes first
        scn = resolve(scenario_preset("fig2a"))
        period = scn.pulse.duration / (2 * dynamics.MAX_STEPS)
        tracemalloc.start()
        try:
            with pytest.raises(IntegrationError, match="samples and ramp steps"):
                evolve(initial_state(scn.spec), scn.pulse, scn.noise, sample_period=period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def rectangular(name, levels):
    """The preset's resolved scenario at this many Fock levels, and its pulse."""
    scn = resolve(dict(scenario_preset(name), hilbert={"fockLevels": levels}))
    return scn, scn.pulse


def walk_each_sample(monkeypatch, *args, sample_period):
    """evolve(*args, sample_period=...) with the recorder handing out one row at a time, so
    that the walk applies plateau(period) once per sample."""
    rows = _Recorder.rows
    with monkeypatch.context() as patch:
        patch.setattr(_Recorder, "rows", lambda recorder, n: rows(recorder, 1))
        return evolve(*args, sample_period=sample_period)


def largest_difference(a, b):
    """The largest difference between two trajectories' state columns and final states."""
    names = "rho11", "rho22", "rho12", "rho21", "trace", "purity", "min_eigenvalue", "final_state"
    return max(np.max(np.abs(getattr(a, name) - getattr(b, name))) for name in names)


class TestPlateauRuns:
    @pytest.mark.parametrize("levels, ramp", [(2, 0.0), (4, 0.0), (4, 0.05), (4, "meet")])
    def test_block_matches_each_sample(self, levels, ramp, monkeypatch):
        # fig2a with noise sampled 601 times, three recorder blocks.  The rectangular
        # pulse's run fills each block from its first state, by doubling and then strides
        # of PLATEAU_STRIDE; the ramped pulse's run starts and ends inside blocks; ramps
        # that meet leave no whole plateau interval, so no run
        if ramp == "meet":
            scn, pulse = ramps_that_meet(levels)
        elif ramp:
            scn, pulse = operating_point("fig2a", ramp, levels)
        else:
            scn, pulse = rectangular("fig2a", levels)
        period = pulse.duration / 600
        args = (initial_state(scn.spec), pulse, scn.noise)
        block = evolve(*args, sample_period=period)
        each = walk_each_sample(monkeypatch, *args, sample_period=period)
        assert len(block) == len(each) == 601
        assert np.array_equal(block.times[:-1], np.arange(600) * period)
        assert np.array_equal(block.times, each.times)
        assert block.times[-1] == pulse.duration
        assert largest_difference(block, each) < 1e-13

    def test_short_runs(self, monkeypatch):
        # runs of 0 to 39 samples: doubling stops short of PLATEAU_STRIDE, reaches it, and
        # ends on a partial stride
        scn, pulse = rectangular("fig2a", 2)
        for samples in range(1, 41):
            args, period = (initial_state(scn.spec), pulse, scn.noise), pulse.duration / samples
            block = evolve(*args, sample_period=period)
            each = walk_each_sample(monkeypatch, *args, sample_period=period)
            assert len(block) == samples + 1
            assert largest_difference(block, each) < 1e-13

    @pytest.mark.parametrize("ramp", [0.0, 0.05])
    def test_leaves_no_reference_cycles(self, ramp):
        # a cycle keeps a run's powers of P alive until the cyclic collector runs: powers
        # kept by a cached function that called itself raised the peak RSS of 300 ramped
        # evolutions at 2 to 4 levels from 37.7 to 43.9 MB
        scn, pulse = operating_point("fig2a", ramp, 4) if ramp else rectangular("fig2a", 4)
        gc.collect()
        gc.disable()
        try:
            evolve(initial_state(scn.spec), pulse, scn.noise, sample_period=pulse.duration / 600)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_long_run(self, monkeypatch):
        # altParams sampled 2e4 times: 79 blocks, each started from the last state of the
        # one before (the last in part).  The block walk measured 7.6e-13 from the walk of
        # one sample at a time, and a trace drift of 4.3e-12 against its 4.5e-12
        scn, pulse = rectangular("altParams", 2)
        args, period = (initial_state(scn.spec), pulse, scn.noise), pulse.duration / 2e4
        block = evolve(*args, sample_period=period)
        each = walk_each_sample(monkeypatch, *args, sample_period=period)
        assert len(block) == 20001
        assert largest_difference(block, each) < 1e-11
        drift = np.max(np.abs(block.trace - 1.0)), np.max(np.abs(each.trace - 1.0))
        assert drift[0] <= 2 * drift[1]


def free_generator_parent(ws, energy, noise):
    """``_free_generator`` with every part formed anew from ws's operators."""
    gamma1, gamma2 = noise.relaxation_rate, noise.dephasing_rate
    nx, nd, zd = ws.excitation_diag, ws.number_diag, ws.z_diag
    diagonal = (
        (-1j * energy) * np.subtract.outer(nx, nx)
        - (0.5 * gamma1) * np.add.outer(nd, nd)
        + gamma2 * (np.multiply.outer(zd, zd) - 1.0)
    )
    gen = np.diag(diagonal.ravel())
    if gamma1 > 0.0:
        gen += gamma1 * kron(ws.a, ws.a.conj())
    return gen


class TestWorkspaceCache:
    def test_one_read_only_workspace_per_truncation(self):
        ws = dynamics._workspace(HilbertSpec(3))
        assert ws is dynamics._workspace(HilbertSpec(3))
        assert ws is not dynamics._workspace(HilbertSpec(4))
        for name, op in vars(ws).items():
            assert not op.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                op[0] = 0

    @pytest.mark.parametrize("levels", [2, 4])
    def test_evolve_matches_a_fresh_workspace(self, levels, monkeypatch):
        # the fig2a ramp and rectangular pulse, from |up,0> (5 of 8 states kept at 4
        # levels) and from a mixed state on every state, the cached workspace itself.
        # Dephasing is off: it drains the trace from levels n >= 2
        spec = HilbertSpec(levels)
        rng = np.random.default_rng(levels)
        m = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        mixed = m @ m.conj().T / np.trace(m @ m.conj().T)
        scn, ramped = operating_point("fig2a", 0.05, levels)
        rect = rectangular("fig2a", levels)[1]
        noise = dataclasses.replace(scn.noise, tf2=math.inf)

        def runs():
            return [
                evolve(rho0, pulse, noise)
                for rho0 in (initial_state(spec), mixed)
                for pulse in (ramped, rect)
            ]

        cached = runs()
        # the uncached function: new operators at every call
        monkeypatch.setattr(dynamics, "_workspace", dynamics._workspace.__wrapped__)
        fresh = runs()
        assert_same_trajectories(cached, fresh)

    @pytest.mark.parametrize("levels", [2, 3, 6])
    def test_generator_parts_are_those_of_its_operators(self, levels):
        # the parts that _free_generator scales, on the whole space and on the states kept
        # from |up,0>, give the generator formed from the operators anew, bit for bit
        spec = HilbertSpec(levels)
        keep = tuple(sorted(spec.index(s, n) for s, n in FROM_UP0 if n < levels))
        energy = operating_point("fig2a", 0.05, levels)[1].phase_freq
        for ws in (dynamics._workspace(spec), dynamics._workspace(spec, keep)):
            for noise in (NOISE1, NO_NOISE, NoiseParams(tf1=900.0), NoiseParams(tf2=20.0)):
                expected = free_generator_parent(ws, energy, noise)
                assert np.array_equal(_free_generator(ws, energy, noise), expected)

    def test_one_scratch_per_thread_and_state_size(self):
        # the fig2a ramp walks 16 real coordinates at 2 levels and 25 at 3 and 6 (5 states
        # kept), in Omega chunks of 64 and 26 steps: a thread builds one scratch for each
        # and reuses it, and another thread builds its own
        runs = [operating_point("fig2a", 0.05, levels) for levels in (2, 3, 6)]

        def walk():
            for scn, pulse in runs:
                evolve(initial_state(scn.spec), pulse, scn.noise)
            return dict(dynamics._SCRATCH.walks)

        first = walk()
        assert {(16, 64), (25, 26)} <= first.keys()
        again = walk()
        assert all(again[key] is scratch for key, scratch in first.items())
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(walk).result(timeout=60)
        assert other.keys() == {(16, 64), (25, 26)}
        assert all(other[key] is not first[key] for key in other)

    def test_each_walk_starts_its_series_at_degree_0(self, monkeypatch):
        # the thread's series is left at the degree where a walk's last step stopped; the
        # next walk sets it back to 0, where a new series starts
        apply, calls = _TaylorSeries.apply, []

        def spy(series, *args):
            calls.append((series, series.degree))
            return apply(series, *args)

        monkeypatch.setattr(_TaylorSeries, "apply", spy)
        scn, pulse = operating_point("fig2a", 0.05, 3)
        walks = []
        for _ in range(3):
            start = len(calls)
            evolve(initial_state(scn.spec), pulse, scn.noise)
            walks.append(calls[start:])
        assert len({id(series) for series, _ in calls}) == 1
        for walk in walks:
            assert walk[0][1] == 0 < walk[1][1]
        assert calls[0][0].degree > 0

    @pytest.mark.parametrize("levels", [2, 3, 6])
    def test_walks_write_their_scratch_before_they_read_it(self, levels, monkeypatch):
        # a scratch full of nan gives the trajectory of the thread's own scratch, bit for
        # bit: from |up,0> (16 and 25 coordinates) and, with noise off, from |up,1>
        # (every state: 36 coordinates at 3 levels, 49 of 144 at 6)
        scn, pulse = operating_point("fig2a", 0.05, levels)
        starts = (
            (initial_state(scn.spec), scn.noise),
            (pure_density(scn.spec.ket(UP, 1)), NO_NOISE),
        )

        def runs():
            return [evolve(rho0, pulse, noise) for rho0, noise in starts]

        warm = runs()

        def poisoned(size, chunk):
            scratch = dynamics._WalkScratch(size, chunk)
            for a in (scratch.stack, scratch.buffer, *scratch.series.buffers):
                a.fill(np.nan)
            return scratch

        monkeypatch.setattr(dynamics, "_walk_scratch", poisoned)
        assert_same_trajectories(warm, runs())


def assert_same_trajectories(a_runs, b_runs):
    for a, b in zip(a_runs, b_runs, strict=True):
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


class TestRestrictionCache:
    @pytest.mark.parametrize("levels", [3, 6])
    def test_one_read_only_restriction_per_set_of_states(self, levels):
        spec = HilbertSpec(levels)
        keep = tuple(sorted(spec.index(s, n) for s, n in FROM_UP0 if n < levels))
        ws = dynamics._workspace(spec, keep)
        assert ws is dynamics._workspace(spec, keep)
        assert ws is not dynamics._workspace(spec, keep[:-1])
        assert ws is not dynamics._workspace(spec)
        # the whole space's operators and generator parts, cut to the kept rows and columns;
        # the jump superoperator to the kept pairs of states
        cut = np.ix_(keep, keep)
        rows = np.array(keep)
        pairs = (rows[:, None] * spec.dim + rows).ravel()
        expected = {
            name: op[cut] if op.ndim == 2 else op[rows]
            for name, op in vars(_Workspace(spec)).items()
        }
        expected["jump"] = _Workspace(spec).jump[np.ix_(pairs, pairs)]
        assert vars(ws).keys() == expected.keys()
        for name, op in vars(ws).items():
            assert np.array_equal(op, expected[name]), name
            assert op.dtype == expected[name].dtype, name
            assert op.shape[0] == (len(pairs) if name == "jump" else len(keep)), name
            assert not op.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                op[0] = 0

    @pytest.mark.parametrize("levels", [3, 6])
    def test_evolve_matches_with_the_cache_cleared_and_warm(self, levels, monkeypatch):
        # fig2a, ramped and rectangular, from |up,0> (5 states kept) and, with noise off,
        # from |up,2> (every state at 3 levels, so no restriction; 7 of 12 at 6)
        scn, ramped = operating_point("fig2a", 0.05, levels)
        rect = rectangular("fig2a", levels)[1]
        starts = (
            (initial_state(scn.spec), scn.noise),
            (pure_density(scn.spec.ket(UP, 2)), NO_NOISE),
        )
        calls, cached = [], dynamics._workspace

        def count(spec, *keep):
            calls.append(keep)
            return cached(spec, *keep)

        monkeypatch.setattr(dynamics, "_workspace", count)

        def runs():
            return [evolve(rho0, p, noise) for rho0, noise in starts for p in (ramped, rect)]

        cached.cache_clear()
        cold = runs()
        # each evolution reads the whole workspace, and a restricted one when it drops states
        sets = {3: 1, 6: 2}[levels]
        restricted = [keep for keep in calls if keep]
        assert calls.count(()) == 4
        assert len(restricted) == 2 * sets and len(set(restricted)) == sets
        # a miss for the truncation and for each set of states, a hit for every other call
        assert cached.cache_info()[:2] == (3 + sets, 1 + sets)  # hits, misses
        warm = runs()
        assert cached.cache_info()[:2] == (7 + 3 * sets, 1 + sets)
        assert_same_trajectories(cold, warm)

    def test_one_closure_per_set_of_patterns(self, monkeypatch):
        # the kept states follow from rho0's nonzero pattern, the coupling's (g != 0,
        # g' != 0) and whether relaxation is on: runs that share them share one closure,
        # whatever the pulse's length, ramp and rates
        scn, ramped = operating_point("fig2a", 0.05, 4)
        rect = rectangular("fig2a", 4)[1]
        up0, up1 = initial_state(scn.spec), pure_density(scn.spec.ket(UP, 1))
        # dephasing off: it drains the trace from levels n >= 2
        relaxing = NoiseParams(tf1=900.0)
        same = [
            ((up0, ramped, relaxing), FROM_UP0),
            ((up0, rect, relaxing), FROM_UP0),
            ((up0, ramped, NoiseParams(tf1=50.0)), FROM_UP0),
            ((0.5 * (up0 + up0), rect, relaxing), FROM_UP0),
        ]
        # other patterns: with no contamination the exchange and the jump reach |down,1> and
        # |down,0> alone; with no relaxation, or from |up,1>, the walk keeps the same states
        other = [
            (
                (up0, dataclasses.replace(ramped, g_prime_value=0.0), relaxing),
                {(UP, 0), (DOWN, 1), (DOWN, 0)},
            ),
            ((up0, ramped, NO_NOISE), FROM_UP0),
            ((up1, ramped, relaxing), FROM_UP0),
        ]
        closure = dynamics._closure
        closure.cache_clear()
        for args, states in same + other:
            assert kept_states(monkeypatch, *args)[0] == states
        # a miss for each set of patterns, a hit for every other run
        assert closure.cache_info()[:2] == (3, 4)  # hits, misses
        assert closure.cache_info().currsize == 4
        for args, _ in same + other:
            evolve(*args)
        assert closure.cache_info()[:2] == (10, 4)
        # the closure's states, cached or not
        spec = scn.spec
        recorded = spec.index(DOWN, 1), spec.index(UP, 0)
        ws = dynamics._workspace(spec)
        for (rho0, pulse, noise), _ in same + other:
            jump = (ws.a,) if noise.relaxation_rate > 0.0 else ()
            operators = (rho0, ws.coupling(pulse), *jump)
            patterns = tuple(np.not_equal(m, 0).tobytes() for m in operators)
            assert closure(spec.dim, recorded, patterns) == closure.__wrapped__(
                spec.dim, recorded, patterns
            )

    @pytest.mark.parametrize("levels", [3, 6])
    def test_evolve_matches_with_every_cache_cleared_and_warm(self, levels):
        # the operators, the kept states and the thread's walk scratch built anew, then
        # reused: fig2a, ramped and rectangular, from |up,0> and, noise off, from |up,2>
        scn, ramped = operating_point("fig2a", 0.05, levels)
        rect = rectangular("fig2a", levels)[1]
        starts = (
            (initial_state(scn.spec), scn.noise),
            (pure_density(scn.spec.ket(UP, 2)), NO_NOISE),
        )

        def runs():
            return [evolve(rho0, p, noise) for rho0, noise in starts for p in (ramped, rect)]

        dynamics._workspace.cache_clear()
        dynamics._closure.cache_clear()
        vars(dynamics._SCRATCH).clear()
        cold = runs()
        assert_same_trajectories(cold, runs())


class TestConcurrentEvolve:
    def test_threads_match_the_serial_runs(self):
        # the fig2a 0.05 ns ramp at 2, 3 and 6 levels in 4 threads at once, each walking
        # every truncation three times in its own order, with thread switches every 10 us,
        # so that walks in different threads interleave: every trajectory equals the serial
        # run's in every field
        runs = [operating_point("fig2a", 0.05, levels) for levels in (2, 3, 6)]
        jobs = [(initial_state(scn.spec), pulse, scn.noise) for scn, pulse in runs]
        serial = [evolve(*job) for job in jobs]
        start = threading.Barrier(4)

        def thread(shift):
            order = [(shift + k) % 3 for k in range(3)] * 3
            start.wait(timeout=60)
            return order, [evolve(*jobs[k]) for k in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(thread, shift) for shift in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for order, trajectories in results:
            assert_same_trajectories([serial[k] for k in order], trajectories)


class TestPulseDurations:
    def test_rect_pi(self):
        d = pulse_duration_for_area(-math.pi, G1)
        assert d == pytest.approx(math.pi / abs(G1), rel=1e-15)
        assert d == pytest.approx(0.243, abs=5e-4)

    def test_rect_half_pi(self):
        d = pulse_duration_for_area(-math.pi / 2.0, G1)
        assert d == pytest.approx(0.5 * math.pi / abs(G1), rel=1e-15)

    def test_sign_mismatch(self):
        with pytest.raises(ValueError):
            pulse_duration_for_area(math.pi, G1)

    def test_zero_area(self):
        with pytest.raises(ValueError, match="area must be nonzero"):
            pulse_duration_for_area(0.0, G1)

    # the last ramp equals |area/g|: the pulse is all ramp, with no flat top
    @pytest.mark.parametrize("ramp", [0.01, 0.05, math.pi / abs(G1)])
    def test_sin2_flat_top_compensation(self, ramp):
        d = pulse_duration_for_area(-math.pi, G1, ramp)
        assert d == pytest.approx(math.pi / abs(G1) + ramp, abs=1e-9)
        seg = PulseSegment(duration=d, g_value=G1, ramp=ramp)
        # Gauss-Legendre on each ramp and on the flat top, where the envelope is smooth
        nodes, weights = np.polynomial.legendre.leggauss(20)
        area = 0.0
        for lo, hi in ((0.0, ramp), (ramp, d - ramp), (d - ramp, d)):
            half = (hi - lo) / 2.0
            area += half * np.dot(weights, seg.envelope(lo + half * (nodes + 1.0)))
        assert G1 * area == pytest.approx(-math.pi, rel=1e-14)

    def test_sin2_ramp_longer_than_pulse(self):
        with pytest.raises(ValueError):
            pulse_duration_for_area(-math.pi, G1, ramp=1.0)

    def test_ramped_transfer_still_complete(self):
        # adiabatic ramps keep the closed-system pi-pulse transfer exact
        ramp = 0.02
        d = pulse_duration_for_area(-math.pi, G1, ramp)
        pulse = PulseSegment(duration=d, g_value=G1, ramp=ramp)
        traj = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, sample_period=d)
        i_dn1 = SPEC.index(DOWN, 1)
        assert traj.final_state[i_dn1, i_dn1].real == pytest.approx(1.0, abs=1e-5)


class TestValidation:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PulseSegment(duration=0.0, g_value=1.0)
        # a ramp is 0 (rectangular) up to half the duration; NaN is refused too
        for ramp in (-0.1, 0.6, math.nan):
            with pytest.raises(ValueError):
                PulseSegment(duration=1.0, g_value=1.0, ramp=ramp)

    def test_schedule_validation(self):
        seg = PulseSegment(duration=1.0, g_value=1.0)
        rho0 = pure_density(SPEC.ket(UP, 0))
        h = interaction_hamiltonian(0.0, seg, SPEC)
        with pytest.raises(ValueError):
            evolve(rho0, seg, NO_NOISE, sample_period=0.0)
        with pytest.raises(ValueError):
            evolve_static(rho0, h, 1.0, NO_NOISE, SPEC, sample_period=0.0)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(tf1=-1.0, tf2=20.0)
        off = NoiseParams(enabled=False)
        assert off.relaxation_rate == 0.0
        assert off.dephasing_rate == 0.0

    def test_envelope_shapes(self):
        seg = PulseSegment(duration=1.0, g_value=1.0, ramp=0.25)
        assert seg.envelope(0.0) == pytest.approx(0.0)
        assert seg.envelope(0.25) == pytest.approx(1.0)
        assert seg.envelope(0.5) == pytest.approx(1.0)
        assert seg.envelope(1.0) == pytest.approx(0.0)
        rect = PulseSegment(duration=1.0, g_value=1.0)
        assert rect.envelope(0.0) == 1.0
