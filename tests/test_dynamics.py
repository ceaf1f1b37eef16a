import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rk4_oracle as rk4
from lab_oracle import build_lab_hamiltonian, evolve_static
from rk4_oracle import interaction_hamiltonian
from topoflux import dynamics
from topoflux.config import resolve
from topoflux.device import ghz_to_angular
from topoflux.dynamics import (
    NO_NOISE,
    SAMPLE_BLOCK,
    NoiseParams,
    PulseSegment,
    _commutator,
    _free_generator,
    _magnus_basis,
    _magnus_coefficients,
    _Recorder,
    _taylor_apply,
    _taylor_degree,
    _Workspace,
    evolve,
    expm,
    pulse_duration_for_area,
    pulse_propagator,
    trajectory_checks,
)
from topoflux.errors import IntegrationError
from topoflux.experiments import initial_state
from topoflux.hilbert import (
    DOWN,
    UP,
    HilbertSpec,
    hermiticity_error,
    min_eigenvalue,
    pure_density,
    purity,
)
from topoflux.presets import scenario_preset

TWO_PI = 2.0 * math.pi

# weak-contamination operating point, resolved to rad/ns
G1 = ghz_to_angular(-2.0595918)
GP1 = ghz_to_angular(-1.0439816)
E1 = ghz_to_angular(49.963987)
NOISE1 = NoiseParams(tf1=900.0, tf2=20.0)

SPEC = HilbertSpec(2)


def make_pulse(g=G1, g_prime=0.0, phase_freq=0.0, duration=None, **kw):
    if duration is None:
        duration = math.pi / abs(g) if g else 1.0
    return PulseSegment(
        duration=duration, g_value=g, g_prime_value=g_prime, phase_freq=phase_freq, **kw
    )


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
        assert hermiticity_error(h) < 1e-14

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
        assert hermiticity_error(h) < 1e-14

    def test_rwa_agreement_over_pi_pulse(self):
        # counter-rotating corrections scale as g/omega_f ~ 0.04
        duration = math.pi / abs(G1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj_i = evolve(
            rho0,
            make_pulse(g=G1, g_prime=GP1, phase_freq=E1),
            NO_NOISE,
            SPEC,
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
            pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, SPEC, sample_period=duration / 50
        )
        expected = np.cos(np.abs(G1) * traj.times / 2.0) ** 2
        assert np.max(np.abs(np.real(traj.rho22) - expected)) < 1e-6

    def test_dark_state_stationary(self):
        pulse = make_pulse(duration=10.0)
        traj = evolve(pure_density(SPEC.ket(DOWN, 0)), pulse, NOISE1, SPEC, sample_period=5.0)
        dev = np.max(np.abs(traj.final_state - pure_density(SPEC.ket(DOWN, 0))))
        assert dev < 1e-9

    def test_noise_free_purity(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NO_NOISE, SPEC, sample_period=pulse.duration / 100)
        assert np.max(np.abs(traj.purity - 1.0)) < 1e-7

    def test_invariants_with_noise(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NOISE1, SPEC, sample_period=pulse.duration / 100)
        checks = trajectory_checks(traj)
        assert checks["max_trace_error"] < 1e-7
        assert checks["final_hermiticity_error"] < 1e-9
        assert checks["min_eigenvalue"] > -1e-8

    def test_transfer_fidelity_with_noise(self):
        # pi pulse with decoherence lands near 0.993
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NOISE1, SPEC, sample_period=pulse.duration / 100)
        i_dn1 = SPEC.index(DOWN, 1)
        assert traj.final_state[i_dn1, i_dn1].real == pytest.approx(0.993, abs=0.005)

    def test_trace_drift_error(self):
        # sigma_f^z is zero on n >= 2, so at 3 levels dephasing drains the
        # trace: a 25 ns altParams pulse loses 3.8e-6 of it
        raw = scenario_preset("altParams")
        raw["pulse"]["areaOverPi"] = -101.0
        raw["hilbert"] = {"fockLevels": 3}
        scn = resolve(raw)
        with pytest.raises(IntegrationError, match="trace drift"):
            evolve(initial_state(scn.spec), scn.pulse, scn.noise, scn.spec)

    def test_static_divergence_error(self):
        # a non-finite generator is refused before it is exponentiated, and a
        # non-finite state by the sampler's finite-state check, which names
        # the first sample that is not finite
        rho0 = pure_density(SPEC.ket(UP, 0))
        h = interaction_hamiltonian(0.0, PulseSegment(1.0, g_value=1.0), SPEC)
        with pytest.raises(IntegrationError):
            evolve_static(rho0, h * np.nan, 1.0, NO_NOISE, SPEC)
        with pytest.raises(IntegrationError, match=r"diverged by t=0 ns"):
            evolve_static(np.full_like(rho0, np.nan), h, 1.0, NO_NOISE, SPEC)
        # an anti-Hermitian h grows <0|rho|k> as e^{700 t}: 0.5 e^{1.4 k} at
        # sample k overflows first at k = 508, in the recorder's second block
        grow = np.diag([700j, 0.0, 0.0, 0.0])
        rho0 = pure_density((SPEC.ket(DOWN, 0) + SPEC.ket(DOWN, 1)) / math.sqrt(2.0))
        with pytest.raises(IntegrationError, match=r"diverged by t=1\.016 ns"):
            evolve_static(rho0, grow, 2.0, NO_NOISE, SPEC, sample_period=0.002)

    def test_static_matches_evolve_for_rectangular_pulse(self):
        # g' = 0 and a flat envelope make H constant: evolve propagates it in
        # the frame exp(i E t N) and evolve_static in the lab frame, both
        # exactly and at the same sample times
        duration = math.pi / abs(G1)
        sample_period = duration / 37
        pulse = make_pulse(duration=duration)
        rho0 = pure_density(SPEC.ket(UP, 0))
        a = evolve(rho0, pulse, NOISE1, SPEC, sample_period=sample_period)
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
        t4 = evolve(rho0_4, pulse, NOISE1, spec4, sample_period=1.0)
        t2 = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NOISE1, SPEC, sample_period=1.0)
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
        rho0 = pure_density(spec.ket(UP, 0))
        exact = evolve(rho0, pulse, noise, spec).final_state
        assert np.max(np.abs(exact - rk4.final_state(rho0, pulse, noise, spec))) < 1e-10

    @pytest.mark.parametrize("name, ramp, levels, noisy, dt, overrides", RAMPED_CASES)
    def test_ramped_matches_rk4(self, name, ramp, levels, noisy, dt, overrides):
        scn, pulse = operating_point(name, ramp, levels, overrides)
        noise = scn.noise if noisy else NO_NOISE
        rho0 = initial_state(scn.spec)
        magnus = evolve(rho0, pulse, noise, scn.spec).final_state
        assert np.max(np.abs(magnus - rk4.final_state(rho0, pulse, noise, scn.spec, dt))) < 1e-10

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

    def test_ramp_steps_are_sixth_order(self, monkeypatch):
        # one sample, so each ramp is one piece of exactly RAMP_STEPS steps:
        # halving the step cuts the error 63-fold; a fourth-order step gives 16
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        monkeypatch.setattr(dynamics, "MAX_PHASE_STEP", math.inf)

        def final_state(steps):
            monkeypatch.setattr(dynamics, "RAMP_STEPS", steps)
            return evolve(rho0, pulse, scn.noise, scn.spec, pulse.duration).final_state

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
        whole = evolve(rho0, pulse, scn.noise, scn.spec, pulse.duration).final_state
        monkeypatch.setattr(dynamics, "OMEGA_BLOCK_ENTRIES", 3 * scn.spec.dim**4)
        split = evolve(rho0, pulse, scn.noise, scn.spec, pulse.duration).final_state
        assert np.max(np.abs(split - whole)) < 1e-14

    def test_steps_above_the_taylor_bound_take_expm(self, monkeypatch):
        # with no step under the bound, every ramp step is an expm, which the
        # Taylor series matches
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        taylor = evolve(rho0, pulse, scn.noise, scn.spec).final_state
        monkeypatch.setattr(dynamics, "TAYLOR_MAX_NORM", 0.0)
        monkeypatch.setattr(dynamics, "_taylor_apply", None)
        exponentials = evolve(rho0, pulse, scn.noise, scn.spec).final_state
        assert np.max(np.abs(exponentials - taylor)) < 1e-14

    @pytest.mark.parametrize("block", [None, 8], ids=["default-block", "8-step-block"])
    def test_ramp_steps_are_formed_a_block_at_a_time(self, block, monkeypatch):
        # the benchmark's fig2a 0.05 ns ramp at 2 levels, sampled every duration/200:
        # 70 sample pieces of about 3 steps, 206 steps in all.  Their coefficients
        # are formed once per block of steps, not once per piece, and blocks that
        # cut pieces give the same state
        scn, pulse = operating_point("fig2a", 0.05, 2)
        rho0 = initial_state(scn.spec)
        whole = evolve(rho0, pulse, scn.noise, scn.spec).final_state
        if block is not None:
            monkeypatch.setattr(dynamics, "RAMP_BLOCK_STEPS", block)
        rows, applied = [], []
        coefficients, taylor_apply = dynamics._magnus_coefficients, dynamics._taylor_apply

        def count_coefficients(*args):
            coef = coefficients(*args)
            rows.append(len(coef))
            return coef

        def count_taylor_apply(*args):
            applied.append(1)
            return taylor_apply(*args)

        monkeypatch.setattr(dynamics, "_magnus_coefficients", count_coefficients)
        monkeypatch.setattr(dynamics, "_taylor_apply", count_taylor_apply)
        split = evolve(rho0, pulse, scn.noise, scn.spec).final_state
        assert len(applied) == sum(rows) == 206
        assert len(rows) == math.ceil(206 / dynamics.RAMP_BLOCK_STEPS)
        assert np.max(np.abs(split - whole)) < 1e-14

    def test_sample_times_are_multiples_of_the_period(self):
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        period = pulse.duration / 7.5  # a remainder of half a period
        traj = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NOISE1, SPEC, sample_period=period)
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
        # a ramp step's series, at the degree its 1-norm bound gives
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a *= norm / np.linalg.norm(a, 1)
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.max(np.abs(_taylor_apply(a, y, _taylor_degree(norm)) - expm(a) @ y)) < 1e-14

    @pytest.mark.parametrize("norm", [0.1, 1.0, 2.0])
    def test_taylor_series_of_a_matrix_matches_expm(self, norm):
        # pulse_propagator carries the D x D propagator through the series
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a *= norm / np.linalg.norm(a, 1)
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.max(np.abs(_taylor_apply(a, y, _taylor_degree(norm)) - expm(a) @ y)) < 1e-14

    def test_taylor_degree(self):
        assert [_taylor_degree(t) for t in (0.0, 1e-3, 0.1, 1.0, 2.0)] == [0, 4, 10, 19, 25]

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
        error = np.sum(np.abs(_taylor_apply(a, y, _taylor_degree(norm)) - exact))
        assert error <= 1e-17 * np.sum(np.abs(y))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    def test_expm_refuses_non_finite_generator(self, value):
        with pytest.raises(IntegrationError):
            expm(np.full((2, 2), value))


class TestRecorder:
    @pytest.mark.parametrize("levels", [2, 4])
    def test_block_diagnostics_match_each_sample(self, levels, monkeypatch):
        # fig2a sampled 601 times: two full blocks and part of a third
        scn = resolve(dict(scenario_preset("fig2a"), hilbert={"fockLevels": levels}))
        states = []
        record = _Recorder.record

        def keep(recorder, t, y):
            states.append(y.reshape(recorder.dim, recorder.dim).copy())
            record(recorder, t, y)

        monkeypatch.setattr(_Recorder, "record", keep)
        period = scn.pulse.duration / 600
        traj = evolve(initial_state(scn.spec), scn.pulse, scn.noise, scn.spec, period)
        assert len(traj) == len(states) == 601 > 2 * SAMPLE_BLOCK
        i, j = scn.spec.index(DOWN, 1), scn.spec.index(UP, 0)
        assert np.array_equal(traj.rho11, [rho[i, i] for rho in states])
        assert np.array_equal(traj.rho21, [rho[j, i] for rho in states])
        assert np.array_equal(traj.trace, [np.real(np.trace(rho)) for rho in states])
        assert np.array_equal(traj.purity, [purity(rho) for rho in states])
        assert np.array_equal(traj.min_eigenvalue, [min_eigenvalue(rho) for rho in states])

    def test_keeps_one_block_of_states(self):
        # each further sample costs its trajectory row, 8 numbers, and not its
        # state: 144 complex numbers at 6 levels
        spec = HilbertSpec(6)
        rho0 = pure_density(spec.ket(UP, 0))
        pulse = make_pulse(duration=1.0)

        def peak_bytes(samples):
            tracemalloc.start()
            try:
                evolve(rho0, pulse, NO_NOISE, spec, sample_period=1.0 / samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 8 * SAMPLE_BLOCK
        per_sample = (peak_bytes(2 * n) - peak_bytes(n)) / n
        assert per_sample < spec.dim**2 * 16 / 4


class TestPropagator:
    def test_ramped_matches_rk4(self):
        _, pulse = operating_point("altParams", 0.05, 3)
        spec = HilbertSpec(3)
        u = pulse_propagator(pulse, spec)
        assert np.max(np.abs(u - rk4.unitary(pulse, spec, dt=5e-5))) < 1e-10

    def test_unitary(self):
        u = pulse_propagator(make_pulse(g=G1, g_prime=GP1, phase_freq=E1), SPEC)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9

    def test_matches_density_evolution(self):
        pulse = make_pulse(g=G1)
        u = pulse_propagator(pulse, SPEC)
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj = evolve(rho0, pulse, NO_NOISE, SPEC, sample_period=pulse.duration / 100)
        assert np.max(np.abs(u @ rho0 @ u.conj().T - traj.final_state)) < 1e-9


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

    # the last ramp equals |area/g|: the pulse is all ramp, with no flat top
    @pytest.mark.parametrize("ramp", [0.01, 0.05, math.pi / abs(G1)])
    def test_sin2_flat_top_compensation(self, ramp):
        d = pulse_duration_for_area(-math.pi, G1, ramp)
        assert d == pytest.approx(math.pi / abs(G1) + ramp, abs=1e-9)
        seg = PulseSegment(duration=d, g_value=G1, ramp=ramp)
        assert seg.area() == pytest.approx(-math.pi, rel=1e-14)

    def test_sin2_ramp_longer_than_pulse(self):
        with pytest.raises(ValueError):
            pulse_duration_for_area(-math.pi, G1, ramp=1.0)

    def test_ramped_transfer_still_complete(self):
        # adiabatic ramps keep the closed-system pi-pulse transfer exact
        ramp = 0.02
        d = pulse_duration_for_area(-math.pi, G1, ramp)
        pulse = PulseSegment(duration=d, g_value=G1, ramp=ramp)
        traj = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, SPEC, sample_period=d)
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
            evolve(rho0, seg, NO_NOISE, SPEC, sample_period=0.0)
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
