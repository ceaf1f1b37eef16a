import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflux.device import ghz_to_angular
from topoflux.dynamics import (
    NO_NOISE,
    RECTANGULAR,
    SIN2_RAMP,
    NoiseParams,
    PulseSegment,
    _lindblad,
    _propagate_pulse,
    _Workspace,
    build_lab_hamiltonian,
    default_dt,
    evolve,
    evolve_static,
    expm,
    interaction_hamiltonian,
    lindblad_rhs,
    pulse_duration_for_area,
    pulse_propagator,
    trajectory_checks,
)
from topoflux.errors import IntegrationError
from topoflux.hilbert import DOWN, UP, HilbertSpec, hermiticity_error, pure_density

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
        dt = (TWO_PI / E1) / 200.0
        rho0 = pure_density(SPEC.ket(UP, 0))
        traj_i = evolve(
            rho0,
            make_pulse(g=G1, g_prime=GP1, phase_freq=E1),
            NO_NOISE,
            SPEC,
            dt=dt,
            sample_period=duration / 50,
        )
        h_lab = build_lab_hamiltonian(E1, E1, G1, GP1, SPEC)
        traj_l = evolve_static(
            rho0, h_lab, duration, NO_NOISE, SPEC, dt=dt, sample_period=duration / 50
        )
        n = min(len(traj_i), len(traj_l))
        d22 = np.max(np.abs(np.real(traj_i.rho22[:n] - traj_l.rho22[:n])))
        d11 = np.max(np.abs(np.real(traj_i.rho11[:n] - traj_l.rho11[:n])))
        assert max(d22, d11) < 0.05


class TestLindbladRhs:
    def test_generator_is_trace_free(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        seg = PulseSegment(duration=1.0, g_value=G1, g_prime_value=GP1, phase_freq=E1)
        h = interaction_hamiltonian(0.2, seg, SPEC)
        out = lindblad_rhs(rho, h, NOISE1, SPEC)
        assert abs(np.trace(out)) < 1e-12

    def test_dark_state_zero_derivative(self):
        rho = pure_density(SPEC.ket(DOWN, 0))
        seg = PulseSegment(duration=1.0, g_value=G1)
        h = interaction_hamiltonian(0.0, seg, SPEC)
        out = lindblad_rhs(rho, h, NOISE1, SPEC)
        assert np.max(np.abs(out)) < 1e-14

    def test_population_decay_rate(self):
        # H = 0: d rho11/dt = -rho11 / tf1
        rho = pure_density(SPEC.ket(DOWN, 1))
        out = lindblad_rhs(rho, np.zeros((4, 4), dtype=complex), NOISE1, SPEC)
        i_dn1 = SPEC.index(DOWN, 1)
        i_dn0 = SPEC.index(DOWN, 0)
        assert out[i_dn1, i_dn1].real == pytest.approx(-1.0 / 900.0, rel=1e-12)
        assert out[i_dn0, i_dn0].real == pytest.approx(+1.0 / 900.0, rel=1e-12)

    def test_coherence_decay_rate(self):
        # H = 0: the up0/down1 coherence decays at 1/(2 tf1) + 2/tf2
        psi = (SPEC.ket(UP, 0) + SPEC.ket(DOWN, 1)) / math.sqrt(2.0)
        rho = pure_density(psi)
        out = lindblad_rhs(rho, np.zeros((4, 4), dtype=complex), NOISE1, SPEC)
        i_up0, i_dn1 = SPEC.index(UP, 0), SPEC.index(DOWN, 1)
        expected = -(1.0 / (2.0 * 900.0) + 2.0 / 20.0) * rho[i_up0, i_dn1]
        assert out[i_up0, i_dn1] == pytest.approx(expected, rel=1e-12)


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

    def test_dt_halving(self):
        # a rectangular pulse would ignore dt, so RK4 is checked on a ramped one
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1, shape=SIN2_RAMP, ramp_time=0.02)
        rho0 = pure_density(SPEC.ket(UP, 0))
        i_dn1 = SPEC.index(DOWN, 1)
        dt = default_dt(pulse)
        f = evolve(rho0, pulse, NOISE1, SPEC, dt=dt, sample_period=1.0).final_state
        f_half = evolve(rho0, pulse, NOISE1, SPEC, dt=dt / 2, sample_period=1.0).final_state
        f, f_half = f[i_dn1, i_dn1].real, f_half[i_dn1, i_dn1].real
        assert abs(f - f_half) < 1e-7

    def test_step_size_error(self):
        pulse = make_pulse(g=G1, phase_freq=E1, shape=SIN2_RAMP, ramp_time=0.02)
        rho0 = pure_density(SPEC.ket(UP, 0))
        with pytest.raises(IntegrationError):
            evolve(rho0, pulse, NO_NOISE, SPEC, dt=1e-2, sample_period=pulse.duration / 100)

    def test_trace_drift_error(self):
        # wildly under-resolved Rabi frequency blows up RK4 and must be caught
        pulse = make_pulse(g=1.0e4, duration=1.0, shape=SIN2_RAMP, ramp_time=0.25)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError):
            evolve(pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, SPEC, dt=1e-3, sample_period=1.0)

    def test_static_divergence_error(self):
        # evolve_static shares the sampler's finite-state check with evolve
        h = interaction_hamiltonian(0.0, PulseSegment(1.0, g_value=1.0e4), SPEC)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError):
            evolve_static(pure_density(SPEC.ket(UP, 0)), h, 1.0, NO_NOISE, SPEC, dt=1e-3)

    def test_static_matches_evolve_for_rectangular_pulse(self):
        # g' = 0 and a flat envelope make H constant: evolve propagates it
        # exactly and evolve_static in RK4 steps.  Both take the same number of
        # samples, but evolve_static samples at the first step a period after
        # its last sample, so its times run up to two steps (4.7e-4 ns) late.
        duration = math.pi / abs(G1)
        dt = duration / 997
        sample_period = duration / 37
        pulse = make_pulse(duration=duration)
        rho0 = pure_density(SPEC.ket(UP, 0))
        a = evolve(rho0, pulse, NOISE1, SPEC, dt=dt, sample_period=sample_period)
        h = interaction_hamiltonian(0.0, pulse, SPEC)
        b = evolve_static(rho0, h, duration, NOISE1, SPEC, dt=dt, sample_period=sample_period)
        assert len(a) == len(b)
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


class TestExactPropagation:
    @pytest.mark.parametrize("noise", [NOISE1, NO_NOISE], ids=["noise", "closed"])
    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_matches_rk4(self, levels, noise):
        # the RK4 oracle at its default step, on the weak-contamination pi pulse
        spec = HilbertSpec(levels)
        pulse = make_pulse(g=G1, g_prime=GP1, phase_freq=E1)
        rho0 = pure_density(spec.ket(UP, 0))
        exact = evolve(rho0, pulse, noise, spec).final_state
        ws = _Workspace(spec)
        rk4 = _propagate_pulse(rho0.astype(complex), ws, pulse, None, _lindblad(ws, noise))
        assert np.max(np.abs(exact - rk4)) < 1e-10

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

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    def test_expm_refuses_non_finite_generator(self, value):
        with pytest.raises(IntegrationError):
            expm(np.full((2, 2), value))


class TestPropagator:
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
        d = pulse_duration_for_area(-math.pi, G1, shape=SIN2_RAMP, ramp_time=ramp)
        assert d == pytest.approx(math.pi / abs(G1) + ramp, abs=1e-9)
        seg = PulseSegment(
            duration=d, g_value=G1, shape=SIN2_RAMP, ramp_time=ramp
        )
        assert seg.area() == pytest.approx(-math.pi, rel=1e-14)

    def test_sin2_ramp_longer_than_pulse(self):
        with pytest.raises(ValueError):
            pulse_duration_for_area(-math.pi, G1, shape=SIN2_RAMP, ramp_time=1.0)

    def test_ramped_transfer_still_complete(self):
        # adiabatic ramps keep the closed-system pi-pulse transfer exact
        ramp = 0.02
        d = pulse_duration_for_area(-math.pi, G1, shape=SIN2_RAMP, ramp_time=ramp)
        pulse = PulseSegment(duration=d, g_value=G1, shape=SIN2_RAMP, ramp_time=ramp)
        traj = evolve(pure_density(SPEC.ket(UP, 0)), pulse, NO_NOISE, SPEC, sample_period=d)
        i_dn1 = SPEC.index(DOWN, 1)
        assert traj.final_state[i_dn1, i_dn1].real == pytest.approx(1.0, abs=1e-5)


class TestValidation:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PulseSegment(duration=0.0, g_value=1.0)
        with pytest.raises(ValueError):
            PulseSegment(duration=1.0, g_value=1.0, shape="triangle")
        with pytest.raises(ValueError):
            PulseSegment(duration=1.0, g_value=1.0, shape=SIN2_RAMP, ramp_time=0.6)

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
        seg = PulseSegment(duration=1.0, g_value=1.0, shape=SIN2_RAMP, ramp_time=0.25)
        assert seg.envelope(0.0) == pytest.approx(0.0)
        assert seg.envelope(0.25) == pytest.approx(1.0)
        assert seg.envelope(0.5) == pytest.approx(1.0)
        assert seg.envelope(1.0) == pytest.approx(0.0)
        rect = PulseSegment(duration=1.0, g_value=1.0, shape=RECTANGULAR)
        assert rect.envelope(0.0) == 1.0
