import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from device_oracle import angular_to_ghz, coupling_shorthand, ratio_formula
from topoflux.config import resolve
from topoflux.device import (
    de_dphi,
    derive_couplings,
    derive_statics,
    energy_of_phi,
    ghz_to_angular,
    lambda_of_phi,
    m_per_s_to_um_per_ns,
    mk_to_angular,
    solve_resonant_phase,
    validity_report,
)
from topoflux.errors import NoSolutionError, ValidityError
from topoflux.presets import scenario_preset

TWO_PI = 2.0 * math.pi


FIG2A_DEVICE = resolve(scenario_preset("fig2a")).device


def any_params(alpha=0.8, beta=15.0, ej_over_ec=80.0):
    return dataclasses.replace(FIG2A_DEVICE, alpha=alpha, beta=beta, ej_over_ec=ej_over_ec)


class TestUnits:
    def test_ghz_round_trip(self):
        assert angular_to_ghz(ghz_to_angular(50.0)) == pytest.approx(50.0, rel=1e-15)

    def test_velocity(self):
        assert m_per_s_to_um_per_ns(1.0e5) == pytest.approx(100.0)

    def test_temperature(self):
        # k_B * 20 mK / hbar
        assert mk_to_angular(20.0) == pytest.approx(2.618, abs=2e-3)


class TestStatics:
    def test_set1(self, set1):
        theta, zeta, omega_f = derive_statics(set1)
        assert theta == pytest.approx(0.052, abs=1e-3)
        assert zeta == pytest.approx(0.145, abs=1e-3)
        assert angular_to_ghz(omega_f) == pytest.approx(50.0, rel=2e-3)

    def test_set2(self, set2):
        theta, zeta, _ = derive_statics(set2)
        assert theta == pytest.approx(0.086, abs=1e-3)
        assert zeta == pytest.approx(0.040, abs=1e-3)

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            any_params(alpha=0.4)
        with pytest.raises(ValueError):
            any_params(alpha=1.2)
        with pytest.raises(ValueError):
            any_params(beta=0.5)

    @pytest.mark.parametrize(
        "field",
        [
            "alpha",
            "beta",
            "ej",
            "ej_over_ec",
            "delta0",
            "v_fermi",
            "length",
            "tf1",
            "tf2",
            "temperature",
        ],
    )
    def test_nan_refused(self, field):
        # every check is written so that nan fails it, not as a comparison nan passes
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(FIG2A_DEVICE, **{field: math.nan})


class TestCouplingLaw:
    def test_lambda_zero_phase(self, set1):
        assert lambda_of_phi(set1, 0.0) == 0.0

    def test_lambda_operating_point(self, set1):
        lam = lambda_of_phi(set1, -1.73)
        assert lam == pytest.approx(-7.77, abs=0.01)
        assert lam == pytest.approx(-7.75, abs=0.05)

    def test_lambda_at_minus_pi(self, set1):
        # sin(-pi/2) = -1 leaves -(delta0 L / vF)
        assert lambda_of_phi(set1, -math.pi) == pytest.approx(-10.2102, abs=1e-3)

    def test_energy_operating_point(self, set1):
        e = energy_of_phi(set1, -1.73)
        assert angular_to_ghz(e) == pytest.approx(50.0, abs=0.2)

    def test_energy_branch_boundary(self, set1):
        # invert Lambda = -5 and substitute into the strong-branch law
        phi = 2.0 * math.asin(-5.0 * set1.v_fermi / (set1.delta0 * set1.length))
        assert lambda_of_phi(set1, phi) == pytest.approx(-5.0, rel=1e-12)
        expected = 1.9 * 5.5 * set1.v_fermi / set1.length
        assert energy_of_phi(set1, phi) == pytest.approx(expected, rel=1e-12)

    def test_energy_off_branch(self, set1):
        phi = 2.0 * math.asin(10.0 * set1.v_fermi / (set1.delta0 * set1.length))
        e = energy_of_phi(set1, phi)
        expected = 2.0 * set1.delta0 * math.sin(phi / 2.0) * math.exp(-10.0)
        assert e == pytest.approx(expected, rel=1e-12)
        assert abs(e) < 1e-3 * set1.delta0

    def test_energy_gap_is_error(self, set1):
        with pytest.raises(ValidityError):
            energy_of_phi(set1, -0.2)

    def test_derivative_off_branch_is_error(self, set1):
        # Lambda(+pi) = +10.2 is off branch; Lambda(-pi) = -10.2 stays on the
        # strong branch, where the slope legitimately crosses zero
        with pytest.raises(ValidityError):
            de_dphi(set1, math.pi)
        assert de_dphi(set1, -math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_closed_form(self, set1):
        slope = de_dphi(set1, -1.73)
        assert slope == pytest.approx(-0.95 * set1.delta0 * math.cos(-1.73 / 2.0), rel=1e-12)
        assert angular_to_ghz(slope) == pytest.approx(-20.05, abs=0.05)

    @pytest.mark.parametrize("phi", np.linspace(-2.8, -1.1, 9).tolist())
    def test_derivative_matches_finite_difference(self, set1, phi):
        if lambda_of_phi(set1, phi) > -5.0:
            pytest.skip("outside strong branch")
        h = 1e-6
        fd = (energy_of_phi(set1, phi + h) - energy_of_phi(set1, phi - h)) / (2.0 * h)
        assert de_dphi(set1, phi) == pytest.approx(fd, rel=1e-6)


class TestResonanceAndCouplings:
    def test_resonant_phase_set1(self, set1):
        phi = solve_resonant_phase(set1, ghz_to_angular(50.0))
        assert phi == pytest.approx(-1.73, abs=0.01)
        assert -math.pi < phi < 0.0

    def test_resonant_phase_set2(self, set2):
        phi = solve_resonant_phase(set2, ghz_to_angular(50.0))
        assert phi == pytest.approx(-0.646, abs=0.01)

    @pytest.mark.parametrize("f_ghz", [45.0, 50.0, 55.0, 60.0])
    def test_round_trip(self, set1, f_ghz):
        omega = ghz_to_angular(f_ghz)
        phi = solve_resonant_phase(set1, omega)
        assert energy_of_phi(set1, phi) == pytest.approx(omega, rel=1e-10)

    def test_no_solution(self, set1):
        with pytest.raises(NoSolutionError):
            solve_resonant_phase(set1, ghz_to_angular(10000.0))

    def test_outside_branch(self, set1):
        with pytest.raises(ValidityError):
            solve_resonant_phase(set1, ghz_to_angular(10.0))

    def test_couplings_set1(self, set1):
        _, _, omega_f = derive_statics(set1)
        phi = solve_resonant_phase(set1, omega_f)
        d = derive_couplings(set1, phi)
        g, gp = d.g, d.g_prime
        assert -2.1 <= angular_to_ghz(g) <= -2.0
        assert -1.05 <= angular_to_ghz(gp) <= -1.0

    def test_couplings_set2(self, set2):
        phi = solve_resonant_phase(set2, ghz_to_angular(50.0))
        d = derive_couplings(set2, phi)
        g, gp = d.g, d.g_prime
        assert angular_to_ghz(gp) == pytest.approx(-6.0, rel=0.02)
        assert gp / g == pytest.approx(3.0, rel=0.02)

    def test_ratio_formula_set1(self, set1):
        assert ratio_formula(set1) == pytest.approx(2.0, rel=0.02)

    def test_ratio_formula_set2(self, set2):
        assert ratio_formula(set2) == pytest.approx(1.0 / 3.0, rel=0.01)

    @given(
        st.floats(0.55, 0.99),
        st.floats(1.0, 50.0),
        st.floats(10.0, 1e5),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_identity(self, alpha, beta, ej_over_ec):
        p = any_params(alpha=alpha, beta=beta, ej_over_ec=ej_over_ec)
        theta, zeta, _ = derive_statics(p)
        # g/g' = zeta / (sqrt(2) theta), phase-independent
        assert ratio_formula(p) == pytest.approx(zeta / (math.sqrt(2.0) * theta), rel=1e-12)

    def test_couplings_match_ratio_formula(self, set1):
        phi = solve_resonant_phase(set1, ghz_to_angular(50.0))
        d = derive_couplings(set1, phi)
        g, gp = d.g, d.g_prime
        assert g / gp == pytest.approx(ratio_formula(set1), rel=1e-12)

    def test_shorthand_cross_check(self, set1):
        # the shorthand drops the 0.95 branch-law slope factor
        phi = solve_resonant_phase(set1, ghz_to_angular(50.0))
        g = derive_couplings(set1, phi).g
        approx = coupling_shorthand(set1, phi)
        assert 0.95 * approx == pytest.approx(g, rel=1e-12)
        assert abs(approx - g) / abs(approx) == pytest.approx(0.05, abs=1e-6)


class TestValidityReport:
    def test_set1_numbers(self, set1):
        phi = solve_resonant_phase(set1, ghz_to_angular(50.0))
        rep = validity_report(set1, derive_couplings(set1, phi))
        # omega_f exp(-sqrt(80)) ~ 6.5 MHz
        assert angular_to_ghz(rep.tunneling_rate) * 1e3 == pytest.approx(6.52, abs=0.05)
        assert rep.tunneling_error_prob == pytest.approx(1.0e-5, rel=0.05)
        assert rep.thermal_occupation == pytest.approx(4.8e-4, rel=0.05)
        assert rep.energy_over_g == pytest.approx(24.3, abs=0.5)
        assert rep.ratio_g_over_g_prime == pytest.approx(1.97, abs=0.01)
        assert rep.all_passed
        assert {c.name for c in rep.checks} == {"coupling_ratio", "energy_over_g", "strong_branch"}
        assert 0.0 <= rep.thermal_occupation <= 1.0
        assert 0.0 <= rep.tunneling_error_prob <= 1.0

    def test_set2_ratio_check_passes_at_one_third(self, set2):
        phi = solve_resonant_phase(set2, ghz_to_angular(50.0))
        rep = validity_report(set2, derive_couplings(set2, phi))
        ratio_check = next(c for c in rep.checks if c.name == "coupling_ratio")
        # g/g' = 1/3 sits exactly on the tolerated boundary
        assert ratio_check.value == pytest.approx(1.0 / 3.0, rel=1e-3)
        assert ratio_check.passed


class TestSmoothness:
    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "ej", "ej_over_ec", "delta0", "v_fermi", "length"]
    )
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_one_percent_perturbations_stay_smooth(self, set1, field, sign):
        import dataclasses

        base = derive_couplings(set1, solve_resonant_phase(set1, ghz_to_angular(50.0)))
        perturbed_params = dataclasses.replace(
            set1, **{field: getattr(set1, field) * (1.0 + 0.01 * sign)}
        )
        phi = solve_resonant_phase(perturbed_params, ghz_to_angular(50.0))
        pert = derive_couplings(perturbed_params, phi)
        assert pert.lambda_phi <= -5.0
        for name in ("theta", "zeta", "omega_f", "energy", "g", "g_prime"):
            b, q = getattr(base, name), getattr(pert, name)
            assert math.isfinite(q)
            assert abs(q - b) / abs(b) < 0.1
