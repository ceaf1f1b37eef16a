"""Device parameter pipeline: circuit/wire inputs -> coupling strengths.

Internal unit system (hbar = 1): angular frequencies in rad/ns, times in ns,
lengths in um, velocities in um/ns.  Quantities quoted as ordinary frequencies
("X GHz" meaning omega/2pi) convert via ``ghz_to_angular``.

The hybridization energy of the Majorana pair across the quantum wire follows
a piecewise law in Lambda(phi) = (Delta0 L / vF) sin(phi/2):

* strong-coupling branch, Lambda <= -5:  E(phi) = -1.9 (Lambda - 0.5) vF / L
* off branch, Lambda >= +5:              E(phi) = 2 Delta0 sin(phi/2) exp(-Lambda)

The window -5 < Lambda < +5 has no usable formula and is treated as a hard
error rather than interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSolutionError, ValidityError

TWO_PI = 2.0 * math.pi

# Boltzmann / hbar in rad/ns per mK: k_B * 1e-3 K / hbar / 1e9 ns
KB_OVER_HBAR_PER_MK = 1.380649e-23 * 1e-3 / 1.054571817e-34 / 1e9

STRONG_BRANCH_MAX_LAMBDA = -5.0
OFF_BRANCH_MIN_LAMBDA = 5.0


def ghz_to_angular(f_ghz: float) -> float:
    """Ordinary frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * f_ghz


def mk_to_angular(t_mk: float) -> float:
    """Temperature in mK -> energy-equivalent angular frequency k_B T / hbar in rad/ns."""
    return KB_OVER_HBAR_PER_MK * t_mk


def m_per_s_to_um_per_ns(v: float) -> float:
    return v * 1e-3


@dataclass(frozen=True)
class DeviceParams:
    """Physical inputs for one device realization.

    alpha, beta       junction energy ratios (E_J3 = alpha E_J, E_J4 = beta E_J)
    ej                Josephson energy, rad/ns
    ej_over_ec        E_J / E_C ratio
    delta0            proximity-induced gap of the wire, rad/ns
    v_fermi           effective Fermi velocity, um/ns
    length            wire length, um
    tf1, tf2          flux-qubit relaxation / dephasing times, ns
    temperature       k_B T / hbar, rad/ns
    """

    alpha: float
    beta: float
    ej: float
    ej_over_ec: float
    delta0: float
    v_fermi: float
    length: float
    tf1: float
    tf2: float
    temperature: float

    def __post_init__(self):
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0.5, 1), got {self.alpha}")
        # each check written so that nan fails it
        if not self.beta >= 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        for name in ("ej", "ej_over_ec", "delta0", "v_fermi", "length", "tf1", "tf2", "temperature"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class DerivedCouplings:
    """Everything the dynamics needs, all in rad/ns except the dimensionless entries."""

    theta: float          # phase difference across junction j4
    zeta: float           # flux phase-fluctuation magnitude
    omega_f: float        # flux plasma frequency sqrt(8 E_J E_C)
    lambda_phi: float     # Lambda at the operating phase
    energy: float         # E(phi_c), wire hybridization energy
    de_dphi: float        # dE/dphi at phi_c
    g: float              # Jaynes-Cummings coupling (zeta/sqrt(2)) dE/dphi
    g_prime: float        # contaminating coupling theta dE/dphi


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ValidityReport:
    """Order-of-magnitude health checks for one operating point.

    ``tunneling_rate`` uses the scaling r ~ omega_f exp(-sqrt(E_J/E_C)) with
    unit prefactor, so it and the derived error probability are estimates,
    not calibrated predictions.
    """

    ratio_g_over_g_prime: float
    energy_over_g: float
    tunneling_rate: float
    tunneling_error_prob: float
    thermal_occupation: float
    checks: tuple[RegimeCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def derive_statics(p: DeviceParams) -> tuple[float, float, float]:
    """(theta, zeta, omega_f) from the junction ratios and charging energy."""
    theta = math.sqrt(4.0 * p.alpha**2 - 1.0) / (2.0 * p.alpha * p.beta)
    zeta = (8.0 / p.ej_over_ec) ** 0.25 / math.sqrt(p.beta)
    omega_f = p.ej * math.sqrt(8.0 / p.ej_over_ec)
    return theta, zeta, omega_f


def lambda_of_phi(p: DeviceParams, phi: float) -> float:
    """Lambda(phi) = (Delta0 L / vF) sin(phi/2), dimensionless."""
    return p.delta0 * p.length / p.v_fermi * math.sin(phi / 2.0)


def energy_of_phi(p: DeviceParams, phi: float) -> float:
    """Wire hybridization energy E(phi) in rad/ns, on either validity branch."""
    lam = lambda_of_phi(p, phi)
    if lam <= STRONG_BRANCH_MAX_LAMBDA:
        return -1.9 * (lam - 0.5) * p.v_fermi / p.length
    if lam >= OFF_BRANCH_MIN_LAMBDA:
        return 2.0 * p.delta0 * math.sin(phi / 2.0) * math.exp(-lam)
    raise ValidityError(
        f"Lambda(phi)={lam:.3f} lies in the gap ({STRONG_BRANCH_MAX_LAMBDA}, "
        f"{OFF_BRANCH_MIN_LAMBDA}) where no coupling formula applies; "
        "move phi further onto the strong or off branch"
    )


def de_dphi(p: DeviceParams, phi: float) -> float:
    """dE/dphi on the strong branch: -0.95 Delta0 cos(phi/2), rad/ns per rad."""
    lam = lambda_of_phi(p, phi)
    if lam > STRONG_BRANCH_MAX_LAMBDA:
        raise ValidityError(
            f"dE/dphi only defined on the strong branch (Lambda <= -5), got Lambda={lam:.3f}"
        )
    return -0.95 * p.delta0 * math.cos(phi / 2.0)


def solve_resonant_phase(p: DeviceParams, omega_target: float) -> float:
    """Phase phi_on in (-pi, 0) with E(phi_on) = omega_target, strong branch.

    Closed form: Lambda* = 0.5 - omega L / (1.9 vF), phi = 2 asin(Lambda* vF / (Delta0 L)).
    """
    lam_star = 0.5 - omega_target * p.length / (1.9 * p.v_fermi)
    s = lam_star * p.v_fermi / (p.delta0 * p.length)
    if abs(s) > 1.0:
        required = f"{s:.4g}" if math.isfinite(s) else "beyond float range"
        raise NoSolutionError(
            f"no phase satisfies E(phi) = {omega_target:.6g} rad/ns for this wire "
            f"(required sin(phi/2) = {required})"
        )
    if lam_star > STRONG_BRANCH_MAX_LAMBDA:
        raise ValidityError(
            f"resonance at Lambda={lam_star:.4g} falls outside the strong branch (<= -5)"
        )
    phi = 2.0 * math.asin(s)
    return phi


def validity_report(p: DeviceParams, derived: DerivedCouplings) -> ValidityReport:
    """Assemble regime checks at the operating point of ``derived``."""
    lam = derived.lambda_phi
    tunneling_rate = derived.omega_f * math.exp(-math.sqrt(p.ej_over_ec))
    tunneling_error = (tunneling_rate / derived.g) ** 2
    thermal = math.exp(-p.v_fermi / (p.temperature * p.length))
    ratio = derived.g / derived.g_prime
    e_over_g = abs(derived.energy / derived.g)

    checks = (
        # the scheme tolerates contamination down to g/g' = 1/3
        RegimeCheck("coupling_ratio", ratio, 1.0 / 3.0, ratio >= 1.0 / 3.0),
        RegimeCheck("energy_over_g", e_over_g, 10.0, e_over_g >= 10.0),
        RegimeCheck("strong_branch", lam, STRONG_BRANCH_MAX_LAMBDA, lam <= STRONG_BRANCH_MAX_LAMBDA),
    )
    return ValidityReport(
        ratio_g_over_g_prime=ratio,
        energy_over_g=e_over_g,
        tunneling_rate=tunneling_rate,
        tunneling_error_prob=tunneling_error,
        thermal_occupation=thermal,
        checks=checks,
    )


def derive_couplings(p: DeviceParams, phi_c: float) -> DerivedCouplings:
    """Run the full pipeline at a given operating phase."""
    theta, zeta, omega_f = derive_statics(p)
    energy = energy_of_phi(p, phi_c)
    slope = de_dphi(p, phi_c)
    return DerivedCouplings(
        theta=theta,
        zeta=zeta,
        omega_f=omega_f,
        lambda_phi=lambda_of_phi(p, phi_c),
        energy=energy,
        de_dphi=slope,
        g=zeta / math.sqrt(2.0) * slope,
        g_prime=theta * slope,
    )
