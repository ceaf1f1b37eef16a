"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from device_oracle import angular_to_ghz, ratio_formula
from topoflux import dynamics
from topoflux.config import resolve
from topoflux.device import de_dphi, energy_of_phi, ghz_to_angular, solve_resonant_phase
from topoflux.dynamics import (
    NO_NOISE,
    NoiseParams,
    PulseSegment,
    evolve,
)
from topoflux.experiments import (
    initial_state,
    run_evolution,
    run_robustness,
    run_scenario,
    run_sweep,
)
from topoflux.gates import (
    CZ,
    ideal_pulse_unitary,
    makhlin_invariants,
    synthesize_cp,
    verification_report,
)
from topoflux.hilbert import DOWN, UP, HilbertSpec, fidelity_pure, pure_density
from topoflux.presets import scenario_preset


def verdict(num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({label}): {detail}"
    print(line)
    assert ok, line


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scn_fig2a():
    return resolve(scenario_preset("fig2a"))


@pytest.fixture(scope="module")
def fig2a_run(scn_fig2a):
    return timed(run_scenario, scn_fig2a)


def test_criterion_01_parameter_pipeline(scn_fig2a):
    t0 = time.perf_counter()
    d = scn_fig2a.derived
    checks = {
        "omega_f": abs(angular_to_ghz(d.omega_f) - 50.0) / 50.0 <= 0.002,
        "theta": abs(d.theta - 0.052) <= 0.001,
        "zeta": abs(d.zeta - 0.145) <= 0.001,
        "phi_on": abs(scn_fig2a.phi_c - (-1.73)) <= 0.01,
        "lambda": abs(d.lambda_phi - (-7.75)) <= 0.05,
        "ratio": abs(ratio_formula(scn_fig2a.device) - 2.0) / 2.0 <= 0.02,
        "g": -2.1 <= angular_to_ghz(d.g) <= -2.0,
        "g_prime": -1.05 <= angular_to_ghz(d.g_prime) <= -1.0,
    }
    elapsed = time.perf_counter() - t0
    checks["runtime"] = elapsed < 1.0
    detail = (
        f"omega_f/2pi={angular_to_ghz(d.omega_f):.3f} GHz theta={d.theta:.4f} "
        f"zeta={d.zeta:.4f} phi_on={scn_fig2a.phi_c:.4f} Lambda={d.lambda_phi:.3f} "
        f"g/2pi={angular_to_ghz(d.g):.4f} g'/2pi={angular_to_ghz(d.g_prime):.4f} "
        f"[{elapsed * 1e3:.1f} ms]"
    )
    verdict(1, "parameter pipeline, main set", all(checks.values()), detail)


def test_criterion_02_alt_parameter_pipeline():
    scn = resolve(scenario_preset("altParams"))
    d = scn.derived
    ratio = d.g_prime / d.g
    checks = {
        "theta": abs(d.theta - 0.086) <= 0.001,
        "zeta": abs(d.zeta - 0.040) <= 0.001,
        "phi_on": abs(scn.phi_c - (-0.646)) <= 0.01,
        "g_prime_3g": abs(ratio - 3.0) / 3.0 <= 0.02,
        "g_prime_val": abs(angular_to_ghz(d.g_prime) - (-6.0)) / 6.0 <= 0.02,
    }
    detail = (
        f"theta={d.theta:.4f} zeta={d.zeta:.4f} phi_on={scn.phi_c:.4f} "
        f"g'/g={ratio:.4f} g'/2pi={angular_to_ghz(d.g_prime):.4f} GHz"
    )
    verdict(2, "parameter pipeline, alternative set", all(checks.values()), detail)


def test_criterion_03_state_transfer_fidelity(fig2a_run):
    summary, seconds = fig2a_run
    f1 = summary["fidelity"]
    ok = abs(f1 - 0.993) <= 0.005 and seconds < 10.0
    verdict(3, "state-transfer fidelity", ok, f"F1={f1:.5f} (target 0.993+-0.005) [{seconds:.2f} s]")


def test_criterion_04_entanglement_fidelity():
    summary = run_scenario(resolve(scenario_preset("fig2b")))
    f2 = summary["fidelity"]
    verdict(4, "entanglement fidelity", abs(f2 - 0.996) <= 0.005, f"F2={f2:.5f} (target 0.996+-0.005)")


def test_criterion_05_alt_parameter_fidelity():
    # Expected to fail with the interaction Hamiltonian implemented exactly as
    # written: the contamination term's second-order light shifts detune the
    # transfer by 2 (g'/2)^2 / E, costing ~3% fidelity at g' = 3g on top of
    # leakage, which lands F1 near 0.955 rather than 0.982.
    summary = run_scenario(resolve(scenario_preset("altParams")))
    f1 = summary["fidelity"]
    verdict(
        5,
        "strong-contamination transfer fidelity",
        abs(f1 - 0.982) <= 0.005,
        f"F1={f1:.5f} (target 0.982+-0.005)",
    )


def test_criterion_06_robustness():
    raw = scenario_preset("robustness")
    raw["robustness"]["samples"] = 32
    summary = run_robustness(resolve(raw), seed=0)
    worst = summary["worst_corner"]["fidelity"]
    mean = summary["monte_carlo"]["mean"]
    ok = abs(worst - 0.968) <= 0.01 and mean >= 0.96
    verdict(
        6,
        "10% unknown-error robustness",
        ok,
        f"worst corner F1={worst:.5f} (target 0.968+-0.01), mean F1={mean:.5f} (>= 0.96)",
    )


def test_criterion_07_decoherence_sweep_shape():
    ratios = [0, 1, 2, 3, 4, 5, 6]
    base = {
        "axis_cfgs": [
            ("fig3a", {"axis": "eta1", "lo": 0.0, "hi": 0.01, "points": 4, "gPrimeOverG": ratios}),
            ("fig3b", {"axis": "eta2", "lo": 0.0, "hi": 0.1, "points": 4, "gPrimeOverG": ratios}),
        ]
    }
    monotone = True
    worst_violation = 0.0
    for preset, sweep in base["axis_cfgs"]:
        raw = scenario_preset(preset)
        raw["sweep"] = sweep
        summary = run_sweep(resolve(raw))
        for row in summary["fidelities"]:
            for a, b in zip(row, row[1:]):
                if b > a + 1e-9:
                    monotone = False
                    worst_violation = max(worst_violation, b - a)

    # limiting point: both channels off and no contamination
    raw = scenario_preset("fig3a")
    raw["noise"] = {"enabled": True, "Tf2_ns": 1.0e30}
    raw["sweep"] = {"axis": "eta1", "lo": 0.0, "hi": 1e-4, "points": 2, "gPrimeOverG": [0]}
    limit = run_sweep(resolve(raw))["fidelities"][0][0]
    limit_ok = abs(limit - 1.0) <= 1e-4

    ok = monotone and limit_ok
    verdict(
        7,
        "sweep ordering and noise-free limit",
        ok,
        f"columns non-increasing={monotone} (worst +{worst_violation:.2e}), "
        f"F1(eta=0, g'=0)={limit:.8f}",
    )


def test_criterion_08_property_suite(scn_fig2a, fig2a_run, monkeypatch):
    t0 = time.perf_counter()
    spec = HilbertSpec(2)
    pulse = scn_fig2a.pulse
    g, gp, e_freq = pulse.g_value, pulse.g_prime_value, pulse.phase_freq
    noise = NoiseParams(tf1=900.0, tf2=20.0)
    rho_up0 = pure_density(spec.ket(UP, 0))
    results = {}

    diag = fig2a_run[0]["diagnostics"]
    results["trace_drift"] = diag["max_trace_error"] < 1e-7
    final = run_evolution(scn_fig2a).final_state
    results["hermiticity"] = np.max(np.abs(final - final.conj().T)) < 1e-9
    results["positivity"] = diag["min_eigenvalue"] > -1e-8

    traj_free = evolve(rho_up0, pulse, NO_NOISE)
    results["purity_noise_free"] = np.max(np.abs(traj_free.purity - 1.0)) < 1e-7

    duration = 2.0 * math.pi / abs(g)
    rabi_pulse = PulseSegment(duration=duration, g_value=g)
    traj = evolve(rho_up0, rabi_pulse, NO_NOISE, sample_period=duration / 50)
    rabi_err = np.max(np.abs(np.real(traj.rho22) - np.cos(abs(g) * traj.times / 2.0) ** 2))
    results["rabi_oracle"] = rabi_err < 1e-6

    dark0 = pure_density(spec.ket(DOWN, 0))
    dark_pulse = PulseSegment(duration=10.0, g_value=g)
    dark_traj = evolve(dark0, dark_pulse, noise, sample_period=5.0)
    dark_dev = np.max(np.abs(dark_traj.final_state - dark0))
    results["dark_state"] = dark_dev < 1e-9

    # halving the Magnus step on a 0.05 ns sin^2 ramp moves the transfer by < 1e-7.
    # Sampled once, each ramp is one piece, so its steps halve with the step rule's.
    raw = scenario_preset("fig2a")
    raw["pulse"] = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": 0.05}
    ramped = resolve(raw).pulse
    i_dn1 = spec.index(DOWN, 1)
    once = ramped.duration
    f_full = evolve(rho_up0, ramped, noise, sample_period=once).final_state[i_dn1, i_dn1].real
    monkeypatch.setattr(dynamics, "RAMP_STEPS", 2 * dynamics.RAMP_STEPS)
    monkeypatch.setattr(dynamics, "MAX_PHASE_STEP", dynamics.MAX_PHASE_STEP / 2)
    f_half = evolve(rho_up0, ramped, noise, sample_period=once).final_state[i_dn1, i_dn1].real
    results["dt_halving"] = abs(f_full - f_half) < 1e-7

    dev = scn_fig2a.device
    fd_ok = True
    for phi in np.linspace(-2.6, -1.2, 8):
        h = 1e-6
        fd = (energy_of_phi(dev, phi + h) - energy_of_phi(dev, phi - h)) / (2 * h)
        if abs(de_dphi(dev, phi) - fd) / abs(fd) >= 1e-6:
            fd_ok = False
    results["derivative_fd"] = fd_ok

    rt_ok = True
    for f_ghz in (45.0, 50.0, 55.0):
        omega = ghz_to_angular(f_ghz)
        phi = solve_resonant_phase(dev, omega)
        if abs(energy_of_phi(dev, phi) - omega) / omega >= 1e-10:
            rt_ok = False
    results["resonance_round_trip"] = rt_ok

    elapsed = time.perf_counter() - t0
    results["runtime"] = elapsed < 30.0
    failed = [k for k, v in results.items() if not v]
    verdict(
        8,
        "property suite",
        not failed,
        f"all {len(results) - 1} properties hold [{elapsed:.1f} s]"
        if not failed
        else f"failed: {', '.join(failed)}",
    )


def test_criterion_09_gate_suite(scn_fig2a):
    results = {}

    rng = np.random.default_rng(5)
    add_err = 0.0
    for _ in range(200):
        a, b = rng.uniform(-8, 8, size=2)
        add_err = max(
            add_err,
            np.max(
                np.abs(
                    ideal_pulse_unitary(a) @ ideal_pulse_unitary(b) - ideal_pulse_unitary(a + b)
                )
            ),
        )
    results["area_additivity"] = add_err < 1e-12

    g = scn_fig2a.pulse.g_value
    duration = math.pi / abs(g)
    pulse = PulseSegment(duration=duration, g_value=g)
    u_ideal = ideal_pulse_unitary(-math.pi)
    # random superpositions make the check sensitive to every relative phase of U
    psi_rng = np.random.default_rng(9)
    dyn_fids = []
    for _ in range(4):
        psi = psi_rng.normal(size=4) + 1j * psi_rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho_end = evolve(pure_density(psi), pulse, NO_NOISE).final_state
        dyn_fids.append(fidelity_pure(u_ideal @ psi, rho_end))
    dyn_fid = min(dyn_fids)
    results["dynamics_vs_closed_form"] = dyn_fid >= 1.0 - 1e-6

    def random_unitary():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    ref = makhlin_invariants([CZ])[0]
    stable = True
    for _ in range(100):
        dressed = (
            np.kron(random_unitary(), random_unitary())
            @ CZ
            @ np.kron(random_unitary(), random_unitary())
        )
        if not makhlin_invariants([dressed])[0].close_to(ref):
            stable = False
    results["makhlin_stability"] = stable

    c, s = np.cos(-0.75 * np.pi), np.sin(-0.75 * np.pi)
    v = np.array(
        [[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]], dtype=complex
    )
    zt90 = np.diag([np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2)
    zt180 = np.diag([np.exp(-1j * np.pi / 2)] * 2 + [np.exp(1j * np.pi / 2)] * 2)
    zfm90 = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)] * 2)
    oracle = zt90 @ zfm90 @ v @ zt180 @ v
    results["cp_matches_oracle"] = np.max(np.abs(synthesize_cp() - oracle)) < 1e-12

    report = verification_report()
    recorded = (
        "pulse_root_right_to_left_is_cp" in report["verdict"]
        and "canonical_root_right_to_left_is_cp" in report["verdict"]
        and isinstance(report["verdict"]["pulse_root_right_to_left_is_cp"], bool)
    )
    results["cp_verdict_recorded"] = recorded

    failed = [k for k, v_ok in results.items() if not v_ok]
    verdict(
        9,
        "gate suite",
        not failed,
        f"worst pulse-state fidelity={dyn_fid:.9f}; verdict recorded "
        f"(pulse root CP-equivalent: {report['verdict']['pulse_root_right_to_left_is_cp']})"
        if not failed
        else f"failed: {', '.join(failed)}",
    )


def test_criterion_10_determinism(tmp_path):
    raw = scenario_preset("fig2a")
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_scenario(resolve(raw), out_dir=d, formats=("csv", "json", "svg"))
    same_scenario = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        for n in ("fig2a.csv", "fig2a_summary.json", "fig2a.svg")
    )

    rraw = scenario_preset("robustness")
    rraw["robustness"]["samples"] = 2
    for d in dirs:
        run_robustness(resolve(rraw), seed=5, out_dir=d)
    same_rob = (dirs[0] / "robustness_summary.json").read_bytes() == (
        dirs[1] / "robustness_summary.json"
    ).read_bytes()

    verdict(
        10,
        "byte-identical reruns",
        same_scenario and same_rob,
        f"scenario outputs identical={same_scenario}, robustness outputs identical={same_rob}",
    )
