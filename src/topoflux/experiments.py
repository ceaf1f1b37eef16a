"""Experiment orchestration: single scenarios, decoherence sweeps, error Monte Carlo.

Every runner is deterministic given (config, seed) and writes self-describing
summaries that echo the fully resolved parameter set.  Every run uses the
scenario's nominal pulse (``Scenario.pulse``), or a copy of it with other
couplings, which keeps the timing calibrated to the nominal g.  Sweep and
Monte Carlo points are mutually independent (nothing shared but immutable
inputs); both runners give them as (pulse, noise) pairs to ``fidelities``,
which returns results in the order it reads them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import Scenario
from .dynamics import NoiseParams, PulseSegment, Trajectory, evolve, trajectory_checks
from .errors import ConfigError
from .gates import ideal_pulse_unitary
from .hilbert import DOWN, UP, HilbertSpec, fidelity_pure, pure_density
from .output import emit_outputs, write_json, write_matrix_csv

# gate-basis index -> (spin, fock) of the computational states
_GATE_BASIS = ((DOWN, 0), (DOWN, 1), (UP, 0), (UP, 1))


def initial_state(spec: HilbertSpec) -> np.ndarray:
    """The protocol always starts from |up, 0>."""
    return pure_density(spec.ket(UP, 0))


def target_state(scn: Scenario) -> np.ndarray:
    """Ideal closed-system image of |up,0> under the scenario's pulse area."""
    u = ideal_pulse_unitary(scn.pulse_area)
    column = u[:, 2]  # |up,0> is gate-basis index 2
    psi = np.zeros(scn.spec.dim, dtype=complex)
    for gate_idx, (spin, n) in enumerate(_GATE_BASIS):
        psi[scn.spec.index(spin, n)] = column[gate_idx]
    return psi


def run_evolution(scn: Scenario) -> Trajectory:
    """Evolve |up,0> under the scenario's pulse and noise."""
    return evolve(initial_state(scn.spec), scn.pulse, scn.noise, sample_period=scn.sample_period)


def scenario_fidelity(scn: Scenario, traj: Trajectory) -> float:
    return fidelity_pure(target_state(scn), traj.final_state)


def fidelities(scn: Scenario, points: Iterable[tuple[PulseSegment, NoiseParams]]) -> list[float]:
    """Final-state fidelity against ``target_state(scn)`` for each (pulse, noise) point.

    The points are read one at a time, so a generator of them is never held
    in memory whole.  Every point starts from the same |up,0>, and only its
    final state is read, so each evolution samples just its two ends.
    """
    target, rho0 = target_state(scn), initial_state(scn.spec)
    return [
        fidelity_pure(target, evolve(rho0, pulse, noise, sample_period=pulse.duration).final_state)
        for pulse, noise in points
    ]


def _summary(scn: Scenario, **fields) -> dict:
    """The envelope every summary and report shares around its own fields."""
    return {
        "schemaVersion": 1,
        "experiment": scn.experiment,
        **fields,
        "parameters": scn.parameter_echo(),
    }


def run_scenario(scn: Scenario, out_dir=None, formats=("csv", "json", "svg")) -> dict:
    """Run one pulse scenario; returns (and optionally writes) the summary."""
    traj = run_evolution(scn)
    fid = scenario_fidelity(scn, traj)
    summary = _summary(
        scn,
        fidelity=fid,
        pulse_duration_ns=scn.pulse.duration,
        diagnostics=trajectory_checks(traj),
    )
    if out_dir is not None:
        stem = scn.experiment
        emit_outputs(traj, out_dir, stem, formats=formats, summary=summary)
    return summary


def _noise_for_axis(base: NoiseParams, axis: str, eta: float) -> NoiseParams:
    # eta1 = 1/(2 tf1), eta2 = 1/tf2; eta = 0 switches that channel off.  The other channel
    # keeps the scenario's time, or stays off when the scenario's noise is disabled
    if not base.enabled:
        base = NoiseParams()
    if axis == "eta1":
        return replace(base, tf1=math.inf if eta == 0.0 else 1.0 / (2.0 * eta), enabled=True)
    return replace(base, tf2=math.inf if eta == 0.0 else 1.0 / eta, enabled=True)


def run_sweep(scn: Scenario, out_dir=None) -> dict:
    """Fidelity of the scenario pulse across a decoherence-rate grid.

    One row per axis value, one column per g'/g ratio; g and the pulse timing
    stay at their nominal values throughout.
    """
    if scn.sweep is None:
        raise ConfigError("scenario has no sweep block", pointer="/sweep")
    sweep = scn.sweep
    etas = [float(eta) for eta in sweep.values()]
    g = scn.pulse.g_value
    points = (
        (replace(scn.pulse, g_prime_value=r * g), _noise_for_axis(scn.noise, sweep.axis, eta))
        for eta in etas
        for r in sweep.ratios
    )
    flat = fidelities(scn, points)
    width = len(sweep.ratios)
    grid = [flat[i * width : (i + 1) * width] for i in range(len(etas))]

    header = [sweep.axis + "_per_ns"] + [f"F1_gprime_over_g_{r:g}" for r in sweep.ratios]
    rows = [[eta] + row for eta, row in zip(etas, grid)]

    summary = _summary(
        scn,
        axis=sweep.axis,
        axis_values=etas,
        ratios=list(sweep.ratios),
        fidelities=grid,
        pulse_duration_ns=scn.pulse.duration,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_matrix_csv(header, rows, out / f"{scn.experiment}_sweep.csv")
        write_json(summary, out / f"{scn.experiment}_summary.json")
    return summary


def run_robustness(scn: Scenario, seed: int = 0, out_dir=None) -> dict:
    """Fidelity under unknown multiplicative errors in E, g and g'.

    Each Monte Carlo sample draws three independent factors from
    [1-f, 1+f] (seeded PRNG) applied to the phase frequency, g and g'; the
    pulse stays calibrated to the nominal g, which is what makes the error
    "unknown".  The eight corners with all factors at +-f are evaluated
    exactly alongside the samples.
    """
    if scn.robustness is None:
        raise ConfigError("scenario has no robustness block", pointer="/robustness")
    frac = scn.robustness.error_fraction
    n_samples = scn.robustness.samples
    spread = (1.0 - frac, 1.0 + frac)
    corner_factors = [(fg, fgp, fe) for fg in spread for fgp in spread for fe in spread]
    rng = np.random.default_rng(seed)
    # each sample is drawn only when it is evaluated, after the nominal point and the corners
    draws = (
        tuple(float(x) for x in rng.uniform(1.0 - frac, 1.0 + frac, size=3))
        for _ in range(n_samples)
    )
    points = (
        (
            replace(
                scn.pulse,
                g_value=scn.pulse.g_value * fg,
                g_prime_value=scn.pulse.g_prime_value * fgp,
                phase_freq=scn.pulse.phase_freq * fe,
            ),
            scn.noise,
        )
        for fg, fgp, fe in itertools.chain([(1.0, 1.0, 1.0)], corner_factors, draws)
    )
    nominal, *fids = fidelities(scn, points)
    corners = [
        {"factors": {"g": fg, "g_prime": fgp, "E": fe}, "fidelity": fid}
        for (fg, fgp, fe), fid in zip(corner_factors, fids)
    ]
    worst = min(corners, key=lambda c: c["fidelity"])
    samples = fids[len(corners) :]

    summary = _summary(
        scn,
        seed=seed,
        error_fraction=frac,
        nominal_fidelity=nominal,
        corners=corners,
        worst_corner=worst,
        monte_carlo={
            "samples": n_samples,
            "min": min(samples) if samples else nominal,
            "mean": float(np.mean(samples)) if samples else nominal,
            "max": max(samples) if samples else nominal,
            "fidelities": samples,
        },
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(summary, out / f"{scn.experiment}_summary.json")
    return summary


def derive_report(scn: Scenario) -> dict:
    """Parameter pipeline echo plus validity checks (no time evolution)."""
    return _summary(scn)
