"""Benchmark workloads: their inputs, the calls of one rotation, and the correctness gate.

Every input is derived from ``topoflux.presets.scenario_preset``; only the
robustness Monte Carlo consumes the seed.  Calls look topoflux functions up on
their modules at call time (``experiments.run_sweep(...)``, never a bound
reference), so the timing wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from topoflux import cli, config, experiments, output, presets

WORKLOADS = ("scenario", "sweep", "robustness", "ramped")

# ROADMAP item 2's done-criterion: an exact propagator passes, a looser integrator fails
FIDELITY_TOL = 1e-7
TRACE_DRIFT_MAX = 1e-6
# the seed whose Monte Carlo fidelities are committed; other seeds get a range check
REF_SEED = 0

SCENARIO_PRESETS = ("fig2a", "fig2b", "altParams")
SWEEP_PRESETS = ("fig3a", "fig3b")
# two axis points keep eta = 0 (noise off on that channel) and the preset's top rate
SWEEP_POINTS = 2
ROBUSTNESS_SAMPLES = 3
RAMP_FOCK_LEVELS = (2, 3, 4)
RAMP_TIME_NS = 0.05


class CheckError(Exception):
    """A call returned, but its output is malformed or disagrees with the references."""


@dataclass
class Call:
    """One closed-loop call of a workload rotation.

    ``invoke`` is the timed part.  ``values`` validates the result and returns
    the named values compared against ``expected``: a float must lie within
    FIDELITY_TOL, a bool or int must match exactly, and a ``[lo, hi]`` pair is
    a range.
    """

    label: str
    evolutions: int
    invoke: Callable[[], object]
    values: Callable[[object], dict]
    expected: dict = field(default_factory=dict)
    prepare: Callable[[], None] = lambda: None


def _reject_constant(token):
    raise CheckError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN / Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_roundtrip(payload):
    """The JSON a caller would get from an in-memory summary, parsed strictly."""
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as e:
        raise CheckError(f"summary is not strict JSON: {e}") from None
    return strict_json(text)


def compare(values: dict, expected: dict, complete: bool) -> tuple[list[str], float]:
    """Errors of ``values`` against ``expected`` and the largest fidelity error seen."""
    errors = []
    worst = 0.0
    for key, value in values.items():
        if key not in expected:
            errors.append(f"{key}: no reference")
            continue
        ref = expected[key]
        if isinstance(ref, list):
            if not ref[0] <= value <= ref[1]:
                errors.append(f"{key}: {value!r} outside [{ref[0]!r}, {ref[1]!r}]")
        elif isinstance(ref, float):
            err = abs(value - ref)
            worst = max(worst, err) if math.isfinite(err) else math.inf
            if not err <= FIDELITY_TOL:
                errors.append(f"{key}: {value!r} differs from {ref!r} by {err:.3e}")
        elif value != ref:
            errors.append(f"{key}: {value!r} != {ref!r}")
    if complete:
        errors.extend(f"{key}: not produced" for key in expected if key not in values)
    return errors, worst


def _check_diagnostics(diag: dict):
    drift = diag["max_trace_error"]
    if not drift <= TRACE_DRIFT_MAX:
        raise CheckError(f"trace drift {drift!r} exceeds {TRACE_DRIFT_MAX}")
    if not math.isfinite(diag["min_eigenvalue"]):
        raise CheckError(f"min_eigenvalue {diag['min_eigenvalue']!r} is not finite")


def _config(work: Path, stem: str, raw: dict) -> Path:
    """Write a config and check it the way a user would, with ``topoflux derive``."""
    path = output.write_json(raw, work / f"{stem}.json")
    code = _cli(["derive", "--config", str(path)])
    if code != 0:
        raise CheckError(f"topoflux derive rejects {path.name} with exit code {code}")
    return path


def _remove(paths):
    for p in paths:
        p.unlink(missing_ok=True)


def _cli(argv):
    # printing is part of the CLI's work; it goes to a buffer, not the result stream
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _scenario_values(out: Path, stem: str, code) -> dict:
    if code != 0:
        raise CheckError(f"exit code {code}")
    summary = strict_json((out / f"{stem}_summary.json").read_text())
    diag = summary["diagnostics"]
    _check_diagnostics(diag)
    cols = output.read_trajectory_csv(out / f"{stem}.csv")
    if not all(np.all(np.isfinite(c)) for c in cols.values()):
        raise CheckError(f"{stem}.csv holds non-finite values")
    # floats are written in shortest round-trip form, so the file reproduces the summary exactly
    if float(np.max(np.abs(cols["trace"] - 1.0))) != diag["max_trace_error"]:
        raise CheckError(f"{stem}.csv trace column disagrees with the summary")
    if float(np.min(cols["min_eig"])) != diag["min_eigenvalue"]:
        raise CheckError(f"{stem}.csv min_eig column disagrees with the summary")
    if float(cols["purity"][-1]) != diag["final_purity"]:
        raise CheckError(f"{stem}.csv purity column disagrees with the summary")
    if not (out / f"{stem}.svg").read_text().startswith("<svg"):
        raise CheckError(f"{stem}.svg is not an SVG document")
    return {"fidelity": summary["fidelity"], "samples": len(cols["t_ns"])}


def _gates_values(out: Path, code) -> dict:
    if code != 0:
        raise CheckError(f"exit code {code}")
    report = strict_json((out / "gates_verification.json").read_text())
    flags = {f"verdict/{k}": v for k, v in report["verdict"].items()}
    for group in ("references", "synthesis"):
        for name, entry in report[group].items():
            flags[f"{group}/{name}/cz_equivalent"] = entry["cz_equivalent"]
    return flags


def _scenario(work: Path, refs: dict, seed: int, smoke: bool) -> list[Call]:
    out = work / "out"
    calls = []
    for name in SCENARIO_PRESETS[:1] if smoke else SCENARIO_PRESETS:
        path = _config(work, name, presets.scenario_preset(name))
        argv = ["run", "--config", str(path), "--out", str(out), "--format", "csv,json,svg"]
        files = [out / f"{name}{suffix}" for suffix in (".csv", ".svg", "_summary.json")]
        calls.append(
            Call(
                label=name,
                evolutions=1,
                invoke=lambda argv=argv: _cli(argv),
                values=lambda code, name=name: _scenario_values(out, name, code),
                expected=refs.get(name, {}),
                prepare=lambda files=files: _remove(files),
            )
        )
    gates_argv = ["gates", "verify", "--out", str(out)]
    calls.append(
        Call(
            label="gates",
            evolutions=0,
            invoke=lambda: _cli(gates_argv),
            values=lambda code: _gates_values(out, code),
            expected=refs.get("gates", {}),
            prepare=lambda: _remove([out / "gates_verification.json"]),
        )
    )
    return calls


def _sweep_values(summary) -> dict:
    s = strict_roundtrip(summary)
    return {
        f"{s['axis']}={eta!r}/ratio={ratio:g}": f
        for eta, row in zip(s["axis_values"], s["fidelities"])
        for ratio, f in zip(s["ratios"], row)
    }


def _sweep(work: Path, refs: dict, seed: int, smoke: bool) -> list[Call]:
    calls = []
    for name in SWEEP_PRESETS:
        raw = presets.scenario_preset(name)
        raw["sweep"]["points"] = SWEEP_POINTS
        if smoke:
            raw["sweep"]["gPrimeOverG"] = [0]
        scn = config.load_config(_config(work, name, raw))
        calls.append(
            Call(
                label=name,
                evolutions=SWEEP_POINTS * len(scn.sweep.ratios),
                invoke=lambda scn=scn: experiments.run_sweep(scn),
                values=_sweep_values,
                expected=refs.get(name, {}),
            )
        )
    return calls


def _robustness_values(summary) -> dict:
    s = strict_roundtrip(summary)
    mc = s["monte_carlo"]
    samples = mc["fidelities"]
    if len(samples) != mc["samples"]:
        raise CheckError(f"{len(samples)} Monte Carlo fidelities for {mc['samples']} samples")
    if samples and (mc["min"], mc["max"], mc["mean"]) != (
        min(samples),
        max(samples),
        float(np.mean(samples)),
    ):
        raise CheckError("Monte Carlo min / max / mean disagree with the samples")
    if s["worst_corner"] != min(s["corners"], key=lambda c: c["fidelity"]):
        raise CheckError("worst_corner is not the lowest corner")
    values = {"nominal": s["nominal_fidelity"]}
    for c in s["corners"]:
        f = c["factors"]
        values[f"corner/g={f['g']:g},g_prime={f['g_prime']:g},E={f['E']:g}"] = c["fidelity"]
    values.update({f"mc/{i}": f for i, f in enumerate(samples)})
    return values


def _robustness(work: Path, refs: dict, seed: int, smoke: bool) -> list[Call]:
    raw = presets.scenario_preset("robustness")
    samples = 0 if smoke else ROBUSTNESS_SAMPLES
    raw["robustness"]["samples"] = samples
    scn = config.load_config(_config(work, "robustness", raw))
    expected = dict(refs.get("robustness", {}))
    if seed != REF_SEED:
        for i in range(samples):
            expected[f"mc/{i}"] = refs.get("robustness_mc_range")
    return [
        Call(
            label="robustness",
            evolutions=9 + samples,
            invoke=lambda: experiments.run_robustness(scn, seed=seed),
            values=_robustness_values,
            expected=expected,
        )
    ]


def _ramped_values(summary) -> dict:
    s = strict_roundtrip(summary)
    _check_diagnostics(s["diagnostics"])
    return {"fidelity": s["fidelity"]}


def _ramped(work: Path, refs: dict, seed: int, smoke: bool) -> list[Call]:
    calls = []
    for levels in RAMP_FOCK_LEVELS[:1] if smoke else RAMP_FOCK_LEVELS:
        raw = presets.scenario_preset("fig2a")
        raw["experiment"] = "custom"
        raw["pulse"] = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": RAMP_TIME_NS}
        raw["hilbert"] = {"fockLevels": levels}
        label = f"fock{levels}"
        scn = config.load_config(_config(work, f"ramped_{label}", raw))
        calls.append(
            Call(
                label=label,
                evolutions=1,
                invoke=lambda scn=scn: experiments.run_scenario(scn, out_dir=None),
                values=_ramped_values,
                expected=refs.get(label, {}),
            )
        )
    return calls


_BUILDERS = {
    "scenario": _scenario,
    "sweep": _sweep,
    "robustness": _robustness,
    "ramped": _ramped,
}


def build(name: str, work: Path, refs: dict, seed: int, smoke: bool = False) -> list[Call]:
    """Write and resolve the workload's configs; return the calls of one rotation.

    ``refs`` is the workload's entry of refs.json.  ``smoke`` shrinks every
    workload to its smallest call set, checked against the same references.
    """
    config.load_schema()
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](work, refs, seed, smoke)
