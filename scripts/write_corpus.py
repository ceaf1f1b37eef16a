#!/usr/bin/env python3
"""Rewrite the stored exit codes and summary numbers that tier-1 checks.

Each config of ``configs()`` is written to ``tests/corpus/<name>.json`` and
run through the CLI with its summary on stdout: ``sweep`` for fig3a and
fig3b, ``robustness`` (seed 0) for robustness, ``run`` for the rest.
``tests/corpus/expected.json`` keeps, for each, the command, the exit code,
the first stderr line up to its first digit, and every number of the summary
under its JSON path.  ``tests/test_corpus.py`` runs the same configs and
compares.  Rewrite the corpus only with a change that means to move these
values, and name every value that moved; the script prints them:

    PYTHONPATH=src python scripts/write_corpus.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

from topoflux import cli
from topoflux.presets import preset_names, scenario_preset

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"
RAMP = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": 0.05}
# the command of each config by name; ``run`` for the others
COMMANDS = {"fig3a": ["sweep"], "fig3b": ["sweep"], "robustness": ["robustness", "--seed", "0"]}
# fockLevels nested this deep, near the recursion limit, is refused by the JSON parser
# or by the schema validator, depending on the stack depth of the call
NESTING_DEPTH = 990


def _fig2a(**blocks):
    return {**scenario_preset("fig2a"), **blocks}


def configs() -> dict[str, str]:
    """The corpus: config text by name."""
    raws = {name: scenario_preset(name) for name in preset_names()}
    for levels in (2, 4):
        raws[f"fig2a_ramped_fock{levels}"] = _fig2a(pulse=RAMP, hilbert={"fockLevels": levels})
    # a rectangular pulse has no ramps, whatever its rampTime_ns
    raws["fig2a_rect_ramp_time_100"] = _fig2a(
        pulse={"areaOverPi": -1.0, "shape": "rectangular", "rampTime_ns": 100}
    )
    # exit-code probes: the plateau's anti-Hermitian round-off grows with g', and long pulses
    for g_prime in ("1e6", "3e6", "1e7", "3e7", "1e8", "365373325"):
        raws[f"fig2a_gprime_{g_prime}"] = _fig2a(overrides={"gPrime_GHz": float(g_prime)})
    for area in ("-1e6", "-1e8"):
        pulse = {"areaOverPi": float(area), "shape": "rectangular"}
        raws[f"fig2a_area_{area}"] = _fig2a(pulse=pulse)
    raws["fig2a_area_-1e6_closed"] = _fig2a(
        pulse={"areaOverPi": -1e6, "shape": "rectangular"}, noise={"enabled": False}
    )
    # found by fuzzing: a subnormal ramp, and a pulse of 2.5e-323 ns (this phase gives g > 0)
    raws["fig2a_ramp_5e-324"] = _fig2a(pulse={**RAMP, "rampTime_ns": 5e-324})
    subnormal = _fig2a(pulse={**RAMP, "areaOverPi": 5e-324, "rampTime_ns": 5e-324})
    subnormal["device"] = {**subnormal["device"], "phiC_rad": -7298446733626987.0}
    raws["fig2a_pulse_2.5e-323"] = subnormal
    texts = {name: json.dumps(raw, indent=2) + "\n" for name, raw in raws.items()}
    deep = json.dumps(_fig2a(hilbert={"fockLevels": "X"}), indent=2)
    texts[f"fig2a_fock_levels_nested_{NESTING_DEPTH}"] = (
        deep.replace('"X"', "[" * NESTING_DEPTH + "]" * NESTING_DEPTH) + "\n"
    )
    return texts


def numbers(value, path=""):
    """Every number in a parsed JSON value (bools excepted), by its path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return {path: value} if is_number else {}
    return {p: v for key, item in items for p, v in numbers(item, f"{path}/{key}").items()}


def record(argv: list[str], config: Path) -> dict:
    """Run ``topoflux <argv> --config <config>``: its exit code, the first line of its
    stderr up to the first digit, and the numbers of the summary it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--config", str(config)])
    first_line = err.getvalue().partition("\n")[0]
    summary = numbers(json.loads(out.getvalue())) if code == 0 else {}
    return {"exit": code, "stderr": re.split(r"\d", first_line)[0], "numbers": summary}


def main():
    path = CORPUS / "expected.json"
    before = json.loads(path.read_text()) if path.exists() else {}
    CORPUS.mkdir(exist_ok=True)
    expected = {}
    for name, text in configs().items():
        config = CORPUS / f"{name}.json"
        config.write_text(text)
        argv = COMMANDS.get(name, ["run"])
        expected[name] = {"argv": argv, **record(argv, config)}
        old = before.get(name, {})
        for key in ("exit", "stderr"):
            if key in old and old[key] != expected[name][key]:
                print(f"{name}: {key} {old[key]!r} -> {expected[name][key]!r}")
        for p, v in expected[name]["numbers"].items():
            w = old.get("numbers", {}).get(p)
            if w is not None and w != v:
                print(f"{name}{p}: {w!r} -> {v!r}")
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {len(expected)} configs and {path}")


if __name__ == "__main__":
    main()
