#!/usr/bin/env python3
"""Rewrite the stored exit codes and summary numbers that tier-1 checks.

Each config of ``configs()`` is written to ``tests/corpus/<name>.json``, and
each entry of ``entries()`` runs one of them (or none) through the CLI with
its summary or report on stdout: every config under its own command
(``sweep`` for fig3a and fig3b, ``robustness`` at seed 0 for robustness,
``run`` for the rest), then the ``derive`` report of the six presets and of
both override configs, robustness at seed 7 and ``gates verify``.
``tests/corpus/expected.json`` keeps, for each entry, its config, the command,
the exit code, the first stderr line up to its first digit, and every number
of the summary under its JSON path.  ``tests/test_corpus.py`` runs the same
entries and compares, and ``scripts/output_digest.py`` writes their output
files.  Rewrite the corpus only with a change that means to move these values
or the set of entries, and name every value that moved or went and every
config or entry added (``+``) or dropped (``-``); the script prints them, and
deletes the configs that ``configs()`` no longer writes:

    PYTHONPATH=src python scripts/write_corpus.py

It runs BLAS on one thread, whatever the environment says, as
``scripts/output_digest.py`` does: the last bits of some stored values (the
6-level ramp's among them) follow the thread count.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

if __name__ == "__main__":
    # set before numpy is first imported, so that the stored values depend on the code alone
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"

from topoflux import cli  # noqa: E402
from topoflux.presets import preset_names, scenario_preset  # noqa: E402

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"
RAMP = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": 0.05}
# the command of each config by name; ``run`` for the others
COMMANDS = {"fig3a": ["sweep"], "fig3b": ["sweep"], "robustness": ["robustness", "--seed", "0"]}
FULL_OVERRIDES = {"g_GHz": -2.0, "gPrime_GHz": -1.0, "E_GHz": 50.0}
OVERRIDE_CONFIGS = {
    "fig2a_overrides": FULL_OVERRIDES,
    # no phase gives E = 1e6 GHz, so phi_c is null and no derived or validity block is echoed
    "fig2a_overrides_unsolved": {**FULL_OVERRIDES, "resonanceTarget_GHz": 1e6},
}
# fockLevels nested this deep, near the recursion limit, is refused by the JSON parser
# or by the schema validator, depending on the stack depth of the call
NESTING_DEPTH = 990


def _fig2a(**blocks):
    return {**scenario_preset("fig2a"), **blocks}


def configs() -> dict[str, str]:
    """The corpus: config text by name."""
    raws = {name: scenario_preset(name) for name in preset_names()}
    # at 6 levels the two plateau pieces that share a sample interval with a ramp are Magnus
    # steps whose 1-norm bound is above the Taylor series' limit
    for levels in (2, 3, 4, 6):
        raws[f"fig2a_ramped_fock{levels}"] = _fig2a(pulse=RAMP, hilbert={"fockLevels": levels})
    # 608 samples, three of the recorder's 256-sample blocks
    raws["fig2a_sample_period_0.0004"] = _fig2a(integration={"samplePeriod_ns": 0.0004})
    for name, overrides in OVERRIDE_CONFIGS.items():
        raws[name] = _fig2a(overrides=overrides)
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


def entries(names) -> dict[str, tuple[str | None, list[str]]]:
    """The corpus's runs by name, each its config's name (None for none) and command: every
    config of ``names`` under its own command, named after it, then the extra runs."""
    runs = {name: (name, COMMANDS.get(name, ["run"])) for name in names}
    for name in (*preset_names(), *OVERRIDE_CONFIGS):
        runs[f"derive_{name}"] = (name, ["derive"])
    runs["robustness_seed7"] = ("robustness", ["robustness", "--seed", "7"])
    runs["gates_verify"] = (None, ["gates", "verify"])
    return runs


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


def record(argv: list[str], config: str | None) -> dict:
    """Run ``topoflux <argv>``, with ``--config`` the corpus's config of that name when one
    is given: its exit code, the first line of its stderr up to the first digit, and the
    numbers of the summary it prints."""
    if config is not None:
        argv = [*argv, "--config", str(CORPUS / f"{config}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    first_line = err.getvalue().partition("\n")[0]
    summary = numbers(json.loads(out.getvalue())) if code == 0 else {}
    return {"exit": code, "stderr": re.split(r"\d", first_line)[0], "numbers": summary}


def main():
    path = CORPUS / "expected.json"
    before = json.loads(path.read_text()) if path.exists() else {}
    CORPUS.mkdir(exist_ok=True)
    stored = {p.stem: p for p in CORPUS.glob("*.json") if p != path}
    texts = configs()
    for name in stored.keys() - texts.keys():
        stored[name].unlink()
    for name, text in texts.items():
        (CORPUS / f"{name}.json").write_text(text)
    expected = {}
    for name, (config, argv) in entries(texts).items():
        expected[name] = {"config": config, "argv": argv, **record(argv, config)}
        old = before.get(name, {})
        for key in ("exit", "stderr"):
            if key in old and old[key] != expected[name][key]:
                print(f"{name}: {key} {old[key]!r} -> {expected[name][key]!r}")
        now = expected[name]["numbers"]
        for p, w in old.get("numbers", {}).items():
            if p not in now:
                print(f"{name}{p}: {w!r} -> (gone)")
            elif now[p] != w:
                print(f"{name}{p}: {w!r} -> {now[p]!r}")
    old, new = stored.keys() | before.keys(), texts.keys() | expected.keys()
    for sign, names in (("+", new - old), ("-", old - new)):
        for name in sorted(names):
            print(f"{sign} {name}")
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {len(texts)} configs and the {len(expected)} runs of {path}")


if __name__ == "__main__":
    main()
