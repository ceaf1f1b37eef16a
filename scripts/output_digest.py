#!/usr/bin/env python3
"""Write a fixed set of topoflux outputs into a new OUT_DIR and print a sha256 per file.

The set covers what a refactor that promises unchanged output bytes must
keep: ``run --format csv,json,svg`` on fig2a, fig2b and altParams,
``run --format csv,json`` on fig2a with a 0.05 ns sin^2 ramp at fockLevels 2,
3, 4 and 6 and on fig2a as a rectangular pulse carrying ``rampTime_ns: 100``
(which it ignores), ``run --format csv,json`` on fig2a sampled every
0.0004 ns (608 samples, three of the recorder's 256-sample blocks, so that
block boundaries are in the check), the ``derive`` report of every preset,
``derive`` and ``run --format json`` on fig2a with full overrides of g, g'
and E (once with the pipeline's operating point echoed, once with
``phi_c: null`` because no phase meets the resonance target), ``gates
verify``, fig3a and fig3b sweeps reduced to 3 points and the ratios [0, 3],
and robustness with 2 samples for seeds 0 and 7 (38 files).  It runs BLAS on
one thread, whatever the environment says, since the 6-level ramp's last bits
follow the thread count.  Run it on two checkouts and compare the printed lines:

    PYTHONPATH=src python scripts/output_digest.py OUT_DIR

When some files differ, ``--compare`` prints, for each file of two such
directories, the largest absolute difference over its CSV cells or JSON
numbers (``identical`` when the bytes agree; ``differs`` for other files,
or when the text, keys or shapes disagree):

    PYTHONPATH=src python scripts/output_digest.py --compare OUT_A OUT_B

With ``--tol X`` it also exits 1 when a file differs, is only in one of the
directories, or moves by more than X; ``--tol 0`` asks for the same bytes, so
it also exits 1 when a file's numbers agree but its text does not (``1.0``
against ``1.00``):

    PYTHONPATH=src python scripts/output_digest.py --compare OUT_A OUT_B --tol 1e-13

It only uses the CLI, ``resolve``, ``run_sweep`` and ``run_robustness``, so
older checkouts run it too.  A run takes under a minute on one core.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # the last bits of the 6-level ramp follow the BLAS thread count, so every run uses one
    # thread and its bytes depend on the code alone; set before numpy is first imported
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
from topoflux.config import resolve  # noqa: E402
from topoflux.experiments import run_robustness, run_sweep  # noqa: E402
from topoflux.presets import preset_names, scenario_preset  # noqa: E402

RUN_PRESETS = ("fig2a", "fig2b", "altParams")
RAMP = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": 0.05}
RAMP_FOCK_LEVELS = (2, 3, 4, 6)
# a rectangular pulse has no ramps, whatever its rampTime_ns
RECT_WITH_RAMP_TIME = {"areaOverPi": -1.0, "shape": "rectangular", "rampTime_ns": 100}
# fig2a sampled 608 times fills three of the recorder's 256-sample blocks
MULTI_BLOCK = {"samplePeriod_ns": 0.0004}
FULL_OVERRIDES = {"g_GHz": -2.0, "gPrime_GHz": -1.0, "E_GHz": 50.0}
OVERRIDE_CONFIGS = {
    "overrides": FULL_OVERRIDES,
    # no phase gives E = 1e6 GHz, so phi_c is null and no derived or validity block is echoed
    "overrides_unsolved": {**FULL_OVERRIDES, "resonanceTarget_GHz": 1e6},
}
SWEEP_PRESETS = ("fig3a", "fig3b")
ROBUSTNESS_SEEDS = (0, 7)


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"topoflux {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_outputs(out: Path):
    (out / "derive").mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(scenario_preset(name)))
            (out / "derive" / f"{name}.json").write_text(_cli("derive", "--config", str(cfg)))
            if name in RUN_PRESETS:
                run_out = str(out / "run")
                _cli("run", "--config", str(cfg), "--out", run_out, "--format", "csv,json,svg")
        runs = {
            f"ramped_fock{levels}": {"pulse": RAMP, "hilbert": {"fockLevels": levels}}
            for levels in RAMP_FOCK_LEVELS
        }
        runs["rect_ramp_time"] = {"pulse": RECT_WITH_RAMP_TIME, "hilbert": {"fockLevels": 2}}
        runs["multi_block"] = {"integration": MULTI_BLOCK}
        for label, changes in runs.items():
            raw = {**scenario_preset("fig2a"), **changes}
            cfg = Path(tmp) / f"{label}.json"
            cfg.write_text(json.dumps(raw))
            run_out = str(out / f"run_{label}")
            _cli("run", "--config", str(cfg), "--out", run_out, "--format", "csv,json")
        for label, overrides in OVERRIDE_CONFIGS.items():
            cfg = Path(tmp) / f"{label}.json"
            cfg.write_text(json.dumps({**scenario_preset("fig2a"), "overrides": overrides}))
            derived = _cli("derive", "--config", str(cfg))
            (out / "derive" / f"fig2a_{label}.json").write_text(derived)
            _cli("run", "--config", str(cfg), "--out", str(out / f"run_{label}"), "--format", "json")
    _cli("gates", "verify", "--out", str(out / "gates"))

    for name in SWEEP_PRESETS:
        raw = scenario_preset(name)
        raw["sweep"].update(points=3, gPrimeOverG=[0, 3])
        run_sweep(resolve(raw), out_dir=out / "sweep")

    raw = scenario_preset("robustness")
    raw["robustness"]["samples"] = 2
    for seed in ROBUSTNESS_SEEDS:
        run_robustness(resolve(raw), seed=seed, out_dir=out / f"robustness_seed{seed}")


def _number(x):
    """x as a float when it is a number (not a bool) or a numeric CSV cell, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _max_difference(a, b) -> float:
    """The largest |a - b| over the numbers of two parsed files; NaN where their text,
    keys or shapes disagree."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.nan
        a, b = list(a.values()), list(b.values())
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.nan
        # max() would drop a NaN that is not its first argument
        diffs = [_max_difference(x, y) for x, y in zip(a, b)]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else math.nan
    # equal non-finite values (a NaN column entry, say) agree
    return 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)


def _parse(path: Path):
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return list(csv.reader(f))
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return None


def compare(a_dir: Path, b_dir: Path) -> tuple[float, bool]:
    """Print one line per file of either directory: how far apart its two copies are.
    Returns the largest of those distances, NaN when a file differs or is missing from one,
    and whether every file is identical."""
    names = sorted(
        {p.relative_to(d) for d in (a_dir, b_dir) for p in d.rglob("*") if p.is_file()}
    )
    worst, identical = 0.0, True
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.is_file() and b.is_file()):
            diff, status = math.nan, f"only in {a_dir if a.is_file() else b_dir}"
        elif a.read_bytes() == b.read_bytes():
            diff, status = 0.0, "identical"
        else:
            parsed = _parse(a), _parse(b)
            diff = math.nan if parsed[0] is None else _max_difference(*parsed)
            status = "differs" if math.isnan(diff) else f"{diff:.3e}"
        # max() would drop a NaN that is not its first argument
        worst = diff if math.isnan(diff) else max(worst, diff)
        identical = identical and status == "identical"
        print(f"{status:>10}  {name}")
    return worst, identical


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out_dir", type=Path, nargs="?")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OUT_A", "OUT_B"))
    ap.add_argument(
        "--tol",
        type=float,
        metavar="X",
        help="with --compare, exit 1 when a file differs, is in one directory only, or moves "
        "by more than X; with X = 0, also when its bytes differ at all",
    )
    args = ap.parse_args()
    if (args.out_dir is None) == (args.compare is None):
        ap.error("give either OUT_DIR or --compare OUT_A OUT_B")
    if args.tol is not None and args.compare is None:
        ap.error("--tol needs --compare")
    if args.compare:
        worst, identical = compare(*args.compare)
        # a NaN worst (a file that differs or is missing) fails the comparison too, and
        # under --tol 0 so does a file whose text alone moved
        if args.tol is not None and not (worst <= args.tol and (identical or args.tol > 0)):
            sys.exit(1)
        return
    write_outputs(args.out_dir)
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out_dir)}")


if __name__ == "__main__":
    main()
