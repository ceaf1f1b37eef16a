#!/usr/bin/env python3
"""Run every bundled experiment and collect the headline numbers.

Writes CSV/JSON/SVG artifacts under --out (default ./out) and prints a small
results table.  --quick shrinks the sweep and Monte Carlo sizes for a fast
smoke run.
"""

import argparse
import time
from pathlib import Path

from topoflux.config import resolve
from topoflux.experiments import run_robustness, run_scenario, run_sweep
from topoflux.gates import verification_report
from topoflux.output import write_json
from topoflux.presets import scenario_preset


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--seed", type=_seed, default=0, help="PRNG seed, >= 0 (default 0)")
    ap.add_argument("--quick", action="store_true", help="smaller sweeps and Monte Carlo")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    def prepared(name):
        raw = scenario_preset(name)
        if args.quick:
            if "sweep" in raw:
                raw["sweep"]["points"] = 5
            if "robustness" in raw:
                raw["robustness"]["samples"] = 24
        return resolve(raw)

    results = {}
    for name in ("fig2a", "fig2b", "altParams"):
        t0 = time.perf_counter()
        summary = run_scenario(prepared(name), out_dir=args.out)
        results[name] = summary["fidelity"]
        print(f"{name:12s} fidelity = {summary['fidelity']:.5f}   [{time.perf_counter() - t0:.1f} s]")

    for name in ("fig3a", "fig3b"):
        t0 = time.perf_counter()
        summary = run_sweep(prepared(name), out_dir=args.out)
        lo_row, hi_row = summary["fidelities"][0], summary["fidelities"][-1]
        print(
            f"{name:12s} F1 range: ratio-0 column {hi_row[0]:.4f}..{lo_row[0]:.4f}, "
            f"ratio-6 column {hi_row[-1]:.4f}..{lo_row[-1]:.4f}   "
            f"[{time.perf_counter() - t0:.1f} s]"
        )

    t0 = time.perf_counter()
    rob = run_robustness(prepared("robustness"), seed=args.seed, out_dir=args.out)
    print(
        f"{'robustness':12s} worst corner = {rob['worst_corner']['fidelity']:.5f}, "
        f"mean = {rob['monte_carlo']['mean']:.5f}   [{time.perf_counter() - t0:.1f} s]"
    )

    write_json(verification_report(), args.out / "gates_verification.json")
    print(f"{'gates':12s} verification report written")
    print(f"\nartifacts in {args.out.resolve()}")


if __name__ == "__main__":
    main()
