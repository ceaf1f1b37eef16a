#!/usr/bin/env python3
"""Run every bundled experiment and collect the headline numbers.

Writes CSV/JSON/SVG artifacts under --out (default ./out) and prints a small
results table, with each experiment's wall time in ms.
"""

import argparse
import time
from pathlib import Path

from topoflux.cli import _seed
from topoflux.config import resolve
from topoflux.experiments import run_robustness, run_scenario, run_sweep
from topoflux.gates import verification_report
from topoflux.output import write_json
from topoflux.presets import scenario_preset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--seed", type=_seed, default=0, help="PRNG seed, >= 0 (default 0)")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    def elapsed(t0):
        return f"[{1e3 * (time.perf_counter() - t0):.0f} ms]"

    for name in ("fig2a", "fig2b", "altParams"):
        t0 = time.perf_counter()
        summary = run_scenario(resolve(scenario_preset(name)), out_dir=args.out)
        print(f"{name:12s} fidelity = {summary['fidelity']:.5f}   {elapsed(t0)}")

    for name in ("fig3a", "fig3b"):
        t0 = time.perf_counter()
        summary = run_sweep(resolve(scenario_preset(name)), out_dir=args.out)
        # min..max of the first and last g'/g columns, over the whole decoherence axis
        columns = list(zip(*summary["fidelities"]))
        ranges = ", ".join(
            f"ratio-{summary['ratios'][i]:g} column {min(columns[i]):.4f}..{max(columns[i]):.4f}"
            for i in (0, -1)
        )
        print(f"{name:12s} F1 range: {ranges}   {elapsed(t0)}")

    t0 = time.perf_counter()
    rob = run_robustness(resolve(scenario_preset("robustness")), seed=args.seed, out_dir=args.out)
    print(
        f"{'robustness':12s} worst corner = {rob['worst_corner']['fidelity']:.5f}, "
        f"mean = {rob['monte_carlo']['mean']:.5f}   {elapsed(t0)}"
    )

    write_json(verification_report(), args.out / "gates_verification.json")
    print(f"{'gates':12s} verification report written")
    print(f"\nartifacts in {args.out.resolve()}")


if __name__ == "__main__":
    main()
