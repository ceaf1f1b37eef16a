"""Command-line interface.

Subcommands
-----------
derive       parameter pipeline + validity report for a config
run          single pulse scenario (fig2a, fig2b, altParams, custom)
sweep        decoherence-rate sweep (fig3a, fig3b, or custom with a sweep block)
robustness   Monte Carlo + corner analysis of unknown parameter errors
gates verify gate-synthesis audit (local invariants, both operator orders)

Without ``--out`` each command prints its JSON summary or report.  ``--format``
belongs to ``run`` only and picks which of its csv, svg and json files go to
``--out``.

Exit codes: 0 success, 2 configuration or output error, 3 validity-regime
error, 4 integration failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, IntegrationError, ValidityError
from .experiments import derive_report, run_robustness, run_scenario, run_sweep
from .gates import verification_report
from .output import dumps, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_INTEGRATION = 4

_RUN_EXPERIMENTS = ("fig2a", "fig2b", "altParams", "custom")
_SWEEP_EXPERIMENTS = ("fig3a", "fig3b", "custom")


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, else an error that argparse reports as it is."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


@functools.cache  # parse_args keeps no state in the tree, so one tree serves every call
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topoflux",
        description="Pulse-level simulator of a topological/flux hybrid qubit interface.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, type=Path, help="scenario JSON file")
        sp.add_argument("--out", type=Path, default=None, help="output directory")
        return sp

    common(sub.add_parser("derive", help="parameter pipeline and validity report"))
    common(sub.add_parser("run", help="run one pulse scenario")).add_argument(
        "--format",
        default="csv,json",
        help="comma-separated outputs: csv,svg,json (default csv,json)",
    )
    common(sub.add_parser("sweep", help="run a decoherence sweep"))
    common(sub.add_parser("robustness", help="run the unknown-error analysis")).add_argument(
        "--seed", type=_seed, default=0, help="PRNG seed, >= 0 (default 0)"
    )

    gates = sub.add_parser("gates", help="gate-level tools")
    gates_sub = gates.add_subparsers(dest="gates_command", required=True)
    verify = gates_sub.add_parser("verify", help="write the gate verification report")
    verify.add_argument("--out", type=Path, default=None, help="output directory")

    return p


def _formats(arg: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in arg.split(",") if f.strip())
    if not fmts:
        raise ConfigError(f"--format {arg!r} names no output; choose from csv, svg, json")
    for f in fmts:
        if f not in ("csv", "svg", "json"):
            raise ConfigError(f"unknown output format {f!r}; choose from csv, svg, json")
    return fmts


def _emit(payload: dict, out_dir: Path | None, name: str):
    if out_dir is None:
        print(dumps(payload))
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = write_json(payload, out_dir / name)
        print(f"wrote {path}")


def _check_experiment(scn, allowed, command):
    if scn.experiment not in allowed:
        raise ConfigError(
            f"experiment {scn.experiment!r} does not run under '{command}' "
            f"(expected one of {', '.join(allowed)})",
            pointer="/experiment",
        )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gates":
            _emit(verification_report(), args.out, "gates_verification.json")
            return EXIT_OK

        scn = load_config(args.config)
        if args.command == "derive":
            _emit(derive_report(scn), args.out, f"{scn.experiment}_derive.json")
            return EXIT_OK
        if args.command == "run":
            _check_experiment(scn, _RUN_EXPERIMENTS, "run")
            summary = run_scenario(scn, out_dir=args.out, formats=_formats(args.format))
            done = f"fidelity = {summary['fidelity']:.6f}"
        elif args.command == "sweep":
            _check_experiment(scn, _SWEEP_EXPERIMENTS, "sweep")
            summary = run_sweep(scn, out_dir=args.out)
            done = "sweep complete"
        else:
            _check_experiment(scn, ("robustness",), "robustness")
            summary = run_robustness(scn, seed=args.seed, out_dir=args.out)
            done = f"worst-corner fidelity = {summary['worst_corner']['fidelity']:.6f}"
        if args.out is None:
            print(dumps(summary))
        else:
            print(f"{done}; outputs in {args.out}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as e:
        print(
            f"validity error: {e}\n"
            "hint: adjust phiC_rad / wire parameters onto the strong branch, "
            "or supply explicit overrides for g, gPrime and E",
            file=sys.stderr,
        )
        return EXIT_VALIDITY
    except IntegrationError as e:
        print(f"integration error: {e}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OSError as e:  # load_config reports its own; this is writing the outputs
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
