#!/usr/bin/env python3
"""Write the outputs of every entry of the regression corpus into a new OUT_DIR and print
a sha256 per file.

The inputs are the entries of ``tests/corpus`` (``scripts/write_corpus.py``
writes them, ``tests/test_corpus.py`` checks their exit codes and summary
numbers).  Each runs through the CLI with ``--out OUT_DIR/<entry>`` and
``--config tests/corpus/<config>.json``, ``run`` entries with ``--format
csv,json,svg``, and its stdout and stderr are dropped.  An entry that exits
non-zero writes nothing, so a change of exit code shows in ``--compare`` as a
directory that is only in one of the two.  It runs BLAS on one thread,
whatever the environment says, since the 6-level ramp's last bits follow the
thread count.  Run it on two checkouts and compare the printed lines:

    PYTHONPATH=src python scripts/output_digest.py OUT_DIR

When some files differ, ``--compare`` prints, for each file of two such
directories, the largest absolute difference over its CSV cells or JSON
numbers (``identical`` when the bytes agree; ``differs`` for other files,
or when the text, keys or shapes disagree):

    PYTHONPATH=src python scripts/output_digest.py --compare OUT_A OUT_B

Its last line counts the files: identical, moved, differ and only in one
directory.  When its reader stops early (``| head``), it exits 1 without a
traceback.  With ``--tol X`` it also exits 1 when a file differs, is only in one of the
directories, or moves by more than X; ``--tol 0`` asks for the same bytes, so
it also exits 1 when a file's numbers agree but its text does not (``1.0``
against ``1.00``):

    PYTHONPATH=src python scripts/output_digest.py --compare OUT_A OUT_B --tol 1e-13

It only runs the CLI, so one checkout's script and corpus also run on the
``src`` of another (``PYTHONPATH=OTHER/src``).
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

sys.path.insert(0, str(Path(__file__).resolve().parent))
import write_corpus  # noqa: E402


def write_outputs(out: Path):
    out.mkdir(parents=True)
    for name, (config, argv) in write_corpus.entries(write_corpus.configs()).items():
        argv = [*argv, "--out", str(out / name)]
        if config is not None:
            argv += ["--config", str(write_corpus.CORPUS / f"{config}.json")]
        if argv[0] == "run":
            argv += ["--format", "csv,json,svg"]
        # the corpus test checks exit codes; an entry that fails writes no file
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


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
    """Print one line per file of either directory: how far apart its two copies are, then
    one line that counts the files identical, moved (their numbers, or only their text),
    that differ, and that are only in one directory.  Returns the largest of those
    distances, NaN when a file differs or is missing from one, and whether every file is
    identical."""
    names = sorted(
        {p.relative_to(d) for d in (a_dir, b_dir) for p in d.rglob("*") if p.is_file()}
    )
    worst = 0.0
    counts = dict.fromkeys(("identical", "moved", "differ", "only in one directory"), 0)
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.is_file() and b.is_file()):
            diff, status = math.nan, f"only in {a_dir if a.is_file() else b_dir}"
            kind = "only in one directory"
        elif a.read_bytes() == b.read_bytes():
            diff, status, kind = 0.0, "identical", "identical"
        else:
            parsed = _parse(a), _parse(b)
            diff = math.nan if parsed[0] is None else _max_difference(*parsed)
            status = "differs" if math.isnan(diff) else f"{diff:.3e}"
            kind = "differ" if math.isnan(diff) else "moved"
        # max() would drop a NaN that is not its first argument
        worst = diff if math.isnan(diff) else max(worst, diff)
        counts[kind] += 1
        print(f"{status:>10}  {name}")
    print(f"{len(names)} files: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
    return worst, counts["identical"] == len(names)


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
    # refused before any entry runs, not by write_outputs' mkdir after the CLI is loaded
    if args.out_dir is not None and args.out_dir.exists():
        ap.error(f"OUT_DIR {args.out_dir} already exists; give a new directory")
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
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout stopped early (``| head``): end quietly, with stdout pointed
        # at devnull so that the interpreter's last flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
