"""Deterministic CSV / JSON / SVG emission for trajectories and summaries.

Floats print through repr (shortest round-trip form), so re-parsing a CSV
recovers the in-memory values exactly and identical runs produce identical
bytes.  The CSV is formatted one column at a time, and ``repr`` runs once per
distinct column: a column whose float64 bits repeat an earlier column's
reuses its cells, and one that is their negation, with no NaN, reuses them
with the leading ``-`` toggled, since repr(-x) is "-" + repr(x) for every
other float.  The rho21 of ``evolve``'s trajectories mirrors rho12 bit for bit
and both imaginary populations are zero, so 9 of their 12 columns are
formatted, and ``repr`` of those is the writer's floor.  The SVG formats each
x pixel once, into one ``%``-format per file whose slots are the y pixels, so
each polyline is one ``%``-format of its y values.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

CSV_COLUMNS = (
    "t_ns",
    "re_rho11",
    "im_rho11",
    "re_rho22",
    "im_rho22",
    "re_rho12",
    "im_rho12",
    "re_rho21",
    "im_rho21",
    "trace",
    "purity",
    "min_eig",
)

SVG_SIZE = (640, 400)  # width, height in px


def _negated(cell: str) -> str:
    return cell[1:] if cell[0] == "-" else "-" + cell


def _column_cells(columns) -> list:
    """One iterator of cell texts per column.  A column is compared with the earlier ones by
    its float64 bits, never with ``==``, which equates 0.0 and -0.0: a repeat shares the
    earlier column's cells, and a negation without NaN (whose repr drops its sign) shares
    them with the sign toggled.  A shared column's cells come from ``itertools.tee``, which
    holds only the cells one iterator is ahead of the other, so no column is held whole."""
    cells, first = [], {}
    for col in columns:
        values = np.asarray(col, dtype=float)
        bits = values.tobytes()
        mirror = None if np.isnan(values).any() else np.negative(values).tobytes()
        source = first.get(bits, first.get(mirror))
        if source is None:
            first[bits] = len(cells)
            cells.append(map(repr, values.tolist()))
        else:
            cells[source], shared = itertools.tee(cells[source])
            cells.append(shared if bits in first else map(_negated, shared))
    return cells


def _write_csv(header, columns, path) -> Path:
    # private: perfbench tracing wraps the public writers, one span per file written
    path = Path(path)
    lines = [",".join(header), *map(",".join, zip(*_column_cells(columns)))]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    columns = [traj.times]
    for z in (traj.rho11, traj.rho22, traj.rho12, traj.rho21):
        columns += (z.real, z.imag)
    columns += (traj.trace, traj.purity, traj.min_eigenvalue)
    return _write_csv(CSV_COLUMNS, columns, path)


def read_trajectory_csv(path) -> dict:
    """Parse a trajectory CSV back into column arrays (round-trip checks)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    cols = {name: [] for name in CSV_COLUMNS}
    for line in lines[1:]:
        for name, cell in zip(CSV_COLUMNS, line.split(",")):
            cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}


def dumps(payload: dict) -> str:
    """Canonical JSON text of a summary or report; NaN and Infinity are rejected."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_json(payload: dict, path) -> Path:
    path = Path(path)
    path.write_text(dumps(payload) + "\n")
    return path


def write_matrix_csv(header: list[str], rows: list[list[float]], path) -> Path:
    """One row of cells per row of ``rows`` under ``header``; a row of another length than
    the header raises ValueError."""
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, the header {len(header)} names")
    return _write_csv(header, zip(*rows), path)


def write_trajectory_svg(traj: Trajectory, path) -> Path:
    """Hand-emitted line plot of rho11, rho22, |rho12| against time."""
    path = Path(path)
    width, height = SVG_SIZE
    t = np.asarray(traj.times, dtype=float)
    series = [
        ("rho11", "#1f77b4", np.real(traj.rho11)),
        ("rho22", "#d62728", np.real(traj.rho22)),
        ("|rho12|", "#2ca02c", np.abs(traj.rho12)),
    ]
    margin = 50
    t_span = max(t[-1] - t[0], 1e-30)
    # keep this order of operations: another one moves the pixels that sit on a
    # rounding tie of the two-decimal output (tests/test_output.py has some)
    x_px = margin + (t - t[0]) / t_span * (width - 2 * margin)
    # the x pixels are formatted once; each polyline fills the slots with its y pixels
    points_fmt = " ".join(["%.2f,%%.2f"] * len(t)) % tuple(x_px.tolist())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">t (ns)</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">population / coherence</text>',
    ]
    for idx, (label, color, values) in enumerate(series):
        # np.clip keeps a NaN value, which prints as "nan"
        y_px = height - margin - np.clip(values, 0.0, 1.0) * (height - 2 * margin)
        pts = points_fmt % tuple(y_px.tolist())
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 10}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def emit_outputs(traj: Trajectory, out_dir, stem: str, formats, summary: dict):
    """Write the requested artifact files for one trajectory; returns the paths."""
    if len(traj) == 0:
        raise ValueError("cannot emit an empty trajectory")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        written.append(write_trajectory_csv(traj, out_dir / f"{stem}.csv"))
    if "svg" in formats:
        written.append(write_trajectory_svg(traj, out_dir / f"{stem}.svg"))
    if "json" in formats:
        written.append(write_json(summary, out_dir / f"{stem}_summary.json"))
    return written
