"""Deterministic CSV / JSON / SVG emission for trajectories and summaries.

Floats print through repr (shortest round-trip form), so re-parsing a CSV
recovers the in-memory values exactly and identical runs produce identical
bytes.  The CSV is formatted one column at a time, one ``map(repr, ...)``
over each column's floats, so ``repr`` itself is the writer's floor.
"""

from __future__ import annotations

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


def _write_csv(header, columns, path) -> Path:
    # private: perfbench tracing wraps the public writers, one span per file written
    path = Path(path)
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
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
    points_fmt = " ".join(["%.2f,%.2f"] * len(t))
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
        pts = points_fmt % tuple(np.column_stack((x_px, y_px)).ravel().tolist())
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
