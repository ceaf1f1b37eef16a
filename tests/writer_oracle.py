"""CSV and SVG text, one value at a time: the tests' reference formatting.

``topoflux.output`` formats its CSVs one column at a time and each SVG
polyline with one ``%``-format.  This module formats each value on its own,
``repr(float(x))`` per cell of a trajectory or matrix CSV and one f-string
per SVG point with the clamp written as ``min(max(v, 0), 1)``, so the tests
can require the writers' files to equal these strings byte for byte.
"""

from __future__ import annotations

import numpy as np

from topoflux.dynamics import Trajectory
from topoflux.output import CSV_COLUMNS, SVG_SIZE


def trajectory_csv_text(traj: Trajectory) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(traj)):
        row = (
            traj.times[i],
            traj.rho11[i].real,
            traj.rho11[i].imag,
            traj.rho22[i].real,
            traj.rho22[i].imag,
            traj.rho12[i].real,
            traj.rho12[i].imag,
            traj.rho21[i].real,
            traj.rho21[i].imag,
            traj.trace[i],
            traj.purity[i],
            traj.min_eigenvalue[i],
        )
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrix_csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def trajectory_svg_text(traj: Trajectory) -> str:
    width, height = SVG_SIZE
    t = np.asarray(traj.times, dtype=float)
    series = [
        ("rho11", "#1f77b4", np.real(traj.rho11)),
        ("rho22", "#d62728", np.real(traj.rho22)),
        ("|rho12|", "#2ca02c", np.abs(traj.rho12)),
    ]
    margin = 50
    t_span = max(t[-1] - t[0], 1e-30)

    def x_px(tv):
        return margin + (tv - t[0]) / t_span * (width - 2 * margin)

    def y_px(v):
        return height - margin - v * (height - 2 * margin)

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
        pts = " ".join(
            f"{x_px(tv):.2f},{y_px(min(max(v, 0.0), 1.0)):.2f}" for tv, v in zip(t, values)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 10}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
