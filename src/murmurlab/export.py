"""Report writers: two-column CSV, JSON with stable formatting, simple SVG.

Only the SVG plot imports NumPy, so a step that writes JSON alone (`report`)
runs without it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

#: size in pixels of `write_svg_lineplot`'s plots
SVG_WIDTH = 800
SVG_HEIGHT = 480


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation, trailing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2,
                                     allow_nan=True) + "\n")


def write_xy_csv(path, x: Sequence, y: Sequence, header: tuple[str, str]) -> None:
    """Two-column CSV, y serialised exactly via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xv, yv in zip(x, y):
            writer.writerow([xv, repr(float(yv))])


def write_series_csv(path, series, params: dict) -> None:
    """Window series CSV plus a .meta.json sidecar with params and window counts."""
    write_xy_csv(path, series.centers, series.values, ("center", "mean"))
    sidecar = {
        "params": params,
        "n_points": int(len(series)),
        "counts": [int(c) for c in series.counts],
    }
    write_json(str(path) + ".meta.json", sidecar)


def write_table_csv(path, header: Sequence[str], rows) -> None:
    """Generic CSV writer; floats are serialised exactly via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, float) else v for v in row]
            )


def write_svg_lineplot(path, x: Sequence, series: dict[str, Sequence], title: str) -> None:
    """Minimal SVG polyline plot, SVG_WIDTH x SVG_HEIGHT, of series against shared x."""
    import numpy as np

    width, height = SVG_WIDTH, SVG_HEIGHT
    x = np.asarray(x, dtype=np.float64)
    margin = 50
    colors = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
    ys = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    if ys.size == 0 or x.size == 0:
        raise ValueError("nothing to plot")
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-family="sans-serif" '
        f'font-size="11">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{x_hi:g}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_lo:.3g}</text>',
        f'<text x="{margin - 5}" y="{margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_hi:.3g}</text>',
    ]
    for idx, (name, values) in enumerate(series.items()):
        values = np.asarray(values, dtype=np.float64)
        pts = [f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, values)]
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 5}" y="{margin + 16 * idx + 12}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
