"""Minimal static SVG renderers for histograms and cluster heat maps.

Hand-rolled so the output bytes are fully deterministic: no plotting
library, fixed float formatting, no timestamps.
"""

from __future__ import annotations

import math

from .clustering import ClusterReport, EdHistogram

_MARGIN = 46
_BAR_AREA_W = 640
_BAR_AREA_H = 280


def _header(width, height, title):
    # adder names reach the title; markup characters in them are escaped
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]


def histogram_svg(hist: EdHistogram, title: str = "error distance histogram") -> str:
    """Log-scaled bar chart of the ED tallies, at most one bar per pixel column."""
    width = _BAR_AREA_W + 2 * _MARGIN
    height = _BAR_AREA_H + 2 * _MARGIN
    parts = _header(width, height, title)

    counts = [c for _, c in hist.bins]
    merged = ""
    if len(counts) > _BAR_AREA_W:   # one bar per pixel column; the CSV keeps every bin
        bars = [0] * _BAR_AREA_W
        for k, count in enumerate(counts):
            bars[k * _BAR_AREA_W // len(counts)] += count
        merged = f", {len(counts)} bins summed into {_BAR_AREA_W} bars"
        counts = bars
    peak = max(counts) if counts else 1
    log_peak = math.log10(peak + 1)
    bar_w = _BAR_AREA_W / max(len(counts), 1)

    for k, count in enumerate(counts):
        if count == 0:
            continue
        h = _BAR_AREA_H * math.log10(count + 1) / log_peak if log_peak else 0.0
        x = _MARGIN + k * bar_w
        y = _MARGIN + _BAR_AREA_H - h
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(bar_w - 0.5, 0.5):.2f}" '
                     f'height="{h:.2f}" fill="#4c72b0"/>')

    axis_y = _MARGIN + _BAR_AREA_H
    parts.append(f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_MARGIN + _BAR_AREA_W}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<text x="{_MARGIN}" y="{axis_y + 16}" font-family="sans-serif" '
                 f'font-size="10">0</text>')
    parts.append(f'<text x="{_MARGIN + _BAR_AREA_W}" y="{axis_y + 16}" '
                 f'font-family="sans-serif" font-size="10" text-anchor="end">'
                 f'{hist.bins[-1][0] + hist.bin_width if hist.bins else 0}</text>')
    parts.append(f'<text x="{_MARGIN}" y="{axis_y + 30}" font-family="sans-serif" '
                 f'font-size="10">bin width {hist.bin_width}, max ED {hist.max_ed}, '
                 f'mean ED {hist.mean_ed:.6g}, log-scaled counts{merged}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(frac: float) -> str:
    # white -> red ramp
    frac = min(max(frac, 0.0), 1.0)
    g = int(round(255 * (1.0 - frac)))
    return f"#ff{g:02x}{g:02x}"


def cluster_svg(report: ClusterReport, title: str = "per-cluster NED") -> str:
    """Heat map of the per-block NED over the operand-block grid."""
    g = report.spec.grid_side
    cell_px = max(4, 320 // g)
    grid_px = cell_px * g
    width = grid_px + 2 * _MARGIN
    height = grid_px + 2 * _MARGIN
    parts = _header(width, height, title)

    cells = report.cells
    values = cells["ned"].tolist()
    finite = [v for v in values if math.isfinite(v)]
    peak = max(finite) if finite else 1.0
    low = min(finite) if finite else 0.0
    span = (peak - low) or 1.0

    for ia, ib, v in zip(cells["ia"].tolist(), cells["ib"].tolist(), values):
        frac = 1.0 if not math.isfinite(v) else (v - low) / span
        x = _MARGIN + ib * cell_px
        y = _MARGIN + ia * cell_px
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                     f'fill="{_heat_color(frac)}"/>')

    parts.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{grid_px}" '
                 f'height="{grid_px}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{_MARGIN}" y="{_MARGIN + grid_px + 16}" '
                 f'font-family="sans-serif" font-size="10">operand-2 blocks →'
                 f' (operand-1 blocks ↓), ned from {low:.6g} to {peak:.6g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
