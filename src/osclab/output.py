"""Deterministic artifact writers: CSV, JSON, and minimal SVG plots.

All floating-point CSV values use 17 significant digits, enough to
round-trip IEEE doubles exactly.  SVG output is a fixed 800x600
viewport with linear axes and carries no timestamps or environment
details, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def fmt_float(x) -> str:
    """Shortest string that parses back to the same float."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")

_WIDTH = 800
_HEIGHT = 600
_ML, _MR, _MT, _MB = 72, 24, 42, 54


def _limits(series, key, fixed):
    if fixed is not None:
        lo, hi = float(fixed[0]), float(fixed[1])
    else:
        vals = [float(v) for s in series for v in s[key] if math.isfinite(v)]
        if not vals:
            vals = [0.0, 1.0]
        lo, hi = min(vals), max(vals)
        if lo == hi:
            pad = abs(lo) * 0.1 or 1.0
            lo, hi = lo - pad, hi + pad
        else:
            pad = 0.05 * (hi - lo)
            lo, hi = lo - pad, hi + pad
    return lo, hi


def _ticks(lo, hi, n=6):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def svg_plot(path, series, xlabel: str = "", ylabel: str = "", title: str = "",
             ylim=None) -> None:
    """Write a line/scatter plot.

    ``series`` is a list of dicts with keys "kind" ("line" or
    "scatter"), "x", "y", and optional "color".  Points with
    nonfinite coordinates are dropped.
    """
    x_lo, x_hi = _limits(series, "x", None)
    y_lo, y_hi = _limits(series, "y", ylim)
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for xv in _ticks(x_lo, x_hi):
        x = px(xv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        y = py(yv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        yc = _MT + plot_h / 2
        parts.append(
            f'<text x="18" y="{yc:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 18 {yc:.1f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = s.get("color", _PALETTE[i % len(_PALETTE)])
        pts = [
            (px(float(x)), py(float(y)))
            for x, y in zip(s["x"], s["y"])
            if math.isfinite(float(x)) and math.isfinite(float(y))
        ]
        if not pts:
            continue
        if s.get("kind", "line") == "line":
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
        else:
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def decimate(n: int, cap: int) -> int:
    """Stride that brings n samples under cap (>= 1)."""
    if n <= cap:
        return 1
    return -(-n // cap)
