"""Deterministic artifact writers: CSV, JSON, and minimal SVG plots.

All floating-point CSV values use 17 significant digits, enough to
round-trip IEEE doubles exactly.  SVG output is a fixed 800x600
viewport with linear axes, drawn at plot resolution (``svg_plot``), and
carries no timestamps or environment details, so repeated runs produce
byte-identical files.  A line is reduced by M4 block by block
(``_m4_line``), so plotting it takes memory of a fixed size beyond its
data, whatever its length.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt_float(x) -> str:
    """Shortest string that parses back to the same float."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(map(fmt_float, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")

_WIDTH = 800
_HEIGHT = 600
_ML, _MR, _MT, _MB = 72, 24, 42, 54


def _limits(values, fixed):
    """Axis range: ``fixed``, else the finite values of ``values`` padded by 5 %."""
    if fixed is not None:
        lo, hi = float(fixed[0]), float(fixed[1])
    else:
        # per array: no concatenated copy of them all
        lo = min((float(np.min(v, where=np.isfinite(v), initial=np.inf)) for v in values),
                 default=np.inf)
        hi = max((float(np.max(v, where=np.isfinite(v), initial=-np.inf)) for v in values),
                 default=-np.inf)
        if lo > hi:  # no finite value
            lo, hi = 0.0, 1.0
        if lo == hi:
            pad = abs(lo) * 0.1 or 1.0
            lo, hi = lo - pad, hi + pad
        else:
            pad = 0.05 * (hi - lo)
            lo, hi = lo - pad, hi + pad
    return lo, hi


def _ticks(lo, hi, n=6):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _columns(px):
    """Pixel column of each x coordinate as written at 0.01 px (``.2f``).

    A written coordinate reaches column c exactly when px > c - 0.005.
    Every x of a plot maps into [72, 776], and there floor(px + 0.005) in
    doubles draws that line at every c, also for the doubles next to
    c - 0.005 (the tests check each c): the rounding of the sum never
    carries one of them across an integer.
    """
    return np.floor(px + 0.005)


def _m4_indices(px, py):
    """Indices, ascending, of the vertices M4 keeps of a polyline.

    The vertices are cut into runs of consecutive ones in the same pixel
    column (``_columns``), and each run keeps its first, lowest-py,
    highest-py and last vertex (the first of equal ones), or all of them
    when it has at most four, so the drawn path covers the same pixels
    as the full one (Jugel et al., "M4: A Visualization-Oriented Time
    Series Data Aggregation", PVLDB 7(10), 2014).  Runs, not column
    bins, let x go back and forth, as on a closed curve.
    """
    n = len(px)
    col = _columns(px)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    ends = np.append(starts[1:], n)
    run = np.repeat(np.arange(len(starts)), ends - starts)
    keep = (ends - starts <= 4)[run]
    keep[starts] = True
    keep[ends - 1] = True
    order = np.arange(n)
    for extreme in (np.fmin, np.fmax):  # a NaN py is never an extreme
        hit = py == extreme.reduceat(py, starts)[run]
        first = np.minimum.reduceat(np.where(hit, order, n), starts)
        keep[first[first < n]] = True
    return np.flatnonzero(keep)


# vertices per block of a line's M4 walk (``_m4_line``): its temporaries
# then take about 1 MB whatever the line's length, against 10 MB for one
# pass over a 200k-vertex line
_M4_BLOCK = 16384


def _m4_line(x, y, px, py) -> str:
    """The written vertices "x,y x,y ..." that ``_m4_indices`` keeps of a line.

    x and y are the line's finite data and px, py map them to pixels.
    The line is walked in blocks of _M4_BLOCK vertices, each cut back to
    end at its last pixel-column change (a change at the vertex just past
    it included), so a run of ``_m4_indices`` never spans two blocks and
    the output is that of one pass over the whole line.  A block without
    a change is doubled until it has one or reaches the end.
    """
    n = len(x)
    pieces = []
    i, size = 0, _M4_BLOCK
    while i < n:
        j = min(i + size, n)
        bx = px(x[i:j + 1])
        if j < n:
            col = _columns(bx)
            change = np.flatnonzero(col[1:] != col[:-1])
            if not change.size:
                size *= 2
                continue
            j = i + int(change[-1]) + 1
            bx = bx[:j - i]
        by = py(y[i:j])
        keep = _m4_indices(bx, by)
        pieces.append(" ".join(f"{a:.2f},{b:.2f}"
                               for a, b in zip(bx[keep].tolist(), by[keep].tolist())))
        i, size = j, _M4_BLOCK
    return " ".join(pieces)


def svg_plot(path, series, xlabel: str = "", ylabel: str = "", title: str = "",
             ylim=None) -> None:
    """Write a line/scatter plot at plot resolution.

    ``series`` is a list of dicts with keys "kind" ("line" or
    "scatter"), "x", "y", and optional "color".  Points with
    nonfinite coordinates are dropped.  A line keeps the vertices of
    ``_m4_indices``, found block-wise by ``_m4_line``, and a scatter
    drops a point written at the same 0.01 px position as an earlier one.
    """
    data = [(np.asarray(s["x"], dtype=float), np.asarray(s["y"], dtype=float))
            for s in series]
    x_lo, x_hi = _limits([x for x, _ in data], None)
    y_lo, y_hi = _limits([y for _, y in data], ylim)
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

    for i, (s, (x, y)) in enumerate(zip(series, data)):
        color = s.get("color", _PALETTE[i % len(_PALETTE)])
        ok = np.isfinite(x)
        ok &= np.isfinite(y)
        if not ok.any():
            continue
        if not ok.all():  # copies only for a series with a nonfinite point
            x, y = x[ok], y[ok]
        with np.errstate(over="ignore", invalid="ignore"):
            if s.get("kind", "line") == "line":
                parts.append(f'<polyline points="{_m4_line(x, y, px, py)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.2"/>')
            else:
                parts.extend(dict.fromkeys(
                    f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2" fill="{color}"/>'
                    for a, b in zip(px(x).tolist(), py(y).tolist())))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def decimate(n: int, cap: int) -> int:
    """Stride that brings n samples under cap (>= 1)."""
    if n <= cap:
        return 1
    return -(-n // cap)
