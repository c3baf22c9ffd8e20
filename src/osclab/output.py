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
from array import array
from pathlib import Path

import numpy as np


def fmt_float(x) -> str:
    """Shortest string that parses back to the same float."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, header: str, rows) -> None:
    """Write the header, then each row as it is formatted: no text of the whole table."""
    with Path(path).open("w") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(fmt_float, row)) + "\n" for row in rows)


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


def _m4_indices(px, py, cut=0):
    """Indices, ascending, of the vertices M4 keeps of a polyline.

    The vertices are cut into runs of consecutive ones in the same pixel
    column (``_columns``), and each run keeps its first, lowest-py,
    highest-py and last vertex (the first of equal ones), or all of them
    when it has at most four, so the drawn path covers the same pixels
    as the full one (Jugel et al., "M4: A Visualization-Oriented Time
    Series Data Aggregation", PVLDB 7(10), 2014).  Runs, not column
    bins, let x go back and forth, as on a closed curve.  ``cut`` counts
    vertices of the first run that an earlier call dropped (``M4Line``).
    """
    n = len(px)
    col = _columns(px)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    ends = np.append(starts[1:], n)
    sizes = ends - starts
    run = np.repeat(np.arange(len(starts)), sizes)
    sizes[0] += cut
    keep = (sizes <= 4)[run]
    keep[starts] = True
    keep[ends - 1] = True
    order = np.arange(n)
    for extreme in (np.fmin, np.fmax):  # a NaN py is never an extreme
        hit = py == extreme.reduceat(py, starts)[run]
        first = np.minimum.reduceat(np.where(hit, order, n), starts)
        keep[first[first < n]] = True
    return np.flatnonzero(keep)


class M4Line:
    """The written vertices "x,y x,y ..." that ``_m4_indices`` keeps of a
    line fed in blocks of data (x, y); px and py map them to pixels.

    What arrived up to the last pixel-column change is whole runs and is
    written at once.  The open run is held cut to the vertices it keeps
    if it ends there, with the count of the ones cut away: no later
    vertex can make one of those a first, extreme or last one.  So the
    text is that of one pass over the whole line, in memory of one block.
    """

    def __init__(self, px, py):
        self.px, self.py, self.text = px, py, []
        self.open = (np.empty(0), np.empty(0), 0)  # the open run's pixels, vertices cut

    def feed(self, x, y):
        ok = np.isfinite(x)
        ok &= np.isfinite(y)
        if not ok.all():  # copies only for a block with a nonfinite point
            x, y = x[ok], y[ok]
        ox, oy, cut = self.open
        with np.errstate(over="ignore", invalid="ignore"):
            bx, by = np.concatenate((ox, self.px(x))), np.concatenate((oy, self.py(y)))
            if not len(bx):
                return
            col = _columns(bx)
            change = np.flatnonzero(col[1:] != col[:-1])
            if change.size:
                j = int(change[-1]) + 1
                self._write(bx[:j], by[:j], _m4_indices(bx[:j], by[:j], cut))
                bx, by, cut = bx[j:], by[j:], 0
            keep = _m4_indices(bx, by, cut)
        self.open = (bx[keep], by[keep], cut + len(bx) - len(keep))

    def _write(self, bx, by, keep):
        self.text.append(" ".join(f"{a:.2f},{b:.2f}"
                                  for a, b in zip(bx[keep].tolist(), by[keep].tolist())))

    def finish(self) -> str:
        """The text, once every block is fed; empty if no vertex was finite."""
        ox, oy, _ = self.open
        if len(ox):
            self._write(ox, oy, slice(None))
        return " ".join(self.text)


# vertices per block that ``_m4_line`` feeds: its temporaries then take
# about 1 MB whatever the line's length, against 10 MB for one pass over
# a 200k-vertex line
_M4_BLOCK = 16384


def _m4_line(x, y, px, py) -> str:
    """The ``M4Line`` text of a whole line, fed in blocks of _M4_BLOCK vertices."""
    line = M4Line(px, py)
    for i in range(0, len(x), _M4_BLOCK):
        line.feed(x[i:i + _M4_BLOCK], y[i:i + _M4_BLOCK])
    return line.finish()


def plot_frame(xs, ys, ylim=None):
    """((x_lo, x_hi, y_lo, y_hi), px, py) of a plot of the arrays xs against ys."""
    x_lo, x_hi = _limits(xs, None)
    y_lo, y_hi = _limits(ys, ylim)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * (_HEIGHT - _MT - _MB)

    return (x_lo, x_hi, y_lo, y_hi), px, py


def svg_plot(path, series, xlabel: str = "", ylabel: str = "", title: str = "",
             ylim=None) -> None:
    """Write a line/scatter plot at plot resolution.

    ``series`` is a list of dicts with keys "kind" ("line" or
    "scatter"), "x", "y", and optional "color".  Points with
    nonfinite coordinates are dropped.  A line keeps the vertices of
    ``_m4_indices``, and a scatter drops a point written at the same
    0.01 px position as an earlier one.  A line may carry "points", the
    text of an ``M4Line`` fed in this plot's frame, drawn in place of
    its data, which then only sets the frame.
    """
    data = [(np.asarray(s["x"], dtype=float), np.asarray(s["y"], dtype=float))
            for s in series]
    (x_lo, x_hi, y_lo, y_hi), px, py = plot_frame([x for x, _ in data],
                                                  [y for _, y in data], ylim)
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

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
        if s.get("kind", "line") == "line":
            points = s["points"] if "points" in s else _m4_line(x, y, px, py)
            if points:
                parts.append(f'<polyline points="{points}" fill="none" '
                             f'stroke="{color}" stroke-width="1.2"/>')
            continue
        ok = np.isfinite(x)
        ok &= np.isfinite(y)
        with np.errstate(over="ignore", invalid="ignore"):
            parts.extend(dict.fromkeys(
                f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2" fill="{color}"/>'
                for a, b in zip(px(x[ok]).tolist(), py(y[ok]).tolist())))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


class Strided:
    """Every ``decimate(n, cap)``-th row of an n-row table from row 0, plus
    the last row, kept as columns of floats (``cols``) as blocks of the
    rows arrive in order, each a list of columns."""

    def __init__(self, n, cap):
        self.n, self.step, self.seen, self.cols = n, decimate(n, cap), 0, None

    def feed(self, cols):
        self.cols = self.cols or [array("d") for _ in cols]
        first, self.seen = -self.seen % self.step, self.seen + len(cols[0])
        last = [-1] if self.seen == self.n and (self.n - 1) % self.step else []
        for kept, c in zip(self.cols, cols):
            kept.extend(c[first::self.step].tolist() + [c[i] for i in last])


def decimate(n: int, cap: int) -> int:
    """Stride that brings n samples under cap (>= 1)."""
    if n <= cap:
        return 1
    return -(-n // cap)
