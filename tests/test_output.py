import json
import math
import re

import numpy as np
import pytest

from osclab import output
from osclab.output import (_columns, _limits, _m4_indices, _m4_line, decimate, fmt_float,
                          svg_plot, write_csv, write_json)


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0, 123456.789):
        assert float(fmt_float(x)) == x
    assert fmt_float(np.float64(0.1)) == "0.1"
    assert fmt_float(3) == "3"
    assert fmt_float("t") == "t"


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, "t,z,p", [(0.0, 0.1, 0.0), (0.5, 0.09, -0.01)])
    text = path.read_text()
    assert text == "t,z,p\n0.0,0.1,0.0\n0.5,0.09,-0.01\n"


def test_write_csv_peaks_below_its_text(tmp_path, peak_alloc):
    # the text of these rows is 0.37 MB; joined into one string before
    # writing, the table peaked at about 1.7 MB, streamed it peaks at about 36 kB
    rows = [(0.1 * k + 1e-9, 1.0 / (k + 3.0)) for k in range(10_000)]
    _, peak = peak_alloc(lambda: write_csv(tmp_path / "big.csv", "t,y", rows))
    assert peak < 200_000
    lines = (tmp_path / "big.csv").read_text().splitlines()
    assert len(lines) == 10_001 and lines[-1] == ",".join(map(fmt_float, rows[-1]))


def test_write_json_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    obj = {"zeta": 1.0, "alpha": [1, 2, 3], "nested": {"y": 2, "x": 1}}
    write_json(a, obj)
    write_json(b, json.loads(a.read_text()))
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["alpha"] == [1, 2, 3]


def test_svg_plot_structure(tmp_path):
    path = tmp_path / "plot.svg"
    xs = [0.1 * k for k in range(50)]
    svg_plot(path, [
        {"kind": "line", "x": xs, "y": [math.sin(x) for x in xs]},
        {"kind": "scatter", "x": [0.0, 1.0], "y": [0.5, -0.5], "color": "#d62728"},
    ], xlabel="t", ylabel="z", title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert "<circle" in text
    assert "demo" in text
    # byte-deterministic across rewrites
    first = path.read_bytes()
    svg_plot(path, [
        {"kind": "line", "x": xs, "y": [math.sin(x) for x in xs]},
        {"kind": "scatter", "x": [0.0, 1.0], "y": [0.5, -0.5], "color": "#d62728"},
    ], xlabel="t", ylabel="z", title="demo")
    assert path.read_bytes() == first


def test_svg_plot_fixed_ylim(tmp_path):
    path = tmp_path / "plot.svg"
    svg_plot(path, [{"kind": "line", "x": [0, 1], "y": [0.0, 1e-9]}],
             xlabel="t", ylabel="d", title="drift", ylim=(-1e-5, 1e-5))
    assert "1e-05" in path.read_text() or "1e-5" in path.read_text()


def test_svg_degenerate_ranges(tmp_path):
    path = tmp_path / "flat.svg"
    svg_plot(path, [{"kind": "line", "x": [0.0, 1.0], "y": [2.0, 2.0]}],
             xlabel="t", ylabel="z", title="flat")
    assert "<polyline" in path.read_text()


def test_decimate():
    assert decimate(100, 1000) == 1
    assert decimate(10000, 10000) == 1
    assert decimate(10001, 10000) == 2
    assert decimate(600001, 10000) == 61
    n = 600001
    stride = decimate(n, 10000)
    assert (n + stride - 1) // stride <= 10000


def _full_vertices(series, ylim=None):
    """Every finite vertex of each series as the unreduced writer drew it at
    0.01 px, with the axis limits computed over Python lists (test oracle)."""
    def limits(key, fixed):
        if fixed is not None:
            return float(fixed[0]), float(fixed[1])
        vals = [float(v) for s in series for v in s[key] if math.isfinite(v)] or [0.0, 1.0]
        lo, hi = min(vals), max(vals)
        pad = (abs(lo) * 0.1 or 1.0) if lo == hi else 0.05 * (hi - lo)
        return lo - pad, hi + pad

    (x_lo, x_hi), (y_lo, y_hi) = limits("x", None), limits("y", ylim)
    return [[(f"{72 + (float(x) - x_lo) / (x_hi - x_lo) * 704:.2f}",
              f"{42 + (y_hi - float(y)) / (y_hi - y_lo) * 504:.2f}")
             for x, y in zip(s["x"], s["y"])
             if math.isfinite(float(x)) and math.isfinite(float(y))]
            for s in series]


def _written(text):
    """The vertices of each polyline and the circles of an SVG, as written."""
    lines = [[tuple(v.split(",")) for v in m.split()]
             for m in re.findall(r'<polyline points="([^"]*)"', text)]
    circles = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', text)
    return lines, circles


def _column_extent(vertices):
    extent = {}
    for xs, ys in vertices:
        col, y = math.floor(float(xs)), float(ys)
        lo, hi = extent.get(col, (y, y))
        extent[col] = (min(lo, y), max(hi, y))
    return extent


def _is_subsequence(part, whole):
    it = iter(whole)
    return all(v in it for v in part)


def test_pixel_columns_follow_the_written_coordinate():
    # the doubles within a few ulps of each column boundary c - 0.005 of
    # the plot, where rounding could put px + 0.005 on the wrong side
    px = np.arange(72.0, 777.0) - 0.005
    for _ in range(4):
        px = np.concatenate([px, np.nextafter(px, np.inf), np.nextafter(px, -np.inf)])
    written = [math.floor(float(f"{v:.2f}")) for v in px.tolist()]
    assert _columns(px).tolist() == written


def _m4_series():
    rng = np.random.default_rng(20261018)
    n = 60001
    t = np.linspace(0.0, 200.0, n)
    walk = np.cumsum(rng.standard_normal(n))
    with np.errstate(over="ignore"):
        escaping = 1e-3 * np.exp(t * 3.6)  # to about 1e310: past ylim, then inf
    escaping[::7] *= -1.0
    gappy = np.sin(t) + 0.1 * rng.standard_normal(n)
    gappy[rng.integers(0, n, 500)] = np.nan
    gappy[rng.integers(0, n, 50)] = np.inf
    gappy[rng.integers(0, n, 50)] = -np.inf
    t_gappy = t.copy()
    t_gappy[rng.integers(0, n, 200)] = np.nan
    s = np.linspace(0.0, 6.0 * math.pi, n)  # three laps of a closed curve
    return {
        "random_walk": ([{"kind": "line", "x": t, "y": walk}], None),
        "escaping": ([{"kind": "line", "x": t, "y": escaping}], (-5.0, 5.0)),
        "gaps": ([{"kind": "line", "x": t_gappy, "y": gappy}], None),
        "closed_curve": ([{"kind": "line", "x": np.cos(s) + 0.3 * np.cos(7 * s),
                           "y": np.sin(s) + 0.3 * np.sin(5 * s)}], None),
    }


@pytest.mark.parametrize("name", sorted(_m4_series()))
def test_m4_polyline_keeps_the_column_extent_of_the_full_one(tmp_path, name):
    series, ylim = _m4_series()[name]
    path = tmp_path / "m4.svg"
    svg_plot(path, series, xlabel="t", ylabel="y", title=name, ylim=ylim)
    (reduced,), _ = _written(path.read_text())
    (full,) = _full_vertices(series, ylim)
    assert len(reduced) < len(full) / 4
    assert reduced[0] == full[0] and reduced[-1] == full[-1]
    assert _column_extent(reduced) == _column_extent(full)
    assert _is_subsequence(reduced, full)


def test_m4_keeps_every_vertex_of_a_sparse_series(tmp_path):
    path = tmp_path / "sparse.svg"
    x = np.linspace(0.0, 1.0, 2001)  # about 3 vertices per pixel column
    series = [{"kind": "line", "x": x, "y": np.cos(40.0 * x)}]
    svg_plot(path, series)
    (written,), _ = _written(path.read_text())
    assert written == _full_vertices(series)[0]


def test_repeated_scatter_points_are_drawn_once(tmp_path):
    path = tmp_path / "scatter.svg"
    x = [0.0, 1.0, 0.0, 1e-9, 0.5, 1.0, math.nan]
    y = [0.0, 1.0, 0.0, 0.0, 0.5, 1.0, 0.0]
    series = [{"kind": "scatter", "x": x, "y": y}]
    svg_plot(path, series)
    _, circles = _written(path.read_text())
    assert circles == list(dict.fromkeys(_full_vertices(series)[0]))
    assert len(circles) == 3


def test_reduced_plot_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        series, ylim = _m4_series()["gaps"]
        svg_plot(path, series + [{"kind": "scatter", "x": [1.0, 1.0], "y": [0.5, 0.5]}],
                 xlabel="t", ylabel="y", title="gaps", ylim=ylim)
    assert a.read_bytes() == b.read_bytes()


def _limits_concatenated(values, fixed):
    """Reference for _limits: min and max over one concatenated copy of the arrays."""
    if fixed is not None:
        return float(fixed[0]), float(fixed[1])
    vals = np.concatenate([np.empty(0), *values])
    vals = vals[np.isfinite(vals)]
    lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 1.0)
    pad = (abs(lo) * 0.1 or 1.0) if lo == hi else 0.05 * (hi - lo)
    return lo - pad, hi + pad


@pytest.mark.parametrize("values", [
    [np.array([0.5, np.nan, -2.0, 3.0])],
    [np.array([np.inf, 1.0]), np.array([-np.inf, -1.0, np.nan])],
    [np.array([np.nan, np.inf]), np.array([-np.inf])],
    [np.array([np.nan]), np.array([2.0, 2.0])],
    [np.array([-0.0, 0.0]), np.array([0.0])],
    [np.array([]), np.array([7.0, np.nan, -1e300])],
    [np.array([])],
    [],
], ids=["nan", "pm_inf", "all_nonfinite", "constant", "signed_zeros", "empty_and_huge",
        "empty", "no_series"])
def test_limits_match_one_concatenated_pass(values):
    assert _limits(values, None) == _limits_concatenated(values, None)
    assert _limits(values, (-1, 2)) == (-1.0, 2.0)


def _px_py(x, y):
    """svg_plot's pixel maps for one series (x, y), with its limits."""
    x_lo, x_hi = _limits([x], None)
    y_lo, y_hi = _limits([y], None)
    return (lambda v: 72 + (v - x_lo) / (x_hi - x_lo) * 704,
            lambda v: 42 + (y_hi - v) / (y_hi - y_lo) * 504)


def _m4_whole(x, y, px, py):
    """The written vertices of one _m4_indices pass over the whole line."""
    xs, ys = px(x), py(y)
    keep = _m4_indices(xs, ys)
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs[keep].tolist(), ys[keep].tolist()))


def _m4_lines():
    rng = np.random.default_rng(20261019)
    n = 5000
    t = np.linspace(0.0, 1.0, n)
    s = np.linspace(0.0, 6.0 * math.pi, n)
    # 625 steps of 8 equal x, each step one pixel column further on: with a
    # block of 8 every block edge is a column change (checked below)
    edge_x = np.repeat(np.arange(625.0), 8)
    return {
        # 2000 vertices in one pixel column, then a ramp
        "long_run": (np.concatenate([np.zeros(2000), t[:3000]]), rng.standard_normal(n)),
        "block_edge": (edge_x, rng.standard_normal(n)),
        "closed_curve": (np.cos(s) + 0.3 * np.cos(7 * s), np.sin(s) + 0.3 * np.sin(5 * s)),
        "random_walk": (t, np.cumsum(rng.standard_normal(n))),
        "constant_y": (t, np.full(n, 2.5)),
    }


@pytest.mark.parametrize("block", [1, 7, 8, 64, 4096])
@pytest.mark.parametrize("name", sorted(_m4_lines()))
def test_blockwise_m4_line_is_one_whole_line_pass(monkeypatch, name, block):
    x, y = _m4_lines()[name]
    px, py = _px_py(x, y)
    monkeypatch.setattr(output, "_M4_BLOCK", block)
    assert _m4_line(x, y, px, py) == _m4_whole(x, y, px, py)


def test_block_edge_line_changes_column_at_each_block_edge():
    x, y = _m4_lines()["block_edge"]
    col = _columns(_px_py(x, y)[0](x))
    assert np.flatnonzero(col[1:] != col[:-1]).tolist() == list(range(7, len(x) - 1, 8))


@pytest.mark.parametrize("name", ["gaps", "escaping", "closed_curve"])
def test_blockwise_svg_plot_is_byte_identical_to_one_pass(monkeypatch, tmp_path, name):
    series, ylim = _m4_series()[name]
    x, y = series[0]["x"], series[0]["y"]
    # a long all-NaN stretch, and a series with no finite point at all
    y = y.copy()
    y[20000:40000] = np.nan
    series = [{"kind": "line", "x": x, "y": y},
              {"kind": "line", "x": x, "y": np.full(len(x), np.nan)},
              {"kind": "line", "x": x[:5000], "y": np.full(5000, 0.5)}]
    files = []
    for block in (10**9, 16384, 257):  # one block is the whole-array pass
        monkeypatch.setattr(output, "_M4_BLOCK", block)
        path = tmp_path / f"{block}.svg"
        svg_plot(path, series, xlabel="t", ylabel="y", title=name, ylim=ylim)
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]
    assert files[0].count(b"<polyline") == 2


def test_svg_plot_of_a_long_line_peaks_at_a_fixed_size(tmp_path, peak_alloc):
    # 200k vertices, as a fixed-step run of 200k steps draws: one pass over
    # the whole line took about 10 MB, the blocks about 1.2 MB
    t = np.arange(200_001) * 1e-3
    x, y = t, 1e-6 * np.sin(t) + 1e-9 * np.cos(977.0 * t)
    _, peak = peak_alloc(lambda: svg_plot(tmp_path / "long.svg",
                                          [{"kind": "line", "x": x, "y": y}]))
    assert peak <= 1_500_000
