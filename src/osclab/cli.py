"""Command-line surface: reproduction runs, scans, and reductions.

Subcommands
    simulate        integrate one system, write the trajectory
    drift           invariant drift along a fixed-step run
    poincare        stroboscopic section points plus the analytic curve
    stability-scan  boundedness scan over omega and z0 against z_crit
    crit            print the analytic critical amplitude
    family          five-parameter coefficient family run with drift
    reduce          Hill linear part to constant-frequency normal form

Each command returns a ``Record``; ``main`` alone writes it to --out.
Importing this module executes errors, integrate, model and output,
which every command uses.  family, invariant, normalform, poincare,
spline and stability are lazy (``_lazy``): each runs when a command
first reads from it, so ``crit`` adds poincare and cubic,
``stability-scan`` adds stability and what it imports (lanes, poincare
and cubic), and ``reduce`` normalform and spline.
Exit codes: 0 on success (escape during a scan or simulate is an
expected outcome, not a failure), 2 on configuration errors (nothing is
written) or an unwritable --out, 3 on numerical failures (an
OverflowError among them), with the error name recorded in the summary.

Presets encode the demonstration parameter sets used throughout:
fig1/sec3ref (drift of the m=2 trig system at omega=1), fig2 (190
strobe points), fig3 (the six-omega boundary scan), fig4-bounded and
fig4-unbounded (one run just below and one just above the threshold).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, OscLabError
from .integrate import (MAX_GRID_POINTS, AdaptiveConfig, FixedStepConfig, integrate_adaptive,
                        integrate_fixed, sample_strobe)
from .model import MAX_M, State, make_field, spec_from_json, trig_spec
from .output import M4Line, Strided, plot_frame, svg_plot, write_csv, write_json


def _lazy(name: str):
    """The osclab submodule ``name``, executed at its first attribute access.

    The lazy-import recipe of the importlib docs: the module is registered in
    sys.modules and on the package now, as an import would do, but runs only
    once something reads from it.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


family_mod = _lazy("family")
invariant_mod = _lazy("invariant")
nf_mod = _lazy("normalform")
poincare_mod = _lazy("poincare")
spline = _lazy("spline")
stability_mod = _lazy("stability")

PRESETS = {
    "fig1": {
        "A": 1.3, "B": 0.9, "C": 0.0, "omega": 1.0, "m": 2,
        "z0": 0.1, "p0": 0.0, "tmax": 600.0, "h": 1e-3,
    },
    "sec3ref": {
        "A": 1.3, "B": 0.9, "C": 0.0, "omega": 1.0, "m": 2,
        "z0": 0.35, "p0": 0.0, "tmax": 600.0, "h": 1e-3,
    },
    "fig2": {
        "A": 1.3, "B": 0.9, "C": 0.0, "omega": 1.0, "m": 2,
        "z0": 0.1, "p0": 0.0, "points": 190, "h": 1e-3, "escape": 50.0,
    },
    "fig3": {
        "A": 1.3, "B": 0.9, "C": 0.0,
        "omegas": (0.8, 1.0, 1.2, 1.4, 1.6, 1.8),
        "dz0": 0.02, "tmax": 600.0, "escape": 50.0,
    },
    "fig4-bounded": {
        "A": 1.3, "B": 0.9, "C": 0.0, "omega": 1.4, "m": 2,
        "z0": 1.2, "p0": 0.0, "tmax": 600.0, "h": 1e-3, "escape": 50.0,
        "yrange": (-5.0, 5.0),
    },
    "fig4-unbounded": {
        "A": 1.3, "B": 0.9, "C": 0.0, "omega": 1.4, "m": 2,
        "z0": 1.4, "p0": 0.0, "tmax": 600.0, "h": 1e-3, "escape": 50.0,
        "yrange": (-5.0, 5.0),
    },
}

_CSV_ROW_CAP = 10000

# the run parameters of simulate and drift where neither preset nor flag sets
# them; poincare adds its strobe points, family runs to 100, stability-scan has its own
_RUN_DEFAULTS = {"z0": 0.1, "p0": 0.0, "tmax": 600.0, "escape": math.inf}
_SCAN_DEFAULTS = {"dz0": 0.02, "tmax": 600.0, "escape": 50.0}


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _resolve(args, defaults):
    """A run's parameters: ``defaults``, then the preset's, then the flags that are set.

    Refuses --preset with --spec, --h with --rtol, and a z0 or p0 that is not finite.
    """
    preset = getattr(args, "preset", None)
    if preset and args.spec:
        raise ConfigError("give either --preset or --spec, not both")
    if getattr(args, "h", None) is not None and getattr(args, "rtol", None) is not None:
        raise ConfigError("give either --h (RK4) or --rtol (Dormand-Prince), not both")
    params = dict(defaults)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        params.update(PRESETS[preset])
    for key in ("z0", "p0", "h", "rtol", "atol", "tmax", "escape", "points", "dz0"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    for key in ("z0", "p0"):
        if not math.isfinite(params.get(key, 0.0)):
            raise ConfigError(f"{key} must be finite, got {params[key]}")
    return params


def _resolve_oscillator(args, defaults):
    """Oscillator spec of the preset or the --spec file, plus ``_resolve``'s parameters."""
    params = _resolve(args, defaults)
    if args.preset:
        if "omega" not in params:
            raise ConfigError(f"preset {args.preset!r} sets no single omega; "
                              "it is a stability-scan preset")
        spec = trig_spec(params["A"], params["B"], params["C"],
                         params["omega"], params.get("m", 2))
    elif args.spec:
        spec = spec_from_json(_read_json(args.spec))
    else:
        raise ConfigError("a system is required: --preset <name> or --spec <file.json>")
    return spec, params


@dataclass(frozen=True)
class Record:
    """What one command computed, for ``main`` to write.

    ``tables``: (file name, header, rows) per CSV; rows may be a one-shot
    iterator.  ``plots``: (file name, series, ``svg_plot`` labels) per SVG.
    """

    summary: dict
    report: str
    tables: tuple = ()
    plots: tuple = ()


def _write(out: Path, record: Record, svg: bool) -> None:
    """Make ``out``, write the tables, the plots when ``svg``, then summary.json."""
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in record.tables:
        write_csv(out / name, header, rows)
    for name, series, labels in record.plots if svg else ():
        svg_plot(out / name, series, **labels)
    write_json(out / "summary.json", record.summary)


def _stride_rows(ts, cols):
    """Rows (t, *cols) at a stride that keeps at most _CSV_ROW_CAP of them, plus the last one."""
    table = Strided(len(ts), _CSV_ROW_CAP)
    table.feed([ts, *cols])
    return zip(*table.cols)


def _method(params, default_h):
    """The settings of a run's integrator that are set; the run's record names the integrator.

    Dormand-Prince runs where rtol is set or neither h nor ``default_h`` is; it takes
    whichever of rtol and atol are set, so an unset one is the library's default.  Else
    RK4 takes ``{"h": h}``, h defaulting to ``default_h``; ``--atol``, which RK4 would not
    read, is refused.
    """
    h = params.get("h", default_h) if "rtol" not in params else None
    if h is None:
        return {key: params[key] for key in ("rtol", "atol") if key in params}
    if "atol" in params:
        raise ConfigError("--atol applies to an adaptive run only; this run is RK4 "
                          "(give --rtol to run Dormand-Prince)")
    return {"h": h}


class _Kept:
    """What simulate and drift keep of a run of n rows fed as blocks (ts, ys) the run hands out
    (an ``integrate_fixed`` sink, ``Trajectory.blocks()``): the CSV rows and the M4 line of x
    against y (or ylim).  ``values(ts, ys)`` makes the columns after t; the first is plotted.
    """

    def __init__(self, n, x, y, ylim, values):
        self.table, self.values, self.plot_data = Strided(n, _CSV_ROW_CAP), values, (x, y, ylim)
        self.line = M4Line(*plot_frame([x], [y], ylim)[1:])

    def feed(self, ts, ys):
        cols = np.atleast_2d(self.values(ts, ys))
        self.table.feed([ts, *cols])
        self.line.feed(ts, cols[0])

    def plot(self, name, **labels):
        x, y, ylim = self.plot_data
        series = {"kind": "line", "x": x, "y": y, "points": self.line.finish()}
        return name, [series], dict(labels, ylim=ylim)


def _run_oscillator(spec, params, ylim, values):
    """(status, stats, ``_Kept`` of ``values()``) of a run, RK4 or as ``_method`` says.

    An RK4 run with a ``ylim`` streams into ``_Kept``: its length and t-span, which fix the
    stride and the frame, are known before it starts, and one that ends early runs once
    more knowing them (it is deterministic, so that run ends where the first did).  Any
    other run keeps its record and feeds it after; with no ``ylim`` the y-range is its z's.
    """
    settings = _method(params, 1e-3)
    field = make_field(spec)
    y0 = (params["z0"], params["p0"])
    kw = dict(settings, t_end=params["tmax"], escape_bound=params["escape"])
    if "h" not in settings:
        run = integrate_adaptive(field, y0, AdaptiveConfig(**kw))
    elif ylim is None:
        run = integrate_fixed(field, y0, FixedStepConfig(**kw))
    else:
        cfg = FixedStepConfig(**kw)
        n, t_end = cfg.n_rows, cfg.t_end
        for _ in range(2):
            kept = _Kept(n, np.array((cfg.t_start, t_end)), (), ylim, values())
            run = integrate_fixed(field, y0, cfg, sink=kept.feed)
            if (run.stats.accepted + 1, run.ts[-1]) == (n, t_end):
                break
            n, t_end = run.stats.accepted + 1, run.ts[-1]
        return run.status, run.stats.to_json(), kept
    kept = _Kept(len(run), run.ts, run.z, ylim, values())
    for ts, ys in run.blocks():
        kept.feed(ts, ys)
    return run.status, run.stats.to_json(), kept


def cmd_simulate(args) -> Record:
    spec, params = _resolve_oscillator(args, _RUN_DEFAULTS)
    status, stats, kept = _run_oscillator(spec, params, params.get("yrange"),
                                          lambda: lambda ts, ys: ys.T)
    t, z, p = (c[-1] for c in kept.table.cols)
    summary = {
        "status": status,
        "t_final": t,
        "z_final": z,
        "p_final": p,
        "n_recorded": kept.table.n,
        "z0": params["z0"], "p0": params["p0"],
        "stats": stats,
    }
    return Record(
        summary, f"simulate: status={status} t_final={t:.6g} z_final={z:.6g}",
        tables=[("traj.csv", "t,z,p", zip(*kept.table.cols))],
        plots=[kept.plot("traj.svg", xlabel="t", ylabel="z", title="trajectory")])


def cmd_drift(args) -> Record:
    spec, params = _resolve_oscillator(args, _RUN_DEFAULTS)
    invariant_mod.build_coeffs(spec)  # a system without an invariant is refused before the run
    status, stats, kept = _run_oscillator(spec, params, (-1e-5, 1e-5),
                                          lambda: invariant_mod.DriftSeries(spec))
    report = kept.values
    summary = {
        "status": status,
        "mode": report.mode,
        "max_rel_drift": report.max_rel,
        "i0": invariant_mod.eval_invariant(spec, State(0.0, params["z0"], params["p0"])),
        "n_recorded": kept.table.n,
        "stats": stats,
    }
    return Record(
        summary, f"drift: mode={report.mode} max={report.max_rel:.6e} status={status}",
        tables=[("drift.csv", "t,rel_drift", zip(*kept.table.cols))],
        plots=[kept.plot("drift.svg", xlabel="t", ylabel="I/I0 - 1", title="invariant drift")])


def cmd_poincare(args) -> Record:
    spec, params = _resolve_oscillator(args, dict(_RUN_DEFAULTS, points=190))
    z0, p0 = params["z0"], params["p0"]
    n_points = int(params["points"])
    if n_points < 1:
        raise ConfigError(f"need at least one strobe point, got {n_points}")
    settings = _method(params, None)
    i0 = invariant_mod.eval_invariant(spec, State(0.0, z0, p0))
    curve = poincare_mod.section_curve(spec, i0)

    field = make_field(spec)
    t_step = math.pi / spec.omega
    strobe = sample_strobe(field, (z0, p0), t_step, n_points - 1,
                           escape_bound=params["escape"], **settings)
    residual = poincare_mod.section_residual(strobe, curve)
    loop = poincare_mod.curve_loop(curve, 400, z_hint=z0)
    closed = loop + loop[:1]  # an empty loop draws nothing
    series = [{"kind": "line", "x": [q[0] for q in closed], "y": [q[1] for q in closed]},
              {"kind": "scatter", "x": strobe.z, "y": strobe.p, "color": "#d62728"}]
    summary = {
        "status": strobe.status,
        "i0": i0,
        "n_points": len(strobe),
        "residual_max": residual,
        "admissible": [
            [None if math.isinf(lo) else lo, None if math.isinf(hi) else hi]
            for lo, hi in curve.admissible
        ],
        "stats": strobe.stats.to_json(),
    }
    return Record(
        summary, f"poincare: points={len(strobe)} residual_max={residual:.6e} "
                 f"status={strobe.status}",
        tables=[("strobe.csv", "z,p", zip(strobe.z.tolist(), strobe.p.tolist())),
                ("curve.csv", "z,p", loop)],
        plots=[("section.svg", series,
                {"xlabel": "z", "ylabel": "p", "title": "stroboscopic section"})])


def _parse_omegas(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--omegas wants a:b:step, got {text!r}")
    try:
        a, b, step = (float(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"--omegas wants numbers a:b:step, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ConfigError(f"--omegas wants finite numbers, got {text!r}")
    if step <= 0.0 or b < a:
        raise ConfigError(f"--omegas wants a <= b and step > 0, got {text!r}")
    span = (b - a) / step + 1e-9  # a float: no overflow, at worst inf
    if not span < MAX_GRID_POINTS:  # floor(span) + 1 omegas
        raise ConfigError(f"--omegas {text!r} gives more than {MAX_GRID_POINTS} omegas")
    return tuple(a + k * step for k in range(int(span) + 1))


def cmd_scan(args) -> Record:
    if args.preset:
        # a scan preset names the trig family; omega comes from its grid
        params = _resolve(args, _SCAN_DEFAULTS)
        A, B, C = params["A"], params["B"], params["C"]
    else:
        spec, params = _resolve_oscillator(args, _SCAN_DEFAULTS)
        stability_mod.require_m2_trig(spec)
        A, B, C = spec.g_source.A, spec.g_source.B, spec.g_source.C
    omegas = _parse_omegas(args.omegas) if args.omegas else params.get("omegas", ())
    if not omegas:
        raise ConfigError("no omega values: pass --omegas a:b:step")
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")

    result = stability_mod.scan(A, B, C, omegas, dz0=params["dz0"], t_max=params["tmax"],
                                z_escape=params["escape"])
    rows = result.rows
    R = math.hypot(B, C)
    lo, hi = min(omegas), max(omegas)
    dense = [lo + (hi - lo) * k / 199 for k in range(200)]
    summary = {
        "rows": [
            {"omega": r.omega, "z_last_bounded": r.z_last_bounded,
             "z_crit": r.z_crit_analytic, "agrees": r.agrees}
            for r in rows
        ],
        "all_agree": all(r.agrees for r in rows),
        "dz0": params["dz0"],
        "integrator": stability_mod.SCAN_PAIR.name,
        "cells": [{"omega": r.omega, "cells": r.cells, **r.ended}
                  | {k: v for k, v in r.stats.to_json().items() if k != "integrator"}
                  for r in rows],
        "batches": result.batches,
    }
    return Record(
        summary, "\n".join(f"omega={r.omega:<6g} z_last_bounded={r.z_last_bounded:<8g} "
                           f"z_crit={r.z_crit_analytic:.6f} agrees={r.agrees}" for r in rows),
        tables=[("scan.csv", "omega,z_last_bounded,z_crit",
                 [(r.omega, r.z_last_bounded, r.z_crit_analytic) for r in rows])],
        plots=[("scan.svg",
                [{"kind": "line", "x": dense,
                  "y": [poincare_mod.z_crit(A, R, w) for w in dense]},
                 {"kind": "scatter", "x": [r.omega for r in rows],
                  "y": [r.z_last_bounded for r in rows], "color": "#d62728"}],
                {"xlabel": "omega", "ylabel": "z0", "title": "stability boundary"})])


def cmd_crit(args) -> Record:
    R = math.hypot(args.B, args.C)
    zc = poincare_mod.z_crit(args.A, R, args.omega)
    ic = poincare_mod.i0_crit(args.A, R, args.omega)
    return Record({"A": args.A, "B": args.B, "C": args.C, "R": R,
                   "omega": args.omega, "z_crit": zc, "i0_crit": ic},
                  f"z_crit = {zc:.2f}\n  z_crit  (full) = {zc:.17g}\n"
                  f"  i0_crit (full) = {ic:.17g}")


def cmd_family(args) -> Record:
    fp = family_mod.fiveparam_from_json(_read_json(args.spec))
    params = _resolve(args, dict(_RUN_DEFAULTS, tmax=100.0))
    settings = _method(params, None)
    traj, report = family_mod.integrate_family(
        fp, params["z0"], params["p0"], params["tmax"], escape_bound=params["escape"], **settings)
    summary = {
        "status": traj.status,
        "mode": report.mode,
        "max_rel_drift": report.max_rel,
        "n_recorded": len(traj),
        "stats": traj.stats.to_json(),
    }
    return Record(
        summary, f"family: status={traj.status} drift mode={report.mode} "
                 f"max={report.max_rel:.6e}",
        tables=[("traj.csv", "t,z,p,alpha2,dalpha2,ddalpha2",
                 _stride_rows(traj.ts, [traj.ys[:, i] for i in range(5)])),
                ("drift.csv", "t,rel_drift", _stride_rows(report.ts, [report.series]))],
        plots=[("family.svg", [{"kind": "line", "x": traj.ts, "y": traj.ys[:, 2]}],
                {"xlabel": "t", "ylabel": "alpha2", "title": "coefficient evolution"})])


def cmd_reduce(args) -> Record:
    grid = _read_csv_columns(args.hill, ("t", "f", "g"))
    T = args.T
    f_fun, g_fun = _periodic_interpolants(grid, T)
    res = nf_mod.reduce(nf_mod.HillSpec(f=f_fun, T=T), g_fun, args.m,
                        n_grid=args.n_grid, rtol=args.rtol)
    summary = {
        "omega_nf": res.omega_nf,
        "mu": res.mono.mu,
        "beta0": res.mono.beta0,
        "alphaT": res.mono.alphaT,
        "gamma0": res.mono.gamma0,
        "trace": res.mono.trace,
        "det": res.mono.det,
        "defect_w": res.env.defect_w,
        "defect_wp": res.env.defect_wp,
        "m": res.m,
        "n_grid": args.n_grid,
        "stats": {"monodromy": res.mono.stats.to_json(), "envelope": res.env.stats.to_json()},
    }
    env = res.env
    return Record(
        summary, f"reduce: omega_nf={res.omega_nf:.12g} mu={res.mono.mu:.12g} "
                 f"beta0={res.mono.beta0:.12g}",
        tables=[("envelope.csv", "t,phi,w,wp", zip(env.ts, env.phi, env.w, env.wp)),
                ("gnf.csv", "s,g_nf", zip(res.s_grid, res.g_nf_grid))],
        plots=[("envelope.svg", [{"kind": "line", "x": env.ts, "y": env.w}],
                {"xlabel": "t", "ylabel": "w", "title": "envelope"}),
               ("gnf.svg", [{"kind": "line", "x": res.s_grid, "y": res.g_nf_grid}],
                {"xlabel": "s", "ylabel": "g_nf", "title": "reduced coefficient"})])


def _read_csv_columns(path: str, names):
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header != list(names):
        raise ConfigError(f"{path} must have header {','.join(names)}, got {lines[0]!r}")
    cols = {n: [] for n in names}
    for ln, line in enumerate(lines[1:], start=2):
        vals = line.split(",")
        if len(vals) != len(names):
            raise ConfigError(f"{path}:{ln}: expected {len(names)} columns")
        try:
            for n, v in zip(names, vals):
                cols[n].append(float(v))
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
    if len(cols[names[0]]) < 4:
        raise ConfigError(f"{path}: need at least 4 rows for cubic interpolation")
    return cols


def _periodic_interpolants(grid, T: float):
    """Periodic cubic splines of the f and g columns of a Hill table over [0, T]."""
    ts = np.asarray(grid["t"])
    if abs(ts[0]) > 1e-12 or abs(ts[-1] - T) > 1e-9 * max(1.0, T):
        raise ConfigError(f"hill grid must cover exactly [0, {T}], got [{ts[0]}, {ts[-1]}]")
    if np.any(np.diff(ts) <= 0.0):
        raise ConfigError("hill grid times must be strictly increasing")
    splines = []
    for name in ("f", "g"):
        vals = np.asarray(grid[name], dtype=float)
        if abs(vals[0] - vals[-1]) > 1e-9 * (abs(vals[0]) + 1.0):
            raise ConfigError(f"column {name} must match at t=0 and t=T for periodicity")
        vals = vals.copy()
        vals[-1] = vals[0]
        splines.append(spline.periodic(ts, vals))
    return tuple(splines)


def _add_common(p):
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                   help="write SVG plots (default on; --no-svg disables)")


def _add_system(p, h_help):
    p.add_argument("--preset", help="named parameter set, e.g. fig1")
    p.add_argument("--spec", help="oscillator spec JSON file")
    p.add_argument("--z0", type=float, help="initial position")
    p.add_argument("--p0", type=float, help="initial momentum")
    p.add_argument("--h", type=float, help=h_help)
    p.add_argument("--rtol", type=float, help="use the adaptive integrator at this rtol")
    p.add_argument("--atol", type=float, help="adaptive absolute tolerance")
    p.add_argument("--escape", type=float, help="escape bound on |z|, |p|")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="osclab",
        description="Quadratic invariants, sections, and stability boundaries "
                    "of z'' + omega^2 z + g(t) z^m = 0",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, handler, text in (("simulate", cmd_simulate, "integrate one system"),
                                ("drift", cmd_drift, "invariant drift along a run")):
        p = sub.add_parser(name, help=text)
        _add_system(p, "RK4 step size (default 1e-3)")
        p.add_argument("--tmax", type=float, help="integration horizon")
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("poincare", help="stroboscopic section and curve")
    _add_system(p, "RK4 step size; without it or a preset's, the strobe runs Dormand-Prince")
    p.add_argument("--points", type=int, help="number of strobe points (default 190)")
    _add_common(p)
    p.set_defaults(handler=cmd_poincare)

    p = sub.add_parser("stability-scan", help="boundedness scan against z_crit")
    p.add_argument("--preset", help="named parameter set, e.g. fig3")
    p.add_argument("--spec", help="oscillator spec JSON (m=2 trig family)")
    p.add_argument("--omegas", help="grid a:b:step, e.g. 0.8:1.8:0.2")
    p.add_argument("--dz0", type=float, help="z0 grid step (default 0.02)")
    p.add_argument("--tmax", type=float, help="boundedness horizon (default 600)")
    p.add_argument("--escape", type=float, help="escape bound (default 50)")
    p.add_argument("--workers", type=int, help="accepted for compatibility and checked to "
                   "be at least 1; it has no effect, the scan runs in one process")
    _add_common(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("crit", help="print the critical amplitude")
    p.add_argument("--A", type=float, required=True, help="A of alpha2 = A + B cos 2wt + C sin 2wt")
    p.add_argument("--B", type=float, required=True, help="cosine amplitude B of alpha2")
    p.add_argument("--C", type=float, default=0.0, help="sine amplitude C of alpha2 (default 0)")
    p.add_argument("--omega", type=float, required=True, help="frequency omega (w above)")
    p.add_argument("--out", default=None, help="optionally write summary.json here")
    p.set_defaults(handler=cmd_crit)

    p = sub.add_parser("family", help="five-parameter family run with drift")
    p.add_argument("--spec", required=True, help="five-parameter spec JSON file")
    for flag, text in (("--z0", "initial position (default 0.1)"),
                       ("--p0", "initial momentum (default 0)"),
                       ("--tmax", "integration horizon (default 100)"),
                       ("--rtol", "Dormand-Prince relative tolerance (default 1e-12)"),
                       ("--atol", "Dormand-Prince absolute tolerance (default 1e-12)"),
                       ("--escape", "escape bound on |z|, |p| (default: none)")):
        p.add_argument(flag, type=float, help=text)
    _add_common(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("reduce", help="Hill linear part to normal form")
    p.add_argument("--hill", required=True, help="CSV with columns t,f,g over one period")
    p.add_argument("--T", type=float, required=True, help="period of f")
    p.add_argument("--m", type=int, required=True, help=f"nonlinearity exponent, 2 to {MAX_M}")
    p.add_argument("--n-grid", type=int, default=2001, dest="n_grid",
                   help="points of the envelope and reduced-coefficient grids (default 2001)")
    p.add_argument("--rtol", type=float, default=1e-12,
                   help="envelope run's rtol (default 1e-12); the monodromy runs take 1e-13")
    _add_common(p)
    p.set_defaults(handler=cmd_reduce)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.handler(args)
        code = 3 if record.summary.get("status") == "coefficient_singular" else 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    except (OscLabError, OverflowError) as exc:  # say, g(t) past the float range at a large m
        name = exc.name if isinstance(exc, OscLabError) else "overflow"
        record = Record({"error": name, "message": str(exc)},
                        f"numerical failure [{name}]: {exc}")
        code = 3
    if args.out is not None:
        try:
            _write(Path(args.out), record, getattr(args, "svg", False))
        except OSError as exc:
            print(f"error: cannot write to {args.out}: {exc}")
            return 2
    print(record.report)
    return code
