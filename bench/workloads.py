"""The four osclab CLI jobs of the benchmark: seeded inputs and correctness gates.

Each workload turns a seed into one job: the osclab arguments a user
would type, plus a gate that reads the job's ``summary.json`` and either
returns the job's own accuracy figure (``result_err``) or raises
``GateError``.  The reference values the gates compare against are
computed here from closed forms, independently of osclab.

The seed moves the inputs inside narrow bands (about 1 % around the
paper's demonstration values), so that every seed is a different input
while step counts and accuracy figures move by a few percent only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TWO_PI = 2.0 * math.pi

# the fig1/fig2/fig3 trig system: alpha2 = A + B cos(2 omega t), m = 2
A, B = 1.3, 0.9
FIG1_H = 1e-3

DRIFT_TOL = 1e-5
RESIDUAL_TOL = 1e-6
DEFECT_TOL = 1e-9
# Hill tables with |trace M| above this are rejected as too close to resonance
HILL_TRACE_MAX = 1.98


class GateError(Exception):
    """A job's outputs fall outside the acceptance tolerances."""


@dataclass(frozen=True)
class Job:
    """One osclab invocation as the benchmark runs it.

    ``argv`` is the timed form; ``trace_argv`` is the form the traced
    run executes in-process (one worker, so every span is recorded).
    """

    argv: tuple
    trace_argv: tuple
    check: Callable[[Path], float]
    inputs: dict
    processes: int = 1  # CPU-bound processes the timed form runs at once


def _require(ok: bool, what: str):
    if not ok:
        raise GateError(what)


def _summary(out: Path) -> dict:
    try:
        return json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        raise GateError(f"unreadable summary.json: {exc}") from exc


def _i0_ref(z0: float, omega: float = 1.0) -> float:
    """Invariant of (z0, p0 = 0) at t = 0 for the m = 2 trig system with C = 0."""
    return omega * omega * (A - B) * z0 * z0 + (2.0 / 3.0) * (A + B) ** -1.5 * z0 ** 3


def _z_crit_ref(omega: float) -> float:
    return 0.5 * omega * omega * (A - B) * (A + B) ** 1.5


def _amplitude(rng: random.Random) -> float:
    # within 1 % of the preset z0 = 0.1, deep inside the bounded basin (z_crit = 0.653)
    return 0.1 * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))


def trajectory(seed: int, workdir: Path, small: bool, workers: int) -> Job:
    z0 = _amplitude(random.Random(f"trajectory/{seed}"))
    tmax = 20.0 if small else 200.0
    argv = ("drift", "--preset", "fig1", "--tmax", repr(tmax), "--z0", repr(z0))

    def check(out: Path) -> float:
        s = _summary(out)
        _require(s.get("status") == "completed", f"status {s.get('status')!r}")
        _require(s.get("mode") == "relative", f"drift mode {s.get('mode')!r}")
        _require(s.get("n_recorded") == round(tmax / FIG1_H) + 1,
                 f"n_recorded {s.get('n_recorded')}")
        i0 = _i0_ref(z0)
        _require(abs(s["i0"] - i0) <= 1e-12 * i0, f"i0 {s['i0']!r} != {i0!r}")
        _require(s["max_rel_drift"] <= DRIFT_TOL, f"drift {s['max_rel_drift']:.3e}")
        return float(s["max_rel_drift"])

    return Job(argv, argv, check, {"z0": z0, "tmax": tmax})


def section(seed: int, workdir: Path, small: bool, workers: int) -> Job:
    z0 = _amplitude(random.Random(f"section/{seed}"))
    points = 50 if small else 1000
    argv = ("poincare", "--preset", "fig2", "--rtol", "1e-10",
            "--points", str(points), "--z0", repr(z0))

    def check(out: Path) -> float:
        s = _summary(out)
        _require(s.get("status") == "completed", f"status {s.get('status')!r}")
        _require(s.get("n_points") == points, f"n_points {s.get('n_points')}")
        rows = (out / "strobe.csv").read_text().splitlines()
        _require(len(rows) == points + 1, f"strobe.csv has {len(rows) - 1} points")
        i0 = _i0_ref(z0)
        _require(abs(s["i0"] - i0) <= 1e-12 * i0, f"i0 {s['i0']!r} != {i0!r}")
        _require(s["residual_max"] <= RESIDUAL_TOL, f"residual {s['residual_max']:.3e}")
        return float(s["residual_max"])

    return Job(argv, argv, check, {"z0": z0, "points": points})


def boundary_scan(seed: int, workdir: Path, small: bool, workers: int) -> Job:
    # the scan grid is the paper's fixed experiment; the seed does not enter it
    omegas, tmax, dz0 = ("1.2:1.2:0.4", 20.0, 0.1) if small else ("0.8:1.6:0.4", 100.0, 0.05)
    base = ("stability-scan", "--preset", "fig3", "--omegas", omegas,
            "--dz0", repr(dz0), "--tmax", repr(tmax))
    n_rows = 1 if small else 3

    def check(out: Path) -> float:
        rows = _summary(out).get("rows", [])
        _require(len(rows) == n_rows, f"{len(rows)} scan rows, want {n_rows}")
        worst = 0.0
        for r in rows:
            dev = abs(r["z_last_bounded"] - _z_crit_ref(r["omega"])) / dz0
            _require(dev <= 2.0, f"omega={r['omega']}: z_last_bounded {r['z_last_bounded']} "
                                 f"is {dev:.2f} dz0 from z_crit")
            worst = max(worst, dev)
        return worst

    return Job(base + ("--workers", str(workers)), base + ("--workers", "1"), check,
               {"omegas": omegas, "dz0": dz0, "tmax": tmax}, processes=workers)


def _hill_functions(seed: int):
    """f = 0.3 + a cos t and g = 0.2 (1 + b sin t), the criterion-10(b) system, a and b seeded."""
    rng = random.Random(f"normal_form/{seed}")
    a = 0.05 * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))
    b = 0.5 * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))
    return (lambda t: 0.3 + a * math.cos(t)), (lambda t: 0.2 * (1.0 + b * math.sin(t))), a, b


def hill_trace(f, T: float = TWO_PI, n: int = 4000) -> float:
    """Trace of the one-period transfer matrix of z'' + f z = 0, by plain RK4."""
    h = T / n
    tr = 0.0
    for k, y in ((0, [1.0, 0.0]), (1, [0.0, 1.0])):
        z, v = y
        for j in range(n):
            t = j * h
            fa, fm, fb = f(t), f(t + 0.5 * h), f(t + h)
            k1z, k1v = v, -fa * z
            k2z, k2v = v + 0.5 * h * k1v, -fm * (z + 0.5 * h * k1z)
            k3z, k3v = v + 0.5 * h * k2v, -fm * (z + 0.5 * h * k2z)
            k4z, k4v = v + h * k3v, -fb * (z + h * k3z)
            z += h / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        tr += z if k == 0 else v
    return tr


def normal_form(seed: int, workdir: Path, small: bool, workers: int) -> Job:
    f, g, a, b = _hill_functions(seed)
    trace = hill_trace(f)
    if not abs(trace) < HILL_TRACE_MAX:
        raise ValueError(f"seed {seed} gives an unstable Hill table (trace {trace})")
    n_rows = 257
    lines = ["t,f,g"]
    for j in range(n_rows):
        # the last row repeats the first values so both columns close exactly
        t = TWO_PI * j / (n_rows - 1)
        tv = 0.0 if j == n_rows - 1 else t
        lines.append(f"{t!r},{f(tv)!r},{g(tv)!r}")
    hill = workdir / "hill.csv"
    hill.write_text("\n".join(lines) + "\n")
    n_grid = 201 if small else 2001
    argv = ("reduce", "--hill", str(hill), "--T", repr(TWO_PI), "--m", "2",
            "--n-grid", str(n_grid))

    def check(out: Path) -> float:
        s = _summary(out)
        _require(abs(s["trace"] - trace) <= 1e-6, f"trace {s['trace']!r}, reference {trace!r}")
        _require(abs(s["det"] - 1.0) <= 1e-9, f"det {s['det']!r}")
        err = max(s["defect_w"], s["defect_wp"])
        _require(err <= DEFECT_TOL, f"envelope defect {err:.3e}")
        return float(err)

    return Job(argv, argv, check, {"a": a, "b": b, "hill_trace": trace, "n_grid": n_grid})


WORKLOADS = {
    "trajectory": trajectory,
    "section": section,
    "boundary_scan": boundary_scan,
    "normal_form": normal_form,
}
