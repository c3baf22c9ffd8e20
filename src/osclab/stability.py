"""Exact stability boundary of the m = 2 trig family and the numerical scan.

With p(0) = 0 the invariant level set through (z0, 0) at the strobe
times is the cubic curve of osclab.poincare.  The level

    i0_of_z0 = omega^2 (A-R) z0^2 + (2/3) (A+R)^(-3/2) z0^3

stays below the critical value

    i0_crit = (1/3) omega^6 (A^2 - R^2)^3

exactly while z0 < z_crit = (omega^2/2) (A-R) (A+R)^(3/2); above it the
bounded lobe of the level set merges with the escape branch and the
motion runs off to z -> -infinity.  R = sqrt(B^2 + C^2): the algebra
only sees the oscillation amplitude of the coefficient, not its phase.

``scan`` reproduces the numerical experiment: for each omega it raises
z0 in steps of dz0 until an integration escapes, then compares the last
bounded z0 against z_crit.  Scan cells are independent pure
integrations, so they can be farmed out to a process pool; the result
order is deterministic for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import StepUnderflowError
from .integrate import AdaptiveConfig, integrate_adaptive
from .model import OscillatorSpec, TrigFamily, make_field, trig_spec


def _check_amplitudes(A: float, R: float, omega: float):
    if not (A > R >= 0.0):
        raise ValueError(f"need A > R >= 0, got A={A}, R={R}")
    if not omega > 0.0:
        raise ValueError(f"need omega > 0, got {omega}")


def i0_of_z0(A: float, R: float, omega: float, z0: float) -> float:
    """Invariant level selected by the initial condition (z0, p0=0)."""
    _check_amplitudes(A, R, omega)
    w2 = omega * omega
    return w2 * (A - R) * z0 * z0 + (2.0 / 3.0) * (A + R) ** -1.5 * z0 * z0 * z0


def i0_crit(A: float, R: float, omega: float) -> float:
    """Critical level where the bounded lobe of the cubic level set vanishes."""
    _check_amplitudes(A, R, omega)
    w6 = omega * omega * omega
    w6 *= w6
    aa_rr = A * A - R * R
    return (w6 * aa_rr * aa_rr * aa_rr) / 3.0


def z_crit(A: float, R: float, omega: float) -> float:
    """Largest initial amplitude (p0 = 0) with a bounded level set."""
    _check_amplitudes(A, R, omega)
    return 0.5 * omega * omega * (A - R) * (A + R) ** 1.5


def _require_m2_trig(spec: OscillatorSpec) -> None:
    if not (isinstance(spec.g_source, TrigFamily) and spec.m == 2):
        raise ValueError("boundedness analysis applies to the m=2 trig family only")


def bounded(
    spec: OscillatorSpec,
    z0: float,
    t_max: float = 600.0,
    z_escape: float = 50.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> bool:
    """True iff the run from (z0, 0) stays within |z| <= z_escape up to t_max.

    Any terminated run counts as not bounded: escape past the bound,
    step underflow (the solution reaches -infinity in finite time above
    the threshold), or a singular coefficient.
    """
    _require_m2_trig(spec)
    if z0 < 0.0:
        raise ValueError(f"the scan convention uses z0 >= 0, got {z0}")
    field = make_field(spec)
    cfg = AdaptiveConfig(
        rtol=rtol, atol=atol, t_end=t_max, escape_bound=z_escape, record=False
    )
    try:
        traj = integrate_adaptive(field, (z0, 0.0), cfg)
    except StepUnderflowError:
        return False
    return traj.status == "completed"


@dataclass(frozen=True)
class StabilityRow:
    omega: float
    z_last_bounded: float
    z_crit_analytic: float
    agrees: bool


def _cell(args) -> bool:
    """Worker task: one (omega, z0) boundedness integration."""
    A, B, C, omega, z0, t_max, z_escape, rtol = args
    return bounded(trig_spec(A, B, C, omega), z0, t_max=t_max, z_escape=z_escape, rtol=rtol)


# scan cells handed to a pool worker per task
_CHUNKSIZE = 8


def default_workers() -> int:
    """Worker count: OSC_LAB_THREADS if set, else the CPUs this process may run on."""
    env = os.environ.get("OSC_LAB_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"OSC_LAB_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"OSC_LAB_THREADS must be >= 1, got {n}")
        return n
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity masks on this platform
        return os.cpu_count() or 1


def scan(
    A: float,
    B: float,
    C: float,
    omegas,
    dz0: float = 0.02,
    t_max: float = 600.0,
    z_escape: float = 50.0,
    rtol: float = 1e-10,
    workers: int = None,
):
    """Numerical boundary scan over a list of omega values.

    For each omega, z0 walks the grid dz0, 2 dz0, ... and the row
    records the last bounded value before the first escape (0.0 when
    already the first step escapes).  The grid is capped safely above
    the analytic boundary so the scan always terminates; every cell up
    to the cap is integrated, which keeps the work identical for any
    worker count and the assembled rows deterministic.  The pool never
    exceeds the number of chunks of _CHUNKSIZE cells.
    """
    if dz0 <= 0.0:
        raise ValueError(f"dz0 must be positive, got {dz0}")
    R = math.hypot(B, C)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    jobs = []
    meta = []
    for omega in omegas:
        zc = z_crit(A, R, omega)
        n_cells = int(math.ceil((1.5 * zc + 20.0 * dz0) / dz0))
        for k in range(1, n_cells + 1):
            jobs.append((A, B, C, omega, k * dz0, t_max, z_escape, rtol))
        meta.append((omega, zc, n_cells))

    # a worker beyond the number of job chunks would start and sit idle
    workers = min(workers, math.ceil(len(jobs) / _CHUNKSIZE))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            flags = list(pool.map(_cell, jobs, chunksize=_CHUNKSIZE))
    else:
        flags = [_cell(j) for j in jobs]

    rows = []
    pos = 0
    for omega, zc, n_cells in meta:
        cell_flags = flags[pos:pos + n_cells]
        pos += n_cells
        z_last = 0.0
        for k, ok in enumerate(cell_flags, start=1):
            if not ok:
                break
            z_last = k * dz0
        rows.append(
            StabilityRow(
                omega=omega,
                z_last_bounded=z_last,
                z_crit_analytic=zc,
                agrees=abs(z_last - zc) <= 2.0 * dz0,
            )
        )
    return rows
