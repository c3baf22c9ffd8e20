"""The numerical boundary scan of the m = 2 trig family.

``scan`` reproduces the numerical experiment: for each omega it raises
z0 in steps of dz0 until an integration escapes, then compares the last
bounded z0 against the closed form z_crit of osclab.poincare; each
omega's ``StabilityRow`` holds that verdict and the counts of its cells.
Each cell starts where alpha2 is at its maximum A + R, as the closed
forms do (``_cell_spec``).  Scan cells are independent integrations, so
the scan runs them in one process as lanes of one lock-step run
(``lanes.integrate_lanes``) of the DOP853 pair; ``bounded`` is the
scalar Dormand-Prince 5(4) reference for one cell.  The closed forms
``i0_crit`` and ``i0_of_z0`` stay bound here for readers of
``osclab.stability``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import StepUnderflowError
from .integrate import MAX_GRID_POINTS, AdaptiveConfig, integrate_adaptive
from .lanes import DOP853, integrate_lanes, make_lane_field
from .model import OscillatorSpec, TrigAlpha, make_field, trig_spec
from .poincare import i0_crit, i0_of_z0, z_crit  # noqa: F401


def require_m2_trig(spec: OscillatorSpec) -> None:
    if not (isinstance(spec.g_source, TrigAlpha) and spec.m == 2):
        raise ValueError("boundedness analysis applies to the m=2 trig family only")


def _cell_spec(A: float, R: float, omega: float) -> OscillatorSpec:
    """A cell's system: alpha2 = A + R cos(2 omega t), any (B, C) shifted to a maximum at t = 0."""
    return trig_spec(A, R, 0.0, omega)


def _cell_config(t_max: float, z_escape: float) -> AdaptiveConfig:
    """The run of one scan cell, for ``bounded`` and ``scan`` alike."""
    return AdaptiveConfig(rtol=1e-10, atol=1e-12, t_end=t_max, escape_bound=z_escape,
                          record=False)


def bounded(spec: OscillatorSpec, z0: float, t_max: float = 600.0,
            z_escape: float = 50.0) -> bool:
    """True iff the cell run from (z0, 0) stays within |z| <= z_escape up to t_max.

    Any terminated run counts as not bounded: escape past the bound,
    step underflow (the solution reaches -infinity in finite time above
    the threshold), or a singular coefficient.  A nonfinite z0 raises
    NonfiniteStateError.
    """
    require_m2_trig(spec)
    if z0 < 0.0:
        raise ValueError(f"the scan convention uses z0 >= 0, got {z0}")
    cell = _cell_spec(spec.g_source.A, spec.g_source.R, spec.omega)
    try:
        traj = integrate_adaptive(make_field(cell), (z0, 0.0), _cell_config(t_max, z_escape))
    except StepUnderflowError:
        return False
    return traj.status == "completed"


@dataclass(frozen=True)
class StabilityRow:
    """One omega of a scan: its verdict and how its cells ended.

    ``agrees``: z_last_bounded lies within 2 dz0 of z_crit_analytic.
    ``escaped``, ``step_underflow`` and ``coefficient_singular`` count the
    ``cells`` that ended so, ``accepted`` and ``rejected`` their steps,
    ``field_evals`` the sum of their lanes' ``lanes.LaneRun.field_evals``.
    """

    omega: float
    z_last_bounded: float
    z_crit_analytic: float
    agrees: bool
    cells: int
    escaped: int
    step_underflow: int
    coefficient_singular: int
    accepted: int
    rejected: int
    field_evals: int


@dataclass(frozen=True)
class ScanResult:
    """The rows of a scan, one per omega in input order, and its lane batches."""

    rows: tuple[StabilityRow, ...]
    batches: tuple[dict, ...]  # {"lanes": lanes in the batch, "lock_steps": trial steps they took}


# lanes integrated together; bounds the scan's memory for any grid
_LANE_BATCH = 1024

# the pair the scan's lanes step with; ``bounded`` stays on Dormand-Prince 5(4)
SCAN_PAIR = DOP853


def scan(
    A: float,
    B: float,
    C: float,
    omegas,
    dz0: float = 0.02,
    t_max: float = 600.0,
    z_escape: float = 50.0,
) -> ScanResult:
    """Numerical boundary scan over a list of omega values.

    For each omega, z0 walks the grid dz0, 2 dz0, ... and the row
    records the last bounded value before the first escape (0.0 when
    already the first step escapes).  The grid is capped safely above
    the analytic boundary so the scan always terminates; every cell up
    to the cap is integrated, in batches of at most _LANE_BATCH lanes
    made as they are needed, so memory does not grow with the grid.
    A cell runs ``bounded``'s run on the DOP853 pair (SCAN_PAIR), and
    only a completed lane is bounded; a test pins its agreement with
    ``bounded`` at the boundary cells of each row of one three-omega grid.
    Rows, counts included, depend neither on the batch size nor on the
    order of the omegas.  A grid with more than MAX_GRID_POINTS cells in
    any row raises ValueError before any integration; a batch that takes
    more than ``integrate.MAX_STEPS`` lock-steps raises StepBudgetError.
    """
    if not (0.0 < dz0 < math.inf):
        raise ValueError(f"dz0 must be positive and finite, got {dz0}")
    cfg = _cell_config(t_max, z_escape)
    R = math.hypot(B, C)

    grid = []
    for omega in omegas:
        zc = z_crit(A, R, omega)
        n_cells = (1.5 * zc + 20.0 * dz0) / dz0
        if not n_cells <= MAX_GRID_POINTS:
            raise ValueError(f"dz0={dz0} gives {n_cells:.3g} cells at omega={omega}, "
                             f"more than {MAX_GRID_POINTS} in one row")
        grid.append((omega, zc, int(math.ceil(n_cells))))

    def cells():  # (row, spec, k) for z0 = k dz0, made as the batches need them
        for row, (omega, _, n_cells) in enumerate(grid):
            spec = _cell_spec(A, R, omega)
            for k in range(1, n_cells + 1):
                yield row, spec, k

    # per row: the first cell that did not complete, and how its cells ended
    first_open = [n_cells + 1 for _, _, n_cells in grid]
    ended = [Counter() for _ in grid]
    batches = []
    todo = cells()
    while batch := list(itertools.islice(todo, _LANE_BATCH)):
        row_of, specs, ks = zip(*batch)
        form, params = make_lane_field(specs)
        z0 = np.array([k * dz0 for k in ks])
        run = integrate_lanes(form, np.stack([z0, np.zeros_like(z0)]), params, cfg, SCAN_PAIR)
        for row, k, st, acc, rej, evals in zip(row_of, ks, run.status, run.n_accepted.tolist(),
                                               run.n_rejected.tolist(), run.field_evals.tolist()):
            if st != "completed":
                first_open[row] = min(first_open[row], k)
            ended[row].update({st: 1, "accepted": acc, "rejected": rej, "field_evals": evals})
        batches.append({"lanes": len(batch), "lock_steps": run.lock_steps})

    rows = []
    for (omega, zc, n_cells), k_open, c in zip(grid, first_open, ended):
        z_last = (k_open - 1) * dz0
        rows.append(StabilityRow(
            omega=omega, z_last_bounded=z_last, z_crit_analytic=zc,
            agrees=abs(z_last - zc) <= 2.0 * dz0, cells=n_cells, escaped=c["escaped"],
            step_underflow=c["step_underflow"], coefficient_singular=c["coefficient_singular"],
            accepted=c["accepted"], rejected=c["rejected"], field_evals=c["field_evals"]))
    return ScanResult(tuple(rows), tuple(batches))
