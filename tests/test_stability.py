import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from osclab import stability
from osclab.errors import StepUnderflowError
from osclab.integrate import AdaptiveConfig, integrate_adaptive
from osclab.lanes import LaneForm, integrate_lanes, make_lane_field
from osclab.model import make_field, trig_spec
from osclab.stability import (
    StabilityRow,
    bounded,
    i0_crit,
    i0_of_z0,
    scan,
    z_crit,
)


def test_z_crit_frozen_values():
    # 0.5 omega^2 (A - R) (A + R)^(3/2) at (1.3, 0.9), checked against a
    # 50-digit evaluation
    table = {
        0.8: 0.4176802987932277,
        1.0: 0.6526254668644184,
        1.2: 0.9397806722847624,
        1.23: 0.9873570688191785,
        1.4: 1.27914591505426,
        1.6: 1.6707211951729108,
        1.8: 2.114506512640715,
    }
    for omega, want in table.items():
        assert math.isclose(z_crit(1.3, 0.9, omega), want, rel_tol=1e-13)


def test_z_crit_headline_rounding():
    assert abs(z_crit(1.3, 0.9, 1.23) - 0.99) <= 0.005


def test_i0_crit_frozen():
    assert math.isclose(i0_crit(1.3, 0.9, 1.0), 0.22715733333333332, rel_tol=1e-13)
    assert math.isclose(i0_crit(1.3, 0.9, 1.23), 0.7866063180694287, rel_tol=1e-13)


def test_i0_of_z0_frozen():
    assert math.isclose(i0_of_z0(1.3, 0.9, 1.0, 0.3), 0.04151618069288107, rel_tol=1e-13)
    assert i0_of_z0(1.3, 0.9, 1.0, 0.0) == 0.0


def test_critical_amplitude_level_identity():
    # the invariant level of z0 = z_crit is exactly the critical level
    rng = random.Random(5)
    for _ in range(30):
        A = rng.uniform(0.5, 2.0)
        R = rng.uniform(0.05, 0.95) * A
        omega = rng.uniform(0.5, 2.0)
        zc = z_crit(A, R, omega)
        assert math.isclose(i0_of_z0(A, R, omega, zc), i0_crit(A, R, omega),
                            rel_tol=1e-12)


def test_z_crit_monotone_in_omega():
    vals = [z_crit(1.3, 0.9, w) for w in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_amplitude_validation():
    with pytest.raises(ValueError):
        z_crit(0.9, 1.0, 1.0)  # A <= R
    with pytest.raises(ValueError):
        i0_crit(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        z_crit(1.3, 0.9, 0.0)
    for A, R, omega in ((math.inf, 0.9, 1.0), (1.3, 0.9, math.inf), (1.3, 0.9, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            z_crit(A, R, omega)


@pytest.mark.parametrize("closed_form,A,R,omega", [
    (z_crit, 1e300, 0.0, 1e300),  # (A + R) ** 1.5 raises OverflowError
    (z_crit, 1e200, 0.0, 1e100),  # the product rounds to inf
    (i0_crit, 1e100, 0.0, 1e10),
    (i0_crit, 1e300, 1e299, 1.0),  # A * A - R * R is inf - inf
])
def test_closed_forms_refuse_a_result_past_the_float_range(closed_form, A, R, omega):
    message = f"not finite for A={A}, R={R}, omega={omega}"
    with pytest.raises(ValueError, match=re.escape(message)):
        closed_form(A, R, omega)


def test_bounded_both_sides_of_threshold():
    spec = trig_spec(1.3, 0.9, 0.0, 1.4, 2)
    assert bounded(spec, 1.2, t_max=200.0)
    assert not bounded(spec, 1.4, t_max=200.0)
    with pytest.raises(ValueError):
        bounded(spec, -0.5)


def test_bounded_is_false_through_step_underflow():
    # above the threshold z runs off to -infinity in finite time; with a bound
    # it never reaches, the run underflows before it escapes
    spec = trig_spec(1.3, 0.9, 0.0, 1.4)
    cfg = AdaptiveConfig(rtol=1e-10, atol=1e-12, t_end=60.0, escape_bound=1e60, record=False)
    with pytest.raises(StepUnderflowError, match=r"at t=5\.494"):
        integrate_adaptive(make_field(spec), (1.4, 0.0), cfg)
    assert not bounded(spec, 1.4, t_max=60.0, z_escape=1e60)


def test_cells_start_at_the_maximum_of_alpha2(step_cap):
    step_cap(6500)
    # the README spec: with C != 0, alpha2 is not at its maximum A + R at t = 0,
    # where z_crit starts; the cells start there, so the rows agree with it
    omegas = tuple(0.8 + k * 0.4 for k in range(3))
    kw = dict(dz0=0.05, t_max=100.0)
    rows = scan(1.3, 0.6, 0.5, omegas, **kw).rows
    assert [r.z_last_bounded for r in rows] == [9 * 0.05, 22 * 0.05, 39 * 0.05]
    assert all(r.agrees for r in rows)
    for r in rows:
        spec = trig_spec(1.3, 0.6, 0.5, r.omega)
        k_last = round(r.z_last_bounded / 0.05)
        assert bounded(spec, k_last * 0.05, t_max=100.0)
        assert not bounded(spec, (k_last + 1) * 0.05, t_max=100.0)
    # with C = 0 and B < 0 alpha2 is least at t = 0: the cells are those of -B
    assert scan(1.3, -0.9, 0.0, omegas, **kw) == scan(1.3, 0.9, 0.0, omegas, **kw)


def test_scan_small_grid(step_cap):
    step_cap(1900)
    rows = scan(1.3, 0.9, 0.0, (1.0,), dz0=0.05, t_max=150.0).rows
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, StabilityRow)
    assert row.omega == 1.0
    assert abs(row.z_last_bounded - row.z_crit_analytic) <= 2 * 0.05
    assert row.agrees


def test_scan_lanes_match_bounded_cell_by_cell(step_cap):
    step_cap(6200)
    # the 40 cells of the omega = 1 row, each integrated alone by the
    # scalar reference and all together as lanes
    spec = trig_spec(1.3, 0.9, 0.0, 1.0)
    z0s = [k * 0.05 for k in range(1, 41)]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=120.0, escape_bound=50.0, record=False)
    field, params = make_lane_field([spec] * len(z0s))
    run = integrate_lanes(field, np.array([z0s, [0.0] * len(z0s)]), params, cfg)
    flags = [st == "completed" for st in run.status]
    assert flags == [bounded(spec, z0, t_max=120.0) for z0 in z0s]
    assert 0 < sum(flags) < len(flags)
    for j in np.flatnonzero(flags):
        ref = integrate_adaptive(make_field(spec), (z0s[j], 0.0), cfg)
        assert run.ts[j] == ref.ts[-1] == 120.0
        # numpy's cos, sin and power may round apart from math's (measured 6e-11)
        assert np.abs(run.ys[:, j] - ref.ys[-1]).max() <= 1e-8 * np.abs(ref.ys[-1]).max()


def test_scan_rows_ignore_lane_order_and_batch_size(monkeypatch, step_cap):
    step_cap(530)  # guards the reference scan, which takes 438 lock-steps
    omegas = (0.8, 1.2)
    kw = dict(dz0=0.1, t_max=30.0)
    whole = scan(1.3, 0.9, 0.0, omegas, **kw)
    assert whole.batches == ({"lanes": sum(r.cells for r in whole.rows),
                              "lock_steps": whole.batches[0]["lock_steps"]},)
    # a batch takes as many lock-steps as its slowest lane trial steps, so
    # no batch of a subset of the lanes takes more than the whole scan
    step_cap(whole.batches[0]["lock_steps"])
    monkeypatch.setattr(stability, "_LANE_BATCH", 7)
    small = scan(1.3, 0.9, 0.0, omegas[::-1], **kw)
    # whole rows: the verdicts and the cell counts
    assert small.rows[::-1] == whole.rows
    assert [b["lanes"] for b in small.batches][:-1] == [7] * (len(small.batches) - 1)
    assert sum(b["lanes"] for b in small.batches) == whole.batches[0]["lanes"]


def test_dop853_scan_rows_agree_with_bounded_at_the_boundary(step_cap):
    step_cap(8100)
    # the benchmark grid: omegas 0.8:1.6:0.4 as the CLI makes them, dz0 0.05, tmax 100
    omegas = tuple(0.8 + k * 0.4 for k in range(3))
    rows = scan(1.3, 0.9, 0.0, omegas, dz0=0.05, t_max=100.0).rows
    assert [r.z_last_bounded for r in rows] == [8 * 0.05, 18 * 0.05, 33 * 0.05]
    # the scan's DOP853 lanes and the Dormand-Prince 5(4) reference agree on
    # the last bounded cell and the first open cell of each row
    for r in rows:
        spec = trig_spec(1.3, 0.9, 0.0, r.omega)
        k_last = round(r.z_last_bounded / 0.05)
        assert bounded(spec, k_last * 0.05, t_max=100.0)
        assert not bounded(spec, (k_last + 1) * 0.05, t_max=100.0)


def test_scan_rows_count_every_cell(step_cap):
    step_cap(800)
    (row,) = scan(1.3, 0.9, 0.0, (1.0,), dz0=0.1, t_max=60.0).rows
    assert row.omega == 1.0
    # the first escape ends the bounded run of cells; every cell is integrated
    assert row.cells == math.ceil((1.5 * row.z_crit_analytic + 2.0) / 0.1)
    assert row.escaped == row.cells - round(row.z_last_bounded / 0.1)
    assert row.step_underflow == row.coefficient_singular == 0
    assert row.accepted > row.rejected > 0


def test_scan_field_evals_count_the_lane_field_calls(monkeypatch, step_cap):
    step_cap(430)  # guards the reference scan, which takes 360 lock-steps
    # a lane form with a counting deriv: one call per stage, and each call
    # evaluates every live lane, whose row its 2 omega names
    evals = Counter()

    def counting_lane_field(specs):
        form, params = make_lane_field(specs)

        def deriv(g, y, params):
            evals.update(params[0].tolist())
            return form.deriv(g, y, params)

        return LaneForm(form.g_stages, deriv), params

    omegas = (0.8, 1.4)
    kw = dict(dz0=0.1, t_max=20.0)
    ref = scan(1.3, 0.9, 0.2, omegas, **kw)
    rows = ref.rows
    step_cap(max(b["lock_steps"] for b in ref.batches))
    monkeypatch.setattr(stability, "make_lane_field", counting_lane_field)
    assert scan(1.3, 0.9, 0.2, omegas, **kw).rows == rows
    assert sum(r.coefficient_singular for r in rows) == 0
    for omega, r in zip(omegas, rows):
        assert r.field_evals == evals[2.0 * omega]
        assert r.field_evals == r.cells + 12 * (r.accepted + r.rejected)


def test_scan_counts_no_start_evaluation_for_a_cell_that_never_stepped():
    # alpha2 = 1e-10 lies below its floor EPS_POS = 1e-9, so every cell is
    # singular at its start and takes no trial step.  Such a cell counts no
    # field evaluation, as a scalar run that takes no trial step counts none
    scalar = integrate_adaptive(make_field(trig_spec(1e-10, 0.0, 0.0, 1.0)), (0.1, 0.0),
                                AdaptiveConfig(rtol=1e-8, t_end=5.0))
    assert (scalar.status, scalar.n_accepted, scalar.n_rejected) == ("coefficient_singular", 0, 0)
    (row,) = scan(1e-10, 0.0, 0.0, (1.0,), dz0=0.1, t_max=10.0).rows
    assert (row.cells, row.coefficient_singular, row.accepted, row.rejected) == (20, 20, 0, 0)
    assert row.field_evals == 0


@pytest.mark.parametrize("kw,match", [
    ({"dz0": math.nan}, "dz0"),
    ({"dz0": math.inf}, "dz0"),
    ({"dz0": 0.0}, "dz0"),
    ({"t_max": math.inf}, "t_end"),
    ({"z_escape": 0.0}, "escape"),
    ({"z_escape": math.nan}, "escape"),
    ({"dz0": 1e-300}, "dz0"),  # about 1e300 cells in the row
])
def test_scan_rejects_bad_grid(kw, match):
    with pytest.raises(ValueError, match=match):
        scan(1.3, 0.9, 0.0, (1.0,), **kw)
