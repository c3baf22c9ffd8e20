import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.errors import UnsupportedSourceError
from osclab.integrate import sample_strobe
from osclab.invariant import build_coeffs, drift, eval_invariant
from osclab.model import Sampled, OscillatorSpec, State, make_field, trig_spec
from osclab.poincare import (SectionCurve, _admissible_intervals, curve_loop, curve_points,
                             i0_crit, i0_of_z0, section_curve, section_residual, z_crit)


def _demo_curve(i0=0.004204302988625225):
    return section_curve(trig_spec(1.3, 0.9, 0.0, 1.0, 2), i0)


def test_curve_coefficients_frozen():
    # c_p2 = A + B, c_z2 = omega^2 (A - B), c_z3 = (2/3)(A+B)^(-3/2),
    # values checked against a 50-digit evaluation
    curve = _demo_curve()
    assert curve.c_p2 == 2.2
    assert math.isclose(curve.c_z2, 0.4, rel_tol=1e-15)
    assert math.isclose(curve.c_z3, 0.20430298862522486, rel_tol=1e-14)


def test_i0_of_z0_is_the_section_curve_level_bit_for_bit():
    # the level of (z0, 0) and the strobe curve at B = R share one cubic
    rng = random.Random(32)
    for _ in range(200):
        A = rng.uniform(0.05, 5.0)
        R = A * rng.random()
        omega = rng.uniform(0.05, 3.0)
        z0 = rng.uniform(0.0, 3.0 * z_crit(A, R, omega))
        curve = section_curve(trig_spec(A, R, 0.0, omega), 0.0)
        assert i0_of_z0(A, R, omega, z0) == curve.residual_at(z0, 0.0), (A, R, omega, z0)


def test_requires_trig_m2_with_c_zero():
    with pytest.raises(UnsupportedSourceError):
        section_curve(trig_spec(1.3, 0.4, 0.5, 1.0, 2), 0.01)  # C != 0
    with pytest.raises(UnsupportedSourceError):
        section_curve(trig_spec(1.3, 0.9, 0.0, 1.0, 3), 0.01)  # m != 2
    ts = tuple(0.1 * k for k in range(40))
    gs = tuple(1.0 for _ in ts)
    with pytest.raises(UnsupportedSourceError):
        section_curve(OscillatorSpec(1.0, 2, Sampled(ts=ts, gs=gs)), 0.01)


def test_admissible_intervals_subcritical():
    # below the critical level: one unbounded interval to the left and a
    # bounded lobe around the origin
    curve = _demo_curve()
    assert len(curve.admissible) == 2
    (lo0, hi0), (lo1, hi1) = curve.admissible
    assert lo0 == -math.inf
    assert hi0 < lo1 < 0.0 < hi1
    # the initial condition z0 = 0.1, p0 = 0 lies on the lobe edge
    assert math.isclose(hi1, 0.1, rel_tol=1e-9)


def test_admissible_intervals_merge_at_critical():
    ic = i0_crit(1.3, 0.9, 1.0)
    zc = z_crit(1.3, 0.9, 1.0)
    curve = _demo_curve(ic)
    assert len(curve.admissible) == 1
    lo, hi = curve.admissible[0]
    assert lo == -math.inf
    assert math.isclose(hi, zc, rel_tol=1e-8)


def test_admissible_intervals_supercritical():
    ic = i0_crit(1.3, 0.9, 1.0)
    curve = _demo_curve(1.5 * ic)
    assert len(curve.admissible) == 1
    lo, hi = curve.admissible[0]
    assert lo == -math.inf
    assert hi > z_crit(1.3, 0.9, 1.0)


@settings(max_examples=300, deadline=None)
@given(c_z2=st.floats(-10.0, 10.0), c_z3=st.floats(1e-3, 10.0), I0=st.floats(-10.0, 10.0))
def test_admissible_intervals_ascend_disjoint_and_bounded_above(c_z2, c_z3, I0):
    # the cubic term sends the radicand to -inf as z -> +inf, so for c_z3 > 0
    # the first interval is open below and the last one closes above
    intervals = _admissible_intervals(c_z2, c_z3, I0)
    assert intervals and intervals[0][0] == -math.inf
    assert all(lo <= hi for lo, hi in intervals)
    assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))
    assert math.isfinite(intervals[-1][1])


def test_admissible_zero_level_is_tangency():
    curve = _demo_curve(0.0)
    # (z, p) = (0, 0) plus the unbounded negative interval
    bounded = [iv for iv in curve.admissible if not math.isinf(iv[0])]
    assert len(bounded) == 1
    lo, hi = bounded[0]
    assert lo == hi == 0.0
    # the tangency point is sampled once, however many points an interval takes
    assert curve_points(curve, 5) == [(0.0, 0.0, -0.0)]
    assert curve_loop(curve, 400, z_hint=0.0) == [(0.0, 0.0)]


def test_residual_at_zero_on_curve_points():
    curve = _demo_curve()
    pts = curve_points(curve, 101)
    assert len(pts) >= 101
    for z, p_plus, p_minus in pts:
        assert p_plus >= 0.0
        assert p_minus == -p_plus
        assert abs(curve.residual_at(z, p_plus)) < 1e-12 * abs(curve.I0)


def test_curve_points_need_bounded_interval():
    ic = i0_crit(1.3, 0.9, 1.0)
    curve = _demo_curve(1.5 * ic)
    assert curve_points(curve, 50) == []


def test_curve_points_refuse_what_they_cannot_sample():
    # one point per interval has no spacing; a hand-made curve whose admissible interval
    # holds a negative radicand has no real p there
    with pytest.raises(ValueError, match="need n >= 2"):
        curve_loop(_demo_curve(), 1)
    with pytest.raises(ValueError, match="negative radicand -2.0 inside admissible interval"):
        curve_points(SectionCurve(1.0, 1.0, 1.0, 0.0, ((1.0, 2.0),)), 3)


def test_curve_loop_is_closed_ring():
    curve = _demo_curve()
    loop = curve_loop(curve, 80, z_hint=0.1)
    # upper branch plus lower branch, rightmost point deduplicated
    assert len(loop) == 159
    zs = [q[0] for q in loop]
    # upper branch sweeps left to right, then lower branch returns
    assert zs[0] == min(zs)
    k = zs.index(max(zs))
    assert all(b >= a for a, b in zip(zs[:k], zs[1 : k + 1]))
    assert all(b <= a for a, b in zip(zs[k:-1], zs[k + 1 :]))
    # every loop point satisfies the level equation
    for z, p in loop:
        assert abs(curve.residual_at(z, p)) < 1e-12 * abs(curve.I0)


def test_section_residual_on_strobe_points():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    i0 = eval_invariant(c, State(0.0, 0.1, 0.0))
    curve = section_curve(spec, i0)
    res = sample_strobe(make_field(spec), (0.1, 0.0), math.pi, 30, rtol=1e-10)
    assert res.status == "completed"
    assert section_residual(res, curve) < 1e-7


def test_a_strobe_feeds_drift_directly():
    # at t_k the invariant is the section curve's level, so I/I0 - 1 along a
    # strobe is the relative residual of its rows, up to rounding: on fig2
    # both peak at 2.205e-8
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    strobe = sample_strobe(make_field(spec), (0.1, 0.0), math.pi, 189, rtol=1e-10)
    report = drift(strobe, spec)
    curve = section_curve(spec, eval_invariant(spec, State(0.0, 0.1, 0.0)))
    rel = [curve.residual_at(z, p) / curve.I0 for z, p in zip(strobe.z.tolist(), strobe.p.tolist())]
    assert report.mode == "relative" and np.array_equal(report.ts, strobe.ts)
    assert np.allclose(report.series, rel, rtol=0.0, atol=1e-12)
    assert abs(report.max_rel - section_residual(strobe, curve)) < 1e-12
    assert 2.2e-8 < report.max_rel < 2.21e-8


def test_section_curve_validation():
    with pytest.raises(ValueError):
        SectionCurve(c_p2=-1.0, c_z2=0.4, c_z3=0.2, I0=0.1, admissible=())
