"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion.  Tolerances are part of the criteria and
must not be loosened.  Frozen reference numbers were produced by a
50-digit evaluation of the closed forms they test against.
"""

import math
import random

import numpy as np
import pytest

from osclab.cubic import real_roots
from osclab.family import FiveParamSpec, integrate_family, to_trig_alpha
from osclab.integrate import (
    AdaptiveConfig,
    FixedStepConfig,
    integrate_adaptive,
    integrate_fixed,
    sample_strobe,
)
from osclab.invariant import build_coeffs, drift, eval_invariant, pde_residual
from osclab.model import OscillatorSpec, State, make_field, trig_spec
from osclab.normalform import HillSpec, make_reduced_field, reduce
from osclab.poincare import section_curve, section_residual
from osclab.stability import bounded, i0_crit, i0_of_z0, scan, z_crit

TWO_PI = 2.0 * math.pi


def test_criterion_01_long_run_invariant_drift():
    # A=1.3, B=0.9, C=0, omega=1, m=2, z0=0.1, p0=0, fixed h=1e-3,
    # t in (0, 600): relative drift stays within 1e-5
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    traj = integrate_fixed(make_field(spec), (0.1, 0.0),
                           FixedStepConfig(h=1e-3, t_end=600.0))
    assert traj.status == "completed"
    report = drift(traj, build_coeffs(spec))
    assert report.max_rel <= 1e-5


def test_criterion_02_critical_amplitude_headline_value():
    # closed form at (A, R, omega) = (1.3, 0.9, 1.23) rounds to 0.99
    assert abs(z_crit(1.3, 0.9, 1.23) - 0.99) <= 0.005


def test_criterion_03_boundary_scan_tracks_analytic_curve():
    # six-frequency scan with dz0=0.02, t_max=600, z_escape=50: the last
    # bounded amplitude sits within two grid steps of the closed form
    rows = scan(1.3, 0.9, 0.0, (0.8, 1.0, 1.2, 1.4, 1.6, 1.8),
                dz0=0.02, t_max=600.0, z_escape=50.0).rows
    assert len(rows) == 6
    for row in rows:
        assert abs(row.z_last_bounded - row.z_crit_analytic) <= 0.04, row


def test_criterion_04_threshold_bracketing_runs():
    spec = trig_spec(1.3, 0.9, 0.0, 1.4, 2)
    assert bounded(spec, 1.2, t_max=600.0, z_escape=50.0)
    traj = integrate_adaptive(
        make_field(spec), (1.4, 0.0),
        AdaptiveConfig(rtol=1e-10, t_end=600.0, escape_bound=50.0, record=False))
    assert traj.status == "escaped"
    assert traj.ts[-1] < 600.0


def test_criterion_05_strobe_points_sit_on_section_curve():
    # 190 stroboscopic samples at t_k = k pi / omega satisfy the cubic
    # level equation with relative residual <= 1e-6
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    coeffs = build_coeffs(spec)
    i0 = eval_invariant(coeffs, State(0.0, 0.1, 0.0))
    curve = section_curve(spec, i0)
    res = sample_strobe(make_field(spec), (0.1, 0.0), math.pi / spec.omega, 189,
                        rtol=1e-10, atol=1e-12)
    assert res.status == "completed"
    assert len(res) == 190
    assert section_residual(res, curve) <= 1e-6


def test_criterion_06_identity_suite():
    # (a) the level of z0 = z_crit equals the critical level to 1e-12
    #     relative for 100 random amplitude triples
    rng = random.Random(60)
    triples = []
    for _ in range(100):
        A = rng.uniform(0.5, 2.0)
        R = rng.uniform(0.05, 0.95) * A
        omega = rng.uniform(0.5, 2.0)
        triples.append((A, R, omega))
        assert math.isclose(i0_of_z0(A, R, omega, z_crit(A, R, omega)),
                            i0_crit(A, R, omega), rel_tol=1e-12)

    # (b) at the critical level the radicand cubic has its double root at
    #     -omega^2 (A-R)(A+R)^(3/2), located to 1e-8
    for A, R, omega in triples:
        c_z2 = omega * omega * (A - R)
        c_z3 = (2.0 / 3.0) * (A + R) ** -1.5
        roots = real_roots(-c_z3, -c_z2, 0.0, i0_crit(A, R, omega))
        doubles = [r for r, mult in roots if mult == 2]
        assert len(doubles) == 1, roots
        z_d = -omega * omega * (A - R) * (A + R) ** 1.5
        assert abs(doubles[0] - z_d) <= 1e-8 * max(1.0, abs(z_d))

    # (c) brute-force confirmation of the critical level: bisect on I0
    #     with a 1e4-point grid predicate, no root solver involved
    A, R, omega = 1.3, 0.9, 1.0
    c_z2 = omega * omega * (A - R)
    c_z3 = (2.0 / 3.0) * (A + R) ** -1.5
    z_d = -2.0 * c_z2 / (3.0 * c_z3)
    zs = [z_d - 1.0 + 2.0 * k / 9999 for k in range(10000)]

    def dips_nonpositive(i0v):
        return min(i0v - c_z2 * z * z - c_z3 * z**3 for z in zs) <= 0.0

    lo, hi = 0.05, 0.5
    assert dips_nonpositive(lo) and not dips_nonpositive(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dips_nonpositive(mid):
            lo = mid
        else:
            hi = mid
    est = 0.5 * (lo + hi)
    exact = i0_crit(A, R, omega)
    assert abs(est - exact) <= 1e-6 * exact


def test_criterion_07_general_exponent_conservation():
    # m in {3, 4, 5}, ten random parameter sets each, rtol=1e-12 to
    # t_end=100: bounded runs conserve the invariant to 1e-8
    rng = random.Random(20260815)
    for m in (3, 4, 5):
        for _ in range(10):
            A = rng.uniform(1.0, 1.6)
            R = rng.uniform(0.0, 0.5) * A
            phase = rng.uniform(0.0, TWO_PI)
            B, C = R * math.cos(phase), R * math.sin(phase)
            omega = rng.uniform(0.8, 1.6)
            spec = trig_spec(A, B, C, omega, m)
            # keep even-m runs inside the bounded basin; odd m is coercive
            if m % 2 == 0:
                z0 = 0.2 * (omega**2 * (A - R)) ** (1.0 / (m - 1))
            else:
                z0 = 0.3
            traj = integrate_adaptive(
                make_field(spec), (z0, 0.0),
                AdaptiveConfig(rtol=1e-12, t_end=100.0, escape_bound=50.0))
            assert traj.status == "completed", (m, A, R, omega)
            report = drift(traj, build_coeffs(spec))
            assert report.max_rel <= 1e-8, (m, A, R, omega, report.max_rel)


def test_criterion_08_five_param_family():
    # decoupled case: the jointly integrated coefficient matches the
    # closed trig form to 1e-9 over [0, 50]
    fp0 = FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    al = to_trig_alpha(fp0)
    traj, _ = integrate_family(fp0, 0.1, 0.0, 50.0, rtol=1e-12)
    closed = al.A + al.B * np.cos(2 * al.omega * traj.ts) + al.C * np.sin(2 * al.omega * traj.ts)
    assert traj.status == "completed"
    assert float(np.max(np.abs(traj.ys[:, 2] - closed))) <= 1e-9

    # coupled case (C1, C2) = (0.05, 0): full invariant with the linear
    # coefficient terms drifts at most 1e-7 over t_end = 100
    fp1 = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    traj1, report = integrate_family(fp1, 0.1, 0.0, 100.0, rtol=1e-12)
    assert traj1.status == "completed"
    assert report.mode == "relative"
    assert report.max_rel <= 1e-7


def test_criterion_09_pde_residuals_for_every_invariant():
    # the defining cancellation holds to 1e-12 at 100 random (z, t) for
    # each constructed invariant, trig and five-parameter alike
    rng = random.Random(90)
    trig_specs = [
        trig_spec(1.3, 0.9, 0.0, 1.0, 2),
        trig_spec(1.3, 0.4, 0.7, 1.3, 2),
        trig_spec(1.1, 0.3, 0.2, 0.9, 3),
        trig_spec(1.5, 0.5, 0.5, 1.1, 4),
        trig_spec(1.2, 0.2, 0.1, 1.7, 5),
    ]
    for spec in trig_specs:
        coeffs = build_coeffs(spec)
        for _ in range(100):
            z = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0.0, 30.0)
            r = pde_residual(coeffs, z, t)
            assert max(abs(v) for v in r) <= 1e-12, (spec.m, z, t, r)

    for fp in (FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6),
               FiveParamSpec(1.1, 0.03, -0.07, 1.8, 0.4, -2.0)):
        coeffs = build_coeffs(OscillatorSpec(fp.omega, 2, fp))
        for _ in range(100):
            z = rng.uniform(-1.0, 1.0)
            t = rng.uniform(0.0, 15.0)
            r = pde_residual(coeffs, z, t)
            assert max(abs(v) for v in r) <= 1e-12, (fp.C1, fp.C2, z, t, r)


def test_criterion_10_normal_form_reduction():
    # (a) constant linear part recovers the autonomous parameters to 1e-9
    omega0 = 0.25
    g0 = 0.3
    for m in (2, 3, 5):
        res = reduce(HillSpec(f=lambda t: omega0 * omega0, T=TWO_PI), lambda t: g0, m)
        assert abs(res.omega_nf - omega0) <= 1e-9
        want = g0 * omega0 ** (-(m + 3) / 2.0)
        assert float(np.max(np.abs(res.g_nf_grid - want))) <= 1e-9 * want

    # (b) two-path consistency over one period for an oscillating stable
    #     linear part: map-then-integrate vs integrate-then-map
    def f(t):
        return 0.3 + 0.05 * math.cos(t)

    def g(t):
        return 0.2 * (1.0 + 0.5 * math.sin(t))

    res = reduce(HillSpec(f=f, T=TWO_PI), g, 2)

    def original(t, y):
        z, zp = y
        return (zp, -f(t) * z - g(t) * z * z)

    z0, zp0 = 0.3, 0.1
    run_t = integrate_adaptive(original, (z0, zp0),
                               AdaptiveConfig(rtol=1e-12, atol=1e-14,
                                              t_end=TWO_PI, record=False))
    y_direct, dyds_direct, _ = res.forward(run_t.ys[-1][0], run_t.ys[-1][1], TWO_PI)
    y0, dyds0, _ = res.forward(z0, zp0, 0.0)
    run_s = integrate_adaptive(make_reduced_field(res), (y0, dyds0),
                               AdaptiveConfig(rtol=1e-12, atol=1e-14,
                                              t_end=TWO_PI, record=False))
    assert abs(run_s.ys[-1][0] - y_direct) <= 1e-6
    assert abs(run_s.ys[-1][1] - dyds_direct) <= 1e-6

    # (c) envelope identity (1/2) b b'' - (1/4) b'^2 + b^2 f = 1 within
    #     1e-6 pointwise, b = w^2, second derivative by finite differences
    ts = res.env.ts
    b = res.env.w**2
    h = ts[1] - ts[0]
    bpp = (-b[:-4] + 16 * b[1:-3] - 30 * b[2:-2] + 16 * b[3:-1] - b[4:]) / (12 * h * h)
    bp = 2.0 * res.env.w * res.env.wp
    fv = np.array([f(t) for t in ts])
    ident = 0.5 * b[2:-2] * bpp - 0.25 * bp[2:-2] ** 2 + b[2:-2] ** 2 * fv[2:-2]
    assert float(np.max(np.abs(ident - 1.0))) <= 1e-6
