import math
import random

import numpy as np
import pytest

from osclab import invariant
from osclab.errors import UnsupportedSourceError
from osclab.family import FiveParamSpec, integrate_family, make_augmented_field
from osclab.integrate import AdaptiveConfig, FixedStepConfig, integrate_adaptive, integrate_fixed
from osclab.invariant import (
    _invariant,
    _parts,
    _residuals,
    build_coeffs,
    drift,
    drift_absolute,
    eval_invariant,
    invariant_series,
    pde_residual,
)
from osclab.model import OscillatorSpec, Sampled, State, Trajectory, make_field, trig_spec
from osclab.poincare import z_crit


def test_frozen_initial_invariant():
    # omega^2 (A+B) z0^2 + (2/3)(A+B)^(-3/2) z0^3 - 2 omega^2 B z0^2
    # at (A, B, z0) = (1.3, 0.9, 0.1), checked against a 50-digit evaluation
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    i0 = eval_invariant(c, State(0.0, 0.1, 0.0))
    assert math.isclose(i0, 0.004204302988625225, rel_tol=1e-13)


def test_invariant_zero_at_origin():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    assert eval_invariant(c, State(3.7, 0.0, 0.0)) == 0.0


def test_pde_residual_trig():
    rng = random.Random(11)
    for m in (2, 3, 5):
        spec = trig_spec(1.2, 0.4, 0.5, 1.3, m)
        c = build_coeffs(spec)
        for _ in range(50):
            z = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0.0, 30.0)
            r = pde_residual(c, z, t)
            assert max(abs(v) for v in r) < 1e-12


def test_pde_residual_five_param():
    fp = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    spec = OscillatorSpec(1.0, 2, fp)
    c = build_coeffs(spec)
    rng = random.Random(3)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 10.0)
        r = pde_residual(c, z, t)
        assert max(abs(v) for v in r) < 1e-12


def test_residual_decomposition_detects_broken_coefficients():
    # feeding an inconsistent second-derivative-rate term must produce a
    # visibly nonzero residual: guards against the identity being trivial
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    a2, d1, d2, d3, al1, al1p, al1pp, g, gp = _parts(c, 0.7)
    ok = _residuals(2, 1.0, 0.3, a2, d1, d2, d3, al1, al1p, al1pp, g, gp)
    bad = _residuals(2, 1.0, 0.3, a2, d1, d2, d3 * 1.01, al1, al1p, al1pp, g, gp)
    assert max(abs(v) for v in ok) < 1e-12
    assert max(abs(v) for v in bad) > 1e-6


def test_unsupported_sources():
    ts = tuple(0.1 * k for k in range(40))
    gs = tuple(1.0 + 0.1 * math.sin(t) for t in ts)
    spec = OscillatorSpec(1.0, 2, Sampled(ts=ts, gs=gs))
    with pytest.raises(UnsupportedSourceError):
        build_coeffs(spec)
    # five-param invariant construction is specific to quadratic nonlinearity
    fp = FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    with pytest.raises(UnsupportedSourceError):
        build_coeffs(OscillatorSpec(1.0, 3, fp))


_SAMPLED = Sampled(ts=tuple(0.1 * k for k in range(40)),
                   gs=tuple(1.0 + 0.1 * math.sin(0.1 * k) for k in range(40)))


@pytest.mark.parametrize("spec,match", [
    (OscillatorSpec(1.0, 2, _SAMPLED), r"sampled g\(t\) carries no known invariant"),
    (OscillatorSpec(1.0, 3, FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)),
     "exists only for m=2, got m=3"),
], ids=["sampled", "fiveparam_m3"])
@pytest.mark.parametrize("call", [
    lambda spec, traj: eval_invariant(spec, State(0.5, 0.1, 0.0)),
    lambda spec, traj: invariant_series(spec, traj),
    lambda spec, traj: drift(traj, spec),
    lambda spec, traj: drift_absolute(traj, spec),
    lambda spec, traj: pde_residual(spec, 0.1, 0.5),
], ids=["eval_invariant", "invariant_series", "drift", "drift_absolute", "pde_residual"])
def test_invariant_functions_refuse_a_spec_outside_the_catalogue(spec, match, call):
    # each function checks the spec itself, with no build_coeffs call first;
    # the states carry the five columns a five-parameter series reads
    traj = Trajectory(np.array([0.0, 0.5]), np.tile([0.1, 0.0, 2.2, 0.0, -3.6], (2, 1)),
                      "completed")
    with pytest.raises(UnsupportedSourceError, match=match):
        call(spec, traj)


def test_invariant_series_matches_pointwise():
    spec = trig_spec(1.3, 0.4, 0.7, 1.1, 3)
    trig_traj = integrate_adaptive(make_field(spec), (0.2, 0.1),
                                   AdaptiveConfig(rtol=1e-10, t_end=15.0))
    # five-parameter: the series reads alpha2 from the state columns,
    # eval_invariant integrates it afresh with alpha2_at, both at rtol 1e-12
    fp = FiveParamSpec(1.1, 0.03, -0.07, 1.8, 0.4, -2.0)
    fp_traj, _ = integrate_family(fp, 0.2, 0.1, 15.0, rtol=1e-12)
    for c, traj, rel_tol in ((build_coeffs(spec), trig_traj, 1e-12),
                             (build_coeffs(OscillatorSpec(1.1, 2, fp)), fp_traj, 1e-10)):
        series = invariant_series(c, traj)
        assert len(series) == len(traj)
        for i in (0, len(traj) // 3, len(traj) - 1):
            state = State(float(traj.ts[i]), float(traj.z[i]), float(traj.p[i]))
            direct = eval_invariant(c, state)
            assert math.isclose(series[i], direct, rel_tol=rel_tol, abs_tol=1e-15)


def _series_cases():
    """(spec, trajectory) pairs of 20001 rows, no multiple of the series chunk."""
    spec = trig_spec(1.3, 0.4, 0.7, 1.1, 3)
    trig = integrate_fixed(make_field(spec), (0.2, 0.1), FixedStepConfig(h=1e-3, t_end=20.0))
    fp = FiveParamSpec(1.1, 0.03, -0.07, 1.8, 0.4, -2.0)
    five = integrate_fixed(make_augmented_field(fp), (0.2, 0.1, 1.8, 0.4, -2.0),
                           FixedStepConfig(h=1e-3, t_end=20.0))
    return [(spec, trig), (OscillatorSpec(1.1, 2, fp), five)]


@pytest.mark.parametrize("chunk", [1000, 8192])
def test_chunked_invariant_series_is_one_whole_array_call(monkeypatch, chunk):
    monkeypatch.setattr(invariant, "_SERIES_CHUNK", chunk)
    for spec, traj in _series_cases():
        assert len(traj) == 20001 and len(traj) % chunk
        whole = _invariant(spec, traj.ts, traj.z, traj.p, traj.ys)
        np.testing.assert_array_equal(invariant_series(spec, traj), whole)
        # drift's in-place I/I0 - 1 and its max |.| are the whole-array ones
        rep = drift(traj, spec)
        rel = whole / whole[0] - 1.0
        np.testing.assert_array_equal(rep.series, rel)
        assert rep.max_rel == float(np.max(np.abs(rel)))


def test_drift_peak_memory_stays_near_its_series(peak_alloc):
    # a 200k-row trajectory made with numpy, not integrated: the series and
    # the report are 1.6 MB; the whole-array formula took about 13 MB
    ts = np.arange(200_001) * 1e-3
    traj = Trajectory(ts=ts, ys=np.column_stack([0.1 * np.cos(ts), -0.1 * np.sin(ts)]),
                      status="completed")
    rep, peak = peak_alloc(lambda: drift(traj, trig_spec(1.3, 0.9, 0.0, 1.0, 2)))
    assert rep.mode == "relative"
    assert peak <= rep.series.nbytes + 1_000_000


def test_invariant_series_needs_augmented_state():
    fp = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    c = build_coeffs(OscillatorSpec(1.0, 2, fp))
    traj = integrate_fixed(lambda t, y: (y[1], -y[0]), (0.1, 0.0),
                           FixedStepConfig(h=0.1, t_end=1.0))
    with pytest.raises(ValueError):
        invariant_series(c, traj)


def test_drift_small_on_accurate_run():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    traj = integrate_fixed(make_field(spec), (0.1, 0.0),
                           FixedStepConfig(h=1e-3, t_end=30.0))
    rep = drift(traj, c)
    assert rep.mode == "relative"
    assert rep.max_rel < 1e-9
    assert len(rep.series) == len(traj)
    assert rep.series[0] == 0.0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_invariant_is_conserved_on_random_bounded_trig_systems(m):
    # alpha2 = A + B cos(2 omega t) + C sin(2 omega t) with A > |(B, C)|; an
    # even m starts at a quarter of z_crit(A, R, omega) (the m = 2 bound), an
    # odd m, whose restoring term bounds every orbit, anywhere in [0.05, 0.5]
    rng = random.Random(f"bounded-trig/{m}")
    for _ in range(8):
        A = rng.uniform(0.8, 1.6)
        R = rng.uniform(0.0, 0.6) * A
        phase = rng.uniform(0.0, 2.0 * math.pi)
        omega = rng.uniform(0.6, 1.6)
        spec = trig_spec(A, R * math.cos(phase), R * math.sin(phase), omega, m)
        z0 = 0.25 * z_crit(A, R, omega) if m % 2 == 0 else rng.uniform(0.05, 0.5)
        periods = 5
        traj = integrate_adaptive(make_field(spec), (z0, 0.0), AdaptiveConfig(
            rtol=1e-10, t_end=periods * 2.0 * math.pi / omega, escape_bound=50.0))
        assert traj.status == "completed", (m, A, R, phase, omega, z0)
        report = drift(traj, build_coeffs(spec))
        assert report.max_rel <= 1e-7, (m, A, R, phase, omega, z0, report.max_rel)


def test_drift_is_absolute_at_zero_reference():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    traj = integrate_fixed(make_field(spec), (0.0, 0.0),
                           FixedStepConfig(h=1e-2, t_end=1.0))
    rep = drift(traj, c)
    assert rep.mode == "absolute"
    assert rep.max_rel == 0.0  # the zero solution conserves exactly
    np.testing.assert_array_equal(rep.series, drift_absolute(traj, c).series)


def test_quadratic_coefficient_is_alpha2():
    # I(z, p, t) - I(z, 0, t) with the linear-in-p part removed leaves
    # alpha2(t) p^2; checked at a strobe time where alpha2 = A + B
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    t = math.pi  # cos(2 t) = 1
    z = 0.3
    i_p = eval_invariant(c, State(t, z, 0.7))
    i_m = eval_invariant(c, State(t, z, -0.7))
    i_0 = eval_invariant(c, State(t, z, 0.0))
    a2 = (i_p + i_m - 2.0 * i_0) / (2.0 * 0.49)
    assert math.isclose(a2, 2.2, rel_tol=1e-12)


def test_alpha1_enters_linear_coefficient():
    fp = FiveParamSpec(1.0, 0.08, 0.0, 2.2, 0.0, -3.6)
    spec = OscillatorSpec(1.0, 2, fp)
    c = build_coeffs(spec)
    # at t=0, z=0 the p-linear coefficient is alpha1(0) = C1/2
    i_p = eval_invariant(c, State(0.0, 0.0, 1.0))
    i_m = eval_invariant(c, State(0.0, 0.0, -1.0))
    assert math.isclose((i_p - i_m) / 2.0, 0.04, rel_tol=1e-12)


def test_invariant_coeffs_requires_known_source():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    c = build_coeffs(spec)
    # the additive constant is fixed at zero: I vanishes at z = p = 0
    assert eval_invariant(c, State(0.7, 0.0, 0.0)) == 0.0
