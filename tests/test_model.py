import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.errors import CoefficientSingularError
from osclab.lanes import make_lane_field
from osclab.model import (
    MAX_M,
    OscillatorSpec,
    PowerForm,
    Sampled,
    Trajectory,
    TrigAlpha,
    alpha2_grid,
    g_exponent,
    int_pow,
    make_field,
    spec_from_json,
    spec_to_json,
    trig_alpha2_eval,
    trig_spec,
)


def test_trig_alpha_validation():
    TrigAlpha(1.3, 0.9, 0.0, 1.0)
    with pytest.raises(ValueError):
        TrigAlpha(1.0, 0.8, 0.7, 1.0)  # A <= sqrt(B^2 + C^2)
    with pytest.raises(ValueError):
        TrigAlpha(1.3, 0.9, 0.0, 0.0)
    with pytest.raises(ValueError):
        TrigAlpha(1.3, 0.9, 0.0, -1.0)


def test_trig_alpha_amplitude_and_phase():
    a = TrigAlpha(1.3, 0.3, 0.4, 1.0)
    assert math.isclose(a.R, 0.5, rel_tol=1e-15)


def test_trig_alpha2_eval_frozen_point():
    # 1.3 + 0.9 cos(2 * 2.13) and derivatives, checked against a
    # 50-digit evaluation of the same closed forms
    a = TrigAlpha(1.3, 0.9, 0.0, 1.0)
    a2, d1, d2, d3 = trig_alpha2_eval(a, 2.13)
    assert math.isclose(a2, 0.9065961028236751, rel_tol=1e-15)
    assert math.isclose(d1, 1.61892973743332, rel_tol=1e-15)
    assert math.isclose(d2, 1.5736155887052996, rel_tol=1e-15)
    assert d3 == -4.0 * d1  # omega = 1; shared-product construction is exact


def test_trig_alpha2_derivatives_match_finite_differences():
    a = TrigAlpha(1.2, 0.4, 0.5, 1.3)
    h = 1e-6
    for t in (0.0, 0.7, 2.9, 11.3):
        a2m, *_ = trig_alpha2_eval(a, t - h)
        a2, d1, d2, d3 = trig_alpha2_eval(a, t)
        a2p, *_ = trig_alpha2_eval(a, t + h)
        fd1 = (a2p - a2m) / (2 * h)
        fd2 = (a2p - 2 * a2 + a2m) / (h * h)
        assert abs(fd1 - d1) < 1e-8
        assert abs(fd2 - d2) < 1e-3
        assert math.isclose(d3, -4.0 * a.omega**2 * d1, rel_tol=1e-14, abs_tol=1e-14)


def test_g_exponent():
    assert g_exponent(2) == -2.5
    assert g_exponent(3) == -3.0
    assert g_exponent(5) == -4.0


def test_g_eval_frozen_values():
    # alpha2(0) = 2.2; powers checked against a 50-digit evaluation
    def g0(m):
        return make_field(trig_spec(1.3, 0.9, 0.0, 1.0, m)).g(0.0)

    assert math.isclose(g0(2), 0.1392974922444715, rel_tol=1e-14)
    assert math.isclose(g0(3), 0.09391435011269722, rel_tol=1e-14)
    assert math.isclose(g0(4), 0.06331704192930523, rel_tol=1e-14)


def test_vector_field_values():
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0, 2))
    dz, dp = field(0.0, (0.1, 0.25))
    assert dz == 0.25
    g0 = 2.2**-2.5
    assert math.isclose(dp, -(0.1 + g0 * 0.01), rel_tol=1e-14)


def _g_50_digits(A, B, C, omega, m, t):
    """g(t) = (A + B cos 2 omega t + C sin 2 omega t)^(-(m+3)/2) at 50 digits, from the floats given."""
    with mpmath.workdps(50):
        th = 2 * mpmath.mpf(omega) * mpmath.mpf(t)
        a2 = mpmath.mpf(A) + mpmath.mpf(B) * mpmath.cos(th) + mpmath.mpf(C) * mpmath.sin(th)
        return a2 ** (-mpmath.mpf(m + 3) / 2)


_FIELD_POINTS = [
    # (A, B, C, omega, m, t, z, p); alpha2(0) = 2.2 in the first three
    (1.3, 0.9, 0.0, 1.0, 2, 0.0, 0.1, 0.25),
    (1.3, 0.9, 0.0, 1.0, 3, 0.0, -0.6, 0.0),
    (1.3, 0.9, 0.0, 1.0, 4, 0.0, 0.8, -1.1),
    (1.2, 0.4, 0.5, 1.3, 4, 0.0, 0.1, 0.0),
    (1.2, 0.4, 0.5, 1.3, 4, 1.7, -0.4, 0.3),
    (1.2, 0.4, 0.5, 1.3, 5, 9.2, 0.8, -1.1),
]


@pytest.mark.parametrize("A,B,C,omega,m,t,z,p", _FIELD_POINTS)
def test_trig_field_and_its_g_match_50_digit_values(A, B, C, omega, m, t, z, p):
    field = make_field(trig_spec(A, B, C, omega, m))
    g = _g_50_digits(A, B, C, omega, m, t)
    assert math.isclose(field.g(t), float(g), rel_tol=1e-14)
    with mpmath.workdps(50):
        dp = -mpmath.mpf(omega) ** 2 * mpmath.mpf(z) - g * mpmath.mpf(z) ** m
    dz_got, dp_got = field(t, (z, p))
    assert dz_got == p
    assert math.isclose(dp_got, float(dp), rel_tol=1e-14)


def test_field_and_its_g_refuse_a_singular_coefficient():
    # alpha2(0) = A - R = 1e-10 is below EPS_POS
    field = make_field(trig_spec(1.0, -(1.0 - 1e-10), 0.0, 1.0))
    with pytest.raises(CoefficientSingularError):
        field.g(0.0)
    with pytest.raises(CoefficientSingularError):
        field(0.0, (0.1, 0.0))


def _step_grid(t0, h, n):
    """The times of n RK4 steps of h from t0 as the fused path takes them: t0 + k*h, then midpoints."""
    steps = t0 + np.arange(n + 1) * h
    ts = np.empty(2 * n + 1)
    ts[0::2] = steps
    ts[1::2] = steps[:-1] + 0.5 * h
    return ts


def test_g_grid_matches_scalar_g_on_the_fig1_step_grid():
    # drift --preset fig1 --tmax 200: 200k steps, about 400k times; numpy's cos
    # must round like math.cos here, else the fused RK4 path would move bits
    form = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    ts = _step_grid(0.0, 1e-3, 200_000)
    assert form.g_grid(ts) == [form.g(t) for t in ts.tolist()]


@settings(max_examples=40, deadline=None)
@given(
    A=st.floats(0.5, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.floats(-0.95, 0.95).filter(bool),
    omega=st.floats(0.3, 2.0),
    m=st.integers(2, 6),
    t0=st.floats(-100.0, 0.0),
    h=st.floats(1e-3, 5e-2),
)
def test_g_grid_matches_scalar_g_on_random_trig_grids(A, rel_b, rel_c, omega, m, t0, h):
    # C != 0, so numpy's sin is checked against math.sin too
    form = make_field(trig_spec(A, 0.67 * A * rel_b, 0.67 * A * rel_c, omega, m))
    ts = _step_grid(t0, h, 2000)
    got = form.g_grid(ts)
    assert got == [form.g(t) for t in ts.tolist()]
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("B,m,exc", [
    # alpha2 dips below EPS_POS within 2e-5 of t = pi/2, which the grid hits
    (1.0 - 1e-10, 2, CoefficientSingularError),
    # alpha2 bottoms out at 2e-9, above the floor, where alpha2 ** -36.5 overflows
    (1.0 - 2e-9, 70, OverflowError),
])
def test_g_grid_is_none_where_g_raises(B, m, exc):
    form = make_field(trig_spec(1.0, B, 0.0, 1.0, m))
    ts = _step_grid(0.0, (math.pi / 2) / 1000, 2000)
    assert form.g_grid(ts) is None
    with pytest.raises(exc):
        for t in ts.tolist():
            form.g(t)
    # the same form on a stretch of the grid away from pi/2
    assert form.g_grid(ts[:1000]) == [form.g(t) for t in ts[:1000].tolist()]


def test_sampled_field_calls_its_interpolant():
    knots = (0.0, 0.5, 1.0, 1.5, 2.0)
    src = Sampled(knots, tuple(math.cos(t) for t in knots))
    form = make_field(OscillatorSpec(1.5, 3, src))
    assert (form.w2, form.m, form.g) == (2.25, 3, src.value_at)
    # g on a grid equals g time by time, and is None when a time lies past the knots
    ts = np.linspace(0.0, 2.0, 401)
    assert form.g_grid(ts) == [src.value_at(t) for t in ts.tolist()]
    assert form.g_grid(np.array([1.0, 2.0 + 1e-12])) is None
    assert form.g_grid(np.array([-1e-12, 1.0])) is None
    g = src.value_at(0.73)
    assert form(0.73, (0.4, -0.2)) == (-0.2, -2.25 * 0.4 - g * (0.4 * 0.4 * 0.4))
    with pytest.raises(CoefficientSingularError):
        form(2.5, (0.4, -0.2))


def test_int_pow_matches_builtin():
    for z in (-2.3, -0.5, 0.0, 0.7, 1.9):
        for m in range(2, 9):
            assert int_pow(z, m) == pytest.approx(z**m, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("m", [2, 3, 5, 17, MAX_M])
def test_int_pow_on_a_lane_row_is_the_lane_loop_and_leaves_the_row(m):
    row = np.random.default_rng(5).uniform(-1.3, 1.3, 64)
    before = row.copy()
    zm = before
    for _ in range(m - 1):  # the lane field's loop before it took int_pow
        zm = zm * before
    assert int_pow(row, m).tobytes() == zm.tobytes()
    assert row.tobytes() == before.tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 7, 17, MAX_M])
def test_power_form_is_its_g_and_int_pow(m):
    form = make_field(trig_spec(1.2, 0.4, 0.5, 1.3, m))
    assert isinstance(form, PowerForm) and form.m == m
    rng = np.random.default_rng(m)
    for t, z, p in rng.uniform(-1.2, 1.2, (50, 3)).tolist():
        got = form(t, (z, p))
        assert got[0] == p
        assert got[1].hex() == (-form.w2 * z - form.g(t) * int_pow(z, m)).hex()


def test_oscillator_spec_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(1.0, 1, TrigAlpha(1.3, 0.9, 0.0, 1.0))
    with pytest.raises(ValueError):
        OscillatorSpec(1.0, 2.5, TrigAlpha(1.3, 0.9, 0.0, 1.0))
    with pytest.raises(ValueError):
        # spec omega must agree with the family's omega
        OscillatorSpec(1.1, 2, TrigAlpha(1.3, 0.9, 0.0, 1.0))


def test_oscillator_spec_caps_the_exponent():
    assert trig_spec(1.3, 0.9, 0.0, 1.0, m=MAX_M).m == MAX_M
    with pytest.raises(ValueError, match=rf"m must be an integer in \[2, {MAX_M}\], got 101"):
        trig_spec(1.3, 0.9, 0.0, 1.0, m=101)


@pytest.mark.parametrize("A,B,C,m", [(1.3, 0.9, 0.0, 2), (1.2, 0.4, 0.5, 4),
                                     (1.0, -(1.0 - 1e-10), 0.0, 2)])
def test_lane_field_matches_make_field(A, B, C, m):
    rng = np.random.default_rng(3)
    omegas = rng.uniform(0.5, 2.0, 40)
    specs = [trig_spec(A, B, C, w, m) for w in omegas]
    t = np.concatenate([[0.0], rng.uniform(0.0, 100.0, 39)])
    y = rng.uniform(-2.0, 2.0, (2, 40))
    field, params = make_lane_field(specs)
    with np.errstate(all="ignore"):
        dy, singular = field(t, y, params)
    for j, spec in enumerate(specs):
        try:
            want = make_field(spec)(float(t[j]), (float(y[0, j]), float(y[1, j])))
        except CoefficientSingularError:
            assert singular[j]
            continue
        assert not singular[j]
        assert dy[0, j] == want[0]
        # numpy's cos, sin and power may round apart from math's
        assert math.isclose(dy[1, j], want[1], rel_tol=1e-13)
    assert singular.any() == (A - math.hypot(B, C) < 1e-9)


@pytest.mark.parametrize("C", [0.0, -0.0, 0.35, -0.35])
def test_trig_g_matches_its_written_out_expression(C):
    # g skips C sin(th) when C is 0, which must change no value
    rng = np.random.default_rng(17)
    for m in (2, 3, 5):
        ex = g_exponent(m)
        g = make_field(trig_spec(1.3, 0.9, C, 1.1, m)).g
        for t in rng.uniform(-1e3, 1e3, 200).tolist():
            th = 2.2 * t
            assert g(t) == (1.3 + 0.9 * math.cos(th) + C * math.sin(th)) ** ex


@pytest.mark.parametrize("C", [0.0, -0.0])
def test_trig_g_refuses_and_overflows_where_its_expression_does(C):
    t = math.pi / 2  # alpha2 = A - |B| here, at its least
    singular = make_field(trig_spec(1.0, 1.0 - 1e-10, C, 1.0)).g
    assert 1.0 + (1.0 - 1e-10) * math.cos(2.0 * t) + C * math.sin(2.0 * t) <= 1e-9
    with pytest.raises(CoefficientSingularError):
        singular(t)
    # alpha2 bottoms out at 2e-9, above the floor, where alpha2 ** -36.5 overflows
    overflow = make_field(trig_spec(1.0, 1.0 - 2e-9, C, 1.0, 70)).g
    with pytest.raises(OverflowError):
        (1.0 + (1.0 - 2e-9) * math.cos(2.0 * t) + C * math.sin(2.0 * t)) ** g_exponent(70)
    with pytest.raises(OverflowError):
        overflow(t)


@pytest.mark.parametrize("A,B,C,m", [(1.3, 0.9, 0.0, 2), (1.2, 0.4, -0.5, 4),
                                     (1.0, -(1.0 - 1e-10), 0.0, 2)])
def test_lane_form_g_stages_match_the_field_row_by_row(A, B, C, m):
    rng = np.random.default_rng(5)
    specs = [trig_spec(A, B, C, w, m) for w in rng.uniform(0.5, 2.0, 30)]
    form, params = make_lane_field(specs)
    ex = g_exponent(m)
    ts = rng.uniform(-10.0, 10.0, (12, 30))
    ts[3, :5] = 0.0  # a singular time for B < 0
    y = rng.uniform(-2.0, 2.0, (2, 30))
    with np.errstate(all="ignore"):
        gs, singular = form.g_stages(ts, params)
        any_row = np.zeros(30, dtype=bool)
        for i, t in enumerate(ts):
            dy, s = form(t, y, params)
            assert dy.tobytes() == form.deriv(gs[i], y, params).tobytes()
            # the same bits as g on one row of times alone
            assert gs[i].tobytes() == (alpha2_grid(A, B, C, params[0], t) ** ex).tobytes()
            any_row |= s
    assert singular.tolist() == any_row.tolist()
    assert singular.any() == (B < 0)


def test_lane_field_needs_one_trig_family():
    with pytest.raises(ValueError):
        make_lane_field([trig_spec(1.3, 0.9, 0.0, 1.0), trig_spec(1.3, 0.8, 0.0, 1.0)])
    with pytest.raises(ValueError):
        make_lane_field([trig_spec(1.3, 0.9, 0.0, 1.0, 2), trig_spec(1.3, 0.9, 0.0, 1.0, 3)])
    with pytest.raises(ValueError):
        make_lane_field([OscillatorSpec(1.0, 2, Sampled((0, 1, 2, 3), (1, 1, 1, 1)))])
    with pytest.raises(ValueError):
        make_lane_field([])


def test_sampled_source_interpolates_and_refuses_extrapolation():
    ts = [0.0, 0.5, 1.0, 1.5, 2.0]
    gs = [math.cos(t) for t in ts]
    src = Sampled(ts=tuple(ts), gs=tuple(gs))
    assert math.isclose(src.value_at(0.5), math.cos(0.5), rel_tol=1e-12)
    # cubic interpolation error on this grid is well below 1e-3
    assert abs(src.value_at(0.73) - math.cos(0.73)) < 1e-3
    with pytest.raises(CoefficientSingularError):
        src.value_at(2.5)
    with pytest.raises(ValueError):
        Sampled(ts=(0.0, 1.0, 0.5, 2.0), gs=(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Sampled(ts=(0.0, 1.0), gs=(1.0, 1.0))


def test_spec_json_round_trip():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    obj = spec_to_json(spec)
    assert obj == {"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}}
    back = spec_from_json(obj)
    assert back == spec


_finite = st.floats(-1e6, 1e6)
_positive = st.floats(1e-6, 1e6)


@st.composite
def _specs(draw):
    omega, m = draw(_positive), draw(st.integers(2, 9))
    if draw(st.booleans()):
        B, C = draw(_finite), draw(_finite)
        return trig_spec(math.hypot(B, C) + draw(st.floats(1e-3, 1e6)), B, C, omega, m)
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=12))
    ts = [draw(_finite)]
    for dt in steps:
        ts.append(ts[-1] + dt)
    gs = draw(st.lists(_finite, min_size=len(ts), max_size=len(ts)))
    return OscillatorSpec(omega, m, Sampled(tuple(ts), tuple(gs)))


@given(_specs())
def test_spec_json_round_trips_through_json_text(spec):
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_spec_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        spec_from_json({"omega": 1.0, "m": 2, "g": {"kind": "mystery"}})
    # five-parameter systems use the flat format of osclab.family only
    with pytest.raises(ValueError):
        spec_from_json({"omega": 1.0, "m": 2, "g": {"kind": "five_param", "C1": 0.0,
                                                    "C2": 0.0, "alpha2": [2.2, 0.0, -3.6]}})
    from osclab.family import FiveParamSpec

    with pytest.raises(TypeError):
        spec_to_json(OscillatorSpec(1.0, 2, FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)))


def test_make_field_refuses_a_five_parameter_source():
    from osclab.family import FiveParamSpec

    spec = OscillatorSpec(1.0, 2, FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6))
    with pytest.raises(ValueError, match="no direct field for g source FiveParamSpec"):
        make_field(spec)


@pytest.mark.parametrize("obj", [
    [1, 2],
    "spec",
    {"m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}},
    {"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 1.3}},
    {"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": "x", "B": 0.9, "C": 0.0}},
    {"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": None, "B": 0.9, "C": 0.0}},
    {"omega": 1.0, "m": 2, "g": [1.3, 0.9, 0.0]},
    {"omega": 1.0, "m": 2, "g": {"kind": "sampled", "t": 3, "g": [1.0]}},
    {"omega": 1.0, "m": float("inf"), "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}},
])
def test_spec_json_rejects_malformed_fields(obj):
    with pytest.raises(ValueError, match="malformed oscillator spec"):
        spec_from_json(obj)


@pytest.mark.parametrize("C", [0.0, -0.0, *np.random.default_rng(23).uniform(-0.5, 0.5, 4).tolist()],
                         ids=["0", "-0", "random1", "random2", "random3", "random4"])
def test_trig_alpha2_eval_sums_alpha2_like_alpha2_grid(C):
    # the invariant must see the very alpha2 that the field and the lanes integrate
    a = TrigAlpha(1.2, 0.4, C, 1.3)
    ts = np.random.default_rng(29).uniform(-1e3, 1e3, 2000)
    got = trig_alpha2_eval(a, ts)[0]
    assert got.tobytes() == alpha2_grid(a.A, a.B, a.C, 2.0 * a.omega, ts).tobytes()
    for t in ts[:200].tolist():
        want = float(alpha2_grid(a.A, a.B, a.C, 2.0 * a.omega, t))
        assert trig_alpha2_eval(a, t)[0].hex() == want.hex()


def test_trig_alpha2_eval_on_arrays_matches_scalars():
    a = TrigAlpha(1.2, 0.4, 0.5, 1.3)
    ts = np.array([0.0, 0.7, 2.9, 11.3])
    cols = trig_alpha2_eval(a, ts)
    for k, t in enumerate(ts):
        want = trig_alpha2_eval(a, float(t))
        assert [c[k] for c in cols] == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_trajectory_accessors():
    traj = Trajectory(
        ts=np.array([0.0, 0.1, 0.2]),
        ys=np.array([[0.1, 0.0], [0.09, -0.01], [0.07, -0.02]]),
        status="completed",
    )
    assert len(traj) == 3
    assert list(traj.z) == [0.1, 0.09, 0.07]
    assert list(traj.p) == [0.0, -0.01, -0.02]


@pytest.mark.parametrize("ts", [
    [0.0, 0.0], [0.0, 0.1, 0.1], [0.2, 0.1], [0.0, 1.0, 0.5],
    [0.0, math.nan], [math.nan, 0.0], [1.0, math.nan, 2.0], [0.0, math.inf, math.inf],
    [-math.inf, -math.inf],
])
def test_trajectory_rejects_times_that_do_not_increase(ts):
    ts = np.array(ts)
    with np.errstate(invalid="ignore"):  # the old check, np.diff, agrees
        assert not np.all(np.diff(ts) > 0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(ts=ts, ys=np.zeros((len(ts), 2)), status="completed")


@pytest.mark.parametrize("ts", [
    [0.0], [math.inf], [0.0, 5e-324], [-1e308, 1e308], [-math.inf, 0.0, math.inf],
    [-3.0, -2.5, 7.0],
])
def test_trajectory_accepts_times_that_increase(ts):
    ts = np.array(ts)
    with np.errstate(over="ignore"):
        assert np.all(np.diff(ts) > 0.0)
    assert len(Trajectory(ts=ts, ys=np.zeros((len(ts), 2)), status="completed")) == len(ts)


@pytest.mark.parametrize("ts,ys,message", [
    ([0.0, 0.1], np.zeros((3, 2)), "state array must have one row per time"),
    ([0.0, 0.1], np.zeros(2), "state array must have one row per time"),
    ([], np.zeros((0, 2)), "trajectory cannot be empty"),
], ids=["rows", "one_dimensional", "empty"])
def test_trajectory_refuses_a_state_array_of_the_wrong_shape(ts, ys, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trajectory(ts=np.array(ts), ys=ys, status="completed")


def test_trajectory_validation():
    ys = np.array([[0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError):
        Trajectory(ts=np.array([0.0, 0.0]), ys=ys, status="completed")
    with pytest.raises(ValueError):
        Trajectory(ts=np.array([0.0, 0.1]), ys=ys, status="exploded")
