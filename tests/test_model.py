import math

import numpy as np
import pytest

from osclab.errors import CoefficientSingularError
from osclab.model import (
    OscillatorSpec,
    Sampled,
    State,
    Trajectory,
    TrigAlpha,
    TrigFamily,
    g_eval,
    g_exponent,
    int_pow,
    make_field,
    make_lane_field,
    spec_from_json,
    spec_to_json,
    trig_alpha2_eval,
    trig_spec,
    vector_field,
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
    assert math.isclose(a.phi, math.atan2(0.4, 0.3), rel_tol=1e-15)


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
    assert math.isclose(g_eval(trig_spec(1.3, 0.9, 0.0, 1.0, 2), 0.0),
                        0.1392974922444715, rel_tol=1e-14)
    assert math.isclose(g_eval(trig_spec(1.3, 0.9, 0.0, 1.0, 3), 0.0),
                        0.09391435011269722, rel_tol=1e-14)
    assert math.isclose(g_eval(trig_spec(1.3, 0.9, 0.0, 1.0, 4), 0.0),
                        0.06331704192930523, rel_tol=1e-14)


def test_int_pow_matches_builtin():
    for z in (-2.3, -0.5, 0.0, 0.7, 1.9):
        for m in range(2, 9):
            assert int_pow(z, m) == pytest.approx(z**m, rel=1e-15, abs=1e-300)


def test_oscillator_spec_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(1.0, 1, TrigFamily(TrigAlpha(1.3, 0.9, 0.0, 1.0)))
    with pytest.raises(ValueError):
        OscillatorSpec(1.0, 2.5, TrigFamily(TrigAlpha(1.3, 0.9, 0.0, 1.0)))
    with pytest.raises(ValueError):
        # spec omega must agree with the family's omega
        OscillatorSpec(1.1, 2, TrigFamily(TrigAlpha(1.3, 0.9, 0.0, 1.0)))


def test_vector_field_values():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    s = State(0.0, 0.1, 0.25)
    dz, dp = vector_field(spec, s)
    assert dz == 0.25
    g0 = 2.2**-2.5
    assert math.isclose(dp, -(0.1 + g0 * 0.01), rel_tol=1e-14)


def test_make_field_matches_vector_field():
    spec = trig_spec(1.2, 0.4, 0.5, 1.3, 4)
    field = make_field(spec)
    for t, z, p in ((0.0, 0.1, 0.0), (1.7, -0.4, 0.3), (9.2, 0.8, -1.1)):
        got = field(t, (z, p))
        want = vector_field(spec, State(t, z, p))
        assert got[0] == want[0]
        assert math.isclose(got[1], want[1], rel_tol=1e-14, abs_tol=1e-300)


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
    assert traj.state(1) == State(0.1, 0.09, -0.01)
    assert traj.final_state() == State(0.2, 0.07, -0.02)
    assert list(traj.z) == [0.1, 0.09, 0.07]
    assert list(traj.p) == [0.0, -0.01, -0.02]


def test_trajectory_validation():
    ys = np.array([[0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError):
        Trajectory(ts=np.array([0.0, 0.0]), ys=ys, status="completed")
    with pytest.raises(ValueError):
        Trajectory(ts=np.array([0.0, 0.1]), ys=ys, status="exploded")
