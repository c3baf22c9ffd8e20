import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from osclab.errors import CoefficientSingularError
from osclab.family import (
    FiveParamSpec,
    alpha1_eval,
    alpha2_at,
    fiveparam_from_json,
    integrate_family,
    make_augmented_field,
    to_trig_alpha,
)


def test_spec_validation():
    FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    with pytest.raises(ValueError):
        FiveParamSpec(0.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    with pytest.raises(ValueError):
        FiveParamSpec(1.0, 0.0, 0.0, 0.0, 0.0, -3.6)  # alpha2(0) must be positive
    good = (1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    names = ("omega", "C1", "C2", "alpha2_0", "alpha2p_0", "alpha2pp_0")
    for k, name in enumerate(names):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                FiveParamSpec(*good[:k], bad, *good[k + 1:])


def test_from_json_reads_a_literal_dict():
    obj = {"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [2.2, 0.0, -3.6]}
    assert fiveparam_from_json(obj) == FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    omega=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    C1=_finite,
    C2=_finite,
    alpha2_0=st.floats(min_value=2e-9, allow_infinity=False),
    alpha2p_0=_finite,
    alpha2pp_0=_finite,
)
def test_from_json_reads_json_text(omega, C1, C2, alpha2_0, alpha2p_0, alpha2pp_0):
    # the format of README, written as JSON text: every finite double reads back exactly
    text = json.dumps({"omega": omega, "C1": C1, "C2": C2,
                       "alpha2": [alpha2_0, alpha2p_0, alpha2pp_0]})
    fp = FiveParamSpec(omega, C1, C2, alpha2_0, alpha2p_0, alpha2pp_0)
    assert fiveparam_from_json(json.loads(text)) == fp


def test_alpha1_eval():
    fp = FiveParamSpec(2.0, 0.3, -0.4, 1.5, 0.0, 0.0)
    al1, al1p = alpha1_eval(fp, 0.0)
    assert al1 == 0.15
    assert al1p == -0.4  # omega * C2 / 2
    t = 0.9
    al1, al1p = alpha1_eval(fp, t)
    want = 0.5 * (0.3 * math.cos(2.0 * t) - 0.4 * math.sin(2.0 * t))
    assert math.isclose(al1, want, rel_tol=1e-15)
    # on an array of times each entry equals the scalar evaluation
    ts = np.array([0.0, t, 7.3])
    arr1, arr1p = alpha1_eval(fp, ts)
    for k, tk in enumerate(ts):
        assert (arr1[k], arr1p[k]) == pytest.approx(alpha1_eval(fp, float(tk)), rel=1e-15)
    h = 1e-7
    a, _ = alpha1_eval(fp, t - h)
    b, _ = alpha1_eval(fp, t + h)
    assert abs((b - a) / (2 * h) - al1p) < 1e-6


def test_to_trig_alpha_mapping():
    fp = FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    al = to_trig_alpha(fp)
    assert math.isclose(al.A, 1.3, rel_tol=1e-14)
    assert math.isclose(al.B, 0.9, rel_tol=1e-14)
    assert al.C == 0.0
    with pytest.raises(ValueError):
        to_trig_alpha(FiveParamSpec(1.0, 0.1, 0.0, 2.2, 0.0, -3.6))


def test_augmented_field_guards_small_alpha2():
    fp = FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    with pytest.raises(CoefficientSingularError):
        make_augmented_field(fp)(0.0, (0.1, 0.0, 1e-12, 0.0, 0.0))


def test_alpha2_at_initial_values():
    fp = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.4, -3.6)
    a2, d1, d2 = alpha2_at(fp, 0.0)
    assert (a2, d1, d2) == (2.2, 0.4, -3.6)
    with pytest.raises(ValueError):
        alpha2_at(fp, -1.0)


def test_alpha2_at_refuses_a_coefficient_ode_that_turns_singular():
    # alpha2 starts at 0.05 and is driven below the floor before t = 5
    with pytest.raises(CoefficientSingularError, match="coefficient_singular"):
        alpha2_at(FiveParamSpec(1.0, 5.0, 0.0, 0.05, 0.0, -3.6), 5.0)


def test_alpha2_matches_closed_form_when_decoupled():
    # C1 = C2 = 0 reduces the coefficient equation to the trig solution
    fp = FiveParamSpec(1.0, 0.0, 0.0, 2.2, 0.0, -3.6)
    for t in (0.5, 3.0, 12.0, 20.0):
        a2, d1, d2 = alpha2_at(fp, t)
        assert abs(a2 - (1.3 + 0.9 * math.cos(2 * t))) < 1e-9
        assert abs(d1 - (-1.8 * math.sin(2 * t))) < 1e-9
        assert abs(d2 - (-3.6 * math.cos(2 * t))) < 1e-8


def test_integrate_family_conserves():
    fp = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    traj, report = integrate_family(fp, 0.1, 0.0, 40.0, rtol=1e-12)
    assert traj.status == "completed"
    assert traj.ys.shape[1] == 5
    assert report.mode == "relative"
    assert report.max_rel < 1e-9


def test_integrate_family_zero_solution_uses_absolute_mode():
    fp = FiveParamSpec(1.0, 0.05, 0.0, 2.2, 0.0, -3.6)
    traj, report = integrate_family(fp, 0.0, 0.0, 5.0)
    assert report.mode == "absolute"
    # z stays identically zero, coefficients still evolve
    assert np.max(np.abs(traj.ys[:, 0])) < 1e-14
    assert np.max(np.abs(traj.ys[:, 2] - traj.ys[0, 2])) > 0.1
