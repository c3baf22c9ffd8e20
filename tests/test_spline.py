import math

import numpy as np
import pytest

from osclab import spline
from osclab.errors import CoefficientSingularError
from osclab.model import Sampled

UNIFORM_SIZES = (4, 5, 17, 257, 1001, 2001)


def _periodic_values(x):
    y = np.sin(2.0 * math.pi * (x - x[0]) / (x[-1] - x[0])) + 0.3 * np.cos(x)
    y[-1] = y[0]
    return y


def _reference(kind, x, y):
    # scipy serves only as the reference here; osclab itself does not import it
    interpolate = pytest.importorskip("scipy.interpolate")
    if kind == "periodic":
        return interpolate.CubicSpline(x, y, bc_type="periodic")
    if kind == "not_a_knot":
        return interpolate.CubicSpline(x, y)
    return interpolate.PchipInterpolator(x, y)


def _random_grid(rng, n):
    x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.7
    y = np.cos(x) + 0.2 * rng.normal(size=n)
    return x, y


@pytest.mark.parametrize("n", UNIFORM_SIZES)
@pytest.mark.parametrize("kind", ["periodic", "not_a_knot", "pchip"])
def test_coefficients_equal_reference_on_uniform_grids(kind, n):
    x = np.linspace(0.0, 2.0 * math.pi, n)
    y = _periodic_values(x)
    assert np.array_equal(getattr(spline, kind)(x, y).c, _reference(kind, x, y).c)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 33, 257])
def test_pchip_coefficients_equal_reference_on_random_grids(n):
    rng = np.random.default_rng(n)
    for k in range(20):
        x, y = _random_grid(rng, n)
        if k % 2:
            y = np.round(y, 1)  # flat pieces and extrema give zero derivatives
        assert np.array_equal(spline.pchip(x, y).c, _reference("pchip", x, y).c)


@pytest.mark.parametrize("n", [4, 5, 9, 33, 257, 2001])
@pytest.mark.parametrize("kind", ["periodic", "not_a_knot"])
def test_spline_coefficients_match_reference_on_random_grids(kind, n):
    # off a uniform grid the reference solver may swap rows, so only
    # rounding-level agreement is asked for, row by row
    rng = np.random.default_rng(1000 + n)
    for _ in range(20):
        x, y = _random_grid(rng, n)
        if kind == "periodic":
            y[-1] = y[0]
        got, ref = getattr(spline, kind)(x, y).c, _reference(kind, x, y).c
        for row, ref_row in zip(got, ref):
            assert np.max(np.abs(row - ref_row)) <= 1e-10 * np.max(np.abs(ref_row))


@pytest.mark.parametrize("n", [2, 3])
def test_not_a_knot_on_two_and_three_knots(n):
    # two knots give the line, three the parabola through the points
    rng = np.random.default_rng(n)
    for _ in range(20):
        x, y = _random_grid(rng, n)
        got, ref = spline.not_a_knot(x, y).c, _reference("not_a_knot", x, y).c
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert spline.not_a_knot([0.0, 1.0, 3.0], [1.0, 3.0, 13.0])(2.0) == pytest.approx(7.0)


def _probe_points(rng, x):
    inside = rng.uniform(x[0], x[-1], 300)
    outside = np.array([x[0] - 0.4, x[-1] + 0.4, x[0] - 3 * (x[-1] - x[0]), x[-1] + 7.3])
    ends = np.array([x[0], x[-1], np.nextafter(x[0], np.inf), np.nextafter(x[-1], -np.inf)])
    return np.concatenate([x, ends, inside, outside])


@pytest.mark.parametrize("kind", ["periodic", "not_a_knot", "pchip"])
@pytest.mark.parametrize("uniform", [True, False])
def test_scalar_and_array_evaluation_agree_bit_for_bit(kind, uniform):
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 2.0 * math.pi, 257) if uniform else _random_grid(rng, 257)[0]
    y = _periodic_values(x)
    pw = getattr(spline, kind)(x, y)
    ts = _probe_points(rng, x)
    values = pw(ts)
    assert values.dtype == np.float64 and values.shape == ts.shape
    scalars = [pw(float(t)) for t in ts]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(values, np.array(scalars))
    assert np.array_equal(values, [pw(np.float64(t)) for t in ts])
    # an int takes the float path past the exact-float shortcut, inside the
    # knots and beyond both ends
    ints = list(range(math.floor(x[0]) - 9, math.ceil(x[-1]) + 9))
    from_ints = [pw(k) for k in ints]
    assert all(type(v) is float for v in from_ints)
    assert np.array_equal(pw(np.array(ints, dtype=float)), np.array(from_ints))
    # the pieces interpolate: each knot value is hit to rounding
    assert np.allclose(values[:len(x)], y, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kind", ["periodic", "not_a_knot", "pchip"])
def test_evaluation_equals_reference_on_a_uniform_grid(kind):
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 2.0 * math.pi, 257)
    y = _periodic_values(x)
    ts = _probe_points(rng, x)
    assert np.array_equal(getattr(spline, kind)(x, y)(ts), _reference(kind, x, y)(ts))


def test_periodic_evaluation_wraps_into_the_knot_range():
    x = np.linspace(0.0, 2.0, 33)
    y = _periodic_values(x)
    pw = spline.periodic(x, y)
    for t in (0.3, 1.7, 1.999):
        assert pw(t + 2.0) == pytest.approx(pw(t), abs=1e-14)
        assert pw(t - 4.0) == pytest.approx(pw(t), abs=1e-14)
    assert math.isnan(pw(math.nan))


def test_constructors_refuse_bad_knots():
    for make in (spline.periodic, spline.not_a_knot, spline.pchip):
        with pytest.raises(ValueError, match="strictly increasing"):
            make([0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            make([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, math.nan, 2.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="one length"):
            make([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="at least 2"):
            make([0.0], [0.0])
    with pytest.raises(ValueError, match=r"y\[0\] == y\[-1\]"):
        spline.periodic([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 0.5])
    with pytest.raises(ValueError, match="at least 4 knots"):
        spline.periodic([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def test_sampled_uses_not_a_knot_spline_and_refuses_t_outside_its_knots():
    ts = tuple(0.25 * k for k in range(17))
    gs = tuple(0.2 + 0.1 * math.cos(t) for t in ts)
    src = Sampled(ts, gs)
    pw = spline.not_a_knot(ts, gs)
    for t in (0.0, 0.1, 1.33, 2.5, 3.999, 4.0):
        assert src.value_at(t) == pw(t)
    for t in (-1e-12, 4.0 + 1e-12, math.inf, -math.inf):
        with pytest.raises(CoefficientSingularError):
            src.value_at(t)
