import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osclab.cubic import real_roots


def _check_against_numpy(c3, c2, c1, c0, tol=1e-8):
    got = real_roots(c3, c2, c1, c0)
    ref = [r.real for r in np.roots([c3, c2, c1, c0]) if abs(r.imag) < 1e-7]
    got_flat = [r for r, mult in got for _ in range(mult)]
    assert len(got_flat) == len(ref)
    for a, b in zip(got_flat, sorted(ref)):
        scale = max(1.0, abs(b))
        assert abs(a - b) < tol * scale, (got, sorted(ref))


def test_random_cubics_match_numpy():
    rng = random.Random(42)
    for _ in range(300):
        c3 = rng.uniform(-3.0, 3.0)
        if abs(c3) < 1e-2:
            c3 = math.copysign(1e-2, c3 or 1.0)
        coeffs = (c3, rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        _check_against_numpy(*coeffs)


# distance kept between distinct roots, and of a complex pair from the real
# axis: far above the solver's degenerate band (relative discriminant 1e-12)
_MARGIN = 0.05


@settings(max_examples=200, deadline=None)
@given(
    c3=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
    imag=st.none() | st.floats(_MARGIN, 3.0),
)
def test_real_roots_match_numpy_away_from_degeneracy(c3, xs, imag):
    # three real roots xs, or xs[0] plus the complex pair xs[1] +- i*imag
    r0, a, b = sorted(xs)
    if imag is None:
        assume(min(a - r0, b - a) >= _MARGIN)
        s1, s2, s3 = r0 + a + b, r0 * a + r0 * b + a * b, r0 * a * b
    else:
        q = a * a + imag * imag
        s1, s2, s3 = r0 + 2.0 * a, 2.0 * a * r0 + q, r0 * q
    coeffs = (c3, -c3 * s1, c3 * s2, -c3 * s3)
    got = real_roots(*coeffs)
    assert [mult for _, mult in got] == [1] * (3 if imag is None else 1)
    _check_against_numpy(*coeffs, tol=1e-9)


def test_roots_sorted_ascending():
    roots = real_roots(1.0, 0.0, -7.0, 6.0)  # (z-1)(z-2)(z+3)
    vals = [r for r, _ in roots]
    assert vals == sorted(vals)
    assert [round(v, 10) for v in vals] == [-3.0, 1.0, 2.0]
    assert all(mult == 1 for _, mult in roots)


def test_triple_root():
    # (z - 2)^3 = z^3 - 6 z^2 + 12 z - 8
    roots = real_roots(1.0, -6.0, 12.0, -8.0)
    assert len(roots) == 1
    r, mult = roots[0]
    assert mult == 3
    assert math.isclose(r, 2.0, rel_tol=1e-12)


def test_double_root_detected():
    # (z + 1)^2 (z - 3) = z^3 - z^2 - 5 z - 3
    roots = real_roots(1.0, -1.0, -5.0, -3.0)
    assert sorted(mult for _, mult in roots) == [1, 2]
    by_mult = {mult: r for r, mult in roots}
    assert math.isclose(by_mult[2], -1.0, rel_tol=1e-10)
    assert math.isclose(by_mult[1], 3.0, rel_tol=1e-10)


def test_single_real_root():
    # z^3 + z + 1 has one real root near -0.6823278
    roots = real_roots(1.0, 0.0, 1.0, 1.0)
    assert len(roots) == 1
    r, mult = roots[0]
    assert mult == 1
    assert abs(r**3 + r + 1.0) < 1e-14


def test_single_real_root_where_the_cardano_term_underflows():
    # x^3 + 2e-108 x: 4 p^3 stays a subnormal, so the cubic is not the triple
    # root of p = q = 0, but p^3 / 27 underflows to 0 and the Cardano term u
    # is 0; the u == 0 branch takes the root t = 0 instead of dividing by u
    assert real_roots(1.0, 0.0, 2e-108, 0.0) == [(0.0, 1)]


def test_leading_coefficient_required():
    with pytest.raises(ValueError):
        real_roots(0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 1e200), (1.0, 0.0, -1e110, 1e200),
                                    (1.0, 0.0, 0.0, math.nan)])
def test_cubic_past_the_float_range_is_refused(coeffs):
    # 27 q^2 or 4 p^3 overflows: the discriminant test no longer tells the
    # root patterns apart (these gave a triple root at 0 and a NaN root)
    with pytest.raises(ValueError, match="past the float range"):
        real_roots(*coeffs)


def test_critical_section_cubic_frozen():
    # radicand cubic at the critical level for amplitudes (1.3, 0.9), omega=1:
    # -c3 z^3 - c2 z^2 + i0_crit with c2 = 0.4, c3 = (2/3) 2.2^(-3/2).
    # Double root at -2 z_crit and simple root at +z_crit, values from a
    # 50-digit evaluation of the closed forms.
    c_z2 = 0.4
    c_z3 = (2.0 / 3.0) * 2.2**-1.5
    i0c = 0.88**3 / 3.0
    roots = real_roots(-c_z3, -c_z2, 0.0, i0c)
    by_mult = {mult: r for r, mult in roots}
    assert set(by_mult) == {1, 2}
    assert math.isclose(by_mult[2], -1.3052509337288367, rel_tol=1e-12)
    assert math.isclose(by_mult[1], 0.6526254668644184, rel_tol=1e-12)


def test_near_critical_does_not_lose_roots():
    # just below the critical level the double root splits in two; the
    # total count (with multiplicity) must stay 3
    c_z2 = 0.4
    c_z3 = (2.0 / 3.0) * 2.2**-1.5
    i0c = 0.88**3 / 3.0
    for scale in (0.999999, 0.9999, 0.99):
        roots = real_roots(-c_z3, -c_z2, 0.0, i0c * scale)
        assert sum(mult for _, mult in roots) == 3


def test_residuals_small_at_returned_roots():
    rng = random.Random(7)
    for _ in range(200):
        c3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        c2, c1, c0 = (rng.uniform(-2, 2) for _ in range(3))
        for r, _ in real_roots(c3, c2, c1, c0):
            val = ((c3 * r + c2) * r + c1) * r + c0
            scale = max(abs(c3) * abs(r) ** 3, abs(c2) * r * r, abs(c1) * abs(r), abs(c0), 1e-30)
            assert abs(val) < 1e-10 * scale
