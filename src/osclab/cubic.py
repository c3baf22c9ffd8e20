"""Closed-form real-root solver for cubics with one Newton polish pass.

The level sets of the stroboscopic invariant lead to cubics whose
discriminant passes through zero exactly at the stability boundary, so
the solver must stay accurate in the double-root configuration where
iterative root finders stall.  Strategy by discriminant sign on the
depressed cubic t^3 + p t + q:

* clearly positive: three real roots by the trigonometric method;
* clearly negative: one real root by a cancellation-free Cardano form;
* near zero: the explicit double/triple root formulas.

Every root then gets one Newton step on the original cubic, skipped
when the derivative there is tiny (multiple roots are already exact).
"""

from __future__ import annotations

import math

# Relative discriminant size below which the root pattern is treated as
# degenerate; roundoff in the critical configuration lands around 1e-16.
_DEGENERATE = 1e-12


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(c3, c2, c1, c0, x, scale):
    f = ((c3 * x + c2) * x + c1) * x + c0
    fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
    if abs(fp) <= 1e-8 * scale:
        return x
    return x - f / fp


def real_roots(c3: float, c2: float, c1: float, c0: float):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, ascending, with multiplicity.

    Returns a list of (root, multiplicity) pairs; multiplicities over
    all real roots sum to 1 or 3.  Requires c3 != 0, and refuses with
    ValueError a cubic past the float range (|q| > 1e153 or |p| > 1e102).
    """
    if c3 == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b * b * b / 27.0

    four_p3 = 4.0 * p * p * p
    disc = -four_p3 - 27.0 * q * q
    size = abs(four_p3) + 27.0 * q * q

    deriv_scale = abs(c3) + abs(c2) + abs(c1) + 1e-300

    if size == 0.0:
        # p = q = 0: triple root of the depressed cubic
        return [(-shift, 3)]
    if not math.isfinite(size):
        raise ValueError(f"cubic ({c3}, {c2}, {c1}, {c0}) is past the float range of the solver")

    if abs(disc) <= _DEGENERATE * size:
        # p != 0 here: with p = 0, |disc| = 27 q^2 = size
        double = -3.0 * q / (2.0 * p) - shift
        simple = 3.0 * q / p - shift
        simple = _polish(c3, c2, c1, c0, simple, deriv_scale)
        if double <= simple:
            return [(double, 2), (simple, 1)]
        return [(simple, 1), (double, 2)]

    if disc > 0.0:
        # three distinct real roots; p < 0 is guaranteed here
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * r)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg)
        roots = sorted(
            r * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)
        )
        return [(_polish(c3, c2, c1, c0, x, deriv_scale), 1) for x in roots]

    # one real root; the sign-split form avoids subtractive cancellation
    s = math.sqrt(q * q / 4.0 + p * p * p / 27.0)
    if q >= 0.0:
        u = _cbrt(-q / 2.0 - s)
    else:
        u = _cbrt(-q / 2.0 + s)
    if u == 0.0:
        t = 0.0
    else:
        t = u - p / (3.0 * u)
    return [(_polish(c3, c2, c1, c0, t - shift, deriv_scale), 1)]
