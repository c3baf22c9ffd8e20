"""Cubic interpolation on knot arrays: periodic and not-a-knot splines and PCHIP.

Each constructor finds the first derivatives s at the knots and hands
them to one Hermite-to-power-basis step, which gives the coefficients
``c[4, n-1]`` of c0 d^3 + c1 d^2 + c2 d + c3 with d = t - x[i] on
[x[i], x[i+1]].  ``Piecewise`` evaluates them.

* ``periodic``: the spline with matching first and second derivatives
  at both ends.  The (n-1) x (n-1) cyclic system is condensed to a
  tridiagonal (n-2) system solved for two right-hand sides and joined
  by a rank-one correction.
* ``not_a_knot``: a continuous third derivative at x[1] and x[n-2];
  a tridiagonal system.
* ``pchip``: the monotone piecewise cubic Hermite interpolant of
  Fritsch & Carlson (SINUM 17(2), 1980) with the weighted harmonic mean
  of Fritsch & Butland (SIAM J. Sci. Stat. Comput. 5(2), 1984) and the
  shape-preserving one-sided end derivatives of Moler's ``pchiptx``.

The operations keep the order of the ``CubicSpline`` and
``PchipInterpolator`` classes that tests/test_spline.py compares
against, and the tridiagonal solves are LAPACK ``gtsv`` without row
interchanges.  gtsv makes none on uniform grids, so there the
coefficients are the reference's bit for bit; on other grids they agree
to rounding.  PCHIP has no solve and agrees bit for bit on any grid.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class Piecewise:
    """Piecewise cubic with coefficients ``c[4, n-1]`` on the knots ``x``.

    Called with a float it returns a float; called with an array it
    returns an array, equal element by element to the float calls.
    t beyond the knots is taken by the end piece, or with
    ``periodic=True`` first mapped to x[0] + (t - x[0]) mod (x[-1] - x[0]).
    """

    def __init__(self, x: np.ndarray, c: np.ndarray, periodic: bool = False):
        self.x = x
        self.c = c
        self.periodic = periodic
        self._xs = x.tolist()
        self._rows = [tuple(row) for row in c.T.tolist()]
        self._last = len(self._xs) - 2

    def __call__(self, t):
        # an exact float, the hot case, skips the isinstance dispatch
        if type(t) is not float:
            if not isinstance(t, (float, int)):
                return self._array(np.asarray(t, dtype=float))
            t = float(t)
        xs = self._xs
        if self.periodic:
            t = xs[0] + (t - xs[0]) % (xs[-1] - xs[0])
        # the index clamped to [0, last] as comparisons
        i = bisect_right(xs, t) - 1
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        c0, c1, c2, c3 = self._rows[i]
        d = t - xs[i]
        d2 = d * d
        # the reference evaluator's ascending power sum, starting from 0.0
        return 0.0 + c3 + c2 * d + c1 * d2 + c0 * (d2 * d)

    def _array(self, t: np.ndarray) -> np.ndarray:
        x = self.x
        if self.periodic:
            t = x[0] + (t - x[0]) % (x[-1] - x[0])
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, self._last)
        c0, c1, c2, c3 = self.c[:, i]
        d = t - x[i]
        d2 = d * d
        return 0.0 + c3 + c2 * d + c1 * d2 + c0 * (d2 * d)


def _knots(x, y):
    """Validated float arrays x, y and the interval widths and slopes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("need 1-D knots and values of one length, at least 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("knots and values must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0.0):
        raise ValueError("knots must be strictly increasing")
    return x, y, dx, np.diff(y) / dx


def _hermite(x, y, dx, slope, s, periodic=False) -> Piecewise:
    """Power-basis coefficients of the cubic Hermite interpolant with slopes s."""
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    return Piecewise(x, c, periodic)


def _tridiagonal(dl, d, du, b) -> np.ndarray:
    """Solve the system with sub-, main and superdiagonals dl, d, du by elimination without pivoting."""
    dl, d, du, b = dl.tolist(), d.tolist(), du.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)


def not_a_knot(x, y) -> Piecewise:
    """Cubic spline with the not-a-knot end conditions; linear for 2 knots, a parabola for 3."""
    x, y, dx, slope = _knots(x, y)
    n = len(x)
    if n == 2:
        s = np.array([slope[0], slope[0]])
    elif n == 3:
        # both conditions coincide: the parabola through the three points
        curv = 2 * (slope[1] - slope[0]) / (x[2] - x[0])
        s = np.array([slope[0] - 0.5 * curv * dx[0], slope[0] + 0.5 * curv * dx[0],
                      slope[1] + 0.5 * curv * dx[1]])
    else:
        d = np.empty(n)
        du = np.empty(n - 1)
        dl = np.empty(n - 1)
        b = np.empty(n)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du[1:] = dx[:-1]
        dl[:-1] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        span = x[2] - x[0]
        d[0] = dx[1]
        du[0] = span
        b[0] = ((dx[0] + 2 * span) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / span
        span = x[-1] - x[-3]
        d[-1] = dx[-2]
        dl[-1] = span
        b[-1] = (dx[-1] * dx[-1] * slope[-2] + (2 * span + dx[-1]) * dx[-2] * slope[-1]) / span
        s = _tridiagonal(dl, d, du, b)
    return _hermite(x, y, dx, slope, s)


def periodic(x, y) -> Piecewise:
    """Periodic cubic spline; needs at least 4 knots and y[0] == y[-1]."""
    x, y, dx, slope = _knots(x, y)
    n = len(x)
    if n < 4:
        raise ValueError("a periodic spline needs at least 4 knots")
    if y[0] != y[-1]:
        raise ValueError(f"a periodic spline needs y[0] == y[-1], got {y[0]!r} and {y[-1]!r}")
    # rows 0..n-2 of the cyclic system for s[0..n-2] (s[n-1] = s[0]); the
    # condensed system keeps rows and columns 0..n-3
    m = n - 2
    d = np.concatenate(([2 * (dx[-1] + dx[0])], (2 * (dx[:-1] + dx[1:]))[:m - 1]))
    du = np.concatenate(([dx[-1]], dx[:m - 2]))
    dl = dx[1:m]
    b = np.empty(n - 1)
    b[1:] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = 3 * (dx[0] * slope[-1] + dx[-1] * slope[0])
    b[-1] = 3 * (dx[-1] * slope[-2] + dx[-2] * slope[-1])
    e = np.zeros(m)
    e[0] = -dx[0]
    e[-1] = -dx[-3]
    s1 = _tridiagonal(dl, d, du, b[:m])
    s2 = _tridiagonal(dl, d, du, e)
    # the last row, with the corner entries, fixes s[n-2]
    s_last = ((b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
              / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty(n)
    s[:-2] = s1 + s_last * s2
    s[-2] = s_last
    s[-1] = s[0]
    return _hermite(x, y, dx, slope, s, periodic=True)


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end derivative, clipped to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def pchip(x, y) -> Piecewise:
    """Monotone piecewise cubic Hermite interpolant; linear for 2 knots."""
    x, y, dx, slope = _knots(x, y)
    if len(x) == 2:
        return _hermite(x, y, dx, slope, np.array([slope[0], slope[0]]))
    sgn = np.sign(slope)
    flat = (sgn[1:] != sgn[:-1]) | (slope[1:] == 0) | (slope[:-1] == 0)
    w1 = 2 * dx[1:] + dx[:-1]
    w2 = dx[1:] + 2 * dx[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / slope[:-1] + w2 / slope[1:]) / (w1 + w2)
    s = np.zeros_like(y)
    s[1:-1][~flat] = 1.0 / whmean[~flat]
    s[0] = _pchip_end(dx[0], dx[1], slope[0], slope[1])
    s[-1] = _pchip_end(dx[-1], dx[-2], slope[-1], slope[-2])
    return _hermite(x, y, dx, slope, s)
