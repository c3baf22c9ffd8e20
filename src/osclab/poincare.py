"""Stroboscopic section curve of the m = 2 trig family and its critical level.

Sampling the motion at t_k = k pi/omega freezes the coefficient at
alpha2 = A + B with alpha2' = 0 and alpha2'' = -4 omega^2 B, so the
invariant collapses to an algebraic curve in the (z, p) plane:

    (A+B) p^2 + omega^2 (A-B) z^2 + (2/3) (A+B)^(-3/2) z^3 = I0.

The admissible z-set is where the radicand of p(z) is nonnegative; its
topology changes at the critical level where the cubic acquires a
double root.  Sections with C != 0 are refused: at t_k the coefficient
derivative alpha2' no longer vanishes there and no comparably simple
curve exists.

With p(0) = 0 the level set through (z0, 0) is this curve at B = R.  Its
level

    i0_of_z0 = omega^2 (A-R) z0^2 + (2/3) (A+R)^(-3/2) z0^3

stays below the critical value

    i0_crit = (1/3) omega^6 (A^2 - R^2)^3

exactly while z0 < z_crit = (omega^2/2) (A-R) (A+R)^(3/2); above it the
bounded lobe of the level set merges with the escape branch and the
motion runs off to z -> -infinity.  R = sqrt(B^2 + C^2): the algebra
starts where alpha2 is at its maximum A + R, so it only sees the
oscillation amplitude of the coefficient, not its phase; the cells of
``osclab.stability.scan`` start there too.  The section curve and
``i0_of_z0`` take their coefficients from one function,
``_level_coefficients``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cubic import real_roots
from .errors import UnsupportedSourceError
from .model import OscillatorSpec, TrigAlpha


@dataclass(frozen=True)
class SectionCurve:
    """Coefficients of c_p2 p^2 + c_z2 z^2 + c_z3 z^3 = I0 plus admissible set.

    ``admissible`` holds closed, disjoint, ascending z-intervals where
    the radicand is >= 0; the leftmost is always unbounded below
    (lo = -inf) because the cubic term dominates for z -> -inf.
    Zero-width intervals mark isolated tangency points.
    """

    c_p2: float
    c_z2: float
    c_z3: float
    I0: float
    admissible: tuple

    def __post_init__(self):
        if not (self.c_p2 > 0.0):
            raise ValueError(f"p^2 coefficient must be positive, got {self.c_p2}")

    def radicand(self, z: float) -> float:
        return (self.I0 - self.c_z2 * z * z - self.c_z3 * z * z * z) / self.c_p2

    def residual_at(self, z: float, p: float) -> float:
        return self.c_p2 * p * p + self.c_z2 * z * z + self.c_z3 * z * z * z - self.I0


def _admissible_intervals(c_z2: float, c_z3: float, I0: float):
    """Closed intervals where I0 - c_z2 z^2 - c_z3 z^3 >= 0 (c_z3 > 0); the last is bounded."""
    roots = real_roots(-c_z3, -c_z2, 0.0, I0)
    intervals = []
    sign = 1  # radicand sign left of the smallest root
    start = -math.inf
    for r, mult in roots:
        if mult % 2 == 1:
            if sign > 0:
                intervals.append((start, r))
            else:
                start = r
            sign = -sign
        elif sign < 0:
            intervals.append((r, r))
        # an even-multiplicity root inside a positive region is interior
    return tuple(intervals)  # the odd multiplicities sum to 1 or 3: the sign ends negative


def _level_coefficients(A: float, B: float, omega: float):
    """(c_p2, c_z2, c_z3) of the strobe curve where alpha2 = A + B, alpha2' = 0."""
    c_p2 = A + B
    return c_p2, omega * omega * (A - B), (2.0 / 3.0) * c_p2 ** -1.5


def section_curve(spec: OscillatorSpec, I0: float) -> SectionCurve:
    """Analytic strobe curve at level I0 for an m = 2, C = 0 trig system."""
    a = spec.g_source
    if not isinstance(a, TrigAlpha):
        raise UnsupportedSourceError("section curves exist only for the trig family")
    if spec.m != 2:
        raise UnsupportedSourceError(f"section curve derived for m=2 only, got m={spec.m}")
    if a.C != 0.0:
        raise UnsupportedSourceError(
            "sections require C = 0: with C != 0 the coefficient derivative "
            "does not vanish at the strobe times"
        )
    c_p2, c_z2, c_z3 = _level_coefficients(a.A, a.B, spec.omega)
    return SectionCurve(
        c_p2=c_p2,
        c_z2=c_z2,
        c_z3=c_z3,
        I0=I0,
        admissible=_admissible_intervals(c_z2, c_z3, I0),
    )


def curve_points(curve: SectionCurve, n: int):
    """(z, +p, -p) samples of the curve over its bounded admissible intervals.

    n points per interval, equally spaced including both endpoints where
    p vanishes up to root-solve roundoff.  The unbounded interval (the
    escape branch open toward z -> -inf) is skipped: it has no finite
    equal-spacing parameterization.  Returns [] when every admissible
    interval is unbounded.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 points per interval, got {n}")
    out = []
    for lo, hi in curve.admissible:
        if math.isinf(lo) or math.isinf(hi):
            continue
        if hi == lo:
            zs = [lo]
        else:
            step = (hi - lo) / (n - 1)
            zs = [lo + k * step for k in range(n - 1)]
            zs.append(hi)
        for z in zs:
            rad = curve.radicand(z)
            if rad < 0.0:
                scale = (abs(curve.I0) + abs(curve.c_z2 * z * z)
                         + abs(curve.c_z3 * z * z * z) + 1e-30) / curve.c_p2
                if rad < -1e-10 * scale:
                    raise ValueError(f"negative radicand {rad} inside admissible interval")
                rad = 0.0
            p = math.sqrt(rad)
            out.append((z, p, -p))
    return out


def curve_loop(curve: SectionCurve, n: int, z_hint: float = None):
    """Closed (z, p) polyline around one bounded lobe, for plotting.

    Picks the bounded interval containing z_hint when given, else the
    first bounded one.  Returns [] if no bounded interval exists.
    """
    chosen = None
    for lo, hi in curve.admissible:
        if math.isinf(lo) or math.isinf(hi):
            continue
        if chosen is None:
            chosen = (lo, hi)
        if z_hint is not None and lo <= z_hint <= hi:
            chosen = (lo, hi)
            break
    if chosen is None:
        return []
    sub = SectionCurve(curve.c_p2, curve.c_z2, curve.c_z3, curve.I0, (chosen,))
    pts = curve_points(sub, n)
    upper = [(z, pp) for z, pp, _ in pts]
    lower = [(z, pm) for z, _, pm in reversed(pts)]
    return upper + lower[1:]


def section_residual(strobe, curve: SectionCurve) -> float:
    """Max relative defect of the rows of a strobe (a ``model.Trajectory``) against the curve."""
    denom = max(abs(curve.I0), 1e-30)
    worst = 0.0
    for z, p in zip(strobe.z.tolist(), strobe.p.tolist()):
        r = abs(curve.residual_at(z, p)) / denom
        if r > worst:
            worst = r
    return worst


def _check_amplitudes(A: float, R: float, omega: float):
    if not all(math.isfinite(v) for v in (A, R, omega)):
        raise ValueError(f"need finite A, R and omega, got A={A}, R={R}, omega={omega}")
    if not (A > R >= 0.0):
        raise ValueError(f"need A > R >= 0, got A={A}, R={R}")
    if not omega > 0.0:
        raise ValueError(f"need omega > 0, got {omega}")


def i0_of_z0(A: float, R: float, omega: float, z0: float) -> float:
    """Invariant level selected by the initial condition (z0, p0=0)."""
    _check_amplitudes(A, R, omega)
    _, c_z2, c_z3 = _level_coefficients(A, R, omega)
    return c_z2 * z0 * z0 + c_z3 * z0 * z0 * z0


def _finite(name: str, value: float, A: float, R: float, omega: float) -> float:
    """value, or ValueError naming the inputs when it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite for A={A}, R={R}, omega={omega}")
    return value


def i0_crit(A: float, R: float, omega: float) -> float:
    """Level where the bounded lobe of the cubic level set vanishes; finite or ValueError."""
    _check_amplitudes(A, R, omega)
    w6 = omega * omega * omega
    w6 *= w6
    aa_rr = A * A - R * R
    return _finite("i0_crit", (w6 * aa_rr * aa_rr * aa_rr) / 3.0, A, R, omega)


def z_crit(A: float, R: float, omega: float) -> float:
    """Largest initial amplitude (p0 = 0) with a bounded level set; finite or ValueError."""
    _check_amplitudes(A, R, omega)
    try:
        zc = 0.5 * omega * omega * (A - R) * (A + R) ** 1.5
    except OverflowError:
        zc = math.inf
    return _finite("z_crit", zc, A, R, omega)
