"""Quadratic first integral I = a0(z,t) + a1(z,t) p + a2(z,t) p^2.

For the trig coefficient family (any integer m >= 2) and for the
five-parameter m = 2 family the coefficient functions are

    a2(z,t) = alpha2(t)
    a1(z,t) = -alpha2'(t) z + alpha1(t)
    a0(z,t) = omega^2 alpha2 z^2 + (2/(m+1)) alpha2 g z^(m+1)
              - alpha1'(t) z + (1/2) alpha2''(t) z^2

with alpha1 identically zero except in the five-parameter case.  The
additive constant alpha0 is fixed to zero: the defining relations only
force alpha0' = 0, and a constant shifts every level set equally.

This module evaluates I, measures its drift along trajectories, and
verifies the four defining relations

    -a1 (z f + z^m g) + da0/dt                 = 0
    -2 a2 (z f + z^m g) + da0/dz + da1/dt      = 0
    da1/dz + da2/dt                            = 0
    da2/dz                                     = 0

with the constant linear coefficient f = omega^2 hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import family  # which imports this module only inside integrate_family
from .errors import UnsupportedSourceError
from .model import (
    OscillatorSpec,
    Sampled,
    State,
    Trajectory,
    TrigAlpha,
    g_exponent,
    int_pow,
    trig_alpha2_eval,
)


def build_coeffs(spec: OscillatorSpec) -> OscillatorSpec:
    """The spec itself, once it is known to carry an invariant.

    ``_coeffs`` applies this check, so every function below refuses a
    spec outside the catalogue with UnsupportedSourceError.
    """
    src = spec.g_source
    if isinstance(src, TrigAlpha):
        return spec
    if isinstance(src, Sampled):
        raise UnsupportedSourceError("a sampled g(t) carries no known invariant")
    if isinstance(src, family.FiveParamSpec):
        if spec.m != 2:
            raise UnsupportedSourceError(
                f"the five-parameter coefficient family exists only for m=2, got m={spec.m}"
            )
        return spec
    raise UnsupportedSourceError(f"unknown g source {type(src).__name__}")


def _coeffs(spec: OscillatorSpec, t, ys=None):
    """(a2, d1, d2, al1, al1p, g) at t, a float or an array of times.

    The only source of the invariant's coefficients.  Trig sources use
    the closed form.  A five-parameter source reads alpha2 and its two
    derivatives from columns 2..4 of the states ys when they are given
    (one row per time), and integrates them with alpha2_at otherwise.
    A spec outside the catalogue raises ``build_coeffs``'s error.
    """
    build_coeffs(spec)
    src = spec.g_source
    if isinstance(src, TrigAlpha):
        a2, d1, d2, _ = trig_alpha2_eval(src, t)
        al1 = al1p = 0.0
    else:
        if ys is None:
            a2, d1, d2 = family.alpha2_at(src, t)
        elif ys.shape[1] < 5:
            raise ValueError("five-parameter invariant needs the augmented (5-column) state")
        else:
            a2, d1, d2 = ys[:, 2], ys[:, 3], ys[:, 4]
        al1, al1p = family.alpha1_eval(src, t)
    return (a2, d1, d2, al1, al1p, a2 ** g_exponent(spec.m))


def _invariant(spec: OscillatorSpec, t, z, p, ys=None):
    """I at (z, p, t), for floats or for arrays of equal length alike."""
    m = spec.m
    w2 = spec.omega * spec.omega
    a2, d1, d2, al1, al1p, g = _coeffs(spec, t, ys)
    return (
        a2 * p * p
        + (al1 - d1 * z) * p
        + (w2 * a2 + 0.5 * d2) * z * z
        + (2.0 / (m + 1)) * a2 * g * z ** (m + 1)
        - al1p * z
    )


def eval_invariant(spec: OscillatorSpec, s: State) -> float:
    return _invariant(spec, s.t, s.z, s.p)


def _walk(traj: Trajectory, block) -> np.ndarray:
    """block(ts, ys) on each of ``traj.blocks()`` in order, into one array."""
    out, i = np.empty(len(traj)), 0
    for ts, ys in traj.blocks():
        out[i:i + len(ts)] = block(ts, ys)
        i += len(ts)
    return out


def invariant_series(spec: OscillatorSpec, traj: Trajectory) -> np.ndarray:
    """I(t) along a whole trajectory, vectorized.

    ``_invariant`` runs on ``traj.blocks()`` one at a time (``_walk``), so
    the temporaries of its formula stay a fixed size rather than growing
    with the run.  Every element takes the same operations in the same
    order as in one whole-array call, so the series is bit-identical to
    it.  A five-parameter source requires the augmented trajectory,
    whose columns 2..4 carry alpha2 and its two derivatives.
    """
    return _walk(traj, lambda ts, ys: _invariant(spec, ts, ys[:, 0], ys[:, 1], ys))


@dataclass(frozen=True)
class DriftReport:
    """Invariant drift along one trajectory.

    mode "relative": series = I/I0 - 1 and max_rel = max |series|.
    mode "absolute": series = I - I0 (used when I0 is exactly zero, for
    example the rest solution); max_rel then holds the absolute bound.
    """

    mode: str
    max_rel: float
    ts: np.ndarray
    series: np.ndarray


class DriftSeries:
    """I/I0 - 1, or I - I0 when |I0| < 1e-300 (say, at rest), of a run's
    rows fed in the blocks (ts, ys) it hands out, from the start row: an
    ``integrate_fixed`` sink or ``Trajectory.blocks()``.  Every value is
    bit-identical to the whole-array one, however the rows are cut.
    ``max_rel`` is max |series| once all are fed.
    """

    def __init__(self, spec: OscillatorSpec):
        self.spec, self.i0, self.hi, self.lo = spec, None, -np.inf, np.inf

    def __call__(self, ts, ys) -> np.ndarray:
        s = _invariant(self.spec, ts, ys[:, 0], ys[:, 1], ys)
        if self.i0 is None:
            self.i0 = float(s[0])
            self.mode = "absolute" if abs(self.i0) < 1e-300 else "relative"
        if self.mode == "relative":
            s /= self.i0  # in place: rounds as the two whole-array operations would
            s -= 1.0
        else:
            s -= self.i0
        self.hi, self.lo = np.maximum(self.hi, s.max()), np.minimum(self.lo, s.min())
        return s

    @property
    def max_rel(self) -> float:  # NaN if any value is NaN
        return max(float(self.hi), -float(self.lo))


def drift(traj: Trajectory, spec: OscillatorSpec) -> DriftReport:
    """The report of ``DriftSeries`` along a whole trajectory, fed by ``_walk``."""
    d = DriftSeries(spec)
    series = _walk(traj, d)
    return DriftReport(mode=d.mode, max_rel=d.max_rel, ts=traj.ts, series=series)


def drift_absolute(traj: Trajectory, spec: OscillatorSpec) -> DriftReport:
    series = invariant_series(spec, traj)
    series -= float(series[0])
    return DriftReport("absolute", max(float(series.max()), -float(series.min())), traj.ts, series)


def _parts(spec: OscillatorSpec, t: float):
    """(a2, d1, d2, d3, al1, al1p, al1pp, g, gp) at one time t.

    d3 comes from the definition of each family: the trig closed form,
    or the five-parameter field the integrator runs.  So the residuals
    cancel identically only if that definition is consistent.
    """
    src = spec.g_source
    a2, d1, d2, al1, al1p, g = _coeffs(spec, t)
    if isinstance(src, TrigAlpha):
        d3 = trig_alpha2_eval(src, t)[3]
    else:
        d3 = family.make_augmented_field(src)(t, (0.0, 0.0, a2, d1, d2))[4]
    ex = g_exponent(spec.m)
    gp = ex * a2 ** (ex - 1.0) * d1
    return (a2, d1, d2, d3, al1, al1p, -(spec.omega * spec.omega) * al1, g, gp)


def _residuals(m, omega, z, a2, d1, d2, d3, al1, al1p, al1pp, g, gp):
    """The four defining relations, assembled term by term.

    Split out from pde_residual so tests can feed deliberately
    inconsistent parts (say, g evaluated from a perturbed coefficient)
    and watch the residuals move away from zero.
    """
    w2 = omega * omega
    zm = int_pow(z, m)
    zm1 = zm * z
    force = z * w2 + zm * g
    a1 = -d1 * z + al1
    da0_dt = (
        w2 * d1 * z * z
        + (2.0 / (m + 1)) * zm1 * (d1 * g + a2 * gp)
        - al1pp * z
        + 0.5 * d3 * z * z
    )
    da0_dz = 2.0 * w2 * a2 * z + 2.0 * a2 * g * zm - al1p + d2 * z
    da1_dt = -d2 * z + al1p
    da1_dz = -d1
    da2_dt = d1
    da2_dz = 0.0
    r_t = -a1 * force + da0_dt
    r_mixed = -2.0 * a2 * force + da0_dz + da1_dt
    r_shear = da1_dz + da2_dt
    r_p3 = da2_dz
    return (r_t, r_mixed, r_shear, r_p3)


def pde_residual(spec: OscillatorSpec, z: float, t: float):
    """Residuals of the four defining relations at one point (z, t).

    All four vanish up to roundoff for a correctly constructed
    invariant; their weighted sum r_t + r_mixed p + r_shear p^2 + r_p3 p^3
    is the total time derivative of I along the flow.
    """
    a2, d1, d2, d3, al1, al1p, al1pp, g, gp = _parts(spec, t)
    return _residuals(spec.m, spec.omega, z, a2, d1, d2, d3, al1, al1p, al1pp, g, gp)
