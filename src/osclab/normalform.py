"""Reduction of a periodic Hill linear part to constant frequency.

Given z'' + f(t) z = 0 with f periodic of period T and stable (the
one-period transfer matrix M has |tr M| < 2), there is a periodic
envelope w(t) = sqrt(beta(t)) > 0 solving w'' + f w = 1/w^3.  The
change of variables

    y = z / w(t),        s = Phi(t) / omega_nf,
    Phi(t) = integral of d tau / w(tau)^2,   omega_nf = Phi(T) / (2 pi)

turns z'' + f(t) z + g(t) z^m = 0 into the constant-frequency form

    d2y/ds2 + omega_nf^2 y + omega_nf^2 g_nf(s) y^m = 0,
    g_nf(s) = g(t(s)) * w(t(s))^(m+3),

with s running through exactly 2 pi per period of f.

Convention note: the pair "Phi as new time" and "reduced frequency
omega_nf" cannot both hold literally; in Phi-time the reduced linear
frequency is always 1.  This module adopts the rescaled time
s = Phi/omega_nf throughout, which keeps the reduced period at 2 pi and
the reduced frequency at omega_nf, consistent with the oscillator
normal form used everywhere else in this package.  See README for the
same statement in user-facing terms.

Both two-component systems are the oscillator field of
``model.PowerForm``, so their runs take the fused Dormand-Prince step:
the Hill equation is the form with w2 = 0, m = 1 and g = f, the reduced
system the form with w2 = omega_nf^2 and g = omega_nf^2 g_nf.  The
envelope run's three-component field has a form of its own,
``_EnvelopeField``, whose fused Dormand-Prince trial step
``integrate_adaptive`` takes in place of the generic one, bit-identical
to it.

The envelope is propagated from monodromy-derived initial values rather
than averaged, so its periodicity defect is a direct quality check and
is carried in the result, which holds each value once: the envelope
samples in its ``env``, the Floquet data in its ``mono``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import spline
from .errors import EnvelopeBlowupError, UnstableHillError
from .integrate import (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64,
                        A65, B1, B3, B4, B5, B6, C2, C3, C4, C5, E1, E3, E4, E5, E6, E7,
                        MAX_GRID_POINTS, AdaptiveConfig, integrate_adaptive)
from .model import PowerForm, check_m

_W_FLOOR = 1e-6
_W_CEIL = 1e6

# tolerance of the fundamental runs, whatever the caller's: for a few
# oscillations per period it keeps the trace error inside monodromy's floor
# margin of 1e-12 (at rtol 1e-12, f = 1 over T = 2 pi, where tr M = 2
# exactly, gave 2 - 1.5e-12 and passed as stable)
_MONO_RTOL, _MONO_ATOL = 1e-13, 1e-15
_ENV_ATOL = 1e-14  # the envelope run's atol; its rtol is the caller's


@dataclass(frozen=True)
class HillSpec:
    """Periodic linear coefficient f(t) with period T (f(t+T) = f(t))."""

    f: Callable
    T: float

    def __post_init__(self):
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"period T must be positive and finite, got {self.T}")


@dataclass(frozen=True)
class MonodromyResult:
    M: np.ndarray
    trace: float
    det: float
    mu: float
    beta0: float
    alphaT: float
    gamma0: float
    n_accepted: int
    n_rejected: int
    field_evals: int


def _fundamental_runs(h: HillSpec):
    """(M, runs): the runs from (1, 0) and (0, 1) over one period, their end states M's columns."""
    field = PowerForm(0.0, 1, h.f, lambda ts: [h.f(t) for t in ts.tolist()])
    cfg = AdaptiveConfig(rtol=_MONO_RTOL, atol=_MONO_ATOL, t_end=h.T, record=False)
    runs = [integrate_adaptive(field, y0, cfg) for y0 in ((1.0, 0.0), (0.0, 1.0))]
    return np.column_stack([run.ys[-1] for run in runs]), runs


def monodromy(h: HillSpec) -> MonodromyResult:
    """Floquet analysis over one period.

    Raises UnstableHillError when |tr M| >= 2 - max(1e-12, 4 |det M - 1|)
    (the degenerate boundary included).  The fundamental runs take the
    fixed tolerance _MONO_RTOL; the margin grows with their error, which
    |det M - 1| measures, so an exactly degenerate system is refused
    however many oscillations a period holds, not passed as spuriously
    stable.  In the stable case the phase advance mu is
    placed in (0, 2 pi) with sin(mu) matching the sign of M[0,1], which
    makes beta0 = M[0,1]/sin(mu) positive.  The step and field
    evaluation counts sum both fundamental runs.
    """
    M, runs = _fundamental_runs(h)
    tr = float(M[0, 0] + M[1, 1])
    det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    # Liouville: det M = 1 exactly, so |det M - 1| is the runs' error.  On
    # an exactly degenerate system (f = omega0^2 over T = 2 pi, omega0 from
    # 0.5 to 20) 2 - |tr M| came out equal to |det M - 1| to two digits, up
    # to 3.3e-12, past the fixed 1e-12; K = 4 refuses those with a factor 4
    # to spare and leaves the bench Hill tables (|det M - 1| ~ 1e-13) at 1e-12
    if abs(tr) >= 2.0 - max(1e-12, 4.0 * abs(det - 1.0)):
        raise UnstableHillError(f"|trace| = {abs(tr)} >= 2: no stable periodic envelope")
    mu = math.acos(0.5 * tr)
    if M[0, 1] < 0.0:
        mu = 2.0 * math.pi - mu
    sin_mu = math.sin(mu)
    beta0 = float(M[0, 1]) / sin_mu
    alphaT = float(M[0, 0] - M[1, 1]) / (2.0 * sin_mu)
    gamma0 = (1.0 + alphaT * alphaT) / beta0
    return MonodromyResult(
        M=M, trace=tr, det=det, mu=mu, beta0=beta0, alphaT=alphaT, gamma0=gamma0,
        n_accepted=sum(run.n_accepted for run in runs),
        n_rejected=sum(run.n_rejected for run in runs),
        field_evals=sum(run.field_evals for run in runs),
    )


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Envelope and phase samples on a uniform t-grid over [0, T]."""

    ts: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    phi: np.ndarray
    defect_w: float
    defect_wp: float
    n_accepted: int
    n_rejected: int
    field_evals: int

    @property
    def phi_T(self) -> float:
        return float(self.phi[-1])


def _below_floor(w, t):
    return EnvelopeBlowupError(f"envelope w = {w} at t = {t} below {_W_FLOOR}")


class _EnvelopeField:
    """The envelope field on (w, w', Phi): (w', 1/w^3 - f(t) w, 1/w^2), refusing w <= _W_FLOOR.

    ``__call__`` is the definition.  ``dp_checked_attempt`` is
    ``integrate._dp_checked_attempt`` of this field fused, which
    ``integrate_adaptive`` takes in its place: the stages, the field and
    the error norm in the operation order of ``_dp_attempt``,
    ``_dp_checked_attempt`` and ``__call__``, the floor check at every
    stage, and f called once per stage time (stages 6 and 7 share
    t + h), so its states, counts, statuses and errors are bit-identical
    to the definition's.  (wi, vi) is the state of stage i and
    (vi, bi, ci) its derivative; the stages' Phi, which the field does
    not read, are not formed.
    """

    def __init__(self, f: Callable):
        self.f = f

    def __call__(self, t, y):
        w, wp, _ = y
        if w <= _W_FLOOR:
            raise _below_floor(w, t)
        w2 = w * w
        return (wp, 1.0 / (w2 * w) - self.f(t) * w, 1.0 / w2)

    def dp_checked_attempt(self, t, y, h, f1, atol, rtol):
        f, isfinite = self.f, math.isfinite
        w, v, p = y
        a1, b1, c1 = f1
        w2 = w + h * (A21 * a1)
        v2 = v + h * (A21 * b1)
        if w2 <= _W_FLOOR:
            raise _below_floor(w2, t + C2 * h)
        sq = w2 * w2
        b2 = 1.0 / (sq * w2) - f(t + C2 * h) * w2
        c2 = 1.0 / sq
        w3 = w + h * (A31 * a1 + A32 * v2)
        v3 = v + h * (A31 * b1 + A32 * b2)
        if w3 <= _W_FLOOR:
            raise _below_floor(w3, t + C3 * h)
        sq = w3 * w3
        b3 = 1.0 / (sq * w3) - f(t + C3 * h) * w3
        c3 = 1.0 / sq
        w4 = w + h * (A41 * a1 + A42 * v2 + A43 * v3)
        v4 = v + h * (A41 * b1 + A42 * b2 + A43 * b3)
        if w4 <= _W_FLOOR:
            raise _below_floor(w4, t + C4 * h)
        sq = w4 * w4
        b4 = 1.0 / (sq * w4) - f(t + C4 * h) * w4
        c4 = 1.0 / sq
        w5 = w + h * (A51 * a1 + A52 * v2 + A53 * v3 + A54 * v4)
        v5 = v + h * (A51 * b1 + A52 * b2 + A53 * b3 + A54 * b4)
        if w5 <= _W_FLOOR:
            raise _below_floor(w5, t + C5 * h)
        sq = w5 * w5
        b5 = 1.0 / (sq * w5) - f(t + C5 * h) * w5
        c5 = 1.0 / sq
        w6 = w + h * (A61 * a1 + A62 * v2 + A63 * v3 + A64 * v4 + A65 * v5)
        v6 = v + h * (A61 * b1 + A62 * b2 + A63 * b3 + A64 * b4 + A65 * b5)
        if w6 <= _W_FLOOR:
            raise _below_floor(w6, t + h)
        sq = w6 * w6
        f6 = f(t + h)
        b6 = 1.0 / (sq * w6) - f6 * w6
        c6 = 1.0 / sq
        wn = w + h * (B1 * a1 + B3 * v3 + B4 * v4 + B5 * v5 + B6 * v6)
        vn = v + h * (B1 * b1 + B3 * b3 + B4 * b4 + B5 * b5 + B6 * b6)
        pn = p + h * (B1 * c1 + B3 * c3 + B4 * c4 + B5 * c5 + B6 * c6)
        if wn <= _W_FLOOR:
            raise _below_floor(wn, t + h)
        sq = wn * wn
        bn = 1.0 / (sq * wn) - f6 * wn
        cn = 1.0 / sq
        ew = h * (E1 * a1 + E3 * v3 + E4 * v4 + E5 * v5 + E6 * v6 + E7 * vn)
        ev = h * (E1 * b1 + E3 * b3 + E4 * b4 + E5 * b5 + E6 * b6 + E7 * bn)
        ep = h * (E1 * c1 + E3 * c3 + E4 * c4 + E5 * c5 + E6 * c6 + E7 * cn)
        y_new, f7 = (wn, vn, pn), (vn, bn, cn)
        if not (isfinite(wn) and isfinite(ew) and isfinite(vn) and isfinite(ev)
                and isfinite(pn) and isfinite(ep)):
            return y_new, f7, math.inf
        # max(|y|, |y_new|) as chained comparisons
        rw = ew / (atol + rtol * (abs(wn) if abs(wn) > abs(w) else abs(w)))
        rv = ev / (atol + rtol * (abs(vn) if abs(vn) > abs(v) else abs(v)))
        rp = ep / (atol + rtol * (abs(pn) if abs(pn) > abs(p) else abs(p)))
        return y_new, f7, math.sqrt((rw * rw + rv * rv + rp * rp) / 3)


def cs_envelope(h: HillSpec, mono: MonodromyResult, n_grid: int = 2001,
                rtol: float = 1e-12) -> EnvelopeResult:
    """Propagate the envelope ODE w'' + f w = 1/w^3 jointly with Phi' = 1/w^2.

    Initial values come from the monodromy Twiss parameters:
    w(0) = sqrt(beta0), w'(0) = -alphaT/sqrt(beta0).  One adaptive run
    over [0, T] takes the grid times j*T/(n_grid-1) (the last exactly T)
    as stops of ``integrate_adaptive``, so each is hit exactly while the
    step size and FSAL stage carry on across them.  EnvelopeBlowupError
    is raised at the first grid time where w has left
    [_W_FLOOR, _W_CEIL].  The one-period defects |w(T)-w(0)|,
    |w'(T)-w'(0)| are returned for quality control.  n_grid outside
    [2, MAX_GRID_POINTS + 1] raises ValueError before any grid time is
    made.  The run takes the caller's rtol and atol _ENV_ATOL.
    """
    if not 2 <= n_grid <= MAX_GRID_POINTS + 1:
        raise ValueError(f"n_grid must be in [2, {MAX_GRID_POINTS + 1}], got {n_grid}")
    w0 = math.sqrt(mono.beta0)
    rows = [(w0, -mono.alphaT / w0, 0.0)]

    def at_stop(t, y):
        if not (_W_FLOOR <= y[0] <= _W_CEIL):
            raise EnvelopeBlowupError(f"envelope w = {y[0]} at t = {t} left the admissible range")
        rows.append(y)

    step = h.T / (n_grid - 1)
    stops = [j * step for j in range(1, n_grid - 1)] + [h.T]
    cfg = AdaptiveConfig(rtol=rtol, atol=_ENV_ATOL, t_end=h.T, record=False)
    run = integrate_adaptive(_EnvelopeField(h.f), rows[0], cfg, stops=stops, at_stop=at_stop)
    ws, wps, phis = np.array(rows).T.copy()
    return EnvelopeResult(
        ts=np.array([0.0] + stops),
        w=ws,
        wp=wps,
        phi=phis,
        defect_w=abs(float(ws[-1]) - float(ws[0])),
        defect_wp=abs(float(wps[-1]) - float(wps[0])),
        n_accepted=run.n_accepted,
        n_rejected=run.n_rejected,
        field_evals=run.field_evals,
    )


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    """Constant-frequency reduction of one Hill system plus nonlinearity.

    Phi, w and w' on the t-grid are read from ``env`` (``env.phi``,
    ``env.w``, ``env.wp`` on ``env.ts``), not copied; g_nf_grid is the
    reduced coefficient on the uniform s_grid over [0, 2 pi].
    ``forward``/``inverse`` map states between the two charts within one
    period (t in [0, T], s in [0, 2 pi]); they use the splines of w(t)
    and t(Phi) that ``reduce`` built for g_nf_grid.
    """

    omega_nf: float
    m: int
    s_grid: np.ndarray
    g_nf_grid: np.ndarray
    mono: MonodromyResult
    env: EnvelopeResult
    _w_spl: spline.Piecewise
    _t_of_phi: spline.Piecewise

    @cached_property
    def _wp_spl(self):
        return spline.not_a_knot(self.env.ts, self.env.wp)

    @cached_property
    def _phi_spl(self):
        return spline.not_a_knot(self.env.ts, self.env.phi)

    def forward(self, z: float, zp: float, t: float):
        """(z, z', t) -> (y, dy/ds, s)."""
        w = float(self._w_spl(t))
        wp = float(self._wp_spl(t))
        s = float(self._phi_spl(t)) / self.omega_nf
        y = z / w
        dyds = self.omega_nf * (zp * w - wp * z)
        return (y, dyds, s)

    def inverse(self, y: float, dyds: float, s: float):
        """(y, dy/ds, s) -> (z, z', t)."""
        phi = self.omega_nf * s
        phi = min(max(phi, float(self.env.phi[0])), self.env.phi_T)
        t = float(self._t_of_phi(phi))
        w = float(self._w_spl(t))
        wp = float(self._wp_spl(t))
        z = y * w
        zp = dyds / (self.omega_nf * w) + wp * y
        return (z, zp, t)


def reduce(h: HillSpec, g: Callable, m: int, n_grid: int = 2001,
           rtol: float = 1e-12) -> NormalFormResult:
    """Full reduction: monodromy, envelope, frequency, and g_nf on [0, 2 pi].

    g is evaluated at the grid preimages t(s); the reduced coefficient
    carries the envelope factor w^(m+3).  rtol sets the envelope run
    only (its atol is _ENV_ATOL): the monodromy always runs at its own
    tolerance (see ``monodromy``).  The result keeps both as-is, in
    ``env`` and ``mono``.
    """
    check_m(m)
    mono = monodromy(h)
    env = cs_envelope(h, mono, n_grid=n_grid, rtol=rtol)
    omega_nf = env.phi_T / (2.0 * math.pi)

    # Phi is strictly increasing, so the monotone interpolant of the
    # swapped grid inverts it without overshoot
    t_of_phi = spline.pchip(env.phi, env.ts)
    w_spl = spline.not_a_knot(env.ts, env.w)

    n = n_grid
    s_grid = np.array([j * (2.0 * math.pi) / (n - 1) for j in range(n)])
    phi_query = np.minimum(omega_nf * s_grid, env.phi_T)
    t_query = np.asarray(t_of_phi(phi_query), dtype=float)
    w_query = np.asarray(w_spl(t_query), dtype=float)
    g_vals = np.array([float(g(t)) for t in t_query])
    g_nf = g_vals * w_query ** (m + 3)

    return NormalFormResult(
        omega_nf=omega_nf,
        m=m,
        s_grid=s_grid,
        g_nf_grid=g_nf,
        mono=mono,
        env=env,
        _w_spl=w_spl,
        _t_of_phi=t_of_phi,
    )


def make_reduced_field(res: NormalFormResult) -> PowerForm:
    """Field of the reduced system in s-time, for cross-checks.

    State (y, dy/ds): the ``PowerForm`` with w2 = omega_nf^2 and
    coefficient omega_nf^2 g_nf(s), g_nf from a cubic spline over the
    stored samples (exact for constant g_nf).
    """
    g_spl = spline.not_a_knot(res.s_grid, res.g_nf_grid)
    wnf2 = res.omega_nf * res.omega_nf
    return PowerForm(wnf2, res.m, lambda s: wnf2 * float(g_spl(s)),
                     lambda ss: (wnf2 * g_spl(ss)).tolist())
