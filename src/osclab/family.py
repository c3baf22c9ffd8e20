"""Five-parameter integrable family for the quadratic nonlinearity (m = 2).

Here the coefficient alpha2(t) is not closed-form: it solves

    alpha2''' + 4 omega^2 alpha2' - 2 alpha1(t) alpha2^(-5/2) = 0,
    alpha1(t) = (1/2) C1 cos(omega t) + (1/2) C2 sin(omega t),

a third-order nonlinear ODE, so three initial values (alpha2, alpha2',
alpha2'') join the two driving constants (C1, C2) to make five free
parameters.  g(t) = alpha2(t)^(-5/2) as always.

alpha2 is carried inside the integration state (a 5-component system
z, p, alpha2, alpha2', alpha2'') rather than precomputed on a grid:
the oscillator needs g at every internal stage time, and joint
integration keeps interpolation error out of the invariant test.

With C1 = C2 = 0 the coefficient ODE becomes linear and its solution is
exactly the trig family; ``to_trig_alpha`` maps initial values to
(A, B, C) for that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientSingularError
from .integrate import AdaptiveConfig, integrate_adaptive
from .model import EPS_POS, OscillatorSpec, TrigAlpha, g_exponent, json_number, json_numbers


@dataclass(frozen=True)
class FiveParamSpec:
    """Driving constants and initial coefficient values at t = 0."""

    omega: float
    C1: float
    C2: float
    alpha2_0: float
    alpha2p_0: float
    alpha2pp_0: float

    def __post_init__(self):
        for name in ("omega", "C1", "C2", "alpha2_0", "alpha2p_0", "alpha2pp_0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (self.alpha2_0 > EPS_POS):
            raise ValueError(f"alpha2(0) must exceed {EPS_POS}, got {self.alpha2_0}")


def fiveparam_from_json(obj: dict) -> FiveParamSpec:
    try:
        a20, a2p0, a2pp0 = json_numbers(obj["alpha2"])
        return FiveParamSpec(
            omega=json_number(obj["omega"]),
            C1=json_number(obj["C1"]),
            C2=json_number(obj["C2"]),
            alpha2_0=a20,
            alpha2p_0=a2p0,
            alpha2pp_0=a2pp0,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed five-parameter spec: {exc}") from exc


def to_trig_alpha(fp: FiveParamSpec) -> TrigAlpha:
    """Closed-form (A, B, C) matching the initial values when C1 = C2 = 0."""
    if fp.C1 != 0.0 or fp.C2 != 0.0:
        raise ValueError("the trig closed form requires C1 = C2 = 0")
    four_w2 = 4.0 * fp.omega * fp.omega
    A = fp.alpha2_0 + fp.alpha2pp_0 / four_w2
    B = -fp.alpha2pp_0 / four_w2
    C = fp.alpha2p_0 / (2.0 * fp.omega)
    return TrigAlpha(A=A, B=B, C=C, omega=fp.omega)


def alpha1_eval(fp: FiveParamSpec, t):
    """alpha1(t) and its derivative, both in closed form; t a float or an array.

    Every five-parameter field call runs this, so a float t stays on math.
    """
    wt = fp.omega * t
    if isinstance(wt, float):
        c, s = math.cos(wt), math.sin(wt)
    else:
        c, s = np.cos(wt), np.sin(wt)
    al1 = 0.5 * (fp.C1 * c + fp.C2 * s)
    al1p = 0.5 * fp.omega * (fp.C2 * c - fp.C1 * s)
    return (al1, al1p)


def make_augmented_field(fp: FiveParamSpec):
    """Joint derivatives of (z, p, alpha2, alpha2', alpha2'') as a closure.

    This is the one definition of the coefficient ODE: the integrator
    runs it, and osclab.invariant reads alpha2''' from it.  The driving
    bracket 2*alpha1(t) always comes through alpha1_eval.
    """
    w2 = fp.omega * fp.omega
    four_w2 = 4.0 * w2
    ex = g_exponent(2)

    def field(t, y):
        z, p, a2, a2p, a2pp = y
        if a2 <= EPS_POS:
            raise CoefficientSingularError(f"alpha2(t={t}) = {a2} <= {EPS_POS}")
        g = a2 ** ex
        al1, _ = alpha1_eval(fp, t)
        a2ppp = -four_w2 * a2p + 2.0 * al1 * g
        return (p, -w2 * z - g * (z * z), a2p, a2pp, a2ppp)

    return field


def alpha2_at(fp: FiveParamSpec, t: float):
    """(alpha2, alpha2', alpha2'') at time t >= 0 by direct integration.

    Each call integrates the coefficient ODE from t = 0, at rtol 1e-12
    and atol 1e-14, so this is a diagnostic path; production runs carry
    alpha2 in the joint state.
    """
    if t < 0.0:
        raise ValueError("the coefficient state is defined by forward integration from t = 0")
    y0 = (fp.alpha2_0, fp.alpha2p_0, fp.alpha2pp_0)
    if t == 0.0:
        return y0
    # pad with two dummy oscillator components to satisfy the integrator
    field = make_augmented_field(fp)
    cfg = AdaptiveConfig(rtol=1e-12, atol=1e-14, t_end=t, record=False)
    traj = integrate_adaptive(field, (0.0, 0.0) + y0, cfg)
    if traj.status != "completed":
        raise CoefficientSingularError(f"coefficient ODE terminated with status {traj.status}")
    a2, a2p, a2pp = traj.ys[-1, 2:]
    return (float(a2), float(a2p), float(a2pp))


def integrate_family(
    fp: FiveParamSpec,
    z0: float,
    p0: float,
    t_end: float,
    rtol: float = 1e-12,
    atol: float = 1e-12,
    escape_bound: float = math.inf,
):
    """Integrate the joint system and report invariant drift.

    Returns (Trajectory, DriftReport).  The invariant uses the alpha2
    columns carried in the state.  When the initial invariant is exactly
    zero (for example z0 = p0 = 0) ``drift`` reports the absolute
    deviation, flagged by report.mode.
    """
    from .invariant import drift  # here, not at the top: invariant imports this module

    field = make_augmented_field(fp)
    y0 = (z0, p0, fp.alpha2_0, fp.alpha2p_0, fp.alpha2pp_0)
    cfg = AdaptiveConfig(rtol=rtol, atol=atol, t_end=t_end, escape_bound=escape_bound)
    traj = integrate_adaptive(field, y0, cfg)
    spec = OscillatorSpec(omega=fp.omega, m=2, g_source=fp)
    return traj, drift(traj, spec)
