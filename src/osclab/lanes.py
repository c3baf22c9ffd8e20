"""Lock-step lanes: many independent initial value problems stepped at once as numpy arrays.

``integrate_lanes`` runs the Dormand-Prince 5(4) pair of
``integrate.integrate_adaptive`` (``DP54``), or Dormand-Prince 8(5,3)
(``DOP853``), over many independent problems at once, as numpy lanes
that step in lock-step, each with its own step control (Hairer, Norsett
& Wanner, Solving ODEs I, sections II.4 and II.10).  Lanes pay per numpy
call, not per field evaluation, so the stability scan takes DOP853:
twice the stages, a few times fewer steps.  For the same reason the
lanes take their field as a ``LaneForm`` (``make_lane_field`` makes the
trig one): its time part g is evaluated at all stage times of a trial
step in one pass, and each stage then only applies its state part.

The DP5(4) tableau, the step factor constants and the step budget are
those of ``osclab.integrate``; the budget ``integrate.MAX_STEPS`` is
read at each call.  The DOP853 tableau (``_D8_*``) holds the float
values of scipy's ``integrate/_ivp/dop853_coefficients.py`` (a test
checks them bit for bit); its error norm is scipy's, and its step factor
0.9*err^(-1/8) has the clamps of DP5(4).  Its field at the new state is
FSAL too, so an accepted step costs twelve field evaluations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import integrate
from .errors import StepBudgetError
from .integrate import (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64,
                        A65, B1, B3, B4, B5, B6, C2, C3, C4, C5, DP_EVALS, DP_NAME, E1, E3, E4,
                        E5, E6, E7, FAC_MAX, FAC_MIN, SAFETY, AdaptiveConfig)
from .model import EPS_POS, TrigAlpha, alpha2_grid, g_exponent, int_pow


@dataclass(frozen=True)
class LaneForm:
    """A lane field split into a time part and a state part: the field of ``integrate_lanes``.

    ``g_stages(ts, params)`` takes times ts (stages, lanes) and returns
    the time part g over them, row by row, and a (lanes,) mask of the
    lanes singular at any of their times; ``deriv(g, y, params)`` is the
    (n, lanes) derivative at states y given one row of g.  A lane attempt
    calls ``g_stages`` once on all its stage times, then ``deriv`` per
    stage; calling the form gives (derivative, singular) at one time per
    lane.  Any lane ODE fits: its g can be the stage times themselves.
    """

    g_stages: Callable
    deriv: Callable

    def __call__(self, t, y, params):
        g, singular = self.g_stages(t[None], params)
        return self.deriv(g[0], y, params), singular


def make_lane_field(specs):
    """The trig field of ``model.make_field`` vectorised over lanes, one lane per spec.

    Returns (form, params): a LaneForm and the per-lane constants
    (2 omega, -omega^2) as a (2, lanes) array.  The form's g is
    alpha2^(-(m+3)/2), and its singular mask flags the lanes where
    alpha2 <= EPS_POS, which ``make_field`` refuses with
    CoefficientSingularError.  A caller that drops lanes drops the same
    columns of params (see ``integrate_lanes``).

    The specs must share A, B, C and m; only omega may vary.  Each lane
    repeats the operations of ``make_field`` in the same order, with
    alpha2 from ``alpha2_grid``, so alpha2 is bit-identical to the
    scalar one.  The power is numpy's, which rounds apart from float
    ``**`` on about 5 % of arguments, so a lane's p' may differ from the
    scalar field's by a few ulps.  numpy's cos and power round an element
    alike at any position and in any shape of array, so g over many stage
    times at once equals g at each of them alone.
    """
    specs = tuple(specs)
    if not specs or not all(isinstance(s.g_source, TrigAlpha) for s in specs):
        raise ValueError("lane fields need at least one spec, all of the trig family")
    a, m = specs[0].g_source, specs[0].m
    A, B, C = a.A, a.B, a.C
    if any((s.g_source.A, s.g_source.B, s.g_source.C, s.m) != (A, B, C, m) for s in specs):
        raise ValueError("lane specs must share A, B, C and m")
    ex = g_exponent(m)
    # -omega^2 is negated once here, not at every stage: the bits of -w2 * z stay
    params = np.array([[2.0 * s.omega for s in specs], [-(s.omega * s.omega) for s in specs]])

    def g_stages(ts, params):
        a2 = alpha2_grid(A, B, C, params[0], ts)
        return a2 ** ex, (a2 <= EPS_POS).any(axis=0)

    def deriv(g, y, params):
        z = y[0]
        dy = np.empty_like(y)
        dy[0] = y[1]
        dy[1] = params[1] * z - g * int_pow(z, m)
        return dy

    return LaneForm(g_stages, deriv), params


_DP_NODES = np.array([C2, C3, C4, C5, 1.0])


def _dp_lane_attempt(form, t, y, h, f1, params, atol, rtol):
    """``integrate._dp_checked_attempt`` on lane arrays, plus the lanes singular at any stage.

    Stages 6 and 7 share the time t + h, so g is evaluated at five times.
    """
    gs, singular = form.g_stages(t + _DP_NODES[:, None] * h, params)
    deriv = form.deriv
    f2 = deriv(gs[0], y + h * (A21 * f1), params)
    f3 = deriv(gs[1], y + h * (A31 * f1 + A32 * f2), params)
    f4 = deriv(gs[2], y + h * (A41 * f1 + A42 * f2 + A43 * f3), params)
    f5 = deriv(gs[3], y + h * (A51 * f1 + A52 * f2 + A53 * f3 + A54 * f4), params)
    f6 = deriv(gs[4], y + h * (A61 * f1 + A62 * f2 + A63 * f3 + A64 * f4 + A65 * f5),
               params)
    y_new = y + h * (B1 * f1 + B3 * f3 + B4 * f4 + B5 * f5 + B6 * f6)
    f7 = deriv(gs[4], y_new, params)
    errs = h * (E1 * f1 + E3 * f3 + E4 * f4 + E5 * f5 + E6 * f6 + E7 * f7)
    finite = np.isfinite(y_new).all(axis=0) & np.isfinite(errs).all(axis=0)
    r = errs / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
    err = np.where(finite, np.sqrt((r * r).sum(axis=0) / len(y)), np.inf)
    return y_new, f7, err, singular


# Dormand-Prince 8(5,3), the values of scipy's integrate/_ivp/dop853_coefficients.py.
# Stages k0..k11 (k0 = f at the step's start): _D8_C[i] and _D8_A[i] give
# the node and the nonzero {j: a_j} of stage i + 1; B and the 5th and 3rd
# order error weights E5 and E3 are {j: weight} over the same stages.
_D8_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
         0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
         0.8571428571428571, 1.0)
_D8_A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
)
_D8_B = {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259}
_D8_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
          7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
          10: 0.08192320648511571, 11: -0.022355307863886294}
_D8_E3 = {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
          7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
          10: 0.20136540080403034, 11: 0.02265179219836082}
_D8_NODES = np.array(_D8_C)


def _weighted(ks, weights):
    """The sum of w * ks[j] over weights {j: w}, term by term in index order."""
    terms = iter(weights.items())
    j, w = next(terms)
    total = w * ks[j]
    for j, w in terms:
        total = total + w * ks[j]
    return total


def _dop853_lane_attempt(form, t, y, h, f1, params, atol, rtol):
    """One trial DOP853 step on lane arrays: (y_new, f_new, err, singular).

    Every stage is y + h * (a_0 k_0 + a_1 k_1 + ...) summed elementwise,
    so a lane's bits depend neither on its column nor on the number of
    lanes; f_new at t + h shares the time of the last stage, as its node
    is 1.  err is the norm of scipy's DOP853: with e5
    and e3 the two error estimates over the scale atol + rtol *
    max(|y|, |y_new|), it is h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), 0
    when both are 0, and inf when any value is nonfinite.
    """
    gs, singular = form.g_stages(t + _D8_NODES[:, None] * h, params)
    deriv = form.deriv
    ks = [f1]
    for g, row in zip(gs, _D8_A):
        ks.append(deriv(g, y + h * _weighted(ks, row), params))
    y_new = y + h * _weighted(ks, _D8_B)
    f_new = deriv(gs[-1], y_new, params)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    e5 = _weighted(ks, _D8_E5) / scale
    e3 = _weighted(ks, _D8_E3) / scale
    e5_2, e3_2 = (e5 * e5).sum(axis=0), (e3 * e3).sum(axis=0)
    denom = e5_2 + 0.01 * e3_2
    err = np.where(denom > 0.0, h * e5_2 / np.sqrt(denom * len(y)), 0.0)
    finite = np.isfinite(y_new).all(axis=0) & np.isfinite(denom)
    return y_new, f_new, np.where(finite, err, np.inf), singular


@dataclass(frozen=True)
class LanePair:
    """An embedded pair for ``integrate_lanes``; the step factor is 0.9 * err ** exponent.

    ``evals`` is the field evaluations (``deriv`` calls) of one trial
    step: the first stage is the last of the step before (FSAL).
    ``integrate_lanes`` alone reads it, to count each lane's evaluations.
    """

    name: str
    attempt: Callable  # (form, t, y, h, f1, params, atol, rtol) -> (y_new, f_new, err, singular)
    exponent: float
    evals: int


DP54 = LanePair(DP_NAME, _dp_lane_attempt, -0.2, DP_EVALS)
DOP853 = LanePair("dop853", _dop853_lane_attempt, -0.125, 12)


# terminal statuses of a lane; code 0 marks a lane still running
LANE_STATUSES = ("completed", "escaped", "coefficient_singular", "step_underflow")
_COMPLETED, _ESCAPED, _SINGULAR, _UNDERFLOW = range(1, 5)


@dataclass(frozen=True)
class LaneRun:
    """End of each lane of ``integrate_lanes``, in input lane order.

    ``ts`` and ``ys`` (one column per lane) hold the last accepted state;
    ``status`` names how each lane ended, one of LANE_STATUSES.
    ``field_evals`` counts each lane's field evaluations as
    ``integrate_adaptive`` counts a run's, with the pair's ``evals``.
    ``lock_steps`` counts the trial steps the lanes took together.
    """

    ts: np.ndarray
    ys: np.ndarray
    status: tuple
    n_accepted: np.ndarray
    n_rejected: np.ndarray
    field_evals: np.ndarray
    lock_steps: int


def integrate_lanes(form, y0, params, cfg: AdaptiveConfig, pair: LanePair = DP54) -> LaneRun:
    """An embedded pair (default DP54) over independent lanes that step in lock-step.

    Column j of y0 (shape (n, lanes), n >= 2) and of params (per-lane
    constants, shape (k, lanes)) is one initial value problem, whose
    field is the ``LaneForm`` form.  The run's first stage is
    ``form(t, y, params)``; each trial step evaluates ``form.g_stages``
    once, at all its stage times, and ``form.deriv`` once per stage.

    Each lane keeps its own t, h, FSAL stage and counters and is accepted
    or rejected by the rules of ``integrate_adaptive`` with the pair's
    error norm and exponent, with DP54 in the same floating-point
    operation order.  A lane ends as "completed" at t_end, "escaped" on
    an accepted state past the bound, "coefficient_singular" when a
    stage of its trial step is singular, or "step_underflow" where
    ``integrate_adaptive`` raises StepUnderflowError.  Finished lanes are
    compacted out of the arrays, together with their columns of params.
    A run that takes more than ``integrate.MAX_STEPS`` lock-steps raises
    StepBudgetError.
    """
    y = np.array(y0, dtype=float)
    params = np.array(params, dtype=float)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValueError("lane states must have shape (n >= 2, lanes)")
    if params.ndim != 2 or params.shape[1] != y.shape[1]:
        raise ValueError("lane constants must have shape (k, lanes)")
    lanes = y.shape[1]
    t_end, rtol, atol, h_min = cfg.t_end, cfg.rtol, cfg.atol, cfg.h_min
    bound = cfg.escape_bound

    t = np.full(lanes, cfg.t_start)
    h = np.full(lanes, min(cfg.h_init, t_end - cfg.t_start))
    n_acc = np.zeros(lanes, dtype=np.int64)
    n_rej = np.zeros(lanes, dtype=np.int64)
    live = np.arange(lanes)  # input index of each live lane
    out_t, out_y = t.copy(), y.copy()
    out_code = np.zeros(lanes, dtype=np.int8)
    out_acc, out_rej = n_acc.copy(), n_rej.copy()
    lock_steps = 0
    budget = integrate.MAX_STEPS  # integrate's budget, read at each call

    with np.errstate(all="ignore"):  # singular and nonfinite lanes are handled below
        f1, singular = form(t, y, params)
        code = np.where(singular, _SINGULAR, 0)
        while True:
            done = code != 0
            if done.any():
                idx = live[done]
                out_t[idx], out_y[:, idx], out_code[idx] = t[done], y[:, done], code[done]
                out_acc[idx], out_rej[idx] = n_acc[done], n_rej[done]
                keep = ~done
                live, t, h, y, f1, params = (
                    live[keep], t[keep], h[keep], y[:, keep], f1[:, keep], params[:, keep])
                n_acc, n_rej = n_acc[keep], n_rej[keep]
            if live.size == 0:
                break
            lock_steps += 1
            if lock_steps > budget:
                raise StepBudgetError(f"more than {budget} lock-steps before t_end={t_end}, "
                                      f"with {live.size} lanes running")

            t_next = t + h
            last = t_next >= t_end
            h_att = np.where(last, t_end - t, h)
            t_next[last] = t_end
            y_new, f_new, err, singular = pair.attempt(form, t, y, h_att, f1, params,
                                                       atol, rtol)
            ok = (err <= 1.0) & ~singular
            rejected = ~ok & ~singular

            # err = 0 gives the factor FAC_MAX, err = inf gives FAC_MIN
            h_new = h_att * np.clip(SAFETY * err ** pair.exponent, FAC_MIN, FAC_MAX)
            h = np.where(ok, np.maximum(h_new, h_min), h_new)
            t = np.where(ok, t_next, t)
            y = np.where(ok, y_new, y)
            f1 = np.where(ok, f_new, f1)
            n_acc += ok
            n_rej += rejected

            code = np.where(singular, _SINGULAR, 0)
            code[ok & last] = _COMPLETED
            code[ok & (np.abs(y_new) > bound).any(axis=0)] = _ESCAPED
            code[rejected & (h_new < h_min)] = _UNDERFLOW

    trials = out_acc + out_rej
    return LaneRun(
        ts=out_t, ys=out_y, status=tuple(LANE_STATUSES[c - 1] for c in out_code),
        n_accepted=out_acc, n_rejected=out_rej, field_evals=(trials > 0) + pair.evals * trials,
        lock_steps=lock_steps,
    )
