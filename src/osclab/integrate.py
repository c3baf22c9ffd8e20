"""Explicit Runge-Kutta integration over generic n-dimensional states.

The integrators share one state convention (tuples of floats, n >= 2,
components 0 and 1 being z and p):

* ``integrate_fixed`` -- the classical 4th-order method with constant step.
* ``integrate_adaptive`` -- the Dormand-Prince embedded 5(4) pair with
  standard error-per-step control.

The lock-step lanes of the stability scan are ``osclab.lanes``; they
share the Dormand-Prince tableau, the step factor constants and the step
budget ``MAX_STEPS`` defined here.

The two scalar integrators share one start (``_start``) and march
through any number of stop times in one run (``_check_stops``): a step
that would pass the next stop is shortened to land on it exactly, and
the run carries on from there.  Each integrator is one march, whose
stops, counting, recording, escape status and singular status are
written once for every field; only its steps branch.  A
``model.PowerForm`` field (every field of ``model.make_field``) takes
the fused steps, with the field (and the error norm) inlined on its
(z, p) state, bit-identical to the generic steps that every other field
takes (z^m is z * z for m = 2 and ``model.int_pow`` for any other m);
a PowerForm with any other state is refused with ValueError.  The
fused Dormand-Prince step is the inline trial step of
``integrate_adaptive``, or a field class's own (the Hill envelope's),
checked against ``_dp_checked_attempt``.  The
RK4 march of ``integrate_fixed`` runs chunks of steps, and a fused
chunk takes g from the form's ``g_grid`` at all its stage times at
once; the shortened step onto a stop is a chunk of its own, on the grid
too, and only a chunk where g raises takes ``_rk4_step``.  The tests
check the fused states, counts, statuses and errors bit for bit against
the generic steps.  A nonfinite initial state raises
NonfiniteStateError before the first step.  A strobe (``sample_strobe``)
is one run, returned as the ``model.Trajectory`` of its stop states.

Escape past a caller-supplied bound is an expected outcome in stability
scans, so it is reported as a trajectory status, never as an exception.
A field may abort a run by raising CoefficientSingularError; that too
becomes a status.  Genuine numerical failures (NaN states, step
underflow) raise.

Dormand-Prince 5(4) Butcher tableau (Dormand & Prince 1980, the RK45
pair used by most modern ODE suites).  Nodes c, stage matrix A, 5th
order weights b, and error weights e = b - b_hat against the embedded
4th order solution:

    c2..c7 = 1/5, 3/10, 4/5, 8/9, 1, 1
    a21 = 1/5
    a31, a32 = 3/40, 9/40
    a41..a43 = 44/45, -56/15, 32/9
    a51..a54 = 19372/6561, -25360/2187, 64448/6561, -212/729
    a61..a65 = 9017/3168, -355/33, 46732/5247, 49/176, -5103/18656
    b  = 35/384, 0, 500/1113, 125/192, -2187/6784, 11/84, 0
    e  = 71/57600, 0, -71/16695, 71/1920, -17253/339200, 22/525, -1/40

The last stage of an accepted step equals the first stage of the next
(FSAL), so an accepted step costs six field evaluations (``DP_EVALS``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (CoefficientSingularError, NonfiniteStateError, StepBudgetError,
                     StepUnderflowError)
from .model import ROW_BLOCK, PowerForm, RunStats, Trajectory, int_pow

C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
B1, B3, B4, B5, B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
E1, E3, E4, E5, E6, E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# the step factor 0.9 * err^(-1/q) of an embedded pair of order q, clamped to [0.2, 5]
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


def _check_span(t_start: float, t_end: float, escape_bound: float):
    """Shared config checks: a finite interval and a positive escape bound (inf: none)."""
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"t_start and t_end must be finite, got [{t_start}, {t_end}]")
    if not (t_end > t_start):
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if not (escape_bound > 0.0):
        raise ValueError(f"escape bound must be positive, got {escape_bound}")


def _check_stops(stops, t_start: float, t_end: float):
    """A run's stops, (t_end,) for None; others must ascend strictly from t_start to t_end."""
    if stops is None:
        return (t_end,)
    if not (len(stops) and stops[-1] == t_end
            and all(a < b for a, b in zip([t_start, *stops], stops))):
        raise ValueError(f"stops must ascend strictly from t_start={t_start} to t_end={t_end}")
    return stops


# most steps of h one fixed-step run may take; a larger span is refused
# before stepping, as it would not finish and its record would not fit.
# An adaptive run cannot know its step count beforehand, so it stops with
# StepBudgetError at the accepted step past this count instead, and a
# lane run at the lock-step past it
MAX_STEPS = 10**8

# most points of one strobe, or cells of one stability-scan row; a larger
# grid is refused before it is allocated, since it would not finish
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class FixedStepConfig:
    h: float
    t_end: float
    t_start: float = 0.0
    escape_bound: float = math.inf
    record: bool = True

    def __post_init__(self):
        if not (0.0 < self.h < math.inf):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        _check_span(self.t_start, self.t_end, self.escape_bound)
        n_steps = (self.t_end - self.t_start) / self.h  # a float: no overflow, at worst inf
        if not n_steps <= MAX_STEPS:
            raise ValueError(f"step size h={self.h} gives {n_steps:.3g} steps over "
                             f"[{self.t_start}, {self.t_end}], more than {MAX_STEPS}")

    @property
    def n_rows(self) -> int:
        """Rows of a run to t_end without stops: the start, the full steps and a shortened one."""
        n_full, rem = interval_steps(self.t_start, self.t_end, self.h)
        return n_full + (rem > 0.0) + 1


@dataclass(frozen=True)
class AdaptiveConfig:
    rtol: float
    t_end: float
    atol: float = 1e-12
    h_init: float = 1e-4
    h_min: float = 1e-13
    t_start: float = 0.0
    escape_bound: float = math.inf
    record: bool = True

    def __post_init__(self):
        if not (1e-14 <= self.rtol < math.inf):
            raise ValueError(f"rtol must be finite and >= 1e-14, got {self.rtol}")
        if not (0.0 < self.atol < math.inf):
            raise ValueError(f"atol must be positive and finite, got {self.atol}")
        if not (0.0 < self.h_min <= self.h_init):
            raise ValueError(f"need 0 < h_min <= h_init, got {self.h_min}, {self.h_init}")
        _check_span(self.t_start, self.t_end, self.escape_bound)


class _Recorder:
    """Accumulates the rows of a run; with record=False keeps only the start.

    Given ``sink``, the one row buffer of the run: each ROW_BLOCK rows from the start row
    go to ``sink(ts, ys)`` once a row follows them, and ``build`` drains the rest (at
    least one row), then keeps the start and the end as record=False does.
    """

    def __init__(self, record: bool, t0: float, y0, sink=None):
        self.record, self.sink, self.start = record or sink is not None, sink, (t0, y0)
        self.ts, self.buf = array("d", [t0]), array("d", y0)

    def push_many(self, ts, flat):
        """Append each time of ts (a float64 array) with its state, read in order from flat."""
        if self.record:
            self.ts.frombytes(ts.tobytes())
            self.buf += array("d", flat)
            while self.sink is not None and len(self.ts) > ROW_BLOCK:
                self._drain(ROW_BLOCK)

    def _drain(self, k):
        """Hand the first k rows to the sink as copies it may keep; the buffers shrink in place."""
        width = len(self.start[1])
        ts, ys = self.ts[:k], self.buf[:width * k]
        del self.ts[:k], self.buf[:width * k]
        self.sink(np.frombuffer(ts), np.frombuffer(ys).reshape(k, width))

    def build(self, status, t, y, stats: RunStats) -> Trajectory:
        """The trajectory of a run whose last accepted state is (t, y), with its record.

        Its arrays are views of the recorder's buffers, not copies, so a
        run's record is held once.  ``build`` is the recorder's last act:
        a buffer that a view exports cannot grow, so nothing is pushed
        after it.
        """
        if self.sink is not None:  # the last block; the trajectory is the start and the end
            self._drain(len(self.ts))
            return _Recorder(False, *self.start).build(status, t, y, stats)
        if not self.record and t > self.ts[-1]:  # the start, then the end
            self.ts.append(t)
            self.buf.extend(y)
        ts = np.frombuffer(self.ts, dtype=float)
        ys = np.frombuffer(self.buf, dtype=float).reshape(len(ts), -1)
        return Trajectory(ts=ts, ys=ys, status=status, stats=stats)


def _check_state(y):
    """Raise if any component is NaN/Inf; cheap in the all-finite case."""
    total = 0.0
    for v in y:
        total += v
    if not math.isfinite(total):
        if any(not math.isfinite(v) for v in y):
            raise NonfiniteStateError(f"nonfinite state {y}")
    # a finite-component sum can still overflow; that case falls through


def _initial_state(field, y0):
    """y0 as a tuple of floats for field.

    Refuses fewer than two components, a state that is not (z, p) for a
    ``model.PowerForm`` field, and a nonfinite state.
    """
    if len(y0) < 2:
        raise ValueError("state must have at least (z, p) components")
    if isinstance(field, PowerForm) and len(y0) != 2:
        raise ValueError(f"a PowerForm field takes a (z, p) state, got {len(y0)} components")
    y = tuple(float(v) for v in y0)
    _check_state(y)
    return y


def _start(field, y0, cfg, stops):
    """The start that both scalar integrators share: (stops, y, form).

    Refuses what ``_initial_state`` refuses and bad stops
    (``_check_stops``).  form is the field when it is a
    ``model.PowerForm`` (on a (z, p) state, then), and None for any other
    field: the integrator then takes its generic path.
    """
    y = _initial_state(field, y0)
    stops = _check_stops(stops, cfg.t_start, cfg.t_end)
    return stops, y, field if isinstance(field, PowerForm) else None


def _escaped(y, bound):
    for v in y:
        if abs(v) > bound:
            return True
    return False


def _rk4_step(field, t, y, h, t_next):
    half = 0.5 * h
    sixth = h / 6.0
    k1 = field(t, y)
    y2 = tuple(yi + half * ki for yi, ki in zip(y, k1))
    k2 = field(t + half, y2)
    y3 = tuple(yi + half * ki for yi, ki in zip(y, k2))
    k3 = field(t + half, y3)
    y4 = tuple(yi + h * ki for yi, ki in zip(y, k3))
    k4 = field(t_next, y4)
    return tuple(
        yi + sixth * (a + 2.0 * (b + c) + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


# full steps per chunk of a fixed-step run: bounds its buffers, the
# coefficient work an early escape wastes and the generic steps where g
# raises.  Past about 1024 steps the chunk's numpy temporaries raise the
# run's peak resident memory (4096 steps: 0.4 MB more over 200k steps) and
# gain no speed
_FUSED_CHUNK = 1024


def interval_steps(t0, stop, h):
    """(n_full, rem): full steps end at t0 + k*h, k <= n_full; rem lands on stop (or is 0.0)."""
    n_full = math.floor((stop - t0) / h)
    while t0 + (n_full + 1) * h <= stop:
        n_full += 1
    while n_full > 0 and t0 + n_full * h > stop:
        n_full -= 1
    return n_full, stop - (t0 + n_full * h)


def _chunks(t0, stop, h):
    """The steps from t0 to stop as chunks (step size, float64 array of the chunk's step times).

    The full steps end at t0 + k*h, _FUSED_CHUNK to a chunk, and a
    shortened step [t0 + n_full*h, stop] is a chunk of its own.
    """
    n_full, rem = interval_steps(t0, stop, h)
    for done in range(0, n_full, _FUSED_CHUNK):
        yield h, t0 + np.arange(done, min(done + _FUSED_CHUNK, n_full) + 1) * h
    if rem > 0.0:
        yield rem, np.array((t0 + n_full * h, stop))


# the methods of integrate_fixed and integrate_adaptive as a run's stats name them,
# and the pair's field evaluations per trial step (FSAL)
RK4_NAME = "rk4"
DP_NAME = "dormand_prince"
DP_EVALS = 6


def integrate_fixed(field, y0, cfg: FixedStepConfig, stops=None, at_stop=None, sink=None):
    """Classical RK4 with constant step h, marching through exact stops.

    ``stops`` and ``at_stop`` follow the rules of ``integrate_adaptive``.
    From t_start and from each stop the step times are that time + k*h
    (multiplication, not accumulation), and a shortened step lands
    exactly on the next stop when h does not divide the interval, so
    each interval runs exactly as a run of its own would.

    One loop runs the chunks of ``_chunks``; only a chunk's steps branch.
    For a ``model.PowerForm`` whose ``g_grid`` gives g at the chunk's
    step times and midpoints, a flat loop does RK4's (z, p) arithmetic
    with the state check and escape test inline, in the operation order
    of ``_rk4_step`` and the field, so every state is bit-identical to
    the generic steps.  Any other field, and a chunk where ``g_grid`` is
    None (g raises there, so the run ends in it), takes ``_rk4_step``.
    Each chunk's rows go to the run's ``_Recorder``, those before a
    CoefficientSingularError too; given ``sink``, whatever cfg.record, it
    calls ``sink(ts, ys)`` with the float64 blocks of ``Trajectory.blocks()``
    in turn, and the Trajectory is the start and end.  Its record is named RK4_NAME.
    """
    stops, y, form = _start(field, y0, cfg, stops)
    rec = _Recorder(cfg.record, cfg.t_start, y, sink)
    t0, h, bound = cfg.t_start, cfg.h, cfg.escape_bound
    if form is not None:
        nw2, g_grid, m = -form.w2, form.g_grid, form.m
        square = m == 2
    isfinite = math.isfinite
    escapable = bound < math.inf  # past the finiteness check, no state is beyond inf
    status = "completed"
    t = t0
    n_done = 0
    for stop in stops:
        for h_k, t_steps in _chunks(t0, stop, h):
            half = 0.5 * h_k
            gs = None
            if form is not None:
                times = np.empty(2 * len(t_steps) - 1)
                times[0::2] = t_steps
                times[1::2] = t_steps[:-1] + half
                gs = g_grid(times)
            flat = []
            try:
                if gs is not None:
                    sixth = h_k / 6.0
                    push = flat.append
                    z, p = y
                    for g0, gm, g1 in zip(gs[0::2], gs[1::2], gs[2::2]):
                        zm = z * z if square else int_pow(z, m)
                        f1 = nw2 * z - g0 * zm
                        z2 = z + half * p
                        p2 = p + half * f1
                        zm = z2 * z2 if square else int_pow(z2, m)
                        f2 = nw2 * z2 - gm * zm
                        z3 = z + half * p2
                        p3 = p + half * f2
                        zm = z3 * z3 if square else int_pow(z3, m)
                        f3 = nw2 * z3 - gm * zm
                        z4 = z + h_k * p3
                        p4 = p + h_k * f3
                        zm = z4 * z4 if square else int_pow(z4, m)
                        f4 = nw2 * z4 - g1 * zm
                        z, p = (z + sixth * (p + 2.0 * (p2 + p3) + p4),
                                p + sixth * (f1 + 2.0 * (f2 + f3) + f4))
                        if not isfinite(z + p):
                            _check_state((z, p))
                        push(z)
                        push(p)
                        if escapable and (abs(z) > bound or abs(p) > bound):
                            status = "escaped"
                            break
                    y = (z, p)
                else:
                    for t_next in t_steps[1:].tolist():
                        y = _rk4_step(field, t, y, h_k, t_next)
                        _check_state(y)
                        t = t_next
                        flat.extend(y)
                        if _escaped(y, bound):
                            status = "escaped"
                            break
            except CoefficientSingularError:
                status = "coefficient_singular"
            n = len(flat) // len(y)
            t = float(t_steps[n])
            n_done += n
            rec.push_many(t_steps[1:n + 1], flat)
            if status != "completed":
                break
        if status != "completed":
            break
        if at_stop is not None:
            at_stop(t, y)
        t0 = stop
    return rec.build(status, t, y, RunStats(RK4_NAME, n_done, 0, 4 * n_done))


def _dp_attempt(field, t, y, h, f1):
    """One trial Dormand-Prince step; returns (y_new, f7, err_terms)."""
    y2 = tuple(yi + h * (A21 * a) for yi, a in zip(y, f1))
    f2 = field(t + C2 * h, y2)
    y3 = tuple(yi + h * (A31 * a + A32 * b) for yi, a, b in zip(y, f1, f2))
    f3 = field(t + C3 * h, y3)
    y4 = tuple(yi + h * (A41 * a + A42 * b + A43 * c) for yi, a, b, c in zip(y, f1, f2, f3))
    f4 = field(t + C4 * h, y4)
    y5 = tuple(
        yi + h * (A51 * a + A52 * b + A53 * c + A54 * d)
        for yi, a, b, c, d in zip(y, f1, f2, f3, f4)
    )
    f5 = field(t + C5 * h, y5)
    y6 = tuple(
        yi + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
        for yi, a, b, c, d, e in zip(y, f1, f2, f3, f4, f5)
    )
    f6 = field(t + h, y6)
    y_new = tuple(
        yi + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * f)
        for yi, a, c, d, e, f in zip(y, f1, f3, f4, f5, f6)
    )
    f7 = field(t + h, y_new)
    errs = tuple(
        h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * f + E7 * g)
        for a, c, d, e, f, g in zip(f1, f3, f4, f5, f6, f7)
    )
    return y_new, f7, errs


def _dp_checked_attempt(field, t, y, h, f1, atol, rtol):
    """``_dp_attempt`` and its error norm; returns (y_new, f7, err).

    err is the RMS over the components of error / (atol + rtol *
    max(|y|, |y_new|)), or inf when any component of y_new or of the
    error is nonfinite.
    """
    y_new, f7, errs = _dp_attempt(field, t, y, h, f1)
    err = 0.0
    for yi, yn, e in zip(y, y_new, errs):
        if not (math.isfinite(yn) and math.isfinite(e)):
            return y_new, f7, math.inf
        r = e / (atol + rtol * max(abs(yi), abs(yn)))
        err += r * r
    return y_new, f7, math.sqrt(err / len(y))


def integrate_adaptive(field, y0, cfg: AdaptiveConfig, stops=None, at_stop=None) -> Trajectory:
    """Dormand-Prince 5(4) with error-per-step control, marching through exact stops.

    The per-component scale is atol + rtol*max(|y|, |y_new|); a step is
    accepted when the RMS of error/scale is <= 1, and the step factor
    0.9*err^(-1/5) is clamped to [0.2, 5].  A trial step with nonfinite
    result is treated as rejected.  StepUnderflowError signals that the
    controller was forced below h_min on a rejection, and StepBudgetError
    that the run took more than MAX_STEPS accepted steps.  Its record is
    named DP_NAME; a trial step that met a singular coefficient counts in
    none of its counts.

    One loop runs the march; only its trial step branches.  A field that
    is not a ``model.PowerForm`` is tried by ``_dp_checked_attempt``, the
    definition, or by its class's ``dp_checked_attempt`` if it has one;
    a PowerForm by the fused step inlined below:
    the stages, the field (p, -w2 z - g(t) z^m) and the error norm in
    the operation order of ``_dp_attempt``, the field and
    ``_dp_checked_attempt``, with g called once per stage time (stages 6
    and 7 share t + h), so its states, counts, statuses and errors are
    bit-identical to the definition's.  On that path f1 and f7 hold only
    p' (z' is p), and ai and bi are the z' and p' of stages 2 to 6.

    ``stops`` (default: t_end alone) are strictly ascending times in
    (t_start, t_end], the last one t_end.  A step that would pass the
    next stop is shortened to land on it exactly, and h, the FSAL stage
    and the counters carry on across it: after an accepted shortened
    step the next one starts from the larger of the new proposal and the
    step proposed before shortening, so a stop does not make the
    controller ramp up again.  ``at_stop(t, y)`` is called at each stop
    reached without escaping; an exception it raises ends the run.
    """
    stops, y, form = _start(field, y0, cfg, stops)
    rec = _Recorder(cfg.record, cfg.t_start, y)
    attempt = getattr(type(field), "dp_checked_attempt", _dp_checked_attempt)
    if form is not None:
        nw2, g, m = -form.w2, form.g, form.m
        square = m == 2
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    t_end, rtol, atol, h_min = cfg.t_end, cfg.rtol, cfg.atol, cfg.h_min
    bound = cfg.escape_bound
    escapable = bound < inf  # an accepted state is finite, so never beyond inf
    budget = MAX_STEPS
    record = rec.record
    if record:
        push_t, push_y = rec.ts.append, rec.buf.extend
    status = "completed"
    n_acc = n_rej = 0
    t = cfg.t_start
    h = min(cfg.h_init, t_end - t)
    try:
        f1 = field(t, y)
        if form is not None:
            f1 = f1[1]
        for stop in stops:
            while t < stop:
                clipped = t + h >= stop
                if clipped:
                    h_att, t_next = stop - t, stop
                else:
                    h_att, t_next = h, t + h
                if form is None:
                    y_new, f7, err = attempt(field, t, y, h_att, f1, atol, rtol)
                else:
                    z, p = y
                    z2 = z + h_att * (A21 * p)
                    a2 = p + h_att * (A21 * f1)
                    zm = z2 * z2 if square else int_pow(z2, m)
                    b2 = nw2 * z2 - g(t + C2 * h_att) * zm
                    z3 = z + h_att * (A31 * p + A32 * a2)
                    a3 = p + h_att * (A31 * f1 + A32 * b2)
                    zm = z3 * z3 if square else int_pow(z3, m)
                    b3 = nw2 * z3 - g(t + C3 * h_att) * zm
                    z4 = z + h_att * (A41 * p + A42 * a2 + A43 * a3)
                    a4 = p + h_att * (A41 * f1 + A42 * b2 + A43 * b3)
                    zm = z4 * z4 if square else int_pow(z4, m)
                    b4 = nw2 * z4 - g(t + C4 * h_att) * zm
                    z5 = z + h_att * (A51 * p + A52 * a2 + A53 * a3 + A54 * a4)
                    a5 = p + h_att * (A51 * f1 + A52 * b2 + A53 * b3 + A54 * b4)
                    zm = z5 * z5 if square else int_pow(z5, m)
                    b5 = nw2 * z5 - g(t + C5 * h_att) * zm
                    z6 = z + h_att * (A61 * p + A62 * a2 + A63 * a3 + A64 * a4 + A65 * a5)
                    a6 = p + h_att * (A61 * f1 + A62 * b2 + A63 * b3 + A64 * b4 + A65 * b5)
                    zm = z6 * z6 if square else int_pow(z6, m)
                    g6 = g(t + h_att)
                    b6 = nw2 * z6 - g6 * zm
                    zn = z + h_att * (B1 * p + B3 * a3 + B4 * a4 + B5 * a5 + B6 * a6)
                    pn = p + h_att * (B1 * f1 + B3 * b3 + B4 * b4 + B5 * b5 + B6 * b6)
                    zm = zn * zn if square else int_pow(zn, m)
                    f7 = nw2 * zn - g6 * zm
                    ez = h_att * (E1 * p + E3 * a3 + E4 * a4 + E5 * a5 + E6 * a6 + E7 * pn)
                    ep = h_att * (E1 * f1 + E3 * b3 + E4 * b4 + E5 * b5 + E6 * b6 + E7 * f7)
                    y_new = (zn, pn)
                    if isfinite(zn) and isfinite(ez) and isfinite(pn) and isfinite(ep):
                        # max(|y|, |y_new|) as chained comparisons
                        rz = ez / (atol + rtol * (abs(zn) if abs(zn) > abs(z) else abs(z)))
                        rp = ep / (atol + rtol * (abs(pn) if abs(pn) > abs(p) else abs(p)))
                        err = sqrt((rz * rz + rp * rp) / 2)
                    else:
                        err = inf
                # err = 0 gives the factor FAC_MAX, err = inf gives FAC_MIN; the
                # clamp, the floor and the carry-over below are min and max as comparisons
                fac = SAFETY * err ** -0.2 if err else FAC_MAX
                fac = FAC_MIN if not fac > FAC_MIN else fac if fac < FAC_MAX else FAC_MAX
                if err <= 1.0:
                    t, y, f1 = t_next, y_new, f7
                    n_acc += 1
                    if n_acc > budget:
                        raise StepBudgetError(f"more than {budget} accepted steps before "
                                              f"t_end={t_end}, at t={t}")
                    if record:
                        push_t(t)
                        push_y(y)
                    if escapable:  # _escaped inline: a call per step costs more than the test
                        for v in y:
                            if abs(v) > bound:
                                status = "escaped"
                        if status != "completed":
                            break
                    h_new = h_att * fac
                    h_new = h_min if h_min > h_new else h_new
                    # after a clip, h is still the step proposed before it
                    h = h if clipped and h > h_new else h_new
                else:
                    n_rej += 1
                    h = h_att * fac
                    if h < h_min:
                        raise StepUnderflowError(f"required step {h:.3e} < h_min {h_min:.3e} "
                                                 f"at t={t}")
            if status != "completed":
                break
            if at_stop is not None:
                at_stop(t, y)
    except CoefficientSingularError:
        status = "coefficient_singular"
    return rec.build(status, t, y, RunStats(DP_NAME, n_acc, n_rej,
                                            (n_acc + n_rej > 0) + DP_EVALS * (n_acc + n_rej)))


def sample_strobe(
    field,
    y0,
    t_step: float,
    k_max: int,
    escape_bound: float = math.inf,
    h: float = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """A run's states at t_k = k*t_step, k = 0..k_max, each hit exactly, as a Trajectory.

    Row 0 is the start and row k the state at t_k = k*t_step (never a
    sum of steps).  One run marches through every t_k as a stop, whose
    ``at_stop`` pushes the rows: adaptive at (rtol, atol) without h,
    keeping its step size and FSAL stage from one strobe interval to the
    next, and fixed-step with h, restarting the grid t_k + j*h at each
    t_k so that no step straddles a strobe time.  The trajectory carries
    the run's status and record (at k_max = 0 an empty one of the
    integrator h selects); on escape it ends at the last t_k reached.
    k_max above MAX_GRID_POINTS or a t_step that is not positive and
    finite raises ValueError, and so does the run's config (for h, more
    than MAX_STEPS steps in all), before any stop time is made.  A start
    of fewer than two components, or one that is not (z, p) for a
    ``model.PowerForm`` field, raises ValueError and a nonfinite one
    NonfiniteStateError, at k_max = 0 (no run) too.
    """
    if not 0.0 < t_step < math.inf:
        raise ValueError(f"t_step must be positive and finite, got {t_step}")
    if not 0 <= k_max <= MAX_GRID_POINTS:
        raise ValueError(f"k_max must be in [0, {MAX_GRID_POINTS}] (at most "
                         f"{MAX_GRID_POINTS + 1} strobe points), got {k_max}")
    y = _initial_state(field, y0)
    rec = _Recorder(True, 0.0, y)
    if k_max == 0:
        return rec.build("completed", 0.0, y, RunStats(DP_NAME if h is None else RK4_NAME))
    run_cfg = dict(t_end=k_max * t_step, escape_bound=escape_bound, record=False)
    if h is None:
        integrate, cfg = integrate_adaptive, AdaptiveConfig(rtol=rtol, atol=atol, **run_cfg)
    else:
        integrate, cfg = integrate_fixed, FixedStepConfig(h=h, **run_cfg)
    run = integrate(field, y, cfg, stops=[k * t_step for k in range(1, k_max + 1)],
                    at_stop=lambda t, y: rec.push_many(np.array((t,)), y))
    return rec.build(run.status, run.ts[-1], run.ys[-1], run.stats)
