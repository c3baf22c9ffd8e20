import dataclasses
import functools
import math
import re

import numpy as np
import pytest

from osclab import integrate, normalform, spline
from osclab.cli import _periodic_interpolants
from osclab.errors import EnvelopeBlowupError, UnstableHillError
from osclab.integrate import AdaptiveConfig, FixedStepConfig, integrate_adaptive, integrate_fixed
from osclab.model import PowerForm, int_pow
from osclab.normalform import (
    HillSpec,
    cs_envelope,
    make_reduced_field,
    _fundamental_runs,
    monodromy,
    reduce,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(autouse=True)
def _step_budget(step_cap):
    # the monodromy runs take the fused Dormand-Prince step, so a broken stage
    # must fail with StepBudgetError rather than step on: the costliest run here
    # takes 16,129 steps (f = 400, twenty oscillations a period).  A test with a
    # reference run lowers the cap to the reference's own count
    step_cap(17_000)


def _const_hill(f0=1.0 / 16.0):
    return HillSpec(f=lambda t: f0, T=TWO_PI)


def test_transfer_matrix_constant_f():
    # closed form at f = 1/16 over T = 2 pi: rotation by pi/2 scaled by
    # the frequency, M = [[0, 4], [-1/4, 0]]
    M = _fundamental_runs(_const_hill())[0]
    assert abs(M[0, 0]) < 1e-11
    assert abs(M[0, 1] - 4.0) < 1e-10
    assert abs(M[1, 0] + 0.25) < 1e-11
    assert abs(M[1, 1]) < 1e-11


def test_monodromy_constant_f():
    mono = monodromy(_const_hill())
    assert abs(mono.trace) < 1e-10
    assert abs(mono.det - 1.0) < 1e-11  # Wronskian of a Hill equation
    assert abs(mono.mu - math.pi / 2.0) < 1e-11
    assert abs(mono.beta0 - 4.0) < 1e-9
    assert abs(mono.alphaT) < 1e-10
    assert abs(mono.gamma0 - 0.25) < 1e-10


def test_monodromy_rejects_unstable():
    # f = 1: the period equals the full oscillation, |trace| = 2 exactly
    with pytest.raises(UnstableHillError):
        monodromy(HillSpec(f=lambda t: 1.0, T=TWO_PI))
    # inside the main parametric resonance tongue
    with pytest.raises(UnstableHillError):
        monodromy(HillSpec(f=lambda t: 0.25 * (1.0 + 0.1 * math.cos(t)), T=TWO_PI))


@pytest.mark.parametrize("rtol", [1e-12, 1e-10])
@pytest.mark.parametrize("f0", [1.0, 2.25, 4.0])
def test_reduce_refuses_an_exactly_degenerate_hill_system(f0, rtol):
    # f = omega0^2 over T = 2 pi: tr M = +-2 exactly.  reduce's rtol sets the
    # envelope run only; at 1e-12 the fundamental runs put |tr M| within
    # 3e-12 of 2, inside the margin, and the system passed as stable
    with pytest.raises(UnstableHillError):
        reduce(HillSpec(f=lambda t: f0, T=TWO_PI), lambda t: 0.2, 2, rtol=rtol)


@pytest.mark.parametrize("omega0,stable", [
    (7.0, False), (8.0, False), (9.0, False), (12.0, False), (20.0, False),
    (1.2345, True), (7.3, True), (13.1, True),
])
def test_monodromy_margin_grows_with_the_runs_error(omega0, stable):
    # f = omega0^2 over T = 2 pi: tr M = 2 cos(2 pi omega0), +-2 exactly at
    # an integer omega0.  There the fundamental runs leave 2 - |tr M| equal
    # to |det M - 1|, from 1.07e-12 at omega0 = 7 to 3.3e-12 at 20: outside a
    # fixed 1e-12 margin, inside 4 |det M - 1|
    h = HillSpec(f=lambda t: omega0 * omega0, T=TWO_PI)
    if not stable:
        with pytest.raises(UnstableHillError):
            monodromy(h)
        return
    mono = monodromy(h)
    assert mono.trace == pytest.approx(2.0 * math.cos(TWO_PI * omega0), abs=1e-9)


def test_unstable_flag_agrees_with_growth():
    # the raw transfer matrix of the resonant system shows real growth,
    # consistent with the stability flag that refused it above
    M = _fundamental_runs(HillSpec(f=lambda t: 0.25 * (1.0 + 0.1 * math.cos(t)), T=TWO_PI))[0]
    tr = float(M[0, 0] + M[1, 1])
    assert abs(tr) > 2.0
    # dominant multiplier |lambda| = |tr|/2 + sqrt(tr^2/4 - 1) > 1
    lam = abs(tr) / 2.0 + math.sqrt(tr * tr / 4.0 - 1.0)
    assert lam > 1.05
    # iterate the map 50 periods: growth must track lambda^50 within a factor 10
    v = np.array([1.0, 0.0])
    for _ in range(50):
        v = M @ v
    growth = float(np.linalg.norm(v))
    assert growth > lam**50 / 10.0
    assert growth < lam**50 * 10.0


def test_envelope_constant_f():
    h = _const_hill()
    mono = monodromy(h)
    env = cs_envelope(h, mono, n_grid=201)
    # w = f^(-1/4) = 2 is the exact stationary envelope
    assert np.max(np.abs(env.w - 2.0)) < 1e-10
    assert np.max(np.abs(env.wp)) < 1e-10
    assert env.defect_w < 1e-10
    assert env.defect_wp < 1e-10
    # phase advances at rate 1/w^2 = 1/4
    assert abs(env.phi_T - TWO_PI / 4.0) < 1e-10


def test_envelope_periodicity_mathieu():
    h = HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI)
    mono = monodromy(h)
    env = cs_envelope(h, mono, n_grid=401)
    assert env.defect_w < 1e-9
    assert env.defect_wp < 1e-9
    # one-period phase advance equals the phase angle mod 2 pi
    assert abs(env.phi_T - mono.mu) < 1e-9
    assert np.all(env.w > 0.0)


def test_envelope_blowup_guard():
    # strongly defocusing field: w grows like cosh(3t) and crosses the
    # admissible ceiling within one period
    h = _const_hill()
    mono = monodromy(h)
    bad = HillSpec(f=lambda t: -9.0, T=TWO_PI)
    with pytest.raises(EnvelopeBlowupError):
        cs_envelope(bad, mono, n_grid=51)


def _cold_envelope(h, mono, n_grid, rtol=1e-12, atol=1e-14):
    """Reference: the envelope as separate cold adaptive runs, one per grid interval."""
    def field(t, y):
        w, wp, _ = y
        if w <= 1e-6:
            raise EnvelopeBlowupError(f"envelope w = {w} at t = {t} below 1e-06")
        return (wp, 1.0 / (w * w * w) - h.f(t) * w, 1.0 / (w * w))

    w0 = math.sqrt(mono.beta0)
    rows = [(0.0, w0, -mono.alphaT / w0, 0.0)]
    step = h.T / (n_grid - 1)
    for j in range(1, n_grid):
        ta, tb = (j - 1) * step, (h.T if j == n_grid - 1 else j * step)
        seg = integrate_adaptive(field, rows[-1][1:], AdaptiveConfig(
            rtol=rtol, atol=atol, t_start=ta, t_end=tb, record=False))
        y = tuple(float(v) for v in seg.ys[-1])
        if not (1e-6 <= y[0] <= 1e6):
            raise EnvelopeBlowupError(f"envelope w = {y[0]} at t = {tb} left the admissible range")
        rows.append((tb,) + y)
    return np.array(rows).T


def _tabulated_hill(n_rows=257):
    """f = 0.3 + 0.05 cos t, tabulated over one period and interpolated as ``reduce`` does."""
    ts = [TWO_PI * j / (n_rows - 1) for j in range(n_rows)]
    fs = [0.3 + 0.05 * math.cos(0.0 if j == n_rows - 1 else t) for j, t in enumerate(ts)]
    f, _ = _periodic_interpolants({"t": ts, "f": fs, "g": fs}, TWO_PI)
    return HillSpec(f=f, T=TWO_PI)


# max_steps: a cold start per grid interval took four steps each (8000 on the
# table); the march takes about one per interval, or the ~440 that one
# period of the analytic f needs at rtol 1e-12 where the grid is coarser
@pytest.mark.parametrize("make_hill,n_grid,max_steps", [
    (_tabulated_hill, 2001, 2100),
    (lambda: HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI), 401, 600),
    (lambda: HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI), 2, 450),
])
def test_envelope_march_matches_cold_segments(make_hill, n_grid, max_steps):
    h = make_hill()
    mono = monodromy(h)
    env = cs_envelope(h, mono, n_grid=n_grid)
    ts, w, wp, phi = _cold_envelope(h, mono, n_grid)
    assert np.array_equal(env.ts, ts) and env.ts[-1] == h.T
    for got, ref in ((env.w, w), (env.wp, wp), (env.phi, phi)):
        assert np.max(np.abs(got - ref)) < 1e-10
    assert env.defect_w <= 1e-9 and env.defect_wp <= 1e-9
    assert 0 < env.n_accepted <= max_steps and env.n_rejected >= 0


def test_envelope_blowup_raised_at_first_bad_grid_time():
    h = _const_hill()
    mono = monodromy(h)
    bad = HillSpec(f=lambda t: -9.0, T=TWO_PI)
    times = []
    for run in (cs_envelope, _cold_envelope):
        with pytest.raises(EnvelopeBlowupError) as info:
            run(bad, mono, n_grid=51)
        times.append(re.search(r"at t = (\S+) left", str(info.value)).group(1))
    assert times[0] == times[1]


def test_monodromy_counts_both_fundamental_runs(step_cap):
    h = HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI)
    cfg = AdaptiveConfig(rtol=1e-13, atol=1e-15, t_end=TWO_PI, record=False)
    field = lambda t, y: (y[1], -h.f(t) * y[0])  # noqa: E731
    runs = [integrate_adaptive(field, y0, cfg) for y0 in ((1.0, 0.0), (0.0, 1.0))]
    step_cap(max(r.n_accepted for r in runs))
    mono = monodromy(h)
    assert mono.n_accepted == sum(r.n_accepted for r in runs)
    assert mono.n_rejected == sum(r.n_rejected for r in runs)
    assert np.array_equal(mono.M, np.column_stack([r.ys[-1] for r in runs]))


def _bits(run):
    """A run's status, counts and every bit of its record, signs of zero included."""
    return (run.status, run.n_accepted, run.n_rejected, run.ts.tobytes(), run.ys.tobytes())


_HILL_FS = {
    "mathieu": lambda t: 0.3 + 0.05 * math.cos(t),
    "negative": lambda t: -0.5,
    "zero": lambda t: 0.0,
    "int_one": lambda t: 1,
}


@pytest.mark.parametrize("f", list(_HILL_FS.values()), ids=list(_HILL_FS))
def test_fundamental_runs_are_the_generic_closure_runs_bit_for_bit(f, monkeypatch, step_cap):
    # the reference is the Hill field as a plain closure, whose trial steps are
    # _dp_checked_attempt's; the form _fundamental_runs builds takes the fused
    # step.  f = -0.5 and f = 1 are unstable or degenerate, so monodromy
    # would refuse them; the runs themselves still must agree
    def closure(t, y):
        return (y[1], -f(t) * y[0])

    tol = dict(rtol=normalform._MONO_RTOL, atol=normalform._MONO_ATOL, t_end=TWO_PI)
    cfg, whole = AdaptiveConfig(record=False, **tol), AdaptiveConfig(**tol)
    refs = [integrate_adaptive(closure, y0, cfg) for y0 in ((1.0, 0.0), (0.0, 1.0))]
    forms = []

    def run(field, y0, cfg):
        forms.append(field)
        return integrate_adaptive(field, y0, cfg)

    monkeypatch.setattr(normalform, "integrate_adaptive", run)
    step_cap(max(ref.n_accepted for ref in refs))
    M, runs = _fundamental_runs(HillSpec(f=f, T=TWO_PI))
    assert [_bits(r) for r in runs] == [_bits(r) for r in refs]
    assert M.tobytes() == np.column_stack([r.ys[-1] for r in refs]).tobytes()
    form = forms[0]
    assert isinstance(form, PowerForm) and forms[1] is form
    for y0 in ((0.0, -0.0), (-0.0, 0.0)):
        ref = integrate_adaptive(closure, y0, whole)
        step_cap(ref.n_accepted)
        assert _bits(integrate_adaptive(form, y0, whole)) == _bits(ref)


@pytest.mark.parametrize("f", list(_HILL_FS.values()), ids=list(_HILL_FS))
def test_fundamental_form_on_the_rk4_grid_is_the_closure_bit_for_bit(f, monkeypatch):
    # only RK4 reads a form's g_grid: a fixed-step run of the Hill form takes
    # its fused chunks (6284 steps, the last shortened onto 2 pi), the closure
    # _rk4_step
    forms = []

    def run(field, y0, cfg):
        forms.append(field)
        return integrate_adaptive(field, y0, cfg)

    monkeypatch.setattr(normalform, "integrate_adaptive", run)
    _fundamental_runs(HillSpec(f=f, T=TWO_PI))
    cfg = FixedStepConfig(h=1e-3, t_end=TWO_PI)
    for y0 in ((1.0, 0.0), (0.0, 1.0), (0.0, -0.0)):
        ref = integrate_fixed(lambda t, y: (y[1], -f(t) * y[0]), y0, cfg)
        assert _bits(integrate_fixed(forms[0], y0, cfg)) == _bits(ref)


def _closure_envelope_field(f):
    """``cs_envelope``'s field as a plain closure: a reference on the generic trial step."""
    def field(t, y):
        w, wp, _ = y
        if w <= 1e-6:
            raise EnvelopeBlowupError(f"envelope w = {w} at t = {t} below 1e-06")
        w2 = w * w
        return (wp, 1.0 / (w2 * w) - f(t) * w, 1.0 / w2)

    return field


def _envelope_march(monkeypatch, h, mono, n_grid, make_field=None):
    """``cs_envelope`` with its field from make_field (default its own): (field, outcome).

    The outcome is every bit of the samples, the run's status and counts
    and the defects, or the type and message of the error raised.
    """
    fields, runs = [], []

    def run(field, y0, cfg, **kw):
        fields.append(field)
        runs.append(integrate_adaptive(field, y0, cfg, **kw))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(normalform, "integrate_adaptive", run)
        if make_field is not None:
            patch.setattr(normalform, "_EnvelopeField", make_field)
        try:
            env = cs_envelope(h, mono, n_grid=n_grid)
        except EnvelopeBlowupError as e:
            return fields[0], (type(e), str(e))
    return fields[0], (env.ts.tobytes(), env.w.tobytes(), env.wp.tobytes(), env.phi.tobytes(),
                       runs[0].status, env.n_accepted, env.n_rejected, env.field_evals,
                       env.defect_w, env.defect_wp)


def _mathieu_hill():
    return HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI)


def _floor_case(beta0=1.1e-12):
    """The Mathieu envelope from w0 = sqrt(beta0), w0' = -1/w0.

    At beta0 = 1.1e-12 stage 2 of the first trial step has w < 0; at
    1e-12 the start itself is at the floor.
    """
    h = _mathieu_hill()
    return h, dataclasses.replace(monodromy(h), beta0=beta0, alphaT=1.0)


_ENVELOPE_CASES = {
    "table_2001": lambda: (_tabulated_hill(), None, 2001),
    "mathieu_401": lambda: (_mathieu_hill(), None, 401),
    "mathieu_2": lambda: (_mathieu_hill(), None, 2),
    # f = 1 has |tr M| = 2, so the envelope starts from f = 1/16's Twiss values
    "int_one": lambda: (HillSpec(f=lambda t: 1, T=TWO_PI), monodromy(_const_hill()), 101),
    "ceiling": lambda: (HillSpec(f=lambda t: -9.0, T=TWO_PI), monodromy(_const_hill()), 51),
    "floor": lambda: (*_floor_case(), 51),
    "floor_at_start": lambda: (*_floor_case(1e-12), 51),
}


@pytest.mark.parametrize("case", list(_ENVELOPE_CASES.values()), ids=list(_ENVELOPE_CASES))
def test_envelope_march_is_the_generic_closure_march_bit_for_bit(case, monkeypatch, step_cap):
    # the reference run takes _dp_checked_attempt on the closure; cs_envelope's
    # own field takes its fused dp_checked_attempt
    h, mono, n_grid = case()
    mono = mono or monodromy(h)
    ref_field, ref = _envelope_march(monkeypatch, h, mono, n_grid, _closure_envelope_field)
    assert not hasattr(ref_field, "dp_checked_attempt")
    if len(ref) > 2:
        step_cap(ref[5])
    field, got = _envelope_march(monkeypatch, h, mono, n_grid)
    assert isinstance(field, normalform._EnvelopeField)
    assert got == ref


def _attempt_outcome(attempt, *args):
    """Every bit of a trial step's (y_new, f7, err), or the type and message of its error."""
    try:
        y_new, f7, err = attempt(*args)
    except EnvelopeBlowupError as e:
        return type(e), str(e)
    return np.array([*y_new, *f7, err]).tobytes()


def test_envelope_trial_step_is_the_generic_one_bit_for_bit():
    # seeded draws of state, step and constant f around the floor: the fused
    # dp_checked_attempt against _dp_checked_attempt on the field's __call__,
    # every stage's floor check among the first to fail, and overflowing
    # draws with a nonfinite error
    rng = np.random.default_rng(5)
    first_below = set()
    n_inf = 0
    for _ in range(4000):
        f0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 8.0))
        form = normalform._EnvelopeField(lambda t: f0)
        v_exp = rng.uniform(-3.0, 3.0) if rng.random() < 0.95 else rng.uniform(150.0, 306.0)
        y = (10.0 ** rng.uniform(-5.9, 0.0), rng.normal() * 10.0 ** v_exp, rng.normal())
        h, t = 10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(0.0, 7.0)
        calls = []

        def closure(t, y):
            calls.append(t)
            return form(t, y)

        args = (t, y, h, form(t, y), 1e-14, 1e-12)
        ref = _attempt_outcome(functools.partial(integrate._dp_checked_attempt, closure), *args)
        assert _attempt_outcome(form.dp_checked_attempt, *args) == ref
        if isinstance(ref, tuple):
            first_below.add(len(calls) + 1)  # stage 1 is the caller's f1
        else:
            n_inf += np.frombuffer(ref)[-1] == math.inf
    assert first_below == {2, 3, 4, 5, 6, 7} and n_inf > 0


@pytest.mark.parametrize("beta0,message", [
    (1.1e-12, "envelope w = -19.069250736103 at t = 2e-05 below 1e-06"),  # a trial step's stage
    (1e-12, "envelope w = 1e-06 at t = 0.0 below 1e-06"),  # the start's evaluation
])
def test_envelope_floor_is_checked_at_every_field_evaluation(beta0, message):
    h, mono = _floor_case(beta0)
    with pytest.raises(EnvelopeBlowupError) as info:
        cs_envelope(h, mono, n_grid=51)
    assert str(info.value) == message


def test_reduce_constant_recovers_autonomous_form():
    omega0 = 0.25
    g0 = 0.3
    for m in (2, 3, 5):
        res = reduce(HillSpec(f=lambda t: omega0 * omega0, T=TWO_PI), lambda t: g0, m)
        assert abs(res.omega_nf - omega0) < 1e-9
        assert np.max(np.abs(res.env.w - omega0**-0.5)) < 1e-9
        want = g0 * omega0 ** (-(m + 3) / 2.0)
        assert np.max(np.abs(res.g_nf_grid - want)) < 1e-9 * want


def test_reduce_validation():
    h = _const_hill()
    with pytest.raises(ValueError):
        reduce(h, lambda t: 0.1, 1)
    with pytest.raises(ValueError):
        reduce(h, lambda t: 0.1, 2.5)


def test_reduced_coefficient_exponent_structure():
    # g_nf = g(t(s)) * w(t(s))^(m+3): the ratio across two exponents
    # recovers w^3 pointwise, and re-multiplying reproduces the m=2 grid
    def f(t):
        return 0.3 + 0.05 * math.cos(t)

    def g(t):
        return 0.2 * (1.0 + 0.5 * math.sin(t))

    h = HillSpec(f=f, T=TWO_PI)
    r2 = reduce(h, g, 2)
    r5 = reduce(h, g, 5)
    ratio = r5.g_nf_grid / r2.g_nf_grid
    w_s = ratio ** (1.0 / 3.0)
    assert np.all(ratio > 0.0)
    assert abs(w_s[0] - math.sqrt(r2.mono.beta0)) < 1e-9
    # g(t(s)) recovered through the inverse map's time column
    t_of_s = np.array([r2.inverse(0.0, 0.0, s)[2] for s in r2.s_grid])
    g_vals = np.array([g(t) for t in t_of_s])
    assert np.max(np.abs(g_vals * w_s**5 - r2.g_nf_grid)) < 1e-7


def test_forward_inverse_round_trip():
    h = HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI)
    res = reduce(h, lambda t: 0.2, 2)
    for z, zp, t in ((0.3, 0.1, 0.0), (-0.2, 0.4, 2.0), (0.05, -0.3, 6.0)):
        y, dyds, s = res.forward(z, zp, t)
        z2, zp2, t2 = res.inverse(y, dyds, s)
        assert abs(z2 - z) < 1e-9
        assert abs(zp2 - zp) < 1e-9
        assert abs(t2 - t) < 1e-8


def test_envelope_phase_monotone_and_normalized():
    h = HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI)
    res = reduce(h, lambda t: 0.2, 2)
    assert np.all(np.diff(res.env.phi) > 0.0)
    assert res.s_grid[0] == 0.0
    assert abs(res.s_grid[-1] - TWO_PI) < 1e-12
    assert abs(res.omega_nf - res.env.phi[-1] / TWO_PI) < 1e-15


def _old_reduced_field(res):
    """``make_reduced_field``'s field as a plain closure: a reference on the generic path."""
    g_spl = spline.not_a_knot(res.s_grid, res.g_nf_grid)
    wnf2 = res.omega_nf * res.omega_nf

    def field(s, y):
        yy, dy = y
        return (dy, -wnf2 * yy - wnf2 * float(g_spl(s)) * int_pow(yy, res.m))

    return field


@functools.cache
def _criterion_10b(m):
    """The reduction of f = 0.3 + 0.05 cos t, g = 0.2 (1 + 0.5 sin t) at exponent m."""
    return reduce(HillSpec(f=lambda t: 0.3 + 0.05 * math.cos(t), T=TWO_PI),
                  lambda t: 0.2 * (1.0 + 0.5 * math.sin(t)), m)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("integrate,cfg", [
    (integrate_adaptive, AdaptiveConfig(rtol=1e-12, atol=1e-14, t_end=TWO_PI)),
    # 6284 steps cross the fused chunks, and the last step is shortened onto 2 pi
    (integrate_fixed, FixedStepConfig(h=1e-3, t_end=TWO_PI)),
], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("y0", [(0.3, 0.1), (-0.2, 0.05), (0.0, -0.0), (-0.0, 0.0)])
def test_reduced_field_is_the_old_closure_bit_for_bit(m, integrate, cfg, y0, step_cap):
    res = _criterion_10b(m)
    field = make_reduced_field(res)
    assert isinstance(field, PowerForm)
    ref = integrate(_old_reduced_field(res), y0, cfg)
    step_cap(ref.n_accepted)
    assert _bits(integrate(field, y0, cfg)) == _bits(ref)


def test_reduced_field_two_path_consistency(step_cap):
    def f(t):
        return 0.3 + 0.05 * math.cos(t)

    def g(t):
        return 0.2 * (1.0 + 0.5 * math.sin(t))

    h = HillSpec(f=f, T=TWO_PI)
    res = reduce(h, g, 2)

    def orig(t, y):
        z, zp = y
        return (zp, -f(t) * z - g(t) * z * z)

    z0, zp0 = 0.3, 0.1
    run_t = integrate_adaptive(orig, (z0, zp0),
                               AdaptiveConfig(rtol=1e-12, atol=1e-14, t_end=TWO_PI,
                                              record=False))
    y_a, dyds_a, _ = res.forward(run_t.ys[-1][0], run_t.ys[-1][1], TWO_PI)

    y0, dyds0, _ = res.forward(z0, zp0, 0.0)
    cfg = AdaptiveConfig(rtol=1e-12, atol=1e-14, t_end=TWO_PI, record=False)
    ref = integrate_adaptive(_old_reduced_field(res), (y0, dyds0), cfg)
    step_cap(ref.n_accepted)
    run_s = integrate_adaptive(make_reduced_field(res), (y0, dyds0), cfg)
    assert _bits(run_s) == _bits(ref)
    assert abs(run_s.ys[-1][0] - y_a) < 1e-6
    assert abs(run_s.ys[-1][1] - dyds_a) < 1e-6


def test_hill_spec_validation():
    with pytest.raises(ValueError):
        HillSpec(f=lambda t: 1.0, T=0.0)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="period T must be positive and finite"):
            HillSpec(f=lambda t: 1.0, T=T)
