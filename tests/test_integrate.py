import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from osclab import integrate, lanes
from osclab.errors import (CoefficientSingularError, NonfiniteStateError, StepBudgetError,
                           StepUnderflowError)
from osclab.family import FiveParamSpec, make_augmented_field
from osclab.integrate import (
    FAC_MAX,
    FAC_MIN,
    SAFETY,
    AdaptiveConfig,
    FixedStepConfig,
    _check_state,
    _dp_attempt,
    _dp_checked_attempt,
    _escaped,
    _Recorder,
    _rk4_step,
    integrate_adaptive,
    integrate_fixed,
    sample_strobe,
)
from osclab.lanes import LaneForm, integrate_lanes, make_lane_field
from osclab.model import (MAX_M, OscillatorSpec, PowerForm, Sampled, Trajectory, make_field,
                          trig_spec)
from osclab.stability import bounded


def harmonic(t, y):
    return (y[1], -y[0])


def test_fixed_step_lands_exactly_on_t_end():
    # 0.3 is not representable, so accumulated steps never hit it by chance
    cfg = FixedStepConfig(h=0.07, t_end=0.3)
    traj = integrate_fixed(harmonic, (1.0, 0.0), cfg)
    assert traj.ts[-1] == 0.3
    assert traj.status == "completed"


def test_fixed_step_linear_field_is_exact():
    # z' = p, p' = 0 is degree-1 polynomial, integrated exactly by RK4
    traj = integrate_fixed(lambda t, y: (y[1], 0.0), (0.0, 1.0),
                           FixedStepConfig(h=0.125, t_end=1.0))
    assert traj.ys[-1][0] == 1.0
    assert traj.ys[-1][1] == 1.0


def test_fixed_step_harmonic_period():
    cfg = FixedStepConfig(h=1e-3, t_end=2.0 * math.pi)
    traj = integrate_fixed(harmonic, (1.0, 0.0), cfg)
    assert abs(traj.ys[-1][0] - 1.0) < 1e-10
    assert abs(traj.ys[-1][1]) < 1e-10


def test_fixed_step_order_four(step_cap):
    # halving h must shrink the endpoint error by about 2^4.  The adaptive
    # reference takes 1383 accepted steps and the smallest h 5000; the cap
    # ends a broken Dormand-Prince step, whose steps shrink, in seconds
    step_cap(5000)
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    field = make_field(spec)
    ref = integrate_adaptive(field, (0.35, 0.0),
                             AdaptiveConfig(rtol=1e-13, atol=1e-15, t_end=10.0, record=False))
    z_ref, p_ref = ref.ys[-1][0], ref.ys[-1][1]
    errs = []
    # smallest h kept well above the reference noise floor (~1e-13)
    for h in (8e-3, 4e-3, 2e-3):
        traj = integrate_fixed(field, (0.35, 0.0),
                               FixedStepConfig(h=h, t_end=10.0, record=False))
        errs.append(math.hypot(traj.ys[-1][0] - z_ref, traj.ys[-1][1] - p_ref))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 12.0 < r1 < 22.0
    assert 12.0 < r2 < 22.0


def test_fixed_step_escape_status():
    # p' = +z grows without bound
    traj = integrate_fixed(lambda t, y: (y[1], y[0]), (1.0, 1.0),
                           FixedStepConfig(h=1e-2, t_end=50.0, escape_bound=100.0))
    assert traj.status == "escaped"
    assert traj.ts[-1] < 50.0
    assert max(abs(traj.ys[-1][0]), abs(traj.ys[-1][1])) > 100.0


def test_fixed_step_singular_status():
    def field(t, y):
        if t > 0.5:
            raise CoefficientSingularError("test singularity")
        return (y[1], -y[0])

    traj = integrate_fixed(field, (1.0, 0.0), FixedStepConfig(h=1e-2, t_end=2.0))
    assert traj.status == "coefficient_singular"
    assert traj.ts[-1] <= 0.51


def test_fixed_step_nonfinite_raises():
    def field(t, y):
        return (y[1], math.nan if t > 0.1 else -y[0])

    with pytest.raises(NonfiniteStateError):
        integrate_fixed(field, (1.0, 0.0), FixedStepConfig(h=1e-2, t_end=1.0))


def test_fixed_record_false_keeps_endpoints_only():
    cfg = FixedStepConfig(h=1e-3, t_end=1.0, record=False)
    traj = integrate_fixed(harmonic, (1.0, 0.0), cfg)
    assert len(traj) == 2
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == 1.0


def test_recorder_builds_views_of_its_buffers():
    # the trajectory shares the recorder's memory, so the record is held once
    rec = _Recorder(True, 0.0, (1.0, 2.0))
    rec.push_many(np.array([0.5]), (3.0, 4.0))
    rec.push_many(np.array([0.75, 1.0]), [5.0, 6.0, 7.0, 8.0])
    traj = rec.build("completed", 1.0, (7.0, 8.0))
    assert np.shares_memory(traj.ts, rec.ts) and np.shares_memory(traj.ys, rec.buf)
    assert traj.ts.tolist() == [0.0, 0.5, 0.75, 1.0]
    assert traj.ys.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
    with pytest.raises(BufferError):  # build is the recorder's last act
        rec.push_many(np.array([2.0]), (9.0, 10.0))


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(rtol=1e-15, t_end=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(rtol=1e-10, t_end=1.0, h_init=1e-14, h_min=1e-13)


@pytest.mark.parametrize("make", [
    lambda v: FixedStepConfig(h=v, t_end=1.0),
    lambda v: FixedStepConfig(h=1e-3, t_end=v),
    lambda v: FixedStepConfig(h=1e-3, t_start=v, t_end=1.0),
    lambda v: AdaptiveConfig(rtol=1e-10, t_end=v),
    lambda v: AdaptiveConfig(rtol=1e-10, t_start=v, t_end=1.0),
    lambda v: AdaptiveConfig(rtol=v, t_end=1.0),
    lambda v: AdaptiveConfig(rtol=1e-10, atol=v, t_end=1.0),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_configs_reject_nonfinite_values(make, value):
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize("bound", [math.nan, 0.0, -1.0, -math.inf])
def test_configs_reject_nonpositive_escape_bound(bound):
    with pytest.raises(ValueError, match="escape bound"):
        FixedStepConfig(h=1e-3, t_end=1.0, escape_bound=bound)
    with pytest.raises(ValueError, match="escape bound"):
        AdaptiveConfig(rtol=1e-10, t_end=1.0, escape_bound=bound)
    assert AdaptiveConfig(rtol=1e-10, t_end=1.0).escape_bound == math.inf


def test_adaptive_matches_tight_reference(step_cap):
    step_cap(3400)
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    field = make_field(spec)
    ref = integrate_adaptive(field, (0.35, 0.0),
                             AdaptiveConfig(rtol=1e-13, atol=1e-15, t_end=20.0, record=False))
    got = integrate_adaptive(field, (0.35, 0.0),
                             AdaptiveConfig(rtol=1e-9, atol=1e-12, t_end=20.0, record=False))
    assert abs(got.ys[-1][0] - ref.ys[-1][0]) < 1e-6
    assert got.n_accepted > 0
    assert got.ts[-1] == 20.0


def test_adaptive_step_counters():
    traj = integrate_adaptive(harmonic, (1.0, 0.0),
                              AdaptiveConfig(rtol=1e-10, t_end=10.0))
    assert traj.n_accepted == len(traj) - 1
    assert traj.n_rejected >= 0


def test_adaptive_escape():
    traj = integrate_adaptive(lambda t, y: (y[1], y[0]), (1.0, 1.0),
                              AdaptiveConfig(rtol=1e-10, t_end=50.0, escape_bound=100.0))
    assert traj.status == "escaped"
    assert traj.ts[-1] < 50.0


def test_adaptive_singular():
    def field(t, y):
        if t > 0.5:
            raise CoefficientSingularError("test singularity")
        return (y[1], -y[0])

    traj = integrate_adaptive(field, (1.0, 0.0), AdaptiveConfig(rtol=1e-10, t_end=2.0))
    assert traj.status == "coefficient_singular"


def test_adaptive_step_underflow():
    # a field stiff enough at t=1 that no finite step is accepted
    def field(t, y):
        return (y[1], -y[0] / (1.0 - t))

    with pytest.raises(StepUnderflowError):
        integrate_adaptive(field, (1.0, 0.0),
                           AdaptiveConfig(rtol=1e-10, t_end=1.0, h_min=1e-10))


@pytest.mark.parametrize("field", [harmonic, make_field(trig_spec(1.3, 0.9, 0.0, 1.0))],
                         ids=["generic", "power_form"])
def test_adaptive_run_stops_past_its_step_budget(monkeypatch, field):
    cfg = AdaptiveConfig(rtol=1e-8, t_end=20.0)
    n = integrate_adaptive(field, (0.1, 0.0), cfg).n_accepted
    monkeypatch.setattr(integrate, "MAX_STEPS", n)
    assert integrate_adaptive(field, (0.1, 0.0), cfg).n_accepted == n
    monkeypatch.setattr(integrate, "MAX_STEPS", n - 1)
    with pytest.raises(StepBudgetError, match=f"more than {n - 1} accepted steps"):
        integrate_adaptive(field, (0.1, 0.0), cfg)
    monkeypatch.setattr(integrate, "MAX_STEPS", 3000)
    with pytest.raises(StepBudgetError):
        integrate_adaptive(field, (0.1, 0.0), AdaptiveConfig(rtol=1e-8, t_end=1e300))


def test_adaptive_nonfinite_trial_is_rejected_not_fatal():
    # field produces inf for large z; adaptive must shrink the step, and
    # the escape bound must end the run before the state itself goes bad
    def field(t, y):
        z = y[0]
        if abs(z) > 1e3:
            return (y[1], math.inf)
        return (y[1], z)

    traj = integrate_adaptive(field, (1.0, 1.0),
                              AdaptiveConfig(rtol=1e-10, t_end=50.0, escape_bound=100.0))
    assert traj.status == "escaped"


def test_strobe_points_match_single_run():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    field = make_field(spec)
    res = sample_strobe(field, (0.1, 0.0), math.pi, 4, rtol=1e-10)
    assert isinstance(res, Trajectory)
    assert len(res) == 5
    assert res.status == "completed"
    assert res.ys[0].tolist() == [0.1, 0.0]
    # strobe times are k*pi exactly
    assert res.ts.tolist() == [k * math.pi for k in range(5)]
    # up to its first stop the strobe's march is a direct adaptive run to
    # that time with the same tolerances, so the first point equals one
    direct = integrate_adaptive(field, (0.1, 0.0),
                                AdaptiveConfig(rtol=1e-10, atol=1e-12,
                                               t_end=math.pi, record=False))
    assert res.ys[1].tolist() == direct.ys[-1].tolist()


def test_strobe_fixed_step_mode():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    field = make_field(spec)
    res = sample_strobe(field, (0.1, 0.0), math.pi, 3, h=1e-3)
    assert len(res) == 4
    # fixed-step strobe at h=1e-3 stays close to the adaptive one
    res_a = sample_strobe(field, (0.1, 0.0), math.pi, 3, rtol=1e-12)
    assert abs(res.z[-1] - res_a.z[-1]) < 1e-9


def test_strobe_zero_points():
    res = sample_strobe(harmonic, (0.3, 0.1), math.pi, 0)
    assert (res.ts.tolist(), res.ys.tolist()) == ([0.0], [[0.3, 0.1]])
    assert (res.status, res.n_accepted, res.n_rejected) == ("completed", 0, 0)


@pytest.mark.parametrize("k_max", [-1, 10**6 + 1])
@pytest.mark.parametrize("h", [None, 1e-3])
def test_strobe_refuses_k_max_out_of_range(k_max, h):
    with pytest.raises(ValueError, match="k_max"):
        sample_strobe(harmonic, (0.3, 0.1), math.pi, k_max, h=h)


@pytest.mark.parametrize("t_step", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("k_max", [0, 3])
def test_strobe_refuses_a_t_step_that_is_not_positive_and_finite(t_step, k_max):
    with pytest.raises(ValueError, match=f"t_step must be positive and finite, got {t_step}"):
        sample_strobe(harmonic, (0.3, 0.1), t_step, k_max)


@pytest.mark.parametrize("k_max", [0, 1])
@pytest.mark.parametrize("h", [None, 1e-3])
def test_strobe_refuses_a_one_component_state(k_max, h):
    # refused like integrate_fixed/integrate_adaptive refuse it, before any state is made
    for field in (harmonic, make_field(trig_spec(1.3, 0.9, 0.0, 1.0))):
        with pytest.raises(ValueError, match=r"state must have at least \(z, p\) components"):
            sample_strobe(field, (0.3,), math.pi, k_max, h=h)


def test_strobe_stops_on_escape():
    res = sample_strobe(lambda t, y: (y[1], y[0]), (1.0, 1.0), 1.0, 20,
                        escape_bound=100.0, rtol=1e-10)
    assert res.status == "escaped"
    assert len(res) < 21 and res.ts[-1] == len(res) - 1.0


def _adaptive_single_run(field, y0, cfg):
    """Reference: the Dormand-Prince loop as it ran before stops, one run from t_start to t_end."""
    t0, t_end = cfg.t_start, cfg.t_end
    y = tuple(float(v) for v in y0)
    rec = _Recorder(cfg.record, t0, y)
    status, n_acc, n_rej, t = "completed", 0, 0, t0
    h = min(cfg.h_init, t_end - t0)
    try:
        f1 = field(t, y)
        while t < t_end:
            if t + h >= t_end:
                h_att, t_next = t_end - t, t_end
            else:
                h_att, t_next = h, t + h
            y_new, f7, errs = _dp_attempt(field, t, y, h_att, f1)
            err, finite = 0.0, True
            for yi, yn, e in zip(y, y_new, errs):
                if not (math.isfinite(yn) and math.isfinite(e)):
                    finite = False
                    break
                r = e / (cfg.atol + cfg.rtol * max(abs(yi), abs(yn)))
                err += r * r
            err = math.sqrt(err / len(y)) if finite else math.inf
            if err <= 1.0:
                t, y, f1 = t_next, y_new, f7
                n_acc += 1
                rec.push_many(np.array([t]), y)
                if math.isfinite(cfg.escape_bound) and _escaped(y, cfg.escape_bound):
                    status = "escaped"
                    break
                if err == 0.0:
                    fac = FAC_MAX
                else:
                    fac = min(FAC_MAX, max(FAC_MIN, SAFETY * err ** -0.2))
                h = max(h_att * fac, cfg.h_min)
            else:
                n_rej += 1
                fac = FAC_MIN if math.isinf(err) else max(FAC_MIN, SAFETY * err ** -0.2)
                h = h_att * fac
                if h < cfg.h_min:
                    raise StepUnderflowError(f"required step {h:.3e} < h_min {cfg.h_min:.3e}")
    except CoefficientSingularError:
        status = "coefficient_singular"
    return rec.build(status, t, y, n_accepted=n_acc, n_rejected=n_rej)


def _late_singular(t, y):
    if t > 2.5:
        raise CoefficientSingularError("test singularity")
    return (y[1], -y[0])


def _field_id(value):
    """Test id "field" for a PowerForm parameter; None keeps pytest's own id for the rest."""
    return "field" if isinstance(value, PowerForm) else None


@pytest.mark.parametrize("field,y0,cfg", [
    (harmonic, (1.0, 0.0), AdaptiveConfig(rtol=1e-10, t_end=10.0)),
    (make_field(trig_spec(1.3, 0.9, 0.2, 1.0, 3)), (0.3, 0.1),
     AdaptiveConfig(rtol=1e-9, t_start=-1.5, t_end=7.3)),
    (make_field(trig_spec(1.3, 0.9, 0.0, 1.0)), (0.1, 0.0),
     AdaptiveConfig(rtol=1e-12, atol=1e-14, t_end=20.0, record=False)),
    (lambda t, y: (y[1], y[0]), (1.0, 1.0),
     AdaptiveConfig(rtol=1e-10, t_end=50.0, escape_bound=100.0)),
    (_late_singular, (1.0, 0.0), AdaptiveConfig(rtol=1e-10, t_end=5.0)),
    (lambda t, y: (y[1], math.inf if abs(y[0]) > 1e3 else y[0]), (1.0, 1.0),
     AdaptiveConfig(rtol=1e-10, t_end=50.0, escape_bound=100.0, record=False)),
], ids=_field_id)
def test_single_stop_march_matches_single_run(field, y0, cfg):
    ref = _adaptive_single_run(field, y0, cfg)
    for got in (integrate_adaptive(field, y0, cfg),
                integrate_adaptive(field, y0, cfg, stops=[cfg.t_end])):
        assert np.array_equal(got.ts, ref.ts)
        assert np.array_equal(got.ys, ref.ys)
        assert (got.status, got.n_accepted, got.n_rejected) == (
            ref.status, ref.n_accepted, ref.n_rejected)


def test_single_stop_march_underflows_like_single_run():
    cfg = AdaptiveConfig(rtol=1e-10, t_end=1.0, h_min=1e-10)
    field = _scalar_field(STIFF)
    for run in (_adaptive_single_run, integrate_adaptive):
        with pytest.raises(StepUnderflowError):
            run(field, (1.0, 0.0), cfg)


def test_a_rejection_onto_h_min_goes_on():
    # the first trial (h = 1) meets g = inf, so its err is inf and the next h is
    # 0.2 * 1.0, exactly h_min: that is allowed, and only the rejection after the
    # accepted step to t = 0.2 falls below h_min
    form = PowerForm(1.0, 2, lambda t: 1.0 if t < 0.5 else math.inf, None)
    cfg = AdaptiveConfig(rtol=1e-3, t_end=1.0, h_init=1.0, h_min=0.2)
    msgs = []
    for field in (form, lambda t, y: form(t, y)):
        with pytest.raises(StepUnderflowError) as exc:
            integrate_adaptive(field, (1.0, 0.0), cfg)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1] and msgs[0].endswith(" < h_min 2.000e-01 at t=0.2")


@pytest.mark.parametrize("stops", [[], [0.5, 0.4, 1.0], [0.5, 0.5, 1.0], [0.0, 1.0], [0.5],
                                   [0.5, 1.5]])
def test_adaptive_rejects_bad_stops(stops):
    with pytest.raises(ValueError, match="stops"):
        integrate_adaptive(harmonic, (1.0, 0.0), AdaptiveConfig(rtol=1e-10, t_end=1.0),
                           stops=stops)
    with pytest.raises(ValueError, match="stops"):
        integrate_fixed(harmonic, (1.0, 0.0), FixedStepConfig(h=1e-3, t_end=1.0), stops=stops)


def test_march_lands_on_every_stop_and_keeps_its_step():
    stops = [0.01 * k for k in range(1, 1001)]
    seen = []
    cfg = AdaptiveConfig(rtol=1e-10, t_end=stops[-1])
    traj = integrate_adaptive(harmonic, (1.0, 0.0), cfg, stops=stops,
                              at_stop=lambda t, y: seen.append((t, y)))
    assert [t for t, _ in seen] == stops
    assert set(stops) <= set(traj.ts.tolist())
    assert seen[-1][1] == tuple(traj.ys[-1])
    # one clipped step per stop once the controller has ramped up: a cold
    # start at every stop would need about four
    assert traj.n_accepted < len(stops) + 20
    assert abs(seen[-1][1][0] - math.cos(10.0)) < 1e-8
    # a stop a hair after another must not shrink the step after it to the hair's width
    cfg = AdaptiveConfig(rtol=1e-10, t_end=10.0)
    plain = integrate_adaptive(harmonic, (1.0, 0.0), cfg, stops=[5.0, 10.0])
    hair = integrate_adaptive(harmonic, (1.0, 0.0), cfg, stops=[5.0, 5.0 + 1e-9, 10.0])
    assert hair.n_accepted <= plain.n_accepted + 1


def _cold_strobe(field, y0, t_step, k_max, **cfg):
    """Reference: a strobe of separate cold adaptive runs, one per interval.

    The runs take the generic steps of a plain wrapper of field, so a
    broken fused step neither changes nor slows them.  Returns the start
    and the state at each t_k reached as a Trajectory with the status of
    the last run and the accepted and rejected steps of all runs together.
    """
    y = tuple(y0)
    ts, ys, status, n_acc, n_rej = [0.0], [y], "completed", 0, 0
    for k in range(1, k_max + 1):
        seg = integrate_adaptive(lambda t, y: field(t, y), y, AdaptiveConfig(
            t_start=(k - 1) * t_step, t_end=k * t_step, record=False, **cfg))
        n_acc, n_rej = n_acc + seg.n_accepted, n_rej + seg.n_rejected
        y = tuple(float(v) for v in seg.ys[-1])
        if seg.status != "completed":
            status = seg.status
            break
        ts.append(k * t_step)
        ys.append(y)
    return Trajectory(np.array(ts), np.array(ys), status, n_acc, n_rej)


def test_warm_strobe_matches_cold_segments_on_fig2(step_cap):
    # this cap guards each cold run of the reference (about 100 steps); the
    # warm strobe, which never ramps up again, takes fewer steps than they do
    # together (96,473 against 100,062), so it is capped at their total
    step_cap(116_000)
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0, 2))
    ref = _cold_strobe(field, (0.1, 0.0), math.pi, 999, rtol=1e-10, atol=1e-12,
                       escape_bound=50.0)
    step_cap(ref.n_accepted)
    res = sample_strobe(field, (0.1, 0.0), math.pi, 999, escape_bound=50.0, rtol=1e-10)
    assert res.status == ref.status == "completed"
    assert len(res) == len(ref) == 1000
    assert res.ts.tolist() == [k * math.pi for k in range(1000)]
    assert np.abs(res.ys - ref.ys).max() < 1e-8
    # about 97 steps per strobe interval, 4 of which a cold start spends ramping up
    assert 0 < res.n_accepted < 98 * 999


@pytest.mark.parametrize("field,y0,t_step,escape,want", [
    (make_field(trig_spec(1.3, 0.9, 0.0, 1.4)), (1.4, 0.0), math.pi / 1.4, 50.0, "escaped"),
    (lambda t, y: (y[1], y[0]), (1.0, 1.0), 1.0, 100.0, "escaped"),
    (_late_singular, (1.0, 0.0), 1.0, math.inf, "coefficient_singular"),
], ids=_field_id)
def test_warm_strobe_stops_where_cold_segments_stop(field, y0, t_step, escape, want, step_cap):
    ref = _cold_strobe(field, y0, t_step, 20, rtol=1e-10, atol=1e-12, escape_bound=escape)
    step_cap(ref.n_accepted)
    res = sample_strobe(field, y0, t_step, 20, escape_bound=escape, rtol=1e-10)
    assert res.status == ref.status == want
    assert len(res) == len(ref) < 21


def test_warm_strobe_underflows_like_cold_segments():
    field = _scalar_field(STIFF)
    with pytest.raises(StepUnderflowError):
        sample_strobe(field, (1.0, 0.0), 0.25, 8, rtol=1e-10)
    with pytest.raises(StepUnderflowError):
        _cold_strobe(field, (1.0, 0.0), 0.25, 8, rtol=1e-10)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    A=st.floats(1.0, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.floats(-0.95, 0.95),
    omega=st.floats(0.8, 2.0),
    m=st.integers(2, 4),
    z0=st.floats(-0.05, 0.05),
    p0=st.floats(-0.05, 0.05),
    k_max=st.integers(1, 12),
)
def test_warm_strobe_matches_cold_segments_on_random_systems(A, rel_b, rel_c, omega, m, z0, p0,
                                                             k_max, step_cap):
    # at most 1,680 accepted steps on the corners of the strategy: this cap
    # guards each cold run of the reference, and the warm strobe is capped
    # at their total
    step_cap(2100)
    # R = hypot(B, C) < 0.95 A keeps alpha2 positive; small amplitudes keep the motion bounded
    field = make_field(trig_spec(A, 0.67 * A * rel_b, 0.67 * A * rel_c, omega, m))
    t_step = math.pi / omega
    ref = _cold_strobe(field, (z0, p0), t_step, k_max, rtol=1e-10, atol=1e-12,
                       escape_bound=1e3)
    step_cap(ref.n_accepted)
    res = sample_strobe(field, (z0, p0), t_step, k_max, escape_bound=1e3, rtol=1e-10)
    assert res.status == ref.status == "completed"
    assert res.ts.tolist() == ref.ts.tolist()
    assert np.abs(res.ys - ref.ys).max() < 1e-8


# lane kinds for the status tests: each lane is one of these systems
HARMONIC, GROWTH, SINGULAR_LATE, STIFF, SINGULAR_AT_START = range(5)


def _scalar_field(kind):
    def field(t, y):
        z, p = y
        if kind == SINGULAR_AT_START or (kind == SINGULAR_LATE and t > 0.5):
            raise CoefficientSingularError("test singularity")
        if kind == GROWTH:
            return (p, z)
        if kind == STIFF:
            return (p, -z / (1.0 - t))
        return (p, -z)

    return field


def _kinds_times(ts, params):
    # the time part of the kinds field is the stage times themselves
    kind = params[0]
    singular = (kind == SINGULAR_AT_START) | ((kind == SINGULAR_LATE) & (ts > 0.5))
    return ts, singular.any(axis=0)


def _kinds_deriv(t, y, params):
    kind = params[0]
    z, p = y
    dp = np.select([kind == GROWTH, kind == STIFF], [z, -z / (1.0 - t)], -z)
    return np.stack([p, dp])


_lane_field = LaneForm(_kinds_times, _kinds_deriv)


def test_lanes_end_like_scalar_runs(step_cap):
    step_cap(300)
    # harmonic lanes outlive neighbours that escape, turn singular or underflow
    kinds = [HARMONIC, GROWTH, SINGULAR_LATE, HARMONIC, STIFF, SINGULAR_AT_START, HARMONIC]
    y0 = [(1.0, 0.0), (5.0, 5.0), (0.5, 0.0), (0.2, -0.3), (1.0, 0.0), (1.0, 0.0), (-2.0, 1.0)]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=2.0, escape_bound=20.0, h_min=1e-10)
    run = integrate_lanes(_lane_field, np.array(y0).T, [kinds], cfg)
    assert run.status == ("completed", "escaped", "coefficient_singular", "completed",
                          "step_underflow", "coefficient_singular", "completed")
    assert run.lock_steps >= max(run.n_accepted + run.n_rejected)
    for j, (kind, start) in enumerate(zip(kinds, y0)):
        if kind == STIFF:
            with pytest.raises(StepUnderflowError):
                integrate_adaptive(_scalar_field(kind), start, cfg)
            assert run.ts[j] < 1.0
            continue
        ref = integrate_adaptive(_scalar_field(kind), start, cfg)
        assert run.status[j] == ref.status
        # numpy's power rounds err ** -0.2 apart from math's, so the step
        # sequences drift apart at the level of the error estimate
        assert math.isclose(run.ts[j], ref.ts[-1], rel_tol=1e-8)
        assert np.allclose(run.ys[:, j], ref.ys[-1], rtol=1e-8, atol=0.0)
    assert (run.ts[5], run.n_accepted[5]) == (0.0, 0)


@pytest.mark.parametrize("B,escape,want", [
    # A - R = 1e-10 < EPS_POS: alpha2 dips to 1e-10 at t = pi/2 and g(t) blows up there
    (1.0 - 1e-10, 50.0, ("completed", "escaped")),
    (1.0 - 1e-10, 1e100, ("completed", "step_underflow")),
    # the dip sits at t = 0, so the first field call is singular
    (-(1.0 - 1e-10), 50.0, ("coefficient_singular", "coefficient_singular")),
])
def test_trig_lanes_end_like_scalar_runs(B, escape, want, step_cap):
    step_cap(1500)
    spec = trig_spec(1.0, B, 0.0, 1.0)
    z0s = [1e-7, 1e-5]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=5.0, escape_bound=escape, record=False)
    field, params = make_lane_field([spec] * len(z0s))
    run = integrate_lanes(field, np.array([z0s, [0.0] * len(z0s)]), params, cfg)
    assert run.status == want
    for j, z0 in enumerate(z0s):
        if want[j] == "step_underflow":
            with pytest.raises(StepUnderflowError):
                integrate_adaptive(make_field(spec), (z0, 0.0), cfg)
            continue
        ref = integrate_adaptive(make_field(spec), (z0, 0.0), cfg)
        assert run.status[j] == ref.status
        # near the dip g(t) amplifies the rounding of numpy's power
        assert math.isclose(run.ts[j], ref.ts[-1], rel_tol=1e-8)


def test_lanes_stop_past_their_lock_step_budget(monkeypatch, step_cap):
    step_cap(950)
    specs = [trig_spec(1.3, 0.9, 0.0, w) for w in (0.8, 1.2)]
    field, params = make_lane_field(specs)
    y0 = np.array([[0.1, 0.2], [0.0, 0.0]])
    cfg = AdaptiveConfig(rtol=1e-10, t_end=20.0, record=False)
    n = integrate_lanes(field, y0, params, cfg).lock_steps
    monkeypatch.setattr(integrate, "MAX_STEPS", n)
    assert integrate_lanes(field, y0, params, cfg).lock_steps == n
    monkeypatch.setattr(integrate, "MAX_STEPS", n - 1)
    with pytest.raises(StepBudgetError, match=f"more than {n - 1} lock-steps"):
        integrate_lanes(field, y0, params, cfg)
    monkeypatch.setattr(integrate, "MAX_STEPS", 3000)
    with pytest.raises(StepBudgetError):
        integrate_lanes(field, y0, params, AdaptiveConfig(rtol=1e-10, t_end=1e300, record=False))


def test_lanes_reject_misshapen_input():
    cfg = AdaptiveConfig(rtol=1e-10, t_end=1.0)
    with pytest.raises(ValueError):
        integrate_lanes(_lane_field, np.zeros((1, 3)), np.zeros((1, 3)), cfg)
    with pytest.raises(ValueError):
        integrate_lanes(_lane_field, np.zeros((2, 3)), np.zeros((1, 2)), cfg)


@example(A=1.3, rel_b=0.7, rel_c=0.2, m=2,  # a bounded and an escaping cell, checked first
         cells=[(0.8, 0.3, 0.0), (1.6, 1.9, 0.1)])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    A=st.floats(0.5, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.floats(-0.95, 0.95),
    m=st.integers(2, 4),
    cells=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)),
                   min_size=1, max_size=6),
)
def test_lanes_match_scalar_runs_on_random_trig_cells(A, rel_b, rel_c, m, cells, step_cap):
    # a random search of the strategy found cells of up to 12,900 trial steps
    step_cap(16_000)
    # cells (omega, z0, p0) of one trig family: small amplitudes stay bounded, large ones escape
    specs = [trig_spec(A, 0.67 * A * rel_b, 0.67 * A * rel_c, omega, m) for omega, _, _ in cells]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=20.0, escape_bound=50.0, record=False)
    refs = [integrate_adaptive(make_field(spec), (z0, p0), cfg)
            for spec, (_, z0, p0) in zip(specs, cells)]
    # each lane takes its scalar run's trial steps, one per lock-step, so a
    # lane run that needs more lock-steps fails at once instead of stepping on
    step_cap(max(ref.n_accepted + ref.n_rejected for ref in refs))
    field, params = make_lane_field(specs)
    run = integrate_lanes(field, np.array([[z0 for _, z0, _ in cells], [p0 for _, _, p0 in cells]]),
                          params, cfg)
    for j, ref in enumerate(refs):
        assert run.status[j] == ref.status
        assert (run.n_accepted[j], run.n_rejected[j]) == (ref.n_accepted, ref.n_rejected)
        if ref.status == "completed":
            assert run.ts[j] == ref.ts[-1]
            assert np.allclose(run.ys[:, j], ref.ys[-1], rtol=1e-8, atol=1e-8)


def _lane_batches(seed, n):
    """n seeded (form, y0, params, cfg) trig lane batches, each system of its own family.

    1-300 lanes, m 2-5, C != 0 and negative start times; amplitudes up to 2
    escape.  Every fifth batch dips to alpha2 = 1e-10: at t = pi/(2 omega) for
    B > 0, at t = 0 for B < 0, inside or at the start of its span.
    """
    rng = np.random.default_rng(seed)
    for i in range(n):
        lanes, m = int(rng.integers(1, 301)), int(rng.integers(2, 6))
        A = rng.uniform(0.5, 3.0)
        B, C = 0.67 * A * rng.uniform(-0.95, 0.95), 0.67 * A * rng.uniform(0.05, 0.95)
        if i % 5 == 4:
            A, B, C = 1.0, (1.0 - 1e-10) * (-1) ** i, 0.0
        form, params = make_lane_field(
            [trig_spec(A, B, C, w, m) for w in rng.uniform(0.5, 2.0, lanes)])
        y0 = np.array([rng.uniform(-2.0, 2.0, lanes), rng.uniform(-0.5, 0.5, lanes)])
        t0 = -rng.uniform(0.0, 3.0) if i % 10 != 9 else 0.0
        cfg = AdaptiveConfig(rtol=1e-8, t_start=t0, t_end=t0 + rng.uniform(0.5, 4.0),
                             escape_bound=50.0, record=False)
        yield form, y0, params, cfg


@pytest.mark.parametrize("pair", [lanes.DP54, lanes.DOP853], ids=["dp54", "dop853"])
def test_lane_form_runs_match_the_generic_stages_bit_for_bit(pair, step_cap):
    # the lanes evaluate g at all stage times of a trial at once; the
    # reference form evaluates it one stage row at a time, as one field
    # call per stage would, and ORs the singular rows
    seen = set()
    for form, y0, params, cfg in _lane_batches(11, 10):

        def g_per_row(ts, params, g_stages=form.g_stages):
            rows = [g_stages(t[None], params) for t in ts]
            return (np.concatenate([g for g, _ in rows]),
                    np.logical_or.reduce([s for _, s in rows]))

        # the costliest reference batch takes 1,846 lock-steps; the fast run
        # may take no more than its reference took
        step_cap(2200)
        ref = integrate_lanes(LaneForm(g_per_row, form.deriv), y0, params, cfg, pair)
        step_cap(ref.lock_steps)
        fast = integrate_lanes(form, y0, params, cfg, pair)
        for a, b in [(fast.ts, ref.ts), (fast.ys, ref.ys), (fast.n_accepted, ref.n_accepted),
                     (fast.n_rejected, ref.n_rejected)]:
            assert a.tobytes() == b.tobytes()
        assert (fast.status, fast.lock_steps) == (ref.status, ref.lock_steps)
        seen.update(fast.status)
    assert seen == {"completed", "escaped", "coefficient_singular"}


@pytest.mark.parametrize("pair", [lanes.DP54, lanes.DOP853], ids=["dp54", "dop853"])
def test_lane_form_is_called_once_per_trial_step_not_per_stage(pair, step_cap):
    step_cap(200)
    form, params = make_lane_field([trig_spec(1.3, 0.9, 0.2, w) for w in (0.8, 1.2, 1.6)])
    calls = []

    def g_stages(ts, params):
        calls.append(ts.copy())
        return form.g_stages(ts, params)

    run = integrate_lanes(LaneForm(g_stages, form.deriv),
                          np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]), params,
                          AdaptiveConfig(rtol=1e-10, t_end=3.0, record=False), pair)
    assert run.status == ("completed",) * 3
    # g once for the run's first f1, over one row of start times, then once
    # per lock-step, at every stage time
    assert len(calls) == run.lock_steps + 1
    assert calls[0].tolist() == [[0.0] * 3]
    assert {c.shape[0] for c in calls[1:]} == {5 if pair is lanes.DP54 else 11}
    assert calls[1].shape[1] == 3  # all lanes, until the first completes


def _counting(field):
    """field behind a counter of its evaluations that returned (a raising one is none)."""
    calls = []

    def counted(t, y):
        dy = field(t, y)
        calls.append(t)
        return dy

    return counted, calls


@pytest.mark.parametrize("kind,y0,want", [
    (HARMONIC, (1.0, 0.0), "completed"),
    (GROWTH, (5.0, 5.0), "escaped"),
    (SINGULAR_AT_START, (1.0, 0.0), "coefficient_singular"),  # before its first trial step
], ids=["completed", "escaped", "singular"])
@pytest.mark.parametrize("cfg", [FixedStepConfig(h=1e-2, t_end=2.0, escape_bound=20.0),
                                 AdaptiveConfig(rtol=1e-10, t_end=2.0, escape_bound=20.0)],
                         ids=["rk4", "dormand_prince"])
def test_a_run_counts_its_field_calls(kind, y0, want, cfg, step_cap):
    step_cap(300)  # the adaptive runs take at most 70 trial steps
    field, calls = _counting(_scalar_field(kind))
    integrate_run = integrate_fixed if isinstance(cfg, FixedStepConfig) else integrate_adaptive
    run = integrate_run(field, y0, cfg)
    assert run.status == want
    assert run.field_evals == len(calls)
    assert (run.field_evals == 0) == (kind == SINGULAR_AT_START)


@pytest.mark.parametrize("h", [None, 1e-2], ids=["dormand_prince", "rk4"])
@pytest.mark.parametrize("k_max", [0, 5])
def test_a_strobe_counts_its_field_calls(k_max, h):
    field, calls = _counting(harmonic)
    res = sample_strobe(field, (1.0, 0.0), 0.5, k_max, h=h)
    assert (len(res), res.status) == (k_max + 1, "completed")
    assert res.field_evals == len(calls)
    assert (res.field_evals == 0) == (k_max == 0)


@pytest.mark.parametrize("pair", [lanes.DP54, lanes.DOP853], ids=["dp54", "dop853"])
def test_lanes_count_each_lanes_field_calls(pair, step_cap):
    step_cap(300)
    # each deriv call evaluates every live lane; params[1] names the lane.  A
    # lane singular at its start is not counted, as the scalar field raises there
    counts = [0] * 4

    def deriv(t, y, params):
        for lane in params[1][params[0] != SINGULAR_AT_START].tolist():
            counts[int(lane)] += 1
        return _kinds_deriv(t, y, params)

    kinds = [HARMONIC, GROWTH, SINGULAR_AT_START, HARMONIC]
    y0 = [(1.0, 0.0), (5.0, 5.0), (1.0, 0.0), (-2.0, 1.0)]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=2.0, escape_bound=20.0)
    run = integrate_lanes(LaneForm(_kinds_times, deriv), np.array(y0).T, [kinds, range(4)],
                          cfg, pair)
    assert run.status == ("completed", "escaped", "coefficient_singular", "completed")
    assert run.field_evals.tolist() == counts
    assert counts[2] == 0 < min(counts[:2] + counts[3:])


def _fixed_march_reference(field, y0, cfg, stops):
    """Reference: the RK4 march through stops as one flat loop of ``_rk4_step`` calls.

    From t_start and from each stop the steps end at that time + k*h
    while that is at most the next stop, then a shortened step lands on
    the stop if none did; each step is one record row.  Returns the
    trajectory and the (t, y) of each stop reached without escaping.
    """
    t0, h = cfg.t_start, cfg.h
    t, y = t0, tuple(float(v) for v in y0)
    rec = _Recorder(cfg.record, t, y)
    status, n_acc, seen = "completed", 0, []
    try:
        for stop in stops:
            k = 1
            while status == "completed" and t < stop:
                h_k, t_next = h, t0 + k * h
                if t_next > stop:
                    h_k, t_next = stop - t, stop
                y = _rk4_step(field, t, y, h_k, t_next)
                _check_state(y)
                t = t_next
                k += 1
                n_acc += 1
                rec.push_many(np.array([t]), y)
                if _escaped(y, cfg.escape_bound):
                    status = "escaped"
            if status != "completed":
                break
            seen.append((t, y))
            t0 = stop
    except CoefficientSingularError:
        status = "coefficient_singular"
    return rec.build(status, t, y, n_accepted=n_acc), seen


def _same_fixed_run(got, ref):
    """A fixed-step run must match, bit for bit, the run of ``_fixed_march_reference``."""
    assert np.array_equal(got.ts, ref.ts)
    assert np.array_equal(got.ys, ref.ys)
    assert (got.status, got.n_accepted, got.n_rejected) == (ref.status, ref.n_accepted, 0)


def _fused_matches_generic(field, y0, cfg):
    """The fused steps must match, bit for bit, the generic steps that a plain wrapper forces."""
    assert isinstance(field, PowerForm)
    fused = integrate_fixed(field, y0, cfg)
    ref = integrate_fixed(lambda t, y: field(t, y), y0, cfg)
    assert np.array_equal(fused.ts, ref.ts)
    assert np.array_equal(fused.ys, ref.ys)
    assert (fused.status, fused.n_accepted) == (ref.status, ref.n_accepted)
    return fused


@pytest.mark.parametrize("m", [2, 3, 5])
def test_fused_fixed_step_matches_generic_loop(m):
    # C != 0, and 10k steps cross nine chunk boundaries
    traj = _fused_matches_generic(make_field(trig_spec(1.3, 0.9, 0.2, 1.0, m)), (0.3, 0.1),
                                  FixedStepConfig(h=1e-3, t_end=10.0))
    assert traj.status == "completed" and traj.n_accepted == 10000


@pytest.mark.parametrize("cfg", [
    FixedStepConfig(h=1e-3, t_start=-1.5, t_end=7.3),
    # h does not divide the span: the last step is shortened onto t_end
    FixedStepConfig(h=7e-4, t_start=0.25, t_end=5.0),
    FixedStepConfig(h=7e-4, t_start=0.25, t_end=5.0, record=False),
])
def test_fused_fixed_step_matches_generic_loop_on_any_grid(cfg):
    traj = _fused_matches_generic(make_field(trig_spec(1.3, 0.9, 0.0, 1.0)), (0.1, 0.0), cfg)
    assert traj.status == "completed" and traj.ts[-1] == cfg.t_end
    assert len(traj) == (2 if not cfg.record else traj.n_accepted + 1)


def test_fused_fixed_step_escape_matches_generic_loop():
    traj = _fused_matches_generic(make_field(trig_spec(1.3, 0.9, 0.0, 1.4)), (1.4, 0.0),
                                  FixedStepConfig(h=1e-3, t_end=60.0, escape_bound=50.0))
    assert traj.status == "escaped"
    assert traj.n_accepted > 4096  # the escape falls past the fourth chunk


@pytest.mark.parametrize("B,h,n_before", [
    # A - R = 1e-10 < EPS_POS: alpha2 dips below the floor only within 2e-5 of
    # t = pi/2, so the grid is placed to hit it at a step time (the k4 stage of
    # step 999), at a midpoint (k2 of step 999), and at t = 0 (k1 of step 0)
    (1.0 - 1e-10, (math.pi / 2) / 1000, 999),
    (1.0 - 1e-10, (math.pi / 2) / 999.5, 999),
    (-(1.0 - 1e-10), 1e-3, 0),
])
def test_fused_fixed_step_singular_matches_generic_loop(B, h, n_before):
    field = make_field(trig_spec(1.0, B, 0.0, 1.0))
    for record in (True, False):
        cfg = FixedStepConfig(h=h, t_end=5.0, record=record)
        traj = _fused_matches_generic(field, (1e-7, 0.0), cfg)
        assert (traj.status, traj.n_accepted) == ("coefficient_singular", n_before)
        ref, _ = _fixed_march_reference(field, (1e-7, 0.0), cfg, [cfg.t_end])
        for f in (field, lambda t, y: field(t, y)):  # the fused and the generic steps
            _same_fixed_run(integrate_fixed(f, (1e-7, 0.0), cfg), ref)


def test_fused_fixed_step_raises_what_the_field_raises():
    # alpha2 bottoms out at 2e-9, above the floor, where alpha2 ** -36.5 overflows
    field = make_field(trig_spec(1.0, 1.0 - 2e-9, 0.0, 1.0, 70))
    cfg = FixedStepConfig(h=(math.pi / 2) / 1000, t_end=5.0)
    for f in (field, lambda t, y: field(t, y)):
        with pytest.raises(OverflowError):
            integrate_fixed(f, (1e-7, 0.0), cfg)


@pytest.mark.parametrize("y0", [(math.nan, 0.0), (1e60, 0.0)])
def test_fused_fixed_step_nonfinite_state_raises(y0):
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    cfg = FixedStepConfig(h=1e-3, t_end=10.0)
    for f in (field, lambda t, y: field(t, y)):
        with pytest.raises(NonfiniteStateError):
            integrate_fixed(f, y0, cfg)


def _same_run(a, b):
    """Two runs alike bit for bit: their times, states, status and step counts."""
    assert np.array_equal(a.ts, b.ts) and np.array_equal(a.ys, b.ys)
    assert (a.status, a.n_accepted, a.n_rejected) == (b.status, b.n_accepted, b.n_rejected)


@pytest.mark.parametrize("z0,want", [(0.1, "completed"), (1.4, "escaped")])
def test_fused_strobe_matches_generic_loop(z0, want):
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.4))
    fused = sample_strobe(field, (z0, 0.0), math.pi / 1.4, 6, escape_bound=50.0, h=1e-3)
    ref = sample_strobe(lambda t, y: field(t, y), (z0, 0.0), math.pi / 1.4, 6,
                        escape_bound=50.0, h=1e-3)
    _same_run(fused, ref)
    assert fused.status == want


@settings(max_examples=40, deadline=None)
@given(
    A=st.floats(0.5, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.floats(-0.95, 0.95),
    omega=st.floats(0.3, 2.0),
    m=st.integers(2, 6),
    z0=st.floats(-0.5, 0.5),
    p0=st.floats(-0.5, 0.5),
    h=st.floats(1e-3, 5e-2),
    t_start=st.floats(-5.0, 5.0),
    span=st.floats(0.01, 20.0),
    record=st.booleans(),
)
def test_fused_fixed_step_matches_generic_loop_on_random_systems(
        A, rel_b, rel_c, omega, m, z0, p0, h, t_start, span, record):
    # B and C scaled so that R = hypot(B, C) < 0.95 A: alpha2 stays positive
    B, C = 0.67 * A * rel_b, 0.67 * A * rel_c
    field = make_field(trig_spec(A, B, C, omega, m))
    _fused_matches_generic(field, (z0, p0), FixedStepConfig(
        h=h, t_start=t_start, t_end=t_start + span, escape_bound=1e3, record=record))


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("t_end,want", [(5.0, "completed"), (7.0, "coefficient_singular")])
def test_fused_fixed_step_matches_generic_loop_on_a_sampled_field(record, t_end, want):
    # knots up to t = 5.9: a run to t = 7 stops at the first stage past the last knot
    knots = tuple(0.1 * k for k in range(60))
    src = Sampled(knots, tuple(0.2 + 0.1 * math.cos(t) for t in knots))
    traj = _fused_matches_generic(make_field(OscillatorSpec(1.0, 2, src)), (0.3, 0.0),
                                  FixedStepConfig(h=1e-3, t_end=t_end, record=record))
    assert traj.status == want
    assert traj.n_accepted > 4096  # past the fourth chunk
    if want == "coefficient_singular":
        assert traj.ts[-1] <= knots[-1] < traj.ts[-1] + 1e-3


def _counted_g(spec):
    """The field of make_field as a PowerForm whose g and g_grid record the times of their calls.

    g_grid records the first time of each chunk it is called on.  A call
    of the form itself, as the generic loops make it, calls g once.
    """
    form = make_field(spec)
    calls = {"g": [], "g_grid": []}

    def g(t):
        calls["g"].append(t)
        return form.g(t)

    def g_grid(ts):
        calls["g_grid"].append(float(ts[0]))
        return form.g_grid(ts)

    return PowerForm(form.w2, form.m, g, g_grid), calls


def test_fused_fixed_step_evaluates_g_on_the_grid():
    spec = trig_spec(1.3, 0.9, 0.2, 1.0, 3)
    field, calls = _counted_g(spec)
    cfg = FixedStepConfig(h=1e-3, t_end=10.0)
    traj = integrate_fixed(field, (0.3, 0.1), cfg)
    assert (traj.status, traj.n_accepted) == ("completed", 10000)
    assert calls["g"] == []
    assert len(calls["g_grid"]) == 10  # one call per chunk of 1024 steps
    ref = integrate_fixed(make_field(spec), (0.3, 0.1), cfg)
    assert np.array_equal(traj.ys, ref.ys)


def test_shortened_step_onto_a_stop_runs_on_the_grid():
    # 20 strobe intervals of pi/20 at h = 1e-3: each is 157 full steps and a
    # shortened step onto its stop, and each takes g from g_grid, once for its
    # full steps and once for the shortened one, never from the scalar g
    spec = trig_spec(1.3, 0.9, 0.0, 1.0)
    field, calls = _counted_g(spec)
    fused = make_field(spec)
    got = sample_strobe(field, (0.1, 0.0), math.pi / 20, 20, h=1e-3)
    ref = sample_strobe(lambda t, y: fused(t, y), (0.1, 0.0), math.pi / 20, 20, h=1e-3)
    _same_run(got, ref)
    assert (got.status, len(got), got.n_accepted) == ("completed", 21, 20 * 158)
    assert calls["g"] == []
    assert len(calls["g_grid"]) == 40


@pytest.mark.parametrize("B,h,n_before", [
    # the grids of test_fused_fixed_step_singular_matches_generic_loop, all in the first chunk
    (1.0 - 1e-10, (math.pi / 2) / 1000, 999),
    (1.0 - 1e-10, (math.pi / 2) / 999.5, 999),
    (-(1.0 - 1e-10), 1e-3, 0),
    # the singular step time in a later chunk
    (1.0 - 1e-10, (math.pi / 2) / 5000, 4999),
])
def test_fused_fixed_step_calls_g_only_on_the_singular_chunk(B, h, n_before):
    field, calls = _counted_g(trig_spec(1.0, B, 0.0, 1.0))
    traj = integrate_fixed(field, (1e-7, 0.0), FixedStepConfig(h=h, t_end=5.0))
    assert (traj.status, traj.n_accepted) == ("coefficient_singular", n_before)
    # g_grid ran on each chunk up to the singular one, and g (through the
    # generic loop's field calls) from the start of that chunk to the singular time
    chunk = n_before // integrate._FUSED_CHUNK * integrate._FUSED_CHUNK
    assert calls["g_grid"] == [k * h for k in range(0, chunk + 1, integrate._FUSED_CHUNK)]
    assert calls["g"][0] == chunk * h
    assert calls["g"] == sorted(calls["g"])
    assert len(calls["g"]) <= 4 * integrate._FUSED_CHUNK
    with pytest.raises(CoefficientSingularError):
        field(calls["g"][-1], (1e-7, 0.0))


def _per_interval_runs(field, y0, cfg, stops):
    """Reference for a fixed-step march: one recorded run per interval between stops.

    Returns the stitched (ts, ys, status, accepted steps) and the (t, y)
    of each stop reached without escaping.
    """
    t0, y = cfg.t_start, tuple(y0)
    ts, ys, seen, n_acc = [t0], [y], [], 0
    for stop in stops:
        seg = integrate_fixed(field, y, FixedStepConfig(h=cfg.h, t_start=t0, t_end=stop,
                                                        escape_bound=cfg.escape_bound))
        ts += seg.ts[1:].tolist()
        ys += [tuple(row) for row in seg.ys[1:].tolist()]
        n_acc += seg.n_accepted
        y = ys[-1]
        if seg.status != "completed":
            return (ts, ys, seg.status, n_acc), seen
        seen.append((stop, y))
        t0 = stop
    return (ts, ys, "completed", n_acc), seen


_KNOTS = tuple(0.1 * k for k in range(60))
_SAMPLED = OscillatorSpec(1.0, 2, Sampled(_KNOTS, tuple(0.2 + 0.1 * math.cos(t) for t in _KNOTS)))


@pytest.mark.parametrize("record", [True, False], ids=["record", "endpoints"])
@pytest.mark.parametrize("wrap", [False, True], ids=["fused", "generic"])
@pytest.mark.parametrize("spec,y0,h,t_start,stops,escape,want", [
    # h = 7e-4 divides no interval of pi: every interval ends on a shortened step,
    # and its 4488 full steps cross four fused chunk boundaries
    (trig_spec(1.3, 0.9, 0.0, 1.0), (0.1, 0.0), 7e-4, 0.0,
     [k * math.pi for k in range(1, 5)], math.inf, "completed"),
    # h = 0.125 divides every interval: no shortened step
    (trig_spec(1.3, 0.9, 0.2, 1.0, 3), (0.3, 0.1), 0.125, -1.5,
     [-1.0, 0.5, 1.0, 3.0], math.inf, "completed"),
    # escapes at t = 5.14, inside the third strobe interval [4.49, 6.73]
    (trig_spec(1.3, 0.9, 0.0, 1.4), (1.4, 0.0), 1e-3, 0.0,
     [k * math.pi / 1.4 for k in range(1, 7)], 50.0, "escaped"),
    # knots up to t = 5.9: singular inside the interval [4.5, 6.0]
    (_SAMPLED, (0.3, 0.0), 1e-3, 0.0, [1.5, 3.0, 4.5, 6.0, 7.5], math.inf,
     "coefficient_singular"),
], ids=["completes", "h_divides", "escapes", "singular"])
def test_fixed_march_matches_per_interval_runs(spec, y0, h, t_start, stops, escape, want,
                                               wrap, record):
    fused = make_field(spec)
    field = (lambda t, y: fused(t, y)) if wrap else fused
    cfg = FixedStepConfig(h=h, t_start=t_start, t_end=stops[-1], escape_bound=escape,
                          record=record)
    seen = []
    got = integrate_fixed(field, y0, cfg, stops=stops, at_stop=lambda t, y: seen.append((t, y)))
    (ts, ys, status, n_acc), ref_seen = _per_interval_runs(field, y0, cfg, stops)
    rows = slice(None) if record else [0, -1]
    assert got.ts.tolist() == np.array(ts)[rows].tolist()
    assert np.array_equal(got.ys, np.array(ys)[rows])
    assert (got.status, got.n_accepted, got.n_rejected) == (status, n_acc, 0)
    assert seen == ref_seen
    # the per-interval runs take the same loop: check both against the flat reference
    ref, flat_seen = _fixed_march_reference(fused, y0, cfg, stops)
    _same_fixed_run(got, ref)
    assert seen == flat_seen
    assert got.status == want
    if want != "completed":
        assert got.ts[-1] not in stops  # the run ended inside an interval
        assert len(seen) < len(stops)


@pytest.mark.parametrize("wrap", [False, True], ids=["fused", "generic"])
def test_fixed_march_ends_where_at_stop_raises(wrap):
    fused = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    field = (lambda t, y: fused(t, y)) if wrap else fused
    stops = [k * math.pi for k in range(1, 6)]
    cfg = FixedStepConfig(h=7e-4, t_end=stops[-1])
    seen = []

    def at_stop(t, y):
        seen.append((t, y))
        if len(seen) == 3:
            raise RuntimeError("enough")

    with pytest.raises(RuntimeError, match="enough"):
        integrate_fixed(field, (0.1, 0.0), cfg, stops=stops, at_stop=at_stop)
    assert seen == _per_interval_runs(field, (0.1, 0.0), cfg, stops[:3])[1]


@pytest.mark.parametrize("h", [None, 7e-4])
def test_strobe_is_one_run_through_its_stops(monkeypatch, h):
    calls = []

    def counted(run):
        def wrapper(*args, **kwargs):
            calls.append(run.__name__)
            return run(*args, **kwargs)
        return wrapper

    for run in (integrate.integrate_fixed, integrate.integrate_adaptive):
        monkeypatch.setattr(integrate, run.__name__, counted(run))
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    res = sample_strobe(field, (0.1, 0.0), math.pi, 5, h=h)
    assert calls == ["integrate_adaptive" if h is None else "integrate_fixed"]
    assert res.status == "completed"
    if h is not None:  # the strobe points are those of one run per strobe interval
        cfg = FixedStepConfig(h=h, t_end=5 * math.pi)
        (_, _, _, n_acc), seen = _per_interval_runs(field, (0.1, 0.0), cfg,
                                                    [k * math.pi for k in range(1, 6)])
        assert list(zip(res.ts[1:].tolist(), map(tuple, res.ys[1:].tolist()))) == seen
        assert res.n_accepted == n_acc


def _fused_march_matches_generic(field, y0, cfg, step_cap=None):
    """The fused attempt must march, bit for bit, like the generic ``_dp_attempt`` reference.

    With the ``step_cap`` fixture, the fused run may take no more
    accepted steps than the reference took.
    """
    assert isinstance(field, PowerForm)
    try:
        ref = _adaptive_single_run(field, y0, cfg)
    except StepUnderflowError:
        with pytest.raises(StepUnderflowError):
            integrate_adaptive(field, y0, cfg)
        return None
    if step_cap is not None:
        step_cap(ref.n_accepted)
    got = integrate_adaptive(field, y0, cfg)
    assert np.array_equal(got.ts, ref.ts)
    assert np.array_equal(got.ys, ref.ys)
    assert (got.status, got.n_accepted, got.n_rejected) == (
        ref.status, ref.n_accepted, ref.n_rejected)
    return got


def test_fused_attempt_matches_generic_attempt_and_norm():
    # one-trial runs from t = 0.5: an h_min of the trial's own step ends the
    # run at its first rejection.  A stage of the large trial overflows, so
    # err is inf and the trial is rejected with the factor FAC_MIN
    field = make_field(trig_spec(1.3, 0.9, 0.2, 1.0, 6))
    for y, h, want_inf in [((0.3, 0.1), 0.01, False), ((-1e40, 1e30), 1e-3, True)]:
        h = (0.5 + h) - 0.5  # the step of the run's one trial
        cfg = AdaptiveConfig(rtol=1e-10, atol=1e-12, t_start=0.5, t_end=0.5 + h, h_init=h,
                             h_min=h)
        y_new, _, err = _dp_checked_attempt(field, 0.5, y, h, field(0.5, y), cfg.atol, cfg.rtol)
        assert math.isinf(err) == want_inf
        runs = []
        for f in (field, lambda t, y: field(t, y)):
            try:
                traj = integrate_adaptive(f, y, cfg)
                runs.append((traj.status, traj.n_accepted, traj.n_rejected,
                             repr(traj.ts.tolist()), repr(traj.ys.tolist())))
            except StepUnderflowError as exc:
                runs.append(str(exc))
        assert runs[0] == runs[1]
        if want_inf:
            assert runs[0] == f"required step {FAC_MIN * h:.3e} < h_min {h:.3e} at t=0.5"
        else:
            assert runs[0][:3] == ("completed", 1, 0)
            assert runs[0][4] == repr([list(y), list(y_new)])


def test_fused_march_floors_an_accepted_step_at_h_min():
    # with h_min = h_init = h and the first trial's err near 0.62, each accepted
    # trial proposes about 0.99 h, which the floor raises back to h_min
    field = make_field(trig_spec(1.3, 0.9, 0.2, 1.0, 3))
    y, h = (0.3, 0.1), 0.05
    err = _dp_checked_attempt(field, 0.0, y, h, field(0.0, y), 1e-12, 1e-10)[2]
    cfg = AdaptiveConfig(rtol=1e-10 * err / 0.62, t_end=3 * h, h_init=h, h_min=h)
    traj = _fused_march_matches_generic(field, y, cfg)
    assert (traj.status, traj.n_accepted, traj.n_rejected) == ("completed", 3, 0)
    assert np.allclose(np.diff(traj.ts), h, rtol=1e-12, atol=0.0)


@example(A=1.3, rel_b=0.7, rel_c=0.3, omega=1.0, m=3, z0=0.3, p0=0.1, rtol=1e-9,  # checked first
         t_start=0.0, span=5.0, h_init=0.01, escape=100.0, record=True)
@example(A=1.0, rel_b=0.0, rel_c=-0.5, omega=1.0, m=2, z0=1.0, p0=0.0,  # escapes on p alone
         rtol=9.914883246169391e-07, t_start=0.0, span=4.0, h_init=1.0, escape=5.0, record=False)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    A=st.floats(0.5, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.one_of(st.floats(-0.95, -0.05), st.floats(0.05, 0.95)),
    omega=st.floats(0.3, 2.0),
    m=st.integers(2, 6),
    z0=st.floats(-5.0, 5.0),
    p0=st.floats(-5.0, 5.0),
    rtol=st.floats(1e-11, 1e-6),
    t_start=st.floats(-5.0, 5.0),
    span=st.floats(0.1, 20.0),
    h_init=st.floats(1e-4, 50.0),
    escape=st.floats(5.0, 1e4),
    record=st.booleans(),
)
def test_fused_attempt_matches_generic_march_on_random_systems(
        A, rel_b, rel_c, omega, m, z0, p0, rtol, t_start, span, h_init, escape, record, step_cap):
    # the strategy's costliest corner (A = 0.5, m = 5, z0 = p0 = -5, rtol
    # 1e-11, span 20) takes 750k accepted steps.  This cap holds where the
    # reference underflows; else the fused run is capped at the reference's steps
    step_cap(1_000_000)
    # R = hypot(B, C) < 0.95 A keeps alpha2 positive.  About half the runs
    # escape, and in about a third a first step of up to 50 has stages that
    # overflow, so the trial is rejected with err inf
    field = make_field(trig_spec(A, 0.67 * A * rel_b, 0.67 * A * rel_c, omega, m))
    _fused_march_matches_generic(field, (z0, p0), AdaptiveConfig(
        rtol=rtol, h_init=h_init, t_start=t_start, t_end=t_start + span, escape_bound=escape,
        record=record), step_cap)


@pytest.mark.parametrize("record", [True, False])
def test_fused_attempt_matches_generic_march_on_a_sampled_field(record, step_cap):
    step_cap(250)
    # knots up to t = 5.9: the run stops at the first trial whose stage passes the last knot
    knots = tuple(0.1 * k for k in range(60))
    src = Sampled(knots, tuple(0.2 + 0.1 * math.cos(t) for t in knots))
    traj = _fused_march_matches_generic(make_field(OscillatorSpec(1.0, 2, src)), (0.3, 0.0),
                                        AdaptiveConfig(rtol=1e-10, t_end=7.0, record=record))
    assert traj.status == "coefficient_singular"
    assert 0.0 < knots[-1] - traj.ts[-1] < 1.0 and traj.n_accepted > 10


def _fused_stops_match_generic(field, y0, cfg, stops, step_cap):
    """The fused march through stops must match, bit for bit, the generic one of a wrapper.

    A plain wrapper is not a PowerForm, so it takes the generic attempt.
    It runs first, and the ``step_cap`` fixture then caps the fused run at
    the accepted steps the wrapper took.
    """
    def march(f):
        seen = []
        traj = integrate_adaptive(f, y0, cfg, stops=stops,
                                  at_stop=lambda t, y: seen.append((t, y)))
        return traj, seen

    ref, ref_seen = march(lambda t, y: field(t, y))
    step_cap(ref.n_accepted)
    got, got_seen = march(field)
    assert got_seen == ref_seen and [t for t, _ in got_seen] == stops
    assert np.array_equal(got.ts, ref.ts)
    assert np.array_equal(got.ys, ref.ys)
    assert (got.status, got.n_accepted, got.n_rejected) == (
        ref.status, ref.n_accepted, ref.n_rejected)
    return got


def test_fused_march_through_stops_matches_generic_on_fig2(step_cap):
    step_cap(4600)
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0, 2))
    stops = [k * math.pi for k in range(1, 41)]
    cfg = AdaptiveConfig(rtol=1e-10, t_end=stops[-1], escape_bound=50.0)
    got = _fused_stops_match_generic(field, (0.1004, 0.0), cfg, stops, step_cap)
    assert got.status == "completed" and got.n_rejected > 0


@pytest.mark.parametrize("m,y0", [(3, (-0.8, 0.3)), (MAX_M, (0.6, -0.2))],
                         ids=["odd_negative_z", "max_m"])
def test_fused_power_matches_generic_at_extreme_m(m, y0, step_cap):
    # the fused loops take z * z for m = 2 only: here z^m comes from int_pow,
    # with the sign of an odd power, and with the longest product at |z| < 1
    step_cap(5000)
    field = make_field(trig_spec(1.3, 0.9, 0.2, 1.0, m))
    traj = _fused_matches_generic(field, y0, FixedStepConfig(h=1e-3, t_end=5.0))
    assert (traj.status, traj.n_accepted) == ("completed", 5000)
    stops = [k * math.pi / 2 for k in range(1, 5)]
    got = _fused_stops_match_generic(field, y0, AdaptiveConfig(rtol=1e-10, t_end=stops[-1]),
                                     stops, step_cap)
    assert got.status == "completed" and np.any(got.ys[:, 0] < 0.0)


def test_fused_march_calls_g_once_per_stage_time():
    # once at the start, then five times per trial step: stages 6 and 7 share t + h.
    # field_evals (1 + 6 per trial) still counts the field evaluations, not these calls
    field, calls = _counted_g(trig_spec(1.3, 0.9, 0.0, 1.0, 2))
    res = sample_strobe(field, (0.1004, 0.0), math.pi, 40, escape_bound=50.0, rtol=1e-10)
    assert res.status == "completed" and len(res) == 41 and res.n_rejected > 0
    assert len(calls["g"]) == 1 + 5 * (res.n_accepted + res.n_rejected)
    assert calls["g"][0] == 0.0 and max(calls["g"]) == 40 * math.pi
    assert calls["g_grid"] == []


@pytest.mark.parametrize("run", [
    lambda f, y0: integrate_fixed(f, y0, FixedStepConfig(h=1e-2, t_end=3.0)),
    lambda f, y0: integrate_adaptive(f, y0, AdaptiveConfig(rtol=1e-9, t_end=3.0)),
    lambda f, y0: sample_strobe(f, y0, 0.5, 6),
    lambda f, y0: sample_strobe(f, y0, 0.5, 6, h=1e-2),
    lambda f, y0: sample_strobe(f, y0, 0.5, 0),
], ids=["fixed", "adaptive", "strobe", "strobe_h", "strobe_no_step"])
def test_power_form_refuses_a_state_that_is_not_z_p(run):
    # the form is the (z, p) field: a third component is refused before g is called
    field, calls = _counted_g(trig_spec(1.3, 0.9, 0.2, 1.0, 3))
    with pytest.raises(ValueError, match=r"^a PowerForm field takes a \(z, p\) state, got 3 "):
        run(field, (0.3, 0.1, 1.0))
    assert calls == {"g": [], "g_grid": []}


def _counted(wrap):
    """A fig2 field behind a call counter: a plain wrapper, or a PowerForm whose g counts."""
    fused = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    calls = []
    if wrap:
        def field(t, y):
            calls.append(t)
            return fused(t, y)

        return field, calls

    def g(t):
        calls.append(t)
        return fused.g(t)

    def g_grid(ts):
        calls.extend(ts.tolist())
        return fused.g_grid(ts)

    return PowerForm(fused.w2, fused.m, g, g_grid), calls


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("wrap", [False, True], ids=["fused", "generic"])
@pytest.mark.parametrize("cfg", [FixedStepConfig(h=1e-3, t_end=10.0),
                                 AdaptiveConfig(rtol=1e-10, t_end=10.0)],
                         ids=["fixed", "adaptive"])
def test_nonfinite_start_raises_before_the_first_step(cfg, wrap, bad):
    run = integrate_fixed if isinstance(cfg, FixedStepConfig) else integrate_adaptive
    field, calls = _counted(wrap)
    for y0 in [(bad, 0.0), (0.1, bad)]:
        with pytest.raises(NonfiniteStateError):
            run(field, y0, cfg)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_start_raises_in_strobe_and_bounded(bad):
    for wrap in (False, True):
        field, calls = _counted(wrap)
        for h in (None, 1e-3):
            with pytest.raises(NonfiniteStateError):
                sample_strobe(field, (bad, 0.0), math.pi, 5, h=h)
        assert calls == []
    with pytest.raises(NonfiniteStateError):
        bounded(trig_spec(1.3, 0.9, 0.0, 1.0), bad, t_max=10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_zero_point_strobe_refuses_a_nonfinite_start(bad):
    for wrap in (False, True):
        field, calls = _counted(wrap)
        for h in (None, 1e-3):
            for y0 in [(bad, 0.0), (0.1, bad)]:
                with pytest.raises(NonfiniteStateError):
                    sample_strobe(field, y0, math.pi, 0, h=h)
        assert calls == []


def _adaptive_march_reference(field, y0, cfg, stops, at_stop):
    """Reference: the Dormand-Prince march through stops as one flat loop of trial steps.

    The stop index advances on each accepted step that was shortened
    onto a stop, and the run ends on the last one.
    """
    t, t_end = cfg.t_start, cfg.t_end
    y = tuple(float(v) for v in y0)
    rec = _Recorder(cfg.record, t, y)
    status, n_acc, n_rej, n_hit = "completed", 0, 0, 0
    h = min(cfg.h_init, t_end - t)
    stop = stops[0]
    try:
        f1 = field(t, y)
        while True:
            clipped = t + h >= stop
            if clipped:
                h_att, t_next = stop - t, stop
            else:
                h_att, t_next = h, t + h
            y_new, f7, errs = _dp_attempt(field, t, y, h_att, f1)
            err, finite = 0.0, True
            for yi, yn, e in zip(y, y_new, errs):
                if not (math.isfinite(yn) and math.isfinite(e)):
                    finite = False
                    break
                r = e / (cfg.atol + cfg.rtol * max(abs(yi), abs(yn)))
                err += r * r
            err = math.sqrt(err / len(y)) if finite else math.inf
            if err <= 1.0:
                t, y, f1 = t_next, y_new, f7
                n_acc += 1
                rec.push_many(np.array([t]), y)
                if _escaped(y, cfg.escape_bound):
                    status = "escaped"
                    break
                if err == 0.0:
                    fac = FAC_MAX
                else:
                    fac = min(FAC_MAX, max(FAC_MIN, SAFETY * err ** -0.2))
                h_new = max(h_att * fac, cfg.h_min)
                if clipped:
                    at_stop(t, y)
                    n_hit += 1
                    if n_hit == len(stops):
                        break
                    stop = stops[n_hit]
                    h_new = max(h_new, h)
                h = h_new
            else:
                n_rej += 1
                fac = FAC_MIN if math.isinf(err) else max(FAC_MIN, SAFETY * err ** -0.2)
                h = h_att * fac
                if h < cfg.h_min:
                    raise StepUnderflowError(f"required step {h:.3e} < h_min {cfg.h_min:.3e}")
    except CoefficientSingularError:
        status = "coefficient_singular"
    return rec.build(status, t, y, n_accepted=n_acc, n_rejected=n_rej)


@example(A=1.3, rel_b=0.7, rel_c=0.3, omega=1.0, m=3, z0=0.3, p0=0.1, rtol=1e-9,  # checked first
         t_start=0.0, span=5.0, h_init=0.01, escape=100.0, cuts=[0.25, 0.5, 0.75], wrap=False,
         record=True)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    A=st.floats(0.5, 3.0),
    rel_b=st.floats(-0.95, 0.95),
    rel_c=st.floats(-0.95, 0.95),
    omega=st.floats(0.3, 2.0),
    m=st.integers(2, 5),
    z0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
    rtol=st.floats(1e-11, 1e-6),
    t_start=st.floats(-5.0, 5.0),
    span=st.floats(0.1, 20.0),
    h_init=st.floats(1e-4, 20.0),
    escape=st.floats(5.0, 1e4),
    cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8),
    wrap=st.booleans(),
    record=st.booleans(),
)
def test_adaptive_march_through_stops_matches_flat_reference(
        A, rel_b, rel_c, omega, m, z0, p0, rtol, t_start, span, h_init, escape, cuts, wrap,
        record, step_cap):
    # the strategy's costliest corner (A = 0.5, m = 5, z0 = p0 = -3, rtol
    # 1e-11, span 20) takes 269k accepted steps.  This cap holds where the
    # reference underflows; else the run is capped at the reference's steps
    step_cap(330_000)
    # R = hypot(B, C) < 0.95 A keeps alpha2 positive; a large first step or
    # amplitude gives rejected trials with err inf, and escapes
    fused = make_field(trig_spec(A, 0.67 * A * rel_b, 0.67 * A * rel_c, omega, m))
    field = (lambda t, y: fused(t, y)) if wrap else fused
    t_end = t_start + span
    stops = sorted({t_start + c * span for c in cuts} - {t_start, t_end}) + [t_end]
    cfg = AdaptiveConfig(rtol=rtol, h_init=h_init, t_start=t_start, t_end=t_end,
                         escape_bound=escape, record=record)
    ref_seen, got_seen = [], []
    try:
        ref = _adaptive_march_reference(field, (z0, p0), cfg, stops,
                                         lambda t, y: ref_seen.append((t, y)))
    except StepUnderflowError:
        with pytest.raises(StepUnderflowError):
            integrate_adaptive(field, (z0, p0), cfg, stops=stops,
                               at_stop=lambda t, y: got_seen.append((t, y)))
        assert got_seen == ref_seen
        return
    step_cap(ref.n_accepted)
    got = integrate_adaptive(field, (z0, p0), cfg, stops=stops,
                             at_stop=lambda t, y: got_seen.append((t, y)))
    assert np.array_equal(got.ts, ref.ts)
    assert np.array_equal(got.ys, ref.ys)
    assert (got.status, got.n_accepted, got.n_rejected) == (
        ref.status, ref.n_accepted, ref.n_rejected)
    assert got_seen == ref_seen


@example(omega=1.0, C1=0.05, C2=0.0, a2=2.2, a2p=0.0, a2pp=-3.6, z0=1.5, p0=0.0,  # escapes
         rtol=1e-9, t_start=0.0, span=8.0, h_init=0.01, escape=5.0, cuts=[0.25, 0.5, 0.75],
         record=True)  # on z, near t = 3.02, after its first stop
@example(omega=1.0, C1=0.05, C2=0.0, a2=2.2, a2p=0.0, a2pp=-3.6, z0=-3.0, p0=-3.0,  # escapes
         rtol=1e-9, t_start=0.0, span=8.0, h_init=0.01, escape=10.0, cuts=[0.1, 0.5],
         record=False)  # on p alone, near t = 1.06, after its first stop
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    omega=st.floats(0.5, 1.5),
    C1=st.floats(-0.3, 0.3),
    C2=st.floats(-0.3, 0.3),
    a2=st.floats(1.0, 3.0),
    a2p=st.floats(-0.5, 0.5),
    a2pp=st.floats(-4.0, 4.0),
    z0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
    rtol=st.floats(1e-10, 1e-6),
    t_start=st.floats(-5.0, 5.0),
    span=st.floats(0.1, 10.0),
    h_init=st.floats(1e-4, 10.0),
    escape=st.floats(3.0, 1e3),
    cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8),
    record=st.booleans(),
)
def test_five_component_march_through_stops_matches_flat_reference(
        omega, C1, C2, a2, a2p, a2pp, z0, p0, rtol, t_start, span, h_init, escape, cuts, record,
        step_cap):
    # the generic trial step on more than (z, p): the five-parameter family's
    # joint state.  About a quarter of these runs escape (the bound covers the
    # alpha2 components too) and a few meet alpha2 <= EPS_POS.  Sampled runs
    # take at most a few hundred trial steps; the cap holds where the reference
    # underflows, else the run is capped at the reference's steps
    step_cap(20_000)
    field = make_augmented_field(FiveParamSpec(omega, C1, C2, a2, a2p, a2pp))
    y0 = (z0, p0, a2, a2p, a2pp)
    t_end = t_start + span
    stops = sorted({t_start + c * span for c in cuts} - {t_start, t_end}) + [t_end]
    cfg = AdaptiveConfig(rtol=rtol, h_init=h_init, t_start=t_start, t_end=t_end,
                         escape_bound=escape, record=record)
    ref_seen, got_seen = [], []
    try:
        ref = _adaptive_march_reference(field, y0, cfg, stops,
                                         lambda t, y: ref_seen.append((t, y)))
    except StepUnderflowError:
        with pytest.raises(StepUnderflowError):
            integrate_adaptive(field, y0, cfg, stops=stops,
                               at_stop=lambda t, y: got_seen.append((t, y)))
        assert got_seen == ref_seen
        return
    step_cap(ref.n_accepted)
    got = integrate_adaptive(field, y0, cfg, stops=stops,
                             at_stop=lambda t, y: got_seen.append((t, y)))
    assert got.ys.shape == ref.ys.shape and got.ys.shape[1] == 5
    assert np.array_equal(got.ts, ref.ts)
    assert np.array_equal(got.ys, ref.ys)
    assert (got.status, got.n_accepted, got.n_rejected) == (
        ref.status, ref.n_accepted, ref.n_rejected)
    assert got_seen == ref_seen
