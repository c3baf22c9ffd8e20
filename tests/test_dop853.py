"""The DOP853 lane pair against scipy, its reference (a test extra only)."""

import math

import numpy as np
import pytest

from osclab.errors import CoefficientSingularError
from osclab.lanes import (_D8_A, _D8_B, _D8_C, _D8_E3, _D8_E5, LaneForm, _dop853_lane_attempt,
                          make_lane_field)
from osclab.model import make_field, trig_spec


def _dense(weights, size):
    out = np.zeros(size)
    for j, w in weights.items():
        out[j] = w
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_dop853_tableau_is_scipys_bit_for_bit():
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = ref.N_STAGES
    a = np.zeros((n, n))
    for i, row in enumerate(_D8_A, start=1):
        a[i] = _dense(row, n)
    assert _bits(a) == _bits(ref.A[:n, :n])
    assert _bits((0.0, *_D8_C)) == _bits(ref.C[:n])
    assert _bits(_dense(_D8_B, n)) == _bits(ref.B)
    assert _bits(_dense(_D8_E3, n + 1)) == _bits(ref.E3)
    assert _bits(_dense(_D8_E5, n + 1)) == _bits(ref.E5)


def _scipy_step(spec, t, y, f1, h, atol, rtol):
    """scipy's DOP853 step from (t, y) with its error norm: (y_new, f_new, err)."""
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    field = make_field(spec)
    dop = rk.DOP853
    k = np.empty((dop.n_stages + 1, len(y)))
    y_new, f_new = rk.rk_step(lambda s, x: np.array(field(s, tuple(x))), t, y, f1, h,
                              dop.A, dop.B, dop.C, k)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return y_new, f_new, dop._estimate_error_norm(dop, k, h, scale)


@pytest.mark.parametrize("m,C", [(2, 0.3), (3, -0.25)])
def test_dop853_lane_attempt_matches_scipy_step(m, C):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(15 + m)
    lanes = 16
    specs = [trig_spec(1.3, 0.8, C, w, m) for w in rng.uniform(0.6, 1.8, lanes)]
    field, params = make_lane_field(specs)
    t = rng.uniform(0.0, 50.0, lanes)
    y = rng.uniform(-1.0, 1.0, (2, lanes))
    h = 10.0 ** rng.uniform(-3.0, -0.5, lanes)
    atol, rtol = 1e-12, 1e-10
    f1, _ = field(t, y, params)
    y_new, f_new, err, singular = _dop853_lane_attempt(field, t, y, h, f1, params, atol, rtol)
    assert not singular.any()
    for j, spec in enumerate(specs):
        ref_y, ref_f, ref_err = _scipy_step(spec, t[j], y[:, j], f1[:, j], h[j], atol, rtol)
        # the stage sums differ from scipy's dot products in rounding only
        assert np.abs(y_new[:, j] - ref_y).max() <= 1e-14 * np.abs(ref_y).max()
        assert np.abs(f_new[:, j] - ref_f).max() <= 1e-14 * np.abs(ref_f).max()
        # below about 1e-9 err is the rounding of the error sums themselves
        assert abs(err[j] - ref_err) <= 1e-6 * ref_err + 1e-9


def test_dop853_lane_attempt_flags_a_singular_stage():
    pytest.importorskip("scipy")
    # alpha2 = 1 + (1 - 1e-10) cos 2t dips below EPS_POS within about 2e-5 of
    # t = pi/2; the first lane's stage at c = 1/3 lands there, the others
    # end their step before the dip
    spec = trig_spec(1.0, 1.0 - 1e-10, 0.0, 1.0)
    h = np.array([0.1, 0.1, 0.5])
    t = np.array([math.pi / 2 - _D8_C[4] * 0.1, 0.2, 0.3])
    y = np.array([[0.1, 0.1, -0.2], [0.0, 0.3, 0.1]])
    field, params = make_lane_field([spec] * 3)
    f1, _ = field(t, y, params)
    with np.errstate(all="ignore"):
        _, _, _, singular = _dop853_lane_attempt(field, t, y, h, f1, params, 1e-12, 1e-10)
    assert singular.tolist() == [True, False, False]
    with pytest.raises(CoefficientSingularError):
        _scipy_step(spec, t[0], y[:, 0], f1[:, 0], h[0], 1e-12, 1e-10)
    for j in (1, 2):
        _scipy_step(spec, t[j], y[:, j], f1[:, j], h[j], 1e-12, 1e-10)


def test_dop853_lane_attempt_norm_edges():
    # a field at rest gives err = 0 (the factor _FAC_MAX); a nonfinite stage gives inf
    def deriv(t, y, params):
        dy = np.zeros_like(y)
        dy[0] = params[0] * y[1]
        return dy

    field = LaneForm(lambda ts, params: (ts, np.zeros(ts.shape[1], dtype=bool)), deriv)

    t = np.zeros(2)
    y = np.array([[1.0, 1.0], [0.0, math.inf]])
    h = np.full(2, 0.1)
    params = np.array([[0.0, 1.0]])
    f1, _ = field(t, y, params)
    with np.errstate(all="ignore"):
        y_new, _, err, singular = _dop853_lane_attempt(field, t, y, h, f1, params, 1e-12, 1e-10)
    assert err[0] == 0.0 and math.isinf(err[1])
    assert y_new[:, 0].tolist() == [1.0, 0.0] and not singular.any()
