"""Core model: the oscillator z'' + omega^2 z + g(t) z^m = 0 and its g(t) sources.

The forcing coefficient g(t) comes from one of three sources, the
``g_source`` of an ``OscillatorSpec``:

* ``TrigAlpha`` -- g = alpha2(t)^(-(m+3)/2) with
  alpha2(t) = A + B cos(2 omega t) + C sin(2 omega t).  This is the
  closed-form coefficient family for which a quadratic first integral
  exists at every integer m >= 2.
* ``family.FiveParamSpec`` -- the m = 2 family in which alpha2(t) solves
  a nonlinear third-order ODE driven by two extra constants (C1, C2);
  see :mod:`osclab.family`.
* ``Sampled`` -- tabulated (t, g) knots with cubic interpolation, for
  systems without a known invariant.

The exponent m of an ``OscillatorSpec`` is an integer in [2, MAX_M].

``make_field`` gives a trig or sampled system's field as a
``PowerForm``, the (z, p) field that both scalar integrators inline;
``osclab.lanes`` makes the trig field over many lanes.  The field, the
lanes and the invariant (``trig_alpha2_eval``) sum alpha2 in one order,
that of ``alpha2_grid``, and take z^m by the one loop of ``int_pow``.

All types here are immutable value objects; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CoefficientSingularError

# Floor for alpha2: below this the negative half-integer power of alpha2
# amplifies roundoff catastrophically, so evaluation is refused instead.
EPS_POS = 1e-9

# Largest exponent m a spec may carry.  Every field call multiplies m - 1
# times, so an unbounded m makes an unbounded run out of a tiny one.
MAX_M = 100


@dataclass(frozen=True)
class TrigAlpha:
    """Coefficient alpha2(t) = A + B cos(2 omega t) + C sin(2 omega t)."""

    A: float
    B: float
    C: float
    omega: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.A, self.B, self.C, self.omega))):
            raise ValueError(f"A, B, C and omega must be finite, got "
                             f"A={self.A}, B={self.B}, C={self.C}, omega={self.omega}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (self.A > math.hypot(self.B, self.C)):
            raise ValueError(
                "need A > sqrt(B^2 + C^2) so alpha2(t) stays positive; "
                f"got A={self.A}, R={math.hypot(self.B, self.C)}"
            )

    @property
    def R(self) -> float:
        """Oscillation amplitude sqrt(B^2 + C^2) of alpha2 about A."""
        return math.hypot(self.B, self.C)


@dataclass(frozen=True)
class Sampled:
    """Tabulated g(t) on an increasing knot grid, cubic interpolation.

    Evaluation outside the knot range is refused rather than extrapolated.
    """

    ts: tuple
    gs: tuple

    def __post_init__(self):
        if len(self.ts) != len(self.gs):
            raise ValueError("knot abscissae and values differ in length")
        if len(self.ts) < 4:
            raise ValueError("cubic interpolation needs at least 4 knots")
        if not all(map(math.isfinite, (*self.ts, *self.gs))):
            raise ValueError("knot times and values must be finite")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError("knot times must be strictly increasing")

    @cached_property
    def _spline(self):
        from . import spline

        return spline.not_a_knot(self.ts, self.gs)

    def value_at(self, t: float) -> float:
        if t < self.ts[0] or t > self.ts[-1]:
            raise CoefficientSingularError(
                f"t={t} outside sampled range [{self.ts[0]}, {self.ts[-1]}]")
        return float(self._spline(t))


@dataclass(frozen=True)
class OscillatorSpec:
    """One concrete system z'' + omega^2 z + g(t) z^m = 0."""

    omega: float
    m: int
    g_source: object

    def __post_init__(self):
        if not (0.0 < self.omega < math.inf):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        check_m(self.m)
        src_omega = getattr(self.g_source, "omega", None)
        if src_omega is not None and src_omega != self.omega:
            raise ValueError(
                f"g source frequency {src_omega} != oscillator frequency {self.omega}"
            )


def check_m(m) -> None:
    """Refuse an exponent m that is not an integer in [2, MAX_M]."""
    if not (isinstance(m, int) and 2 <= m <= MAX_M):
        raise ValueError(f"m must be an integer in [2, {MAX_M}], got {m!r}")


def trig_spec(A: float, B: float, C: float, omega: float, m: int = 2) -> OscillatorSpec:
    """Convenience constructor for a trig-family oscillator."""
    return OscillatorSpec(omega=omega, m=m, g_source=TrigAlpha(A, B, C, omega))


@dataclass(frozen=True)
class State:
    t: float
    z: float
    p: float


@dataclass(frozen=True)
class RunStats:
    """The steps and field evaluations of a run, recorded at its end by its integrator.

    ``field_evals`` is 4 per RK4 step; for an embedded pair, 1 at the start and
    the pair's evaluations per trial step, 0 without one.  A sum adds runs of one integrator.
    """

    integrator: str
    accepted: int = 0
    rejected: int = 0
    field_evals: int = 0

    def __add__(self, other: RunStats) -> RunStats:
        return RunStats(self.integrator, self.accepted + other.accepted,
                        self.rejected + other.rejected, self.field_evals + other.field_evals)

    def to_json(self) -> dict:
        """The summary's ``stats`` as a dict of the fields; summary.json sorts its keys."""
        return asdict(self)


# rows per block (ts, ys), the one way a run hands out its rows (``Trajectory.blocks``, a
# fixed-step sink): what a block feeds has temporaries of a size fixed whatever the run's length
ROW_BLOCK = 8192


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered integrator output.

    ``ys`` has one row per recorded time and one column per state
    component; columns 0 and 1 are always (z, p).  ``status`` is one of
    "completed", "escaped", "coefficient_singular".  ``stats`` is the
    ``RunStats`` of the run; a trajectory made by hand has None.
    """

    ts: np.ndarray
    ys: np.ndarray
    status: str
    stats: RunStats = None

    def __post_init__(self):
        if self.ys.ndim != 2 or self.ys.shape[0] != self.ts.shape[0]:
            raise ValueError("state array must have one row per time")
        if self.ts.shape[0] == 0:
            raise ValueError("trajectory cannot be empty")
        # neighbours compared: a bool per time, no float temporary as long as the run
        if not np.all(self.ts[1:] > self.ts[:-1]):
            raise ValueError("trajectory times must be strictly increasing")
        if self.status not in ("completed", "escaped", "coefficient_singular"):
            raise ValueError(f"unknown status {self.status!r}")

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    @property
    def z(self) -> np.ndarray:
        return self.ys[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.ys[:, 1]

    def blocks(self):
        """Its rows as views (ts, ys) of ROW_BLOCK rows in order; the last block may be short."""
        for i in range(0, len(self), ROW_BLOCK):
            yield self.ts[i:i + ROW_BLOCK], self.ys[i:i + ROW_BLOCK]

    n_accepted = property(lambda self: self.stats.accepted, doc="``stats.accepted``, for "
                          "bench/layertrace.py alone until ROADMAP item 5 retires it")
    n_rejected = property(lambda self: self.stats.rejected, doc="``stats.rejected``, for "
                          "bench/layertrace.py alone until ROADMAP item 5 retires it")


def int_pow(z, m: int):
    """z**m by repeated multiplication: exact sign semantics for odd m.

    z may be a float or a numpy array (a lane row); an array argument is
    left unchanged.  ``PowerForm`` and the fused loops of
    ``osclab.integrate`` take z * z, its one product, for m = 2 and call
    it for any other m, so their z^m is this loop's bit for bit.
    """
    out = z
    for _ in range(m - 1):
        out = out * z
    return out


def trig_alpha2_eval(a: TrigAlpha, t):
    """alpha2(t) and its first three derivatives, all in closed form.

    t may be a float or an array.  alpha2 is summed in the order of
    ``alpha2_grid``, (A + B c) + C s, so the invariant sees the very
    alpha2 the field integrated.  The third derivative is computed as
    -(4 omega^2) * d1 from the same product, so d3 + 4 omega^2 d1 == 0
    holds exactly in floating point.
    """
    th = 2.0 * a.omega * t
    if isinstance(th, float):
        c, s = math.cos(th), math.sin(th)
    else:
        c, s = np.cos(th), np.sin(th)
    a2 = a.A + a.B * c
    if a.C:  # as in alpha2_grid
        a2 = a2 + a.C * s
    osc = a.B * c + a.C * s
    d1 = 2.0 * a.omega * (a.C * c - a.B * s)
    four_w2 = 4.0 * a.omega * a.omega
    return (a2, d1, -four_w2 * osc, -(four_w2 * d1))


def g_exponent(m: int) -> float:
    return -(m + 3) / 2.0


def alpha2_grid(A: float, B: float, C: float, two_w, t) -> np.ndarray:
    """alpha2 = A + B cos(th) + C sin(th), th = two_w * t, over numpy arrays.

    The operations and their order are those of the scalar g of
    ``make_field`` and of ``trig_alpha2_eval``, and numpy's float64 cos
    and sin round like math.cos and math.sin (no difference on 4 million
    random arguments up to 1e4; ``tests/test_model.py`` pins it on the
    fig1 step grid), so each value is bit-identical to the scalar alpha2.
    """
    th = two_w * t
    a2 = A + B * np.cos(th)
    if C:  # C * sin(th) is +-0 when C = 0, so skipping it changes no value
        a2 = a2 + C * np.sin(th)
    return a2


@dataclass(frozen=True)
class PowerForm:
    """The field (p, -w2 z - g(t) z^m) on a (z, p) state: the field of ``make_field``.

    Calling the form gives the field at (t, (z, p)), with z^m as z * z
    for m = 2 and by ``int_pow`` for any other m, bit for bit.  A form's
    m is a positive integer, 1 too: ``osclab.normalform`` runs the linear
    Hill field z'' + f(t) z = 0 as the form with w2 = 0, m = 1 and g = f,
    and its reduced system as one more form.  An ``OscillatorSpec``
    keeps m in [2, MAX_M].
    ``g(t)`` is the coefficient the call uses, raising there what the
    field raises (CoefficientSingularError where it is refused).
    ``g_grid(ts)`` takes a float64 array of times and returns
    ``[g(t) for t in ts]`` bit for bit, or None where g would raise at
    any of them.  Both scalar integrators of ``osclab.integrate`` inline
    a PowerForm on its (z, p) state, z^m taken as in the call, and refuse
    it on any other; the RK4 march calls ``g_grid`` on each chunk of its
    step grid and takes the generic steps on a chunk where it is None.
    """

    w2: float
    m: int
    g: Callable
    g_grid: Callable

    def __call__(self, t, y):
        z, p = y
        zm = z * z if self.m == 2 else int_pow(z, self.m)
        return (p, -self.w2 * z - self.g(t) * zm)


def make_field(spec: OscillatorSpec) -> PowerForm:
    """The field of a trig or sampled system, as a ``PowerForm``.

    The coefficient is one scalar g(t) per source: for trig sources a
    closure with its constants hoisted out of the per-call path, for
    sampled sources ``Sampled.value_at``.  ``g_grid`` for trig sources
    takes alpha2 by ``alpha2_grid`` and the power per element as a float
    ``**``, since numpy's power does not round like it (it differs on
    about 5 % of arguments); for sampled sources it is the spline on the
    array, None past the knots.  FiveParam sources are not supported
    here: their g(t) requires the jointly integrated coefficient state
    (see osclab.family).
    """
    m = spec.m
    w2 = spec.omega * spec.omega
    src = spec.g_source

    if isinstance(src, TrigAlpha):
        A, B, C = src.A, src.B, src.C
        two_w = 2.0 * src.omega
        ex = g_exponent(m)
        cos, sin = math.cos, math.sin

        def g(t):
            th = two_w * t
            a2 = A + B * cos(th)
            if C:  # as in alpha2_grid
                a2 = a2 + C * sin(th)
            if a2 <= EPS_POS:
                raise CoefficientSingularError(f"alpha2(t={t}) = {a2} <= {EPS_POS}")
            return a2 ** ex

        def g_grid(ts):
            a2 = alpha2_grid(A, B, C, two_w, ts)
            if (a2 <= EPS_POS).any():
                return None
            try:
                return [a ** ex for a in a2.tolist()]
            except OverflowError:
                return None
    elif isinstance(src, Sampled):
        g = src.value_at

        def g_grid(ts):
            if ts.min() < src.ts[0] or ts.max() > src.ts[-1]:
                return None
            return src._spline(ts).tolist()
    else:
        raise ValueError(
            f"no direct field for g source {type(src).__name__}; "
            "use osclab.family for jointly integrated coefficient states"
        )

    return PowerForm(w2, m, g, g_grid)


def spec_to_json(spec: OscillatorSpec) -> dict:
    src = spec.g_source
    if isinstance(src, TrigAlpha):
        g = {"kind": "trig", "A": src.A, "B": src.B, "C": src.C}
    elif isinstance(src, Sampled):
        g = {"kind": "sampled", "t": list(src.ts), "g": list(src.gs)}
    else:
        raise TypeError(f"no oscillator spec JSON for g source {type(src).__name__}")
    return {"omega": spec.omega, "m": spec.m, "g": g}


def json_number(v) -> float:
    """A numeric spec field as a float: a JSON number or a numeric string, not a boolean."""
    if isinstance(v, bool):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def json_numbers(v) -> tuple:
    """A list-valued spec field as a tuple of floats (see ``json_number``)."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list of numbers, got {v!r}")
    return tuple(map(json_number, v))


def spec_from_json(obj) -> OscillatorSpec:
    """Inverse of spec_to_json; a missing or malformed field raises ValueError.

    Five-parameter systems have their own flat format, read by
    osclab.family.fiveparam_from_json.
    """
    try:
        omega = json_number(obj["omega"])
        m = json_number(obj["m"])
        if m != int(m):
            raise ValueError(f"m must be an integer, got {obj['m']!r}")
        g = obj["g"]
        kind = g["kind"]
        if kind == "trig":
            src = TrigAlpha(json_number(g["A"]), json_number(g["B"]),
                            json_number(g["C"]), omega)
        elif kind == "sampled":
            src = Sampled(json_numbers(g["t"]), json_numbers(g["g"]))
        else:
            raise ValueError(f"unknown g source kind {kind!r}")
        return OscillatorSpec(omega=omega, m=int(m), g_source=src)
    except KeyError as exc:
        raise ValueError(f"malformed oscillator spec: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed oscillator spec: {exc}") from exc
