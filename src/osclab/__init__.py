"""Numerical laboratory for z'' + omega^2 z + g(t) z^m = 0.

Builds exact quadratic invariants for the trigonometric and
five-parameter coefficient families, samples stroboscopic sections
against the closed-form section curve, locates the analytic stability
boundary, and reduces periodic Hill linear parts to a constant-frequency
normal form.
"""

from .errors import (
    CoefficientSingularError,
    ConfigError,
    EnvelopeBlowupError,
    NonfiniteStateError,
    OscLabError,
    StepBudgetError,
    StepUnderflowError,
    UnstableHillError,
    UnsupportedSourceError,
)
from .family import FiveParamSpec, integrate_family
from .integrate import (
    AdaptiveConfig,
    FixedStepConfig,
    integrate_adaptive,
    integrate_fixed,
    sample_strobe,
)
from .invariant import build_coeffs, drift, eval_invariant, invariant_series, pde_residual
from .model import OscillatorSpec, Sampled, State, Trajectory, TrigAlpha, make_field, trig_spec
from .normalform import HillSpec, monodromy, reduce
from .poincare import curve_loop, section_curve, section_residual
from .stability import bounded, i0_crit, scan, z_crit

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "CoefficientSingularError",
    "ConfigError",
    "EnvelopeBlowupError",
    "FiveParamSpec",
    "FixedStepConfig",
    "HillSpec",
    "NonfiniteStateError",
    "OscLabError",
    "OscillatorSpec",
    "Sampled",
    "State",
    "StepBudgetError",
    "StepUnderflowError",
    "Trajectory",
    "TrigAlpha",
    "UnstableHillError",
    "UnsupportedSourceError",
    "bounded",
    "build_coeffs",
    "curve_loop",
    "drift",
    "eval_invariant",
    "i0_crit",
    "integrate_adaptive",
    "integrate_family",
    "integrate_fixed",
    "invariant_series",
    "make_field",
    "monodromy",
    "pde_residual",
    "reduce",
    "sample_strobe",
    "scan",
    "section_curve",
    "section_residual",
    "trig_spec",
    "z_crit",
    "__version__",
]
