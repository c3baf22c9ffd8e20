"""Numerical laboratory for z'' + omega^2 z + g(t) z^m = 0.

Builds exact quadratic invariants for the trigonometric and
five-parameter coefficient families, samples stroboscopic sections
against the closed-form section curve, locates the analytic stability
boundary, and reduces periodic Hill linear parts to a constant-frequency
normal form.
"""

import importlib

# public name -> the submodule that defines it; ``__getattr__`` imports the
# submodule at the name's first use, so ``import osclab`` executes none of them
_SOURCES = {
    **dict.fromkeys(("CoefficientSingularError", "ConfigError", "EnvelopeBlowupError",
                     "NonfiniteStateError", "OscLabError", "StepBudgetError",
                     "StepUnderflowError", "UnstableHillError", "UnsupportedSourceError"),
                    "errors"),
    **dict.fromkeys(("FiveParamSpec", "integrate_family"), "family"),
    **dict.fromkeys(("AdaptiveConfig", "FixedStepConfig", "integrate_adaptive",
                     "integrate_fixed", "sample_strobe"), "integrate"),
    **dict.fromkeys(("build_coeffs", "drift", "eval_invariant", "invariant_series",
                     "pde_residual"), "invariant"),
    **dict.fromkeys(("OscillatorSpec", "Sampled", "State", "Trajectory", "TrigAlpha",
                     "make_field", "trig_spec"), "model"),
    **dict.fromkeys(("HillSpec", "monodromy", "reduce"), "normalform"),
    **dict.fromkeys(("curve_loop", "i0_crit", "section_curve", "section_residual", "z_crit"),
                    "poincare"),
    **dict.fromkeys(("bounded", "scan"), "stability"),
}


def __getattr__(name):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))


__version__ = "0.1.0"

__all__ = sorted(_SOURCES) + ["__version__"]
