"""Exception hierarchy shared by all osclab modules.

Every error carries a short machine-readable ``name`` that the CLI writes
into its summary JSON when a run aborts, so callers can branch on the
failure kind without parsing messages.
"""


class OscLabError(Exception):
    """Base class for all osclab failures."""

    name = "error"


class ConfigError(OscLabError):
    """Invalid user configuration (CLI exit code 2)."""

    name = "config"


class CoefficientSingularError(OscLabError):
    """The coefficient alpha2 dropped to or below the positivity floor."""

    name = "coefficient_singular"


class NonfiniteStateError(OscLabError):
    """An integration step produced NaN or Inf state components."""

    name = "nonfinite_state"


class StepUnderflowError(OscLabError):
    """The adaptive controller demanded a step below h_min."""

    name = "step_underflow"


class StepBudgetError(OscLabError):
    """An adaptive run took more accepted steps, or a lane run more lock-steps, than allowed."""

    name = "step_budget"


class UnsupportedSourceError(ConfigError):
    """The requested operation is undefined for this g(t) source (a configuration error)."""

    name = "unsupported_source"


class UnstableHillError(OscLabError):
    """The one-period transfer matrix has |trace| >= 2 (no stable envelope)."""

    name = "unstable_hill"


class EnvelopeBlowupError(OscLabError):
    """The envelope function left its admissible range during propagation."""

    name = "envelope_blowup"
