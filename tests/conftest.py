import tracemalloc

import pytest
from hypothesis import Phase, settings

from osclab import integrate

# Hypothesis draws the same examples on every run (and keeps no example database), so a
# failing or a passing run, a mutant check among them, repeats as it is.  It reports the
# first failing example without shrinking it: a broken fast path fails in seconds, not
# after minutes of shrinking runs whose steps are capped
settings.register_profile("derandomized", derandomize=True,
                          phases=(Phase.explicit, Phase.generate))
settings.load_profile("derandomized")


@pytest.fixture
def step_cap(monkeypatch):
    """Set integrate.MAX_STEPS, the step budget of every run, to n.

    A test whose runs are known to take at most about n accepted steps (a
    scalar adaptive run) or lock-steps (a lane run) sets a cap just above
    that: a broken tableau, whose error estimate makes the steps shrink,
    then fails with StepBudgetError in seconds instead of stepping on for
    minutes.  FixedStepConfig checks the same budget, so the cap must
    also cover any fixed-step run of the test.
    """
    def cap(n):
        monkeypatch.setattr(integrate, "MAX_STEPS", n)

    return cap


@pytest.fixture
def peak_alloc():
    """Call fn() under tracemalloc: (its result, peak bytes allocated above the start)."""
    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
