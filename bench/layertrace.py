"""Span and counter wrappers installed around osclab's public functions.

``Tracer.install`` replaces each function in ``TRACED``, in every loaded
``osclab`` module that binds it, by a wrapper that records a span
[layer, name, parent, start, end] in memory.  osclab modules look their
collaborators up as module globals at call time, so one wrapper sees
every call, whichever module makes it.  The field callables returned by
``make_field`` and the Hill coefficient f built by the CLI are wrapped
with plain call counters instead: a span per field call would cost more
than the call itself.

A span's self time is its duration minus the durations of its direct
children; ``layer_self_s`` sums self time per layer.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# layer -> (defining module, traced function names)
TRACED = {
    "cli": ("osclab.cli", ("main", "_periodic_interpolants")),
    "model": ("osclab.model", ("make_field",)),
    "integrate": ("osclab.integrate", ("integrate_fixed", "integrate_adaptive", "sample_strobe")),
    "invariant": ("osclab.invariant", ("build_coeffs", "eval_invariant", "drift",
                                       "drift_absolute", "invariant_series")),
    "poincare": ("osclab.poincare", ("section_curve", "section_residual", "curve_loop")),
    "cubic": ("osclab.cubic", ("real_roots",)),
    "stability": ("osclab.stability", ("scan", "bounded")),
    "normalform": ("osclab.normalform", ("reduce", "monodromy", "cs_envelope")),
    "output": ("osclab.output", ("write_csv", "write_json", "svg_plot")),
}


def _counted(fn, box):
    def counted(*args):
        box[0] += 1
        return fn(*args)

    return counted


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = {"integrate.calls": 0, "integrate.accepted": 0, "integrate.rejected": 0,
                       "invariant.rows": 0, "output.bytes": 0}
        self.cells = []  # [duration_s, bounded] per stability.bounded call
        self._field_calls = [0]
        self._f_calls = [0]

    # hooks run after a traced call returns and give back the caller's result

    def _after_integrate(self, span, args, traj):
        c = self.counts
        c["integrate.calls"] += 1
        c["integrate.accepted"] += traj.n_accepted
        c["integrate.rejected"] += traj.n_rejected
        return traj

    def _after_make_field(self, span, args, field):
        return _counted(field, self._field_calls)

    def _after_series(self, span, args, series):
        self.counts["invariant.rows"] += len(series)
        return series

    def _after_bounded(self, span, args, ok):
        self.cells.append([span[4] - span[3], ok])
        return ok

    def _after_write(self, span, args, result):
        self.counts["output.bytes"] += Path(args[0]).stat().st_size
        return result

    def _after_interpolants(self, span, args, fg):
        return _counted(fg[0], self._f_calls), fg[1]

    def _wrap(self, layer, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, fn.__name__, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            return out if hook is None else hook(spans[idx], args, out)

        return traced

    def install(self):
        """Bind a wrapper wherever a loaded osclab module binds a traced function."""
        import osclab.cli  # noqa: F401  (loads every module the CLI reaches)

        hooks = {
            "integrate_fixed": self._after_integrate,
            "integrate_adaptive": self._after_integrate,
            "make_field": self._after_make_field,
            "invariant_series": self._after_series,
            "bounded": self._after_bounded,
            "write_csv": self._after_write,
            "write_json": self._after_write,
            "svg_plot": self._after_write,
            "_periodic_interpolants": self._after_interpolants,
        }
        modules = [m for n, m in sys.modules.items() if n == "osclab" or n.startswith("osclab.")]
        for layer, (modname, names) in TRACED.items():
            for name in names:
                fn = getattr(sys.modules[modname], name)
                wrapper = self._wrap(layer, fn, hooks.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts, **{"model.field_calls": self._field_calls[0],
                                           "normalform.f_calls": self._f_calls[0]}),
            "cells": self.cells,
        }


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def layer_self_s(spans) -> dict:
    out = {layer: 0.0 for layer in TRACED}
    for s, own in zip(spans, self_times(spans)):
        out[s[0]] += own
    return out


def span_total_s(spans, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s[4] - s[3] for s in spans if s[1] == name)
