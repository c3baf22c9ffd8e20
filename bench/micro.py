"""Fixed-count microbenchmarks of two single-layer operations.

    python3 bench/micro.py

Prints one JSON object: ``model.field_call_us``, one call of the fig1
trig field, and ``cubic.roots_us``, one ``real_roots`` call on the fig2
section cubic, each the median over repeats of a fixed number of calls.
osclab must be importable (PYTHONPATH=src).
"""

import json
import statistics
import timeit

from osclab.cubic import real_roots
from osclab.model import make_field, trig_spec
from osclab.poincare import section_curve
from osclab.stability import i0_of_z0

FIELD_CALLS = 100_000
ROOT_CALLS = 20_000
REPEATS = 5


def per_call_us(stmt: str, number: int, **env) -> float:
    times = timeit.Timer(stmt, globals=env).repeat(repeat=REPEATS, number=number)
    return 1e6 * statistics.median(times) / number


def main():
    spec = trig_spec(1.3, 0.9, 0.0, 1.0, 2)
    curve = section_curve(spec, i0_of_z0(1.3, 0.9, 1.0, 0.1))
    print(json.dumps({
        "model.field_call_us": per_call_us("field(t, y)", FIELD_CALLS, field=make_field(spec),
                                           t=0.37, y=(0.1, 0.02)),
        "cubic.roots_us": per_call_us("roots(a, b, 0.0, d)", ROOT_CALLS, roots=real_roots,
                                      a=-curve.c_z3, b=-curve.c_z2, d=curve.I0),
    }))


if __name__ == "__main__":
    main()
