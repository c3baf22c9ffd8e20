import math
import os
import random

import pytest

from osclab.model import trig_spec
from osclab.stability import (
    StabilityRow,
    _cell,
    bounded,
    default_workers,
    i0_crit,
    i0_of_z0,
    scan,
    z_crit,
)


def test_z_crit_frozen_values():
    # 0.5 omega^2 (A - R) (A + R)^(3/2) at (1.3, 0.9), checked against a
    # 50-digit evaluation
    table = {
        0.8: 0.4176802987932277,
        1.0: 0.6526254668644184,
        1.2: 0.9397806722847624,
        1.23: 0.9873570688191785,
        1.4: 1.27914591505426,
        1.6: 1.6707211951729108,
        1.8: 2.114506512640715,
    }
    for omega, want in table.items():
        assert math.isclose(z_crit(1.3, 0.9, omega), want, rel_tol=1e-13)


def test_z_crit_headline_rounding():
    assert abs(z_crit(1.3, 0.9, 1.23) - 0.99) <= 0.005


def test_i0_crit_frozen():
    assert math.isclose(i0_crit(1.3, 0.9, 1.0), 0.22715733333333332, rel_tol=1e-13)
    assert math.isclose(i0_crit(1.3, 0.9, 1.23), 0.7866063180694287, rel_tol=1e-13)


def test_i0_of_z0_frozen():
    assert math.isclose(i0_of_z0(1.3, 0.9, 1.0, 0.3), 0.04151618069288107, rel_tol=1e-13)
    assert i0_of_z0(1.3, 0.9, 1.0, 0.0) == 0.0


def test_critical_amplitude_level_identity():
    # the invariant level of z0 = z_crit is exactly the critical level
    rng = random.Random(5)
    for _ in range(30):
        A = rng.uniform(0.5, 2.0)
        R = rng.uniform(0.05, 0.95) * A
        omega = rng.uniform(0.5, 2.0)
        zc = z_crit(A, R, omega)
        assert math.isclose(i0_of_z0(A, R, omega, zc), i0_crit(A, R, omega),
                            rel_tol=1e-12)


def test_z_crit_monotone_in_omega():
    vals = [z_crit(1.3, 0.9, w) for w in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_amplitude_validation():
    with pytest.raises(ValueError):
        z_crit(0.9, 1.0, 1.0)  # A <= R
    with pytest.raises(ValueError):
        i0_crit(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        z_crit(1.3, 0.9, 0.0)


def test_bounded_both_sides_of_threshold():
    spec = trig_spec(1.3, 0.9, 0.0, 1.4, 2)
    assert bounded(spec, 1.2, t_max=200.0)
    assert not bounded(spec, 1.4, t_max=200.0)
    with pytest.raises(ValueError):
        bounded(spec, -0.5)


def test_cell_worker_is_plain_function():
    args = (1.3, 0.9, 0.0, 1.0, 0.3, 60.0, 50.0, 1e-10)
    assert _cell(args) is True
    import pickle

    pickle.dumps(_cell)  # must survive process pool transport


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("OSC_LAB_THREADS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("OSC_LAB_THREADS", "zero")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.setenv("OSC_LAB_THREADS", "0")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.delenv("OSC_LAB_THREADS")
    assert default_workers() >= 1


def test_default_workers_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("OSC_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert default_workers() == 3


def test_scan_pool_capped_at_job_chunks(monkeypatch):
    # record the pool size instead of starting processes
    import concurrent.futures

    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return [True for _ in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    # omega = 1 at dz0 = 0.05 gives 40 cells, five chunks of eight
    rows = scan(1.3, 0.9, 0.0, (1.0,), dz0=0.05, workers=1000)
    assert seen == [5]
    assert rows[0].z_last_bounded == pytest.approx(40 * 0.05)
    scan(1.3, 0.9, 0.0, (1.0,), dz0=0.05, workers=3)
    assert seen == [5, 3]


def test_scan_small_grid():
    rows = scan(1.3, 0.9, 0.0, (1.0,), dz0=0.05, t_max=150.0, workers=1)
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, StabilityRow)
    assert row.omega == 1.0
    assert abs(row.z_last_bounded - row.z_crit_analytic) <= 2 * 0.05
    assert row.agrees


def test_scan_worker_count_does_not_change_rows():
    kw = dict(dz0=0.05, t_max=120.0, workers=None)
    a = scan(1.3, 0.9, 0.0, (1.0,), **{**kw, "workers": 1})
    b = scan(1.3, 0.9, 0.0, (1.0,), **{**kw, "workers": 2})
    assert a == b
