"""The names, flags and gates of osclab that the benchmark under bench/ relies on.

The benchmark builds its jobs from the checkout it runs in, so a change
to osclab that drops a traced function, an import of the
microbenchmarks or a flag of a job, or that breaks a job's correctness
gate, would only show when the benchmark runs.  These checks read
bench/ without editing it; the last two run each job at its small size,
in-process and under the layer tracer, and apply the job's own gate.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from osclab.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name: str):
    """bench/<name>.py as the module bench_<name>, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", sorted(_load("layertrace").TRACED))
def test_every_traced_function_exists(layer):
    modname, names = _load("layertrace").TRACED[layer]
    module = importlib.import_module(modname)
    assert [n for n in names if not callable(getattr(module, n, None))] == []


def test_microbenchmarks_import():
    assert callable(_load("micro").main)


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_job_flags_parse(tmp_path, workload):
    job = _load("workloads").WORKLOADS[workload](7, tmp_path, True, 2)
    parser = build_parser()
    for argv in (job.argv, job.trace_argv):
        args = parser.parse_args([*argv, "--out", str(tmp_path / "out")])
        assert args.command == argv[0]


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_small_job_passes_its_gate(tmp_path, workload):
    job = _load("workloads").WORKLOADS[workload](7, tmp_path, True, 2)
    out = tmp_path / "out"
    assert main([*job.argv, "--out", str(out)]) == 0
    job.check(out)


def _artifacts(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_small_traced_job_matches_untraced(tmp_path, workload):
    # the tracer wraps the PowerForm field in a plain function: the traced
    # job takes the generic integrator paths, the untraced one the fused ones
    job = _load("workloads").WORKLOADS[workload](7, tmp_path, True, 2)
    ref, out = tmp_path / "ref", tmp_path / "traced"
    assert main([*job.argv, "--out", str(ref)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_job.py"), str(tmp_path / "spans.json"), "--",
         *job.trace_argv, "--out", str(out)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    job.check(out)
    assert _artifacts(out) == _artifacts(ref)
