"""osclab benchmark: four CLI jobs timed end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

NAME is one of trajectory, section, boundary_scan, normal_form (see
workloads.py and BENCHMARK.json for what each exercises), or ``all``.
Run it from anywhere in a source checkout; osclab is taken from src/.

Each job is a fresh ``python -m osclab ...`` process, started one at a
time (a closed loop with one client) until S seconds have passed, and at
least twice; a setup sample runs before each job.  Every job must exit
0, pass its workload's correctness gate and write artifacts
byte-identical to the first job's; a job that does not counts as failed.

--trace 0 prints the end-to-end metrics: solve_s (median job wall time,
imports included), setup_s (median time for a fresh interpreter to
finish ``import osclab.cli``, one sample per job), peak_rss_mb (median
peak of the summed resident memory of the job and its pool workers),
result_err (the job's own accuracy figure) and failed_frac.  The two
times are scaled to a reference machine speed, measured with a fixed
kernel on the job's CPU right before and after each job (see
``machine_speed``); the raw medians are printed beside them.

--trace 1 runs two untraced jobs as the reference, then the job
in-process under the wrappers of layertrace.py until S seconds have
passed (the boundary scan with one worker, so every cell is recorded),
and prints the median of each per-layer metric over the traced jobs.
The traced jobs' artifacts must equal the untraced ones byte for byte.

Every metric is printed by name with its unit, then a ``record`` line
with the machine, settings, inputs and samples, and last one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when every job passed, 1 when one failed and 2 when the benchmark
could not start (for example, no osclab source next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import layertrace
from workloads import WORKLOADS, GateError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
JOB_TIMEOUT_S = 150.0
RSS_POLL_S = 0.1
KERNEL_STEPS = 400_000
KERNEL_REF_S = 0.15  # kernel time on the reference machine; times are reported at its speed
PAGE = os.sysconf("SC_PAGE_SIZE")


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("OSC_LAB_THREADS", None)
    return env


@contextlib.contextmanager
def pinned(cpus):
    """Run the block, and every process it starts, on ``cpus`` (all CPUs when None)."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus or old)
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


def _kernel():
    """Fixed pure-Python work shaped like osclab's inner loop: Euler steps of the fig1 field."""
    z, p, h = 0.1, 0.0, 1e-3
    cos = math.cos
    for k in range(KERNEL_STEPS):
        g = (1.3 + 0.9 * cos(2.0 * k * h)) ** -2.5
        z, p = z + h * p, p - h * (z + g * z * z)
    return z


def machine_speed(cpus) -> float:
    """KERNEL_REF_S over the kernel's mean time on each of ``cpus``, the driver pinned there."""
    times = []
    for cpu in sorted(cpus):
        with pinned({cpu}):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    return KERNEL_REF_S / statistics.fmean(times)


def _tree_rss(root: int) -> int:
    """Summed resident memory of ``root`` and its descendants, in bytes."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p and c not in tree]
        tree.update(kids)
        frontier.extend(kids)
    total = 0
    for pid in tree:
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * PAGE
        except OSError:
            pass
    return total


def _kill_group(proc):
    """Kill the job and any pool workers it started (they share its session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _Watch(threading.Thread):
    """Samples the job's process tree memory and kills the job at its deadline."""

    def __init__(self, proc):
        super().__init__(daemon=True)
        self.proc = proc
        self.peak = 0
        self.timed_out = False
        self.done = threading.Event()

    def run(self):
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while not self.done.wait(RSS_POLL_S):
            self.peak = max(self.peak, _tree_rss(self.proc.pid))
            if time.monotonic() > deadline:
                self.timed_out = True
                _kill_group(self.proc)


def run_process(cmd, log: Path, cpus=None):
    """Run ``cmd`` on ``cpus`` to completion: (wall_s, peak_rss_bytes, exit_code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        with pinned(cpus):
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=job_env(),
                                    cwd=ROOT, start_new_session=True)
        watch = _Watch(proc)
        watch.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - t0
            watch.done.set()
            watch.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = -9 if watch.timed_out else proc.returncode
    # ru_maxrss (KiB) is the largest single process of the tree, exact where sampling is coarse
    return wall, max(watch.peak, usage.ru_maxrss * 1024), code


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f.relative_to(out).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Runs:
    """Every job of one benchmark run, with its outcome."""

    def __init__(self, job, workdir: Path):
        self.job = job
        self.workdir = workdir
        self.records = []
        self.reference = None  # artifact digest of the first passing job

    def attempt(self, kind: str, cmd, argv, cpus=None) -> dict:
        n = len(self.records)
        out, log = self.workdir / f"job{n}", self.workdir / f"job{n}.log"
        wall, rss, code = run_process(list(cmd) + list(argv) + ["--out", str(out)], log, cpus)
        rec = {"kind": kind, "wall_s": wall, "peak_rss_mb": rss / 1e6, "exit": code,
               "result_err": None, "failure": None}
        if code != 0:
            rec["failure"] = f"exit code {code}"
        else:
            try:
                rec["result_err"] = self.job.check(out)
            except (GateError, KeyError) as exc:
                rec["failure"] = f"gate: {exc!r}"
        if rec["failure"] is None:
            d = digest(out)
            if self.reference is None:
                self.reference = d
            elif d != self.reference:
                rec["failure"] = "artifacts differ from the first job's"
        shutil.rmtree(out, ignore_errors=True)
        if rec["failure"] is not None:
            rec["output_tail"] = log.read_text(errors="replace").splitlines()[-5:]
        log.unlink()
        self.records.append(rec)
        return rec

    def timed(self, seconds: float) -> tuple:
        """Jobs until ``seconds`` have passed (at least two), each after one setup sample.

        A single-process job, its setup sample and the speed kernel run
        pinned to one CPU; a pool job runs on all CPUs and the kernel on
        each.  The machine speed around a job is the mean of the kernel
        measurements just before and just after it.  Returns (job
        records, setup times), both with the speed recorded.
        """
        allowed = sorted(os.sched_getaffinity(0))
        cpus = {allowed[-1]} if self.job.processes == 1 else set(allowed)
        cli = [sys.executable, "-m", "osclab"]
        import_time(cpus)  # warm-up: writes the bytecode caches
        start = time.perf_counter()
        timed, setup = [], []
        before = machine_speed(cpus)
        while len(timed) < 2 or time.perf_counter() - start < seconds:
            setup_s = import_time(cpus)
            rec = self.attempt("timed", cli, self.job.argv, cpus)
            after = machine_speed(cpus)
            rec["speed"] = (before + after) / 2.0
            timed.append(rec)
            setup.append((setup_s, rec["speed"]))
            before = after
        return timed, setup

    @property
    def failed(self) -> list:
        return [r for r in self.records if r["failure"] is not None]


def import_time(cpus) -> float:
    """Wall time of a fresh interpreter, on ``cpus``, that runs ``import osclab.cli``."""
    t0 = time.perf_counter()
    with pinned(cpus):
        subprocess.run([sys.executable, "-c", "import osclab.cli"], env=job_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def tail_percentile(samples):
    """(p, value) for the highest listed percentile with >= 10 samples beyond it, else None."""
    xs = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (1.0 - p / 100.0) >= 10.0:
            return p, xs[math.ceil(p / 100.0 * len(xs)) - 1]
    return None


def nearest_rank(xs, q: float) -> float:
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)] if xs else 0.0


def end_to_end(timed, setup) -> tuple:
    walls = [r["wall_s"] * r["speed"] for r in timed]
    errs = [r["result_err"] for r in timed if r["result_err"] is not None]
    tail = tail_percentile(walls)
    tail_note = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    raw = statistics.median(r["wall_s"] for r in timed)
    speed = statistics.median(r["speed"] for r in timed)
    metrics = {
        "solve_s": statistics.median(walls),
        "setup_s": statistics.median(t * v for t, v in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "result_err": statistics.median(errs) if errs else None,
    }
    notes = {
        "solve_s": f"median of {len(walls)} jobs; {tail_note}; "
                   f"raw wall median {raw:.4f} s at machine speed {speed:.3f}",
        "setup_s": f"median of {len(setup)} imports; "
                   f"raw median {statistics.median(t for t, _ in setup):.4f} s",
        "peak_rss_mb": "job plus pool workers, median over jobs",
        "result_err": "from summary.json, lower is better",
    }
    return metrics, notes


def per_layer(dump, traced_wall, ref_wall, solve_s, workers, micro) -> dict:
    spans, c, cells = dump["spans"], dump["counts"], dump["cells"]
    self_s = layertrace.layer_self_s(spans)
    acc, rej = c["integrate.accepted"], c["integrate.rejected"]
    steps = acc + rej
    durations = [d for d, _ in cells]
    nf = {name: layertrace.span_total_s(spans, name)
          for name in ("reduce", "monodromy", "cs_envelope")}
    return {
        "model.field_calls": c["model.field_calls"],
        "model.field_call_us": micro["model.field_call_us"],
        "integrate.calls": c["integrate.calls"],
        "integrate.accepted": acc,
        "integrate.rejected": rej,
        "integrate.accept_ratio": acc / steps if steps else 0.0,
        "integrate.s": self_s["integrate"],
        "integrate.us_per_step": 1e6 * self_s["integrate"] / steps if steps else 0.0,
        "invariant.s": self_s["invariant"],
        "invariant.rows": c["invariant.rows"],
        "poincare.s": self_s["poincare"],
        "cubic.roots_us": micro["cubic.roots_us"],
        "stability.cells": len(cells),
        "stability.escaped_frac": sum(not ok for _, ok in cells) / len(cells) if cells else 0.0,
        "stability.cell_p50_s": nearest_rank(durations, 0.5),
        "stability.cell_p90_s": nearest_rank(durations, 0.9),
        "stability.parallel_eff": sum(durations) / (workers * solve_s),
        "normalform.monodromy_s": nf["monodromy"],
        "normalform.envelope_s": nf["cs_envelope"],
        "normalform.rest_s": nf["reduce"] - nf["monodromy"] - nf["cs_envelope"],
        "normalform.f_calls": c["normalform.f_calls"],
        "output.s": self_s["output"],
        "output.bytes": c["output.bytes"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_frac": traced_wall / ref_wall - 1.0,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(workers: int, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workers": workers,
        "seed": seed,
        "git_commit": git_commit(),
    }


def show(name: str, value, unit: str, note: str):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<24} {text:<14} {unit:<6} {note}")


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool, spec: dict) -> bool:
    workers = min(2, len(os.sched_getaffinity(0)))
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        job = WORKLOADS[name](seed, workdir, small, workers)
        runs = Runs(job, workdir)
        print(f"workload {name}: osclab {' '.join(job.argv)}  seed={seed} seconds={seconds:g} "
              f"trace={int(trace)}")
        if trace:
            metrics, notes = traced(runs, seconds, workers, name)
            wanted = spec["per_layer"]
        else:
            metrics, notes = end_to_end(*runs.timed(seconds))
            wanted = spec["end_to_end"]
        for rec in runs.failed:
            print(f"FAILED {rec['kind']} job: {rec['failure']}")
        attempted, failed = len(runs.records), len(runs.failed)
        for m in wanted:
            show(m["name"], metrics[m["name"]], m["unit"], notes.get(m["name"], ""))
        show("failed_frac", failed / attempted, "1", f"{failed} of {attempted} jobs failed")
        print("record " + json.dumps({"workload": name, "machine": machine(workers, seed),
                                      "inputs": job.inputs, "jobs": runs.records}))
        correct = failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }))
        return correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(runs: Runs, seconds: float, workers: int, name: str):
    """Untraced reference jobs, then traced jobs until ``seconds`` have passed (at least one).

    Each per-layer metric is the median over the traced jobs (the lower one
    for an even count, so that counts stay whole numbers).
    """
    start = time.perf_counter()
    job = runs.job
    cli = [sys.executable, "-m", "osclab"]
    solve_s = statistics.median(runs.attempt("timed", cli, job.argv)["wall_s"] for _ in range(2))
    ref_wall = solve_s
    if job.trace_argv != job.argv:
        ref_wall = runs.attempt("untraced one-worker", cli, job.trace_argv)["wall_s"]
    micro = json.loads(subprocess.run([sys.executable, str(BENCH / "micro.py")], env=job_env(),
                                      cwd=ROOT, check=True, capture_output=True, text=True).stdout)
    spans_file = WORK / f"trace-{name}.json"
    samples = []
    while not samples or time.perf_counter() - start < seconds:
        spans_file.unlink(missing_ok=True)
        rec = runs.attempt("traced", [sys.executable, str(BENCH / "traced_job.py"),
                                      str(spans_file), "--"], job.trace_argv)
        if not spans_file.exists():
            raise SystemExit(f"traced job failed: {rec['failure']}")
        samples.append(per_layer(json.loads(spans_file.read_text()), rec["wall_s"], ref_wall,
                                 solve_s, workers, micro))
    metrics = {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}
    head = f"median of {len(samples)} traced jobs"
    notes = dict.fromkeys(metrics, head)
    notes["trace.overhead_frac"] = f"{head}, against untraced {ref_wall:.3f} s"
    notes["stability.parallel_eff"] = f"{head}; cell time / ({workers} workers x untraced solve_s)"
    notes["model.field_call_us"] = notes["cubic.roots_us"] = "fixed-count microbenchmark"
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced job sizes, for the smoke test only")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running job is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "osclab" / "cli.py").is_file():
        print(f"error: no osclab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = measure(name, args.seed, args.seconds, bool(args.trace), args.small, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
