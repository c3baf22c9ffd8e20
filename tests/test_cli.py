import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import osclab
from osclab import cli, integrate, invariant
from osclab.cli import PRESETS, _parse_omegas, _stride_rows, main
from osclab.family import fiveparam_from_json, integrate_family
from osclab.integrate import (AdaptiveConfig, FixedStepConfig, integrate_adaptive, integrate_fixed,
                              sample_strobe)
from osclab.model import ROW_BLOCK, State, make_field, trig_spec
from osclab.output import _columns, decimate, plot_frame, svg_plot, write_csv, write_json


def run(argv):
    return main(argv)


def test_crit_prints_headline(capsys):
    assert run(["crit", "--A", "1.3", "--B", "0.9", "--omega", "1.23"]) == 0
    out = capsys.readouterr().out
    assert "z_crit = 0.99" in out


def test_every_option_of_every_command_has_help():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [f"{name} {'/'.join(a.option_strings)}" for name, p in sub.choices.items()
            for a in p._actions if a.option_strings and not a.help]
    assert bare == []


def test_crit_summary(tmp_path):
    out = tmp_path / "crit"
    assert run(["crit", "--A", "1.3", "--B", "0.9", "--omega", "1.0",
                "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert math.isclose(summary["z_crit"], 0.6526254668644184, rel_tol=1e-13)
    assert math.isclose(summary["i0_crit"], 0.22715733333333332, rel_tol=1e-13)


def test_crit_rejects_bad_amplitudes(capsys):
    assert run(["crit", "--A", "0.5", "--B", "0.9", "--omega", "1.0"]) == 2
    for argv in (["--A", "1.3", "--B", "0.9", "--omega", "inf"],
                 ["--A", "inf", "--B", "0.9", "--omega", "1.0"]):
        capsys.readouterr()
        assert run(["crit"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert captured.out.startswith("error: ") and "finite" in captured.out
        assert captured.err == ""


def test_simulate_preset(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--preset", "fig1", "--tmax", "5", "--out", str(out)]) == 0
    rows = (out / "traj.csv").read_text().splitlines()
    assert rows[0] == "t,z,p"
    assert rows[1].startswith("0.0,0.1,")
    assert (out / "traj.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["t_final"] == 5.0


def test_simulate_escaped_is_success(tmp_path):
    out = tmp_path / "esc"
    code = run(["simulate", "--preset", "fig4-unbounded", "--tmax", "60",
                "--out", str(out), "--no-svg"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "escaped"


def test_simulate_requires_system(tmp_path):
    assert run(["simulate", "--out", str(tmp_path / "x")]) == 2


def test_simulate_rejects_both_preset_and_spec(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text('{"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}}')
    assert run(["simulate", "--preset", "fig1", "--spec", str(spec),
                "--out", str(tmp_path / "x")]) == 2


def test_simulate_spec_file(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text('{"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}}')
    out = tmp_path / "sim"
    assert run(["simulate", "--spec", str(spec), "--z0", "0.1", "--tmax", "3",
                "--out", str(out), "--no-svg"]) == 0


def test_simulate_unknown_preset(tmp_path):
    assert run(["simulate", "--preset", "fig9", "--out", str(tmp_path / "x")]) == 2


def test_simulate_bad_spec_json(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    assert run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2


def test_drift_outputs(tmp_path):
    out = tmp_path / "drift"
    assert run(["drift", "--preset", "fig1", "--tmax", "10", "--out", str(out)]) == 0
    rows = (out / "drift.csv").read_text().splitlines()
    assert rows[0] == "t,rel_drift"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "relative"
    assert summary["max_rel_drift"] < 1e-9
    assert math.isclose(summary["i0"], 0.004204302988625225, rel_tol=1e-12)


def test_drift_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["drift", "--preset", "fig1", "--tmax", "10", "--out", str(out)]) == 0
    for name in ("drift.csv", "drift.svg", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_poincare_outputs(tmp_path):
    out = tmp_path / "poin"
    assert run(["poincare", "--preset", "fig2", "--points", "24", "--out", str(out)]) == 0
    strobe = (out / "strobe.csv").read_text().splitlines()
    assert strobe[0] == "z,p"
    assert len(strobe) == 25
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "z,p"
    assert len(curve) > 100
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_points"] == 24
    assert summary["residual_max"] < 1e-6
    # 23 strobe intervals of pi at the preset h = 1e-3, each with a shortened last step
    assert summary["stats"] == {"integrator": "rk4", "accepted": 23 * 3142, "rejected": 0,
                                "field_evals": 4 * 23 * 3142}
    assert (out / "section.svg").exists()


def test_poincare_adaptive_summary_counts_steps(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["poincare", "--preset", "fig2", "--points", "24", "--rtol", "1e-10",
                    "--out", str(out)]) == 0
    stats = json.loads((outs[0] / "summary.json").read_text())["stats"]
    assert stats["integrator"] == "dormand_prince"
    # one warm march: about 97 steps per strobe interval, not 100 as with cold restarts
    assert 23 * 90 < stats["accepted"] < 23 * 99 and stats["rejected"] >= 0
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "drift"])
def test_single_system_summary_counts_steps(tmp_path, command):
    ref = integrate_adaptive(make_field(trig_spec(1.3, 0.9, 0.0, 1.0)), (0.1, 0.0),
                             AdaptiveConfig(rtol=1e-9, t_end=5.0))
    for flags, want in [
        ([], {"integrator": "rk4", "accepted": 5000, "rejected": 0, "field_evals": 20000}),
        (["--rtol", "1e-9"], {"integrator": "dormand_prince", "accepted": ref.stats.accepted,
                              "rejected": ref.stats.rejected,
                              "field_evals": 1 + 6 * (ref.stats.accepted + ref.stats.rejected)}),
    ]:
        out = tmp_path / "+".join(flags)
        assert run([command, "--preset", "fig1", "--tmax", "5", *flags, "--no-svg",
                    "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["stats"] == want
    assert ref.stats.rejected > 0


def _counted_field(preset):
    """The preset's field behind a call counter, and the list of its call times."""
    p = PRESETS[preset]
    field = make_field(trig_spec(p["A"], p["B"], p["C"], p["omega"], p["m"]))
    calls = []

    def counted(t, y):
        calls.append(t)
        return field(t, y)

    return counted, calls


@pytest.mark.parametrize("command", ["simulate", "drift"])
@pytest.mark.parametrize("rtol", [None, 1e-9], ids=["rk4", "dormand_prince"])
@pytest.mark.parametrize("preset,tmax,want", [("fig1", 5.0, "completed"),
                                              ("fig4-unbounded", 60.0, "escaped")])
def test_field_evals_counts_the_field_calls(tmp_path, command, rtol, preset, tmax, want):
    p = PRESETS[preset]
    field, calls = _counted_field(preset)
    run_cfg = dict(t_end=tmax, escape_bound=p.get("escape", math.inf))
    if rtol is None:
        ref = integrate_fixed(field, (p["z0"], p["p0"]), FixedStepConfig(h=p["h"], **run_cfg))
    else:
        ref = integrate_adaptive(field, (p["z0"], p["p0"]), AdaptiveConfig(rtol=rtol, **run_cfg))
    assert ref.status == want
    flags = [] if rtol is None else ["--rtol", str(rtol)]
    out = tmp_path / "out"
    assert run([command, "--preset", preset, "--tmax", str(tmax), *flags, "--no-svg",
                "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["stats"]
    assert (stats["accepted"], stats["rejected"]) == (ref.stats.accepted, ref.stats.rejected)
    assert stats["field_evals"] == len(calls)


@pytest.mark.parametrize("flags,integrator", [(["--rtol", "1e-8"], "dormand_prince"),
                                              (["--h", "1e-3"], "rk4")])
def test_a_run_singular_at_its_start_counts_no_field_evaluation(tmp_path, flags, integrator):
    # the knots start at t = 1, so g raises at t = 0, before a first step completes
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"omega": 1.0, "m": 2, "g": {
        "kind": "sampled", "t": [1, 2, 3, 4], "g": [1, 1, 1, 1]}}))
    out = tmp_path / "out"
    assert run(["simulate", "--spec", str(spec), "--tmax", "5", *flags, "--no-svg",
                "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "coefficient_singular"
    assert summary["stats"] == {"integrator": integrator, "accepted": 0, "rejected": 0,
                                "field_evals": 0}


@pytest.mark.parametrize("h", [1e-3, None], ids=["rk4", "dormand_prince"])
@pytest.mark.parametrize("points,z0,want", [(1, 0.1, "completed"), (6, 0.1, "completed"),
                                            (24, 1.4, "escaped")])
def test_poincare_field_evals_counts_the_field_calls(tmp_path, h, points, z0, want):
    field, calls = _counted_field("fig2")
    ref = sample_strobe(field, (z0, 0.0), math.pi, points - 1, escape_bound=50.0, h=h,
                        rtol=1e-10)
    assert ref.status == want
    flags = ["--h", str(h)] if h else ["--rtol", "1e-10"]
    out = tmp_path / "out"
    assert run(["poincare", "--preset", "fig2", "--points", str(points), "--z0", str(z0),
                *flags, "--no-svg", "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["stats"]
    assert (stats["accepted"], stats["rejected"]) == (ref.stats.accepted, ref.stats.rejected)
    assert stats["field_evals"] == len(calls)
    assert (stats["field_evals"] == 0) == (points == 1)


@pytest.mark.parametrize("points,message", [
    ("1000002", "error: k_max must be in [0, 1000000] (at most 1000001 strobe points), "
                "got 1000001"),
    # fig2 sets h = 1e-3: 10^6 strobe intervals of pi are about 3.1e9 RK4 steps
    ("1000001", "error: step size h=0.001 gives 3.14e+09 steps over [0.0, 3141592.653589793], "
                "more than 100000000"),
], ids=["k_max", "fixed_steps"])
def test_poincare_refuses_strobe_it_cannot_finish(tmp_path, capsys, points, message):
    start = time.perf_counter()
    assert run(["poincare", "--preset", "fig2", "--points", points,
                "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith(message)
    assert captured.err == ""
    assert not (tmp_path / "x").exists()


def test_stability_scan_small(tmp_path):
    out = tmp_path / "scan"
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "1.0:1.0:0.2",
                "--dz0", "0.05", "--tmax", "120", "--out", str(out)]) == 0
    rows = (out / "scan.csv").read_text().splitlines()
    assert rows[0] == "omega,z_last_bounded,z_crit"
    assert len(rows) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_agree"] is True


def test_stability_scan_worker_count_invariance(tmp_path):
    # --workers is accepted and has no effect: the scan runs in one process
    args = ["stability-scan", "--preset", "fig3", "--omegas", "1.0:1.0:0.2",
            "--dz0", "0.05", "--tmax", "120", "--no-svg"]
    a = tmp_path / "a"
    assert run(args + ["--out", str(a), "--workers", "1"]) == 0
    b = tmp_path / "b"
    assert run(args + ["--out", str(b), "--workers", "2"]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_stability_scan_summary_counts_cells(tmp_path):
    out = tmp_path / "scan"
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "0.8:1.0:0.2",
                "--dz0", "0.1", "--tmax", "30", "--no-svg", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [c["omega"] for c in summary["cells"]] == [r["omega"] for r in summary["rows"]]
    (batch,) = summary["batches"]
    assert batch["lanes"] == sum(c["cells"] for c in summary["cells"])
    for c, r in zip(summary["cells"], summary["rows"]):
        # the cells above the last bounded one include the first escape
        assert 0 < c["escaped"] <= c["cells"] - round(r["z_last_bounded"] / 0.1)
        # the batch steps as long as its longest lane
        assert batch["lock_steps"] >= (c["accepted"] + c["rejected"]) / c["cells"]


def test_stability_scan_summary_names_its_integrator(tmp_path):
    out = tmp_path / "scan"
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--dz0", "0.5",
                "--tmax", "2", "--no-svg", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the scan's lanes step with DOP853; the scalar runs stay on Dormand-Prince 5(4)
    assert summary["integrator"] == "dop853"


def test_stability_scan_summary_counts_field_evals(tmp_path):
    # with --escape 1e60 every runaway cell ends in step underflow before |z| reaches the bound
    cases = ((["--omegas", "1:1:1", "--tmax", "2"], 16, 0),
             (["--omegas", "1.4:1.4:1", "--tmax", "20", "--escape", "1e60"], 0, 22))
    for i, (flags, escaped, underflow) in enumerate(cases):
        out = tmp_path / f"scan{i}"
        assert run(["stability-scan", "--preset", "fig3", *flags, "--dz0", "0.5", "--no-svg",
                    "--out", str(out)]) == 0
        (cells,) = json.loads((out / "summary.json").read_text())["cells"]
        assert (cells["escaped"], cells["step_underflow"]) == (escaped, underflow)
        # one evaluation per cell, then twelve per DOP853 trial step (FSAL)
        assert cells["field_evals"] == cells["cells"] + 12 * (cells["accepted"]
                                                              + cells["rejected"])
        assert cells["accepted"] > 0


_SCAN = ["stability-scan", "--preset", "fig3", "--omegas", "1.0:1.0:0.2"]
_FP_SPEC = '{"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [2.2, 0.0, -3.6]}'


@pytest.mark.parametrize("argv,needle", [
    (["simulate", "--preset", "fig1", "--tmax", "inf"], "t_end"),
    (["drift", "--preset", "fig1", "--tmax", "inf"], "t_end"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--h", "inf"], "step size"),
    (["poincare", "--preset", "fig2", "--h", "inf"], "step size"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--escape", "nan"], "escape"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--escape", "0"], "escape"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--rtol", "inf"], "rtol"),
    (_SCAN + ["--dz0", "nan"], "dz0"),
    (_SCAN + ["--dz0", "inf"], "dz0"),
    (_SCAN + ["--tmax", "inf"], "t_end"),
    (_SCAN + ["--escape", "-1"], "escape"),
    (_SCAN + ["--escape", "0"], "escape"),
    (_SCAN + ["--escape", "nan"], "escape"),
    (["stability-scan", "--preset", "fig3", "--omegas", "0.8:inf:0.2"], "omegas"),
    (["stability-scan", "--preset", "fig3", "--omegas", "nan:1.0:0.2"], "omegas"),
    (["simulate", "--preset", "fig1", "--z0", "nan", "--tmax", "1"], "z0"),
    (["simulate", "--preset", "fig1", "--z0", "inf", "--rtol", "1e-8", "--tmax", "1"], "z0"),
    (["drift", "--preset", "fig1", "--p0=-inf", "--tmax", "1"], "p0"),
    (["poincare", "--preset", "fig2", "--p0", "inf"], "p0"),
    (["family", "--spec", "fp.json", "--z0", "nan", "--tmax", "1"], "z0"),
    (["family", "--spec", "fp.json", "--z0", "inf", "--tmax", "1"], "z0"),
    (["family", "--spec", "fp.json", "--p0=-inf", "--tmax", "1"], "p0"),
    # a zero step or tolerance is refused, not replaced by the default
    (["simulate", "--preset", "fig1", "--h", "0", "--tmax", "1"], "step size"),
    (["simulate", "--preset", "fig1", "--rtol", "1e-8", "--atol", "0", "--tmax", "1"], "atol"),
    (["poincare", "--preset", "fig2", "--rtol", "0", "--points", "3"], "rtol"),
    (["poincare", "--preset", "fig2", "--rtol", "1e-8", "--atol", "0", "--points", "3"], "atol"),
    (["family", "--spec", "fp.json", "--rtol", "0", "--tmax", "1"], "rtol"),
    (["family", "--spec", "fp.json", "--atol", "0", "--tmax", "1"], "atol"),
    (["reduce", "--hill", "hill.csv", "--T", repr(2 * math.pi), "--m", "2", "--rtol", "0"],
     "rtol"),
    (["reduce", "--hill", "hill.csv", "--T", "inf", "--m", "2"], "period T"),
    # a flag the chosen integrator would not read is refused, whatever its value
    (["simulate", "--preset", "fig1", "--tmax", "1", "--atol", "nan"], "--atol"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--atol", "0"], "--atol"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--atol", "1e-9"], "--atol"),
    (["poincare", "--preset", "fig2", "--points", "3", "--atol", "1e-9"], "--atol"),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--rtol", "1e-8", "--h", "nan"], "--h"),
])
def test_nonfinite_run_parameters_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv,
                                                       needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    _write_hill_csv(tmp_path / "hill.csv", lambda t: 0.3 + 0.05 * math.cos(t),
                    lambda t: 0.2 * (1.0 + 0.5 * math.sin(t)), 2 * math.pi)
    assert run(argv + ["--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: ")
    assert needle in captured.out
    assert captured.err == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("fp,needle", [
    ({"omega": 1.0, "C1": "inf", "C2": 0.0, "alpha2": [2.2, 0.0, -3.6]}, "C1"),
    ({"omega": 1.0, "C1": 0.05, "C2": "-inf", "alpha2": [2.2, 0.0, -3.6]}, "C2"),
    ({"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [2.2, "nan", -3.6]}, "alpha2p_0"),
    ({"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [2.2, 0.0, "inf"]}, "alpha2pp_0"),
    ({"omega": "inf", "C1": 0.05, "C2": 0.0, "alpha2": [2.2, 0.0, -3.6]}, "omega"),
])
def test_nonfinite_five_param_spec_exits_2_with_one_line(tmp_path, capsys, fp, needle):
    spec = tmp_path / "fp.json"
    spec.write_text(json.dumps(fp))
    assert run(["family", "--spec", str(spec), "--tmax", "1", "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: ")
    assert f"{needle} must be finite" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("span", [["--h", "1e-300", "--tmax", "1"], ["--tmax", "1e300"]])
def test_fixed_step_run_it_cannot_finish_is_refused(tmp_path, capsys, span):
    start = time.perf_counter()
    assert run(["simulate", "--preset", "fig1", *span, "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: step size h=") and "steps over" in captured.out
    assert captured.err == ""


def test_scan_refuses_row_it_cannot_finish(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--tmax", "1",
                "--dz0", "1e-300", "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: ") and "dz0" in captured.out
    assert captured.err == ""


_TRIG = {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}
_SAMPLED = {"kind": "sampled", "t": [0, 1, 2, 3], "g": [1, 1, 1, 1]}

# malformed for every command that reads an oscillator spec
BAD_SPECS = {
    "list": [1, 2],
    "missing_B": {"omega": 1, "m": 2, "g": {"kind": "trig", "A": 1.3}},
    "non_numeric_A": {"omega": 1, "m": 2, "g": {**_TRIG, "A": "big"}},
    "g_not_object": {"omega": 1, "m": 2, "g": [1.3, 0.9, 0.0]},
    "five_param_kind": {"omega": 1, "m": 2, "g": {"kind": "five_param", "C1": 0.0, "C2": 0.0,
                                                  "alpha2": [2.2, 0.0, -3.6]}},
    "m_huge": {"omega": 1, "m": 1000000000, "g": _TRIG},
    "sampled_omega_nan": {"omega": "nan", "m": 2, "g": _SAMPLED},
    "sampled_omega_negative": {"omega": -1, "m": 2, "g": _SAMPLED},
}
# well-formed, but not a system the boundary scan covers
UNSCANNABLE_SPECS = {
    "m5": {"omega": 1, "m": 5, "g": _TRIG},
    "sampled": {"omega": 1, "m": 2, "g": _SAMPLED},
}
# well-formed, but with no stroboscopic section curve (sampled: no invariant either)
SECTIONLESS_SPECS = {"trig_c02": {"omega": 1, "m": 2, "g": {**_TRIG, "C": 0.2}}}


@pytest.mark.parametrize("command,name", [
    *((cmd, name) for cmd in ("simulate", "stability-scan") for name in BAD_SPECS),
    *(("stability-scan", name) for name in UNSCANNABLE_SPECS),
    ("drift", "sampled"), ("poincare", "sampled"), ("poincare", "trig_c02"),
])
def test_bad_spec_exits_2_with_one_line(tmp_path, capsys, command, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**BAD_SPECS, **UNSCANNABLE_SPECS, **SECTIONLESS_SPECS}[name]))
    argv = [command, "--spec", str(spec), "--out", str(tmp_path / "x")]
    if command == "stability-scan":
        argv += ["--omegas", "1.0:1.0:0.2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: ")
    assert captured.err == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["stability-scan", "--omegas", "1:1:1"]],
                         ids=["simulate", "stability-scan"])
def test_huge_exponent_is_refused_at_once(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(BAD_SPECS["m_huge"]))
    start = time.perf_counter()
    assert run(argv + ["--spec", str(spec), "--tmax", "1", "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ("error: malformed oscillator spec: "
                                       "m must be an integer in [2, 100], got 1000000000\n")


@pytest.mark.parametrize("omegas", ["0:1e308:1e-300", "1:2:1e-6"],
                         ids=["infinite", "one_past_the_cap"])
def test_omega_grid_past_the_cap_is_refused_at_once(tmp_path, capsys, omegas):
    start = time.perf_counter()
    assert run(["stability-scan", "--preset", "fig3", "--omegas", omegas, "--dz0", "0.1",
                "--tmax", "1", "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == f"error: --omegas {omegas!r} gives more than 1000000 omegas\n"
    assert not (tmp_path / "x").exists()
    assert len(_parse_omegas("0:999999:1")) == 10**6  # the cap itself is allowed


@pytest.mark.parametrize("argv,message", [
    # (A + R) ** 1.5 raises OverflowError
    (["crit", "--A", "1e300", "--B", "0", "--omega", "1e300"],
     "z_crit is not finite for A=1e+300, R=0.0, omega=1e+300"),
    # the product is inf without raising
    (["crit", "--A", "1e200", "--B", "0", "--omega", "1e100"],
     "z_crit is not finite for A=1e+200, R=0.0, omega=1e+100"),
    (["crit", "--A", "1e100", "--B", "0", "--omega", "1e10"],
     "i0_crit is not finite for A=1e+100, R=0.0, omega=10000000000.0"),
    (["stability-scan", "--spec", "spec.json", "--omegas", "1:1:1", "--dz0", "0.1",
      "--tmax", "1"], "z_crit is not finite for A=1e+300, R=0.9, omega=1.0"),
    # the section cubic's 27 q^2 overflows; its roots were a curve point at z = 1.2e180
    (["poincare", "--preset", "fig2", "--z0=-1e60", "--points", "3"],
     "cubic (-0.20430298862522484, -0.4, 0.0, -2.0430298862522482e+179) is past the float "
     "range of the solver"),
], ids=["crit_raises", "crit_inf", "crit_i0", "stability-scan", "poincare"])
def test_closed_form_past_the_float_range_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"omega": 1.0, "m": 2,
                                                    "g": {**_TRIG, "A": 1e300}}))
    assert run(argv + ["--out", "x"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"error: {message}\n", "")
    assert not (tmp_path / "x").exists()


def test_g_past_the_float_range_is_a_numerical_failure(tmp_path, capsys):
    # alpha2 falls to 1e-7 at t = pi/2; within 7e-4 of it alpha2 ** -51.5 overflows
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"omega": 1.0, "m": 100, "g": {**_TRIG, "A": 1.0,
                                                               "B": 0.9999999}}))
    out = tmp_path / "out"
    assert run(["simulate", "--spec", str(spec), "--tmax", "3", "--z0", "0.01",
                "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.err == ""
    assert captured.out.startswith("numerical failure [overflow]: ")
    assert json.loads((out / "summary.json").read_text())["error"] == "overflow"


@pytest.mark.parametrize("argv,out", [
    (["simulate", "--preset", "fig1", "--tmax", "1"], "afile"),
    (["crit", "--A", "1.3", "--B", "0.9", "--omega", "1"], "afile/sub"),
], ids=["simulate", "crit"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv, out):
    (tmp_path / "afile").write_text("")
    out = tmp_path / out
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith(f"error: cannot write to {out}: ")
    assert captured.err == ""


def test_stability_scan_spec_matches_preset(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"omega": 1.0, "m": 2, "g": _TRIG}))
    args = ["--omegas", "1.0:1.0:0.2", "--dz0", "0.2", "--tmax", "5", "--workers", "1",
            "--no-svg"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["stability-scan", "--preset", "fig3", "--out", str(a)] + args) == 0
    assert run(["stability-scan", "--spec", str(spec), "--out", str(b)] + args) == 0
    for name in ("scan.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("flags,want", [
    ([], {"dz0": 0.02, "t_max": 600.0, "z_escape": 50.0}),
    (["--dz0", "0.1", "--tmax", "5", "--escape", "20"], {"dz0": 0.1, "t_max": 5.0,
                                                         "z_escape": 20.0}),
], ids=["defaults", "flags"])
def test_stability_scan_preset_and_spec_resolve_alike(tmp_path, monkeypatch, flags, want):
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return cli.stability_mod.ScanResult((), ())

    monkeypatch.setattr(cli.stability_mod, "scan", recorded)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"omega": 1.0, "m": 2, "g": _TRIG}))
    for name, system in (("a", ["--preset", "fig3"]), ("b", ["--spec", str(spec)])):
        assert run(["stability-scan", *system, "--omegas", "1.0:1.0:0.2", *flags, "--no-svg",
                    "--out", str(tmp_path / name)]) == 0
    assert calls == [((1.3, 0.9, 0.0, (1.0,)), want)] * 2


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_stability_scan_rejects_nonpositive_workers(tmp_path, capsys, workers):
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "1.0:1.0:0.2",
                "--workers", workers, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().out.startswith("error: workers must be >= 1")


def test_single_system_commands_reject_scan_preset(tmp_path):
    assert run(["simulate", "--preset", "fig3", "--out", str(tmp_path / "x")]) == 2


def test_parse_omegas():
    assert _parse_omegas("0.8:1.8:0.2") == pytest.approx(
        (0.8, 1.0, 1.2, 1.4, 1.6, 1.8))
    assert _parse_omegas("1.0:1.0:0.5") == (1.0,)


def test_parse_omegas_rejects_malformed():
    from osclab.errors import ConfigError

    for text in ("0.8:1.8", "a:b:c", "1.0:0.5:0.2", "1.0:2.0:0"):
        with pytest.raises(ConfigError):
            _parse_omegas(text)


def test_family_run(tmp_path):
    spec = tmp_path / "fp.json"
    spec.write_text(_FP_SPEC)
    out = tmp_path / "fam"
    assert run(["family", "--spec", str(spec), "--z0", "0.1", "--tmax", "20",
                "--out", str(out)]) == 0
    rows = (out / "traj.csv").read_text().splitlines()
    assert rows[0] == "t,z,p,alpha2,dalpha2,ddalpha2"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_rel_drift"] < 1e-8
    traj, _ = integrate_family(fiveparam_from_json(json.loads(_FP_SPEC)), 0.1, 0.0, 20.0)
    acc, rej = traj.stats.accepted, traj.stats.rejected
    assert summary["stats"] == {"integrator": "dormand_prince", "accepted": acc, "rejected": rej,
                                "field_evals": 1 + 6 * (acc + rej)}


def test_unset_run_parameters_take_the_defaults(tmp_path):
    # a --spec run with neither --h nor --rtol: simulate and drift step RK4 at h = 1e-3,
    # poincare and family run Dormand-Prince at the library's tolerances, all from (0.1, 0)
    (tmp_path / "fig.json").write_text(json.dumps({"omega": 1.0, "m": 2, "g": _TRIG}))
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    fig, outs = str(tmp_path / "fig.json"), iter(range(10))

    def stats(*argv):
        out = tmp_path / f"out{next(outs)}"
        assert run([*argv, "--no-svg", "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())["stats"]

    def dormand_prince(run):
        return {"integrator": "dormand_prince", "accepted": run.stats.accepted,
                "rejected": run.stats.rejected,
                "field_evals": 1 + 6 * (run.stats.accepted + run.stats.rejected)}

    for command in ("simulate", "drift"):
        assert stats(command, "--spec", fig, "--tmax", "1") == {
            "integrator": "rk4", "accepted": 1000, "rejected": 0, "field_evals": 4000}
    field = make_field(trig_spec(1.3, 0.9, 0.0, 1.0))
    strobe = sample_strobe(field, (0.1, 0.0), math.pi, 2)
    strobe_atol = sample_strobe(field, (0.1, 0.0), math.pi, 2, atol=1e-9)
    assert strobe.stats.accepted != strobe_atol.stats.accepted
    assert stats("poincare", "--spec", fig, "--points", "3") == dormand_prince(strobe)
    assert stats("poincare", "--spec", fig, "--points", "3", "--atol", "1e-9") == \
        dormand_prince(strobe_atol)
    traj, _ = integrate_family(fiveparam_from_json(json.loads(_FP_SPEC)), 0.1, 0.0, 100.0)
    assert stats("family", "--spec", str(tmp_path / "fp.json")) == dormand_prince(traj)


@pytest.mark.parametrize("tmax", ["5", "nan"])
def test_poincare_has_no_tmax(tmp_path, capsys, tmax):
    # the strobe span is --points intervals of pi/omega, so a horizon is refused, not ignored
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run(["poincare", "--preset", "fig2", "--points", "3", "--tmax", tmax, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tmax" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,says,not_says", [
    ("simulate", "RK4 step size (default 1e-3)", "Dormand-Prince"),
    ("drift", "RK4 step size (default 1e-3)", "Dormand-Prince"),
    # without --h or a preset h, poincare runs Dormand-Prince (_method(params, None))
    ("poincare", "the strobe runs Dormand-Prince", "default 1e-3"),
])
def test_h_help_names_the_run_without_it(capsys, command, says, not_says):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help text
    assert says in text and not_says not in text


def _counted_runs(monkeypatch, module):
    """Field calls per ``integrate_adaptive`` run of ``module``, each run's field behind a counter."""
    counts = []

    def counted_run(field, y0, cfg, **kwargs):
        i = len(counts)
        counts.append(0)

        def counted(t, y):
            counts[i] += 1
            return field(t, y)

        return integrate_adaptive(counted, y0, cfg, **kwargs)

    monkeypatch.setattr(module, "integrate_adaptive", counted_run)
    return counts


def test_family_field_evals_counts_the_field_calls(tmp_path, monkeypatch):
    counts = _counted_runs(monkeypatch, osclab.family)
    spec = tmp_path / "fp.json"
    spec.write_text(_FP_SPEC)
    out = tmp_path / "fam"
    assert run(["family", "--spec", str(spec), "--z0", "0.1", "--tmax", "20", "--rtol", "1e-8",
                "--no-svg", "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["stats"]
    assert len(counts) == 1 and stats["rejected"] > 0
    assert stats["field_evals"] == counts[0]


@pytest.mark.parametrize("argv", [
    ["drift", "--preset", "fig1", "--z0", "0", "--tmax", "5"],
    ["family", "--spec", "fp.json", "--z0", "0", "--p0", "0", "--tmax", "5"],
], ids=["drift", "family"])
def test_zero_amplitude_drift_is_absolute(tmp_path, monkeypatch, argv):
    # the rest state has I0 = 0, so the drift is I - I0, and the rest state keeps it at 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    assert run([*argv, "--out", "out"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "absolute"
    assert summary["max_rel_drift"] == 0.0


def _write_hill_csv(path, f, g, T, n=121):
    rows = ["t,f,g"]
    for k in range(n):
        t = T * k / (n - 1)
        rows.append(f"{t!r},{f(t)!r},{g(t)!r}")
    path.write_text("\n".join(rows) + "\n")


def _write_smooth_hill(path):
    _write_hill_csv(path, lambda t: 0.3 + 0.05 * math.cos(t),
                    lambda t: 0.2 * (1.0 + 0.5 * math.sin(t)), 2 * math.pi)


def test_reduce_run(tmp_path):
    hill = tmp_path / "hill.csv"
    T = 2 * math.pi
    _write_smooth_hill(hill)
    out = tmp_path / "red"
    assert run(["reduce", "--hill", str(hill), "--T", repr(T), "--m", "2",
                "--n-grid", "401", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["det"] - 1.0) < 1e-9
    assert 0.0 < summary["mu"] < 2 * math.pi
    assert summary["defect_w"] < 1e-7
    stats = summary["stats"]
    assert set(stats) == {"monodromy", "envelope"}
    assert stats["monodromy"]["accepted"] > 0
    # the envelope marches through the 400 grid intervals without restarting
    assert 400 <= stats["envelope"]["accepted"] < 1000
    rows = (out / "envelope.csv").read_text().splitlines()
    assert rows[0] == "t,phi,w,wp"
    assert (out / "gnf.csv").read_text().splitlines()[0] == "s,g_nf"


def test_reduce_field_evals_count_the_field_calls(tmp_path, monkeypatch):
    # two monodromy runs, from (1, 0) and (0, 1), then the envelope run
    counts = _counted_runs(monkeypatch, osclab.normalform)
    hill = tmp_path / "hill.csv"
    _write_smooth_hill(hill)
    out = tmp_path / "red"
    assert run(["reduce", "--hill", str(hill), "--T", repr(2 * math.pi), "--m", "2",
                "--n-grid", "401", "--no-svg", "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["stats"]
    assert len(counts) == 3
    assert stats["monodromy"]["field_evals"] == counts[0] + counts[1]
    assert stats["envelope"]["field_evals"] == counts[2]


def test_reduce_unstable_exits_3(tmp_path):
    hill = tmp_path / "hill.csv"
    T = 2 * math.pi
    # inside the first parametric resonance tongue
    _write_hill_csv(hill, lambda t: 0.25 * (1.0 + 0.1 * math.cos(t)),
                    lambda t: 0.2, T)
    out = tmp_path / "red"
    assert run(["reduce", "--hill", str(hill), "--T", repr(T), "--m", "2",
                "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "unstable_hill"


@pytest.mark.parametrize("f0", [1.0, 2.25, 4.0])
def test_reduce_degenerate_hill_exits_3(tmp_path, f0):
    # tr M = +-2 exactly; the monodromy runs at its own tolerance whatever --rtol says
    hill = tmp_path / "hill.csv"
    T = 2 * math.pi
    _write_hill_csv(hill, lambda t: f0, lambda t: 0.2, T)
    out = tmp_path / "red"
    assert run(["reduce", "--hill", str(hill), "--T", repr(T), "--m", "2",
                "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "unstable_hill"


def test_reduce_refuses_grid_it_cannot_finish(tmp_path, capsys):
    hill = tmp_path / "hill.csv"
    _write_smooth_hill(hill)
    start = time.perf_counter()
    assert run(["reduce", "--hill", str(hill), "--T", repr(2 * math.pi), "--m", "2",
                "--n-grid", "1000002", "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "error: n_grid must be in [2, 1000001], got 1000002\n"
    assert captured.err == ""


def test_reduce_refuses_an_exponent_above_the_cap(tmp_path, capsys):
    hill = tmp_path / "hill.csv"
    _write_smooth_hill(hill)
    start = time.perf_counter()
    assert run(["reduce", "--hill", str(hill), "--T", repr(2 * math.pi), "--m", "1000000000",
                "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "error: m must be an integer in [2, 100], got 1000000000\n"
    assert captured.err == ""
    assert not (tmp_path / "x").exists()


def test_every_public_name_resolves():
    assert [name for name in osclab.__all__ if not hasattr(osclab, name)] == []
    assert set(osclab.__all__) <= set(dir(osclab))


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this osclab; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(osclab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reduce_runs_without_importing_scipy(tmp_path):
    # the splines are osclab's own; a stray scipy import costs about 0.6 s per run
    hill = tmp_path / "hill.csv"
    _write_smooth_hill(hill)
    out = _fresh("import sys\n"
                 "from osclab.cli import main\n"
                 f"assert main(['reduce', '--hill', {str(hill)!r}, '--T', {repr(2 * math.pi)!r}, "
                 f"'--m', '2', '--n-grid', '101', '--out', {str(tmp_path / 'red')!r}]) == 0\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("module", sorted(
    "osclab" if p.stem == "__init__" else f"osclab.{p.stem}"
    for p in Path(osclab.__file__).parent.glob("*.py")))
def test_every_module_imports_alone(module):
    _fresh(f"import {module}")


_CLI_MODULES = {"cli", "errors", "integrate", "model", "output"}


@pytest.mark.parametrize("argv, added", [
    (None, set()),
    (["crit", "--A", "1.3", "--B", "0.9", "--omega", "1"], {"poincare", "cubic"}),
    (["stability-scan", "--preset", "fig3", "--omegas", "1.0:1.0:0.2", "--dz0", "0.5",
      "--tmax", "1", "--no-svg", "--out", "{out}"], {"stability", "lanes", "poincare", "cubic"}),
    (["simulate", "--preset", "fig1", "--tmax", "1", "--out", "{out}"], set()),
    # a trig spec never reaches family: invariant's isinstance test of TrigAlpha comes first
    (["drift", "--preset", "fig1", "--tmax", "1", "--out", "{out}"], {"invariant"}),
    (["poincare", "--preset", "fig2", "--points", "3", "--out", "{out}"],
     {"poincare", "cubic", "invariant"}),
    (["family", "--spec", "{fiveparam}", "--tmax", "1", "--out", "{out}"],
     {"family", "invariant"}),
    (["reduce", "--hill", "{hill}", "--T", repr(2 * math.pi), "--m", "2", "--n-grid", "101",
      "--out", "{out}"], {"normalform", "spline"}),
], ids=["import", "crit", "stability-scan", "simulate", "drift", "poincare", "family",
        "reduce"])
def test_command_executes_only_its_modules(tmp_path, argv, added):
    # a lazily imported module stays a _LazyModule until it runs, then becomes a plain module
    hill, fiveparam = tmp_path / "hill.csv", tmp_path / "fiveparam.json"
    _write_smooth_hill(hill)
    fiveparam.write_text(json.dumps({"omega": 1.0, "C1": 0.05, "C2": 0.0,
                                     "alpha2": [2.2, 0.0, -3.6]}))
    paths = {"out": tmp_path / "out", "hill": hill, "fiveparam": fiveparam}
    code = "import sys, types\nfrom osclab.cli import main\n"
    if argv is not None:
        code += f"assert main({[a.format(**paths) for a in argv]!r}) == 0\n"
    code += ("print(sorted(n for n, m in sys.modules.items()\n"
             "             if n.startswith('osclab.') and type(m) is types.ModuleType))\n")
    executed = _fresh(code).splitlines()[-1]
    assert executed == repr(sorted(f"osclab.{m}" for m in _CLI_MODULES | added))


def test_star_import_binds_every_public_name():
    out = _fresh("import osclab\n"
                 "names = {}\n"
                 "exec('from osclab import *', names)\n"
                 "print(sorted(set(osclab.__all__) - set(names)))\n"
                 "print(sorted(set(osclab.__all__) - set(dir(osclab))))\n")
    assert out.splitlines()[-2:] == ["[]", "[]"]


def test_unknown_public_name_raises_attribute_error_naming_it():
    out = _fresh("import osclab\n"
                 "try:\n"
                 "    osclab.no_such_name\n"
                 "except AttributeError as e:\n"
                 "    print(e)\n")
    assert out.splitlines()[-1] == "module 'osclab' has no attribute 'no_such_name'"


def test_public_names_are_their_modules_objects():
    # each name's object is the one its _SOURCES module defines, not one it only binds
    out = _fresh("import importlib, osclab\n"
                 "print(sorted(n for n, src in osclab._SOURCES.items()\n"
                 "             if getattr(osclab, n) is not getattr(\n"
                 "                 importlib.import_module('osclab.' + src), n)\n"
                 "             or getattr(osclab, n).__module__ != 'osclab.' + src))\n")
    assert out.splitlines()[-1] == "[]"


def test_reduce_rejects_nonperiodic_grid(tmp_path):
    hill = tmp_path / "hill.csv"
    T = 2 * math.pi
    _write_hill_csv(hill, lambda t: 0.3 + 0.01 * t, lambda t: 0.2, T)
    assert run(["reduce", "--hill", str(hill), "--T", repr(T), "--m", "2",
                "--out", str(tmp_path / "x")]) == 2


def test_reduce_rejects_wrong_header(tmp_path):
    hill = tmp_path / "hill.csv"
    hill.write_text("time,f,g\n0,1,1\n1,1,1\n2,1,1\n3,1,1\n")
    assert run(["reduce", "--hill", str(hill), "--T", "3", "--m", "2",
                "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("table,needle", [
    ("", "is empty"),
    ("t,f,g\n0,1,1\n1,1\n2,1,1\n3,1,1\n", "hill.csv:3: expected 3 columns"),
    ("t,f,g\n0,1,1\n1,one,1\n2,1,1\n3,1,1\n", "hill.csv:3: could not convert"),
    ("t,f,g\n0,1,1\n1,1,1\n3,1,1\n", "at least 4 rows"),
    ("t,f,g\n0,1,1\n2,1,1\n1,1,1\n3,1,1\n", "strictly increasing"),
], ids=["empty", "columns", "not-a-number", "three-rows", "unordered"])
def test_malformed_hill_table_exits_2_with_one_line(tmp_path, monkeypatch, capsys, table,
                                                    needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hill.csv").write_text(table)
    assert run(["reduce", "--hill", "hill.csv", "--T", "3", "--m", "2", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.startswith("error: ")
    assert needle in captured.out
    assert captured.err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["hill.csv"]


_CRIT = ["crit", "--A", "1.3", "--B", "0.9", "--omega", "1"]
# a small run of each command with the CSV files, then the SVG files, it writes to --out
_OUT_FILES = {
    "simulate": (["simulate", "--preset", "fig1", "--tmax", "1"], ["traj.csv"], ["traj.svg"]),
    "drift": (["drift", "--preset", "fig1", "--tmax", "1"], ["drift.csv"], ["drift.svg"]),
    "poincare": (["poincare", "--preset", "fig2", "--points", "3"],
                 ["curve.csv", "strobe.csv"], ["section.svg"]),
    "stability-scan": (_SCAN + ["--dz0", "0.5", "--tmax", "2"], ["scan.csv"], ["scan.svg"]),
    "family": (["family", "--spec", "fp.json", "--tmax", "1"],
               ["drift.csv", "traj.csv"], ["family.svg"]),
    "reduce": (["reduce", "--hill", "hill.csv", "--T", repr(2 * math.pi), "--m", "2",
                "--n-grid", "11"], ["envelope.csv", "gnf.csv"], ["envelope.svg", "gnf.svg"]),
}


# the key order of a summary's stats, and of a scan's cells, as the commands built them
# before the counts became one record (summary.json itself sorts its keys)
_STATS_KEYS = ["integrator", "accepted", "rejected", "field_evals"]
_CELLS_KEYS = ["omega", "cells", "escaped", "step_underflow", "coefficient_singular",
               "accepted", "rejected", "field_evals"]


def _keys_sorted(obj):
    """Whether every dict within obj, itself too, has its keys in sorted order."""
    if isinstance(obj, dict):
        return list(obj) == sorted(obj) and all(map(_keys_sorted, obj.values()))
    return all(map(_keys_sorted, obj)) if isinstance(obj, list) else True


def _count_records(summary):
    """Each dict of counts a summary holds: a scan's cells, reduce's two stats, else its stats."""
    if "cells" in summary:
        return summary["cells"]
    stats = summary["stats"]
    return [stats["monodromy"], stats["envelope"]] if "envelope" in stats else [stats]


@pytest.mark.parametrize("argv,code,files", [
    *(pytest.param(argv + ["--out", "out"], 0, csv + svg, id=cmd)
      for cmd, (argv, csv, svg) in _OUT_FILES.items()),
    *(pytest.param(argv + ["--no-svg", "--out", "out"], 0, csv, id=f"{cmd}-no-svg")
      for cmd, (argv, csv, svg) in _OUT_FILES.items()),
    pytest.param(["simulate", "--preset", "fig1", "--tmax", "1", "--rtol", "1e-9", "--no-svg",
                  "--out", "out"], 0, ["traj.csv"], id="simulate-rtol"),
    *(pytest.param(["poincare", "--preset", "fig2", "--points", "1", *flags, "--no-svg",
                    "--out", "out"], 0, ["curve.csv", "strobe.csv"], id=f"poincare-1{name}")
      for name, flags in (("", []), ("-h", ["--h", "1e-3"]), ("-rtol", ["--rtol", "1e-10"]))),
    pytest.param(_CRIT + ["--out", "out"], 0, [], id="crit"),
    pytest.param(_CRIT, 0, None, id="crit-no-out"),
    # a configuration error writes nothing, not even an empty --out
    pytest.param(["simulate", "--preset", "fig1", "--h", "0", "--out", "out"], 2, None,
                 id="simulate-h0"),
    pytest.param(["poincare", "--preset", "fig2", "--points", "0", "--out", "out"], 2, None,
                 id="poincare-points0"),
])
def test_out_holds_exactly_the_command_files(tmp_path, monkeypatch, argv, code, files):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    _write_smooth_hill(tmp_path / "hill.csv")
    summaries = []
    monkeypatch.setattr(cli, "write_json", lambda path, obj: (summaries.append(obj),
                                                             write_json(path, obj)))
    assert run(argv) == code
    made = sorted(p.name for p in tmp_path.iterdir() if p.name not in ("fp.json", "hill.csv"))
    if files is None:
        assert made == []
    else:
        assert made == ["out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            files + ["summary.json"])
    if files:  # a run's counts keep the key order the commands gave them before
        (summary,) = summaries
        want = _CELLS_KEYS if "cells" in summary else _STATS_KEYS
        records = _count_records(summary)
        assert records and all(list(record) == want for record in records)
    if files is not None:  # the file itself sorts its keys, at every level
        assert _keys_sorted(json.loads((tmp_path / "out" / "summary.json").read_text()))


def test_presets_cover_documented_demos():
    assert set(PRESETS) == {"fig1", "sec3ref", "fig2", "fig3",
                            "fig4-bounded", "fig4-unbounded"}
    assert PRESETS["fig2"]["points"] == 190
    assert PRESETS["fig3"]["omegas"] == (0.8, 1.0, 1.2, 1.4, 1.6, 1.8)


def test_adaptive_run_past_its_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(integrate, "MAX_STEPS", 3000)
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    for argv in (["simulate", "--preset", "fig1", "--rtol", "1e-8", "--tmax", "1e300"],
                 ["family", "--spec", str(tmp_path / "fp.json"), "--tmax", "1e300"]):
        out = tmp_path / argv[0]
        assert run(argv + ["--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "step_budget"
        assert "more than 3000 accepted steps" in summary["message"]
        captured = capsys.readouterr()
        assert captured.out.startswith("numerical failure [step_budget]: ")
        assert captured.out.count("\n") == 1 and captured.err == ""


def test_scan_past_its_lock_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(integrate, "MAX_STEPS", 3000)
    out = tmp_path / "scan"
    assert run(["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--dz0", "0.5",
                "--tmax", "1e300", "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "step_budget"
    assert "more than 3000 lock-steps" in summary["message"]
    captured = capsys.readouterr()
    assert captured.out.startswith("numerical failure [step_budget]: ")
    assert captured.out.count("\n") == 1 and captured.err == ""


_FUZZ_SPECS = {
    "trig": {"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}},
    "sampled": {"omega": 1.0, "m": 2,
                "g": {"kind": "sampled", "t": [0.0, 1.0, 2.0, 3.0, 4.0],
                      "g": [1.0, 1.1, 1.2, 1.1, 1.0]}},
    "five_param": json.loads(_FP_SPEC),
}
# the commands that read each spec kind, with a run small enough to finish at once
_FUZZ_COMMANDS = {
    "trig": (["simulate", "--tmax", "1"], ["drift", "--tmax", "1"],
             ["poincare", "--points", "3"],
             ["stability-scan", "--omegas", "1:1:1", "--dz0", "0.5", "--tmax", "1"]),
    "sampled": (["simulate", "--tmax", "1"],),
    "five_param": (["family", "--tmax", "1"],),
}
# numeric fields where zero or a negative value is out of range
_FUZZ_SIZES = {("omega",), ("m",), ("g", "A"), ("alpha2", 0)}


def _fuzz_leaves(obj, path=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, v in items:
        yield path + (key,), v
        if isinstance(v, (dict, list)):
            yield from _fuzz_leaves(v, path + (key,))


def _fuzz_mutations(seed, n):
    """n (spec kind, spec text) pairs, each a valid spec broken in one way."""
    rng = random.Random(seed)
    for _ in range(n):
        kind = rng.choice(sorted(_FUZZ_SPECS))
        spec = json.loads(json.dumps(_FUZZ_SPECS[kind]))
        leaves = list(_fuzz_leaves(spec))
        how = rng.choice(("missing", "type", "nonfinite", "size", "truncated"))
        if how == "truncated":
            text = json.dumps(spec)
            yield kind, text[:rng.randrange(len(text))]
            continue
        if how == "missing":
            path = rng.choice([p for p, _ in leaves if isinstance(p[-1], str)])
            value = None
        elif how == "type":
            path = rng.choice([p for p, _ in leaves])
            value = rng.choice((None, True, False, "abc", [], {}, [1.0], {"x": 1.0}))
        elif how == "nonfinite":
            path = rng.choice([p for p, v in leaves if isinstance(v, (int, float))])
            value = rng.choice((math.nan, math.inf, -math.inf))
        else:
            sizes = [p for p, _ in leaves if p in _FUZZ_SIZES]
            if kind == "sampled":  # a knot table is too short below 4 knots
                sizes.append(("g", rng.choice(("t", "g"))))
            path = rng.choice(sizes)
            value = [0.0, 1.0, 2.0] if path[0] == "g" and path[-1] in "tg" else rng.choice((0, -1))
        *head, last = path
        parent = spec
        for key in head:
            parent = parent[key]
        if how == "missing":
            del parent[last]
        else:
            parent[last] = value
        yield kind, json.dumps(spec)


_FUZZ_ARGS = [
    ["simulate", "--preset", "nosuch", "--tmax", "1"],
    ["drift", "--preset", "fig3", "--tmax", "1"],
    ["stability-scan", "--preset", "fig1"],
    ["stability-scan", "--preset", "nosuch"],
    ["simulate", "--preset", "fig1", "--tmax", "0"],
    ["simulate", "--preset", "fig1", "--tmax", "-1"],
    ["simulate", "--preset", "fig1", "--tmax", "1", "--h=-1e-3"],
    ["simulate", "--preset", "fig1", "--tmax", "1", "--rtol=-1e-8"],
    ["simulate", "--preset", "fig1", "--tmax", "1", "--escape", "-50"],
    ["poincare", "--preset", "fig2", "--points", "-3"],
    ["poincare", "--preset", "fig2", "--points", "0", "--rtol", "1e-8"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--dz0", "0"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--dz0", "-0.1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1.2:0.8:0.2", "--tmax", "1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "0.8:1.2:0", "--tmax", "1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "0:0:1", "--tmax", "1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1:1", "--tmax", "1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1:1:1", "--tmax", "1",
     "--workers", "0"],
    ["stability-scan", "--preset", "fig3", "--omegas", "0:1e308:1e-300", "--dz0", "0.1",
     "--tmax", "1"],
    ["stability-scan", "--preset", "fig3", "--omegas", "1:2:1e-6", "--dz0", "0.1", "--tmax", "1"],
    ["crit", "--A", "1e300", "--B", "0", "--omega", "1e300"],
    ["crit", "--A", "1e200", "--B", "0", "--omega", "1e100"],
    ["family", "--spec", "fp.json", "--tmax", "0"],
    ["family", "--spec", "fp.json", "--tmax", "-1"],
    ["family", "--spec", "missing.json", "--tmax", "1"],
    ["reduce", "--hill", "hill.csv", "--T", "0", "--m", "2"],
    ["reduce", "--hill", "hill.csv", "--T", "-6.283185307179586", "--m", "2"],
    ["reduce", "--hill", "hill.csv", "--T", "6.283185307179586", "--m", "0"],
    ["reduce", "--hill", "hill.csv", "--T", "6.283185307179586", "--m", "2", "--n-grid", "0"],
    ["reduce", "--hill", "hill.csv", "--T", "6.283185307179586", "--m", "2", "--n-grid", "-5"],
    ["reduce", "--hill", "missing.csv", "--T", "6.283185307179586", "--m", "2"],
]


_FUZZ_SPEC_TABLE = [
    ("trig", ""),
    ("trig", "null"),
    ("trig", "[]"),
    ("trig", '"spec"'),
    ("trig", "{"),
    ("trig", '{"omega": Infinity, "m": 2, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}}'),
    ("trig", '{"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": Infinity, "B": 0.9, "C": 0}}'),
    ("trig", '{"omega": 1.0, "m": 2.5, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0.0}}'),
    ("trig", '{"omega": 1.0, "m": 1e999, "g": {"kind": "trig", "A": 1.3, "B": 0.9, "C": 0}}'),
    ("trig", '{"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": true, "B": 0.9, "C": 0.0}}'),
    ("trig", '{"omega": 1.0, "m": 2, "g": {"kind": "spline", "A": 1.3, "B": 0.9, "C": 0.0}}'),
    ("trig", '{"omega": 1.0, "m": 2, "g": {"kind": "trig", "A": 0.9, "B": 1.3, "C": 0.0}}'),
    ("sampled", '{"omega": 1.0, "m": 2, "g": {"kind": "sampled", "t": [0, 1, NaN, 3, 4], '
                '"g": [1, 1, 1, 1, 1]}}'),
    ("sampled", '{"omega": 1.0, "m": 2, "g": {"kind": "sampled", "t": [0, 1, 2, 3, 4], '
                '"g": [1, 1, Infinity, 1, 1]}}'),
    ("sampled", '{"omega": 1.0, "m": 2, "g": {"kind": "sampled", "t": [0, 2, 1, 3, 4], '
                '"g": [1, 1, 1, 1, 1]}}'),
    ("sampled", '{"omega": 1.0, "m": 2, "g": {"kind": "sampled", "t": "01234", '
                '"g": [1, 1, 1, 1, 1]}}'),
    ("five_param", '{"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [2.2, 0.0]}'),
    ("five_param", '{"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": 2.2}'),
    ("five_param", '{"omega": 1.0, "C1": 1' + "0" * 400 + ', "C2": 0.0, "alpha2": [2.2, 0, 0]}'),
    ("five_param", '{"omega": 1.0, "C1": 0.05, "C2": 0.0, "alpha2": [true, 0.0, -3.6]}'),
]


def _fuzz_cases():
    for argv in _FUZZ_ARGS:
        yield argv, None
    for kind, text in _FUZZ_SPEC_TABLE + list(_fuzz_mutations(20261018, 120)):
        for command in _FUZZ_COMMANDS[kind]:
            yield [command[0], "--spec", "spec.json", *command[1:]], text


def test_malformed_input_fuzz_ends_with_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fp.json").write_text(_FP_SPEC)
    _write_smooth_hill(tmp_path / "hill.csv")
    for argv, text in _fuzz_cases():
        if text is not None:
            (tmp_path / "spec.json").write_text(text)
        code = run(argv + ["--out", "out"])
        captured = capsys.readouterr()
        case = (argv, text, code, captured.out)
        assert code in (2, 3), case
        assert captured.out.count("\n") == 1, case
        assert captured.out.startswith("error: " if code == 2 else "numerical failure ["), case
        assert captured.err == "", case


def test_stride_rows_match_per_index_rows(tmp_path, monkeypatch):
    cap = 3
    monkeypatch.setattr(cli, "_CSV_ROW_CAP", cap)
    rng = np.random.default_rng(5)
    steps_with_last_on_stride = 0
    for n in range(1, 4 * cap + 3):
        ts = np.cumsum(rng.random(n))
        cols = [rng.standard_normal(n), rng.standard_normal(n) * 1e-300]
        step = decimate(n, cap)
        idx = list(range(0, n, step))
        if idx[-1] != n - 1:
            idx.append(n - 1)
        elif step > 1:
            steps_with_last_on_stride += 1  # n = 1 (mod step): no extra last row
        want = [(ts[i], *(c[i] for c in cols)) for i in idx]
        got = list(cli._stride_rows(ts, cols))
        assert got == want
        assert all(isinstance(v, float) for row in got for v in row)
        write_csv(tmp_path / "got.csv", "t,a,b", got)
        write_csv(tmp_path / "want.csv", "t,a,b", want)
        assert (tmp_path / "got.csv").read_text() == (tmp_path / "want.csv").read_text()
    assert steps_with_last_on_stride > 0


_SINGULAR_SPEC = {"omega": 1.0, "m": 2,
                  "g": {"kind": "trig", "A": 1.0, "B": 0.9999999999999, "C": 0.0}}
_SINGULAR = ["--spec", "singular.json", "--tmax", "5", "--z0", "1e-30",
             "--h", "0.0015707963267948966"]


def _record_path(argv, out):
    """(exit code, stdout) of simulate or drift as they ran when each kept its whole record,
    writing to out: the integrator's Trajectory, the whole-array drift series, then
    ``_stride_rows`` and ``svg_plot`` of whole arrays."""
    args = cli.build_parser().parse_args([*argv, "--out", str(out)])
    spec, params = cli._resolve_oscillator(args, cli._RUN_DEFAULTS)
    y0 = (params["z0"], params["p0"])
    span = dict(t_end=params["tmax"], escape_bound=params["escape"])
    field = cli.make_field(spec)
    if params.get("rtol") is None:
        traj = integrate_fixed(field, y0, FixedStepConfig(h=params.get("h", 1e-3), **span))
    else:
        traj = integrate_adaptive(field, y0, AdaptiveConfig(rtol=params["rtol"], **span))
    stats = traj.stats.to_json()
    if args.command == "drift":
        series = invariant.invariant_series(spec, traj)
        i0 = float(series[0])
        mode = "absolute" if abs(i0) < 1e-300 else "relative"
        series = series - i0 if mode == "absolute" else series / i0 - 1.0
        max_rel = float(np.max(np.abs(series)))
        summary = {"status": traj.status, "mode": mode, "max_rel_drift": max_rel,
                   "i0": invariant.eval_invariant(spec, State(0.0, *y0)),
                   "n_recorded": len(traj), "stats": stats}
        report = f"drift: mode={mode} max={max_rel:.6e} status={traj.status}"
        table = ("drift.csv", "t,rel_drift", _stride_rows(traj.ts, [series]))
        plot = ("drift.svg", series, dict(ylabel="I/I0 - 1", title="invariant drift",
                                          ylim=(-1e-5, 1e-5)))
    else:
        t, z, p = float(traj.ts[-1]), float(traj.z[-1]), float(traj.p[-1])
        summary = {"status": traj.status, "t_final": t, "z_final": z, "p_final": p,
                   "n_recorded": len(traj), "z0": y0[0], "p0": y0[1], "stats": stats}
        report = f"simulate: status={traj.status} t_final={t:.6g} z_final={z:.6g}"
        table = ("traj.csv", "t,z,p", _stride_rows(traj.ts, [traj.z, traj.p]))
        plot = ("traj.svg", traj.z, dict(ylabel="z", title="trajectory",
                                         ylim=params.get("yrange")))
    out.mkdir(parents=True)
    write_csv(out / table[0], table[1], table[2])
    if args.svg:
        svg_plot(out / plot[0], [{"kind": "line", "x": traj.ts, "y": plot[1]}], xlabel="t",
                 **plot[2])
    write_json(out / "summary.json", summary)
    return 3 if traj.status == "coefficient_singular" else 0, report + "\n"


def _hide_power_form(spec):
    form = make_field(spec)
    return lambda t, y: form(t, y)  # not a PowerForm: the generic loop, one push per step


# id: (argv, for each integrate_fixed call of the command whether it was given a sink)
_STREAM_CASES = {
    "fig1": (["drift", "--preset", "fig1", "--tmax", "20"], [True]),  # 20000 % 3 != 0
    "last_on_stride": (["drift", "--preset", "fig1", "--tmax", "30"], [True]),  # 30000 % 4 == 0
    "few_rows": (["drift", "--preset", "fig1", "--tmax", "5"], [True]),  # under _CSV_ROW_CAP
    "whole_blocks": (["drift", "--preset", "fig1", "--tmax", "16.383"], [True]),  # 2 x 8192 rows
    "short_last_step": (["drift", "--preset", "fig1", "--tmax", "20", "--h", "0.003"], [True]),
    "absolute": (["drift", "--preset", "fig1", "--tmax", "20", "--z0", "0", "--p0", "0"], [True]),
    "absolute_tiny": (["drift", "--preset", "fig1", "--tmax", "5", "--z0", "1e-160"], [True]),
    "no_svg": (["drift", "--preset", "fig1", "--tmax", "20", "--no-svg"], [True]),
    "escaped": (["drift", "--preset", "fig4-unbounded", "--tmax", "60"], [True, True]),
    "singular": (["drift", *_SINGULAR], [True, True]),
    "adaptive": (["drift", "--preset", "fig1", "--rtol", "1e-10", "--tmax", "20"], []),
    "simulate_ylim": (["simulate", "--preset", "fig4-bounded", "--tmax", "20"], [True]),
    "simulate_escaped": (["simulate", "--preset", "fig4-unbounded"], [True, True]),
    "simulate_singular": (["simulate", *_SINGULAR], [False]),
    "simulate_no_ylim": (["simulate", "--preset", "fig1", "--tmax", "20"], [False]),  # y from z
}
_GENERIC_CASES = ("fig1", "short_last_step", "absolute", "escaped", "singular", "simulate_ylim")


@pytest.mark.parametrize("argv,runs,generic", [
    *(pytest.param(*case, False, id=name) for name, case in _STREAM_CASES.items()),
    *(pytest.param(*_STREAM_CASES[name], True, id=f"{name}-generic") for name in _GENERIC_CASES),
])
def test_streamed_outputs_equal_the_record_path(tmp_path, monkeypatch, capsys, argv, runs,
                                                generic):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.json").write_text(json.dumps(_SINGULAR_SPEC))
    if generic:
        monkeypatch.setattr(cli, "make_field", _hide_power_form)
    calls = []

    def counted(field, y0, cfg, sink=None):
        calls.append(sink is not None)
        return integrate_fixed(field, y0, cfg, sink=sink)

    monkeypatch.setattr(cli, "integrate_fixed", counted)
    code = main([*argv, "--out", "streamed"])
    out = capsys.readouterr().out
    assert calls == runs
    assert (code, out) == _record_path(argv, tmp_path / "record")
    streamed, record = (sorted((tmp_path / d).iterdir()) for d in ("streamed", "record"))
    assert [p.name for p in streamed] == [p.name for p in record]
    for a, b in zip(streamed, record):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_fig1_blocks_split_pixel_columns():
    # the drift plot of fig1 at --tmax 20 has pixel columns that span a
    # row block edge (8192) and an M4 block edge of svg_plot (16384)
    _, px, _ = plot_frame([np.array((0.0, 20.0))], (), (-1e-5, 1e-5))
    col = _columns(px(np.arange(20001) * 1e-3))
    assert col[8191] == col[8192] and col[16383] == col[16384]
    assert FixedStepConfig(h=1e-3, t_end=16.383).n_rows % ROW_BLOCK == 0


def test_drift_peak_memory_does_not_grow_with_the_run(tmp_path, peak_alloc):
    # both write 10,000 CSV rows (stride 1 and 3); the 30,000-row record
    # would take 0.72 MB and its drift series 0.24 MB: a drift that kept
    # them peaked about 0.33 MB higher at the longer length.  simulate
    # streams too where its preset fixes the y-range
    for argv in (["drift", "--preset", "fig1"], ["simulate", "--preset", "fig4-bounded"]):
        def run_to(tmax):
            return lambda: main([*argv, "--tmax", tmax, "--out", str(tmp_path / argv[0] / tmax)])

        run_to("2")()  # first-call allocations stay out of the measurement
        (short_code, short), (long_code, long) = (peak_alloc(run_to("9.999")),
                                                  peak_alloc(run_to("29.999")))
        assert short_code == long_code == 0
        assert abs(long - short) < 100_000, argv
