"""End-to-end command-line runs, via subprocess or in process.

Exit status contract: 0 success/pass, 1 fail verdict, 2 usage or input
error. Reports must be reproducible modulo the provenance timestamp.
Most runs go through cli.main() in this process (the main_cli fixture),
without the interpreter start-up. A few go through the
`python -m kurasync.cli` entry in a subprocess (run_cli): the version
flag, two reports compared across processes, and the runs whose timeout
guards against a hang. In-process runs share ARPACK's start-vector seed,
so none compares eigenvector-dependent output.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kurasync
from _oracles import (
    flow_csv_reference,
    flow_reference,
    runs_csv_reference,
    sweep_csv_reference,
    trace_csv_reference,
)
from kurasync import (
    Schedule,
    amplification_run,
    classify_equilibrium,
    degree_extrema,
    er_prediction,
    expander_profile,
    flow,
    gamma_roots,
    gen_erdos_renyi,
    gen_named,
    random_phases,
    read_edge_list,
    theorem_condition,
)
from kurasync.certify import GENERAL_ALPHA_SUP, preset_regular_schedule
from kurasync.cli import _subcommand_flags, build_parser, main, run
from kurasync.randomgraphs import CERTIFIABLE_VERDICT
from kurasync.spectral import ExpanderProfile

CYCLE_CAP = "20000"

# the CLI subprocess imports the same package as this process, installed or not
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(kurasync.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "kurasync.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=CLI_ENV,
    )


@pytest.fixture
def main_cli(capsys, monkeypatch):
    """Runs `kurasync ARGS` through cli.main() in this process, returned as
    run_cli returns it: the exit status is main()'s SystemExit code."""
    def call(*args):
        monkeypatch.setattr(sys, "argv", ["kurasync", *args])
        with pytest.raises(SystemExit) as stop:
            main()
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, stop.value.code, out, err)
    return call


def report_from(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def report_from_dir(outdir):
    with open(outdir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_generate_writes_graph(tmp_path, main_cli):
    out = tmp_path / "run"
    proc = main_cli("generate", "--gen", "cycle:12", "--out", str(out))
    assert proc.returncode == 0
    rep = report_from_dir(out)
    assert rep["command"] == "generate"
    assert rep["graph"] == {
        "n": 12, "m": 12, "d_min": 2, "d_max": 2,
        "source": "generator", "spec": "cycle:12",
    }
    g = read_edge_list(out / "graph.txt")
    assert g.n == 12 and g.m == 12
    # with --out the report goes to the directory, paths to stderr
    assert proc.stdout == ""
    assert "report.json" in proc.stderr


def test_generate_stdout_mode(main_cli):
    proc = main_cli("generate", "--gen", "complete:5")
    assert proc.returncode == 0
    rep = report_from(proc)
    assert rep["graph"]["m"] == 10
    assert rep["provenance"]["tool"] == "kurasync"


def test_reports_reproducible_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = run_cli("profile", "--gen", "er:60,0.3", "--seed", "5",
                       "--trials", "10", "--out", str(out))
        assert proc.returncode == 0
    ra, rb = report_from_dir(a), report_from_dir(b)
    ra["provenance"].pop("timestamp")
    rb["provenance"].pop("timestamp")
    assert ra == rb
    assert (a / "profile.json").read_bytes() == (b / "profile.json").read_bytes()


def test_profile_complete_graph(main_cli):
    proc = main_cli("profile", "--gen", "complete:10")
    assert proc.returncode == 0
    rep = report_from(proc)
    prof = rep["profile"]
    assert prof["n"] == 10 and prof["source"] == "measured"
    assert abs(prof["alpha"] - 1.0 / 9.0) < 1e-8
    assert abs(prof["c_minus"]) < 1e-8
    assert abs(prof["c_plus"] - 1.0 / 9.0) < 1e-8
    lo, hi = rep["degree_bounds_implied"]["lower"], rep["degree_bounds_implied"]["upper"]
    assert lo <= 9 <= hi


def test_profile_with_mixing_trials(main_cli):
    proc = main_cli("profile", "--gen", "er:100,0.2", "--seed", "2", "--trials", "25")
    assert proc.returncode == 0
    rep = report_from(proc)
    assert rep["mixing"]["passed"] is True
    assert rep["mixing"]["trials"] == 25
    assert rep["mixing"]["worst_slack"] >= -rep["mixing"]["allowance"]


def test_certify_complete_graph_fails_closed_form(main_cli):
    # K_10 is no expander at this size: condition1 lands near 8.69 and the
    # run reports the failing certificate through exit status 1
    proc = main_cli("certify", "--gen", "complete:10")
    assert proc.returncode == 1
    rep = report_from(proc)
    assert rep["verdict"] == "fail"
    assert abs(rep["closed_form"]["condition1"] - 8.691358024691356) < 1e-9
    assert abs(rep["closed_form"]["condition2"] - 8.659037928830099) < 1e-9
    assert rep["amplification"]["verdict"] == "fail"


def test_certify_saved_profile_passes(tmp_path, main_cli):
    prof_path = tmp_path / "profile.json"
    ExpanderProfile(n=600, d_ref=600.0, alpha=0.0816, c_minus=-0.0816,
                    c_plus=0.0816).save(prof_path)
    sched_path = tmp_path / "schedule.json"
    preset_regular_schedule().save(sched_path)
    out = tmp_path / "run"
    proc = main_cli("certify", "--profile", str(prof_path), "--mode", "numeric",
                   "--schedule", str(sched_path), "--out", str(out))
    assert proc.returncode == 0
    rep = report_from_dir(out)
    assert rep["verdict"] == "pass"
    amp = rep["amplification"]
    assert abs(amp["final_check_lhs"] - 0.009055288178210153) < 1e-15
    assert abs(amp["final_check_rhs"] - 0.007722083173020028) < 1e-15
    assert len(amp["rows"]) == 9
    trace = (out / "trace.csv").read_text(encoding="utf-8").strip().splitlines()
    assert trace[0] == "k,beta_k,mass_frac,step_kind"
    assert len(trace) == 10


def test_certify_requires_exactly_one_source(tmp_path, main_cli):
    proc = main_cli("certify")
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    prof_path = tmp_path / "p.json"
    ExpanderProfile(n=5, d_ref=2.0, alpha=0.1, c_minus=-0.1, c_plus=0.1).save(prof_path)
    proc = main_cli("certify", "--gen", "cycle:5", "--profile", str(prof_path))
    assert proc.returncode == 2

    # a saved profile carries its own tol, and there is no graph to sample
    cfg = tmp_path / "cfg.json"
    for key, value in (("tol", 0.5), ("seed", 9)):
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        for args in ([f"--{key}", str(value)], ["--config", str(cfg)]):
            proc = main_cli("certify", "--profile", str(prof_path), *args)
            assert proc.returncode == 2, (args, proc.stderr)
            assert proc.stderr.startswith("error:") and f"--{key}" in proc.stderr, proc.stderr


def test_certify_numeric_without_schedule_replays_the_preset(tmp_path):
    path = tmp_path / "preset.json"
    preset_regular_schedule().save(path)
    argv = ["certify", "--gen", "regular:600,120", "--seed", "7", "--mode", "numeric"]
    bare, given = run(argv), run([*argv, "--schedule", str(path)])
    assert bare.exit_status == given.exit_status
    assert bare.report["amplification"]["mode"] == "numeric"
    assert given.report["config"] == bare.report["config"] | {"schedule": str(path)}
    for rep in (bare.report, given.report):
        del rep["provenance"], rep["config"]
    assert bare.report == given.report


def test_simulate_cycle_finds_twisted_states(tmp_path, main_cli):
    out = tmp_path / "run"
    proc = main_cli("simulate", "--gen", "cycle:10", "--seed", "0", "--runs", "20",
                   "--step-cap", CYCLE_CAP, "--classify", "--out", str(out))
    assert proc.returncode == 0
    rep = report_from_dir(out)
    assert rep["sync_fraction"] == 0.5
    assert rep["sync_criterion"] == "rho1 > 0.999999"
    rows = rep["runs"]
    assert len(rows) == 20
    assert [r["seed"] for r in rows] == list(range(20))
    for r in rows:
        assert r["terminated"] in ("converged", "stalled", "step_cap")
        if r["synchronized"]:
            assert r["rho1_final"] > 0.999999
    runs_csv = (out / "runs.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(runs_csv) == 21
    assert runs_csv[0].startswith("seed,steps,terminated")
    flow_csv = (out / "flow.csv").read_text(encoding="utf-8").splitlines()
    assert flow_csv[0] == "time,energy,grad_norm,rho1"


def test_simulate_rejects_workers(tmp_path, main_cli):
    # runs go serially in seed order; there is no thread pool to size
    base = ["simulate", "--gen", "complete:12", "--seed", "3", "--runs", "8"]
    proc = main_cli(*base, "--workers", "4")
    assert proc.returncode == 2
    assert "unrecognized arguments: --workers" in proc.stderr, proc.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 4}), encoding="utf-8")
    proc = main_cli(*base, "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "'workers'" in proc.stderr, proc.stderr


def test_simulate_tol_reaches_classifier(main_cli):
    # a run that converged to gradient --tol is an equilibrium at that bound
    proc = main_cli("simulate", "--gen", "er:60,0.2", "--seed", "0", "--runs", "4",
                   "--tol", "1e-6", "--classify")
    assert proc.returncode == 0, proc.stderr
    converged = [r for r in report_from(proc)["runs"] if r["terminated"] == "converged"]
    assert converged
    assert [r for r in converged if r["classification"] == "not_equilibrium"] == []


def test_simulate_requires_seed(main_cli):
    proc = main_cli("simulate", "--gen", "cycle:10", "--runs", "2")
    assert proc.returncode == 2
    assert "--seed" in proc.stderr


def test_simulate_leaves_no_out_dir_on_input_error(tmp_path, main_cli):
    out = tmp_path / "emptyout"
    proc = main_cli("simulate", "--gen", "cycle:10", "--runs", "2", "--out", str(out))
    assert proc.returncode == 2 and "--seed" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("spec, seed, cap", [("cycle:10", 0, 500), ("er:50,0.1", 4, 3000)])
def test_simulate_runs_are_reference_flows(tmp_path, main_cli, spec, seed, cap):
    # run 0 goes through flow and the other four through one flow_batch
    # block; every sidecar and the report match rows built from the frozen
    # one-state flow
    out = tmp_path / "run"
    proc = main_cli("simulate", "--gen", spec, "--seed", str(seed), "--runs", "5",
                   "--step-cap", str(cap), "--classify", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    family, args = spec.split(":")
    g = (gen_erdos_renyi(int(args.split(",")[0]), float(args.split(",")[1]), seed)
         if family == "er" else gen_named(family, int(args)))
    refs = [flow_reference(g, random_phases(g.n, seed + i), step_cap=cap) for i in range(5)]
    rows = [{
        "seed": seed + i,
        "steps": ref.steps,
        "terminated": ref.terminated,
        "energy_final": float(ref.energies[-1]),
        "grad_norm_final": float(ref.grad_norms[-1]),
        "rho1_final": float(ref.rho1s[-1]),
        "synchronized": bool(ref.rho1s[-1] > 1.0 - 1e-6),
        "classification": classify_equilibrium(g, ref.final).classification,
    } for i, ref in enumerate(refs)]
    expected = tmp_path / "expected"
    expected.mkdir()
    flow_csv_reference(expected / "flow.csv", refs[0])
    runs_csv_reference(expected / "runs.csv", rows)
    report = report_from_dir(out)
    report.update(runs=rows, sync_fraction=sum(r["synchronized"] for r in rows) / 5)
    (expected / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
    for name in ("flow.csv", "runs.csv", "report.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_threshold_defaults(main_cli):
    proc = main_cli("threshold")
    assert proc.returncode == 0
    rep = report_from(proc)
    assert rep["schedule"] == "preset" and rep["mode"] == "numeric"
    assert rep["bracket"] == {"lo": 0.001, "hi": 0.25, "tol": 1e-5}
    assert abs(rep["max_alpha"] - 0.08217120361328124) < 1e-12
    assert rep["max_alpha"] >= 0.0816
    assert rep["min_ramanujan_degree"] == 592


def test_threshold_paper_proof_mode(main_cli):
    proc = main_cli("threshold", "--mode", "paper-proof", "--lo", "0.001", "--hi", "0.01")
    assert proc.returncode == 0
    rep = report_from(proc)
    assert rep["schedule"] == "auto" and rep["mode"] == "paper-proof"
    assert abs(rep["max_alpha"] - 0.00314453125) < 1e-12
    assert rep["min_ramanujan_degree"] == 404527


@pytest.mark.parametrize("mode, expect", [("numeric", 0.0821733903481278),
                                          ("paper-proof", 0.003146369517493246)])
def test_threshold_tol_below_float_spacing_ends(mode, expect):
    # no float lies strictly inside a bracket narrower than its spacing, so
    # the bisection stops once the midpoint rounds to an endpoint
    proc = run_cli("threshold", "--mode", mode, "--tol", "1e-300", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert report_from(proc)["max_alpha"] == expect


@pytest.mark.parametrize("args, message", [
    (["--hi", "inf"], "need 0 <= lo < hi < inf"),
    (["--hi", "nan"], "need 0 <= lo < hi < inf"),
    (["--lo", "nan"], "need 0 <= lo < hi < inf"),
    (["--lo=-inf"], "need 0 <= lo < hi < inf"),
    (["--tol", "inf"], "tol must be finite and positive"),
])
def test_threshold_rejects_non_finite_bracket(args, message):
    proc = run_cli("threshold", *args, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr


def test_unbounded_tolerance_exits_2(tmp_path):
    # a tolerance or reference degree that is not a finite bound is an input
    # error, never a pass resting on an infinite allowance
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"n": 5, "d_ref": 2.0, "alpha": 0.1, "c_minus": -0.1,
                                "c_plus": 0.1, "tol": float("inf")}), encoding="utf-8")
    for args, named in [
        (["profile", "--gen", "regular:300,10", "--seed", "0", "--tol", "inf",
          "--trials", "5"], "tol must be finite and positive, got inf"),
        (["profile", "--gen", "cycle:20", "--d-ref", "inf"],
         "d_ref must be finite and positive, got inf"),
        (["profile", "--gen", "cycle:20", "--tol", "nan"], "tol must be finite"),
        (["certify", "--gen", "cycle:20", "--tol", "inf"], "tol must be finite"),
        (["certify", "--profile", str(prof)], "profile field tol is not finite: inf"),
        (["simulate", "--gen", "cycle:5", "--seed", "0", "--tol", "inf", "--classify"],
         "grad_tol must be finite and positive, got inf"),
        (["sweep", "--kind", "gamma-roots", "--points", "3", "--lo", "2", "--hi", "inf"],
         "--lo and --hi must be finite"),
        (["sweep", "--kind", "gamma-roots", "--points", "3", "--lo", "nan"],
         "--lo and --hi must be finite"),
        # geomspace takes no zero end, and gamma_roots no gamma up to 1
        (["sweep", "--kind", "gamma-roots", "--points", "3", "--lo", "0", "--hi", "3"],
         "--lo and --hi must be finite"),
        (["sweep", "--kind", "gamma-roots", "--points", "3", "--hi", "0"],
         "--lo and --hi must be finite"),
    ]:
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("error:") and named in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr


def test_threshold_replays_schedule_in_paper_proof_mode(tmp_path, main_cli):
    # a given schedule is replayed in the mode asked for, as certify does
    path = tmp_path / "schedule.json"
    preset_regular_schedule().save(path)
    proc = main_cli("threshold", "--schedule", str(path), "--mode", "paper-proof")
    assert proc.returncode == 0, proc.stderr
    rep = report_from(proc)
    assert rep["mode"] == "paper-proof" and rep["schedule"] == str(path)
    assert rep["max_alpha"] == 0.061646636962890626
    assert rep["min_ramanujan_degree"] == 1052
    # the same bisection of the engine, called directly
    lo, hi = 0.001, 0.25
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        prof = ExpanderProfile(n=1, d_ref=1.0, alpha=mid, c_minus=-mid, c_plus=mid)
        if amplification_run(prof, preset_regular_schedule(), "paper_proof").verdict == "pass":
            lo = mid
        else:
            hi = mid
    assert rep["max_alpha"] == lo
    proc = main_cli("threshold", "--schedule", str(path), "--mode", "numeric",
                   "--lo", "0.07", "--hi", "0.09")
    assert proc.returncode == 0
    assert report_from(proc)["mode"] == "numeric"


def test_er_predict_vacuous_at_realistic_n(main_cli):
    proc = main_cli("er-predict", "--n", "500", "--gamma", "3", "--eps", "0.25")
    assert proc.returncode == 1
    rep = report_from(proc)
    pred = rep["prediction"]
    assert "vacuous" in pred["verdict"]
    assert pred["alpha_pred"] > 0.2
    assert pred["failure_prob_bound"] == 1.0

    proc = main_cli("er-predict", "--n", "500", "--gamma", "3")
    assert proc.returncode == 2  # eps is required


def test_er_predict_exits_0_in_certifiable_range(main_cli):
    # alpha_pred = 6 / sqrt(80 log 1e5) = 0.1977, below the 1/5 gate
    proc = main_cli("er-predict", "--n", "100000", "--gamma", "80", "--eps", "0.1")
    assert proc.returncode == 0
    pred = report_from(proc)["prediction"]
    assert pred["verdict"] == CERTIFIABLE_VERDICT
    assert pred["alpha_pred"] <= GENERAL_ALPHA_SUP


def test_er_predict_gamma_at_window_lower_end_exits_2(main_cli):
    proc = main_cli("er-predict", "--n", "1000", "--gamma", "1.25000000000001",
                   "--eps", "0.25")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: gamma is too close to the window's lower end"), \
        proc.stderr


def test_n_too_large_for_a_float_exits_2(main_cli):
    huge = "1" + "0" * 400
    for args in (["er-predict", "--n", huge, "--gamma", "3", "--eps", "0.25"],
                 ["sweep", "--kind", "er-sample", "--n", huge, "--gamma", "3", "--eps", "0.25",
                  "--seed", "1", "--samples", "1"]):
        proc = main_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr


def test_n_beyond_the_edge_key_range_exits_2(main_cli):
    # edges are keyed u * n + v in int64, so n may not exceed isqrt(2^63 - 1)
    huge = "1" + "0" * 20
    for args in (["generate", "--gen", f"er:{huge},0.1", "--seed", "1"],
                 ["generate", "--gen", f"cycle:{huge}"],
                 ["generate", "--gen", f"regular:{huge},3", "--seed", "1"],
                 ["sweep", "--kind", "er-sample", "--n", huge, "--gamma", "3", "--eps", "0.25",
                  "--seed", "1", "--samples", "1"]):
        proc = main_cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
        assert "exceeds the largest supported" in proc.stderr, proc.stderr


def test_sweep_gamma_roots(tmp_path, main_cli):
    out = tmp_path / "run"
    proc = main_cli("sweep", "--kind", "gamma-roots", "--lo", "1.5", "--hi", "3.0",
                   "--points", "5", "--out", str(out))
    assert proc.returncode == 0
    rep = report_from_dir(out)
    assert rep["points"] == 5
    lines = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "gamma,c_minus,c_plus"
    assert len(lines) == 6
    first = rep["first"]
    assert first[0] == 1.5 and -1.0 < first[1] < 0.0 < first[2]


def test_sweep_alpha_condition(main_cli):
    proc = main_cli("sweep", "--kind", "alpha-condition", "--lo", "0.001",
                   "--hi", "0.2", "--points", "40")
    assert proc.returncode == 0
    rep = report_from(proc)
    assert 0 < rep["passes"] < 40  # condition flips somewhere inside


def test_sweep_rejects_options_its_kind_does_not_read(tmp_path, main_cli):
    kinds = {
        "gamma-roots": ["--points", "3"],
        "alpha-condition": ["--points", "3"],
        "er-sample": ["--n", "200", "--gamma", "3", "--eps", "0.25", "--seed", "1",
                      "--samples", "1"],
    }
    unread = {
        "gamma-roots": {"n": 7, "gamma": 3.0, "eps": 0.25, "seed": 5, "samples": 9},
        "alpha-condition": {"n": 7, "seed": 5},
        "er-sample": {"lo": 1.5, "hi": 3.0, "points": 3},
    }
    path = tmp_path / "cfg.json"
    for kind, options in unread.items():
        for key, value in options.items():
            for args in ([f"--{key}", str(value)], ["--config", str(path)]):
                path.write_text(json.dumps({key: value}), encoding="utf-8")
                proc = main_cli("sweep", "--kind", kind, *kinds[kind], *args)
                assert proc.returncode == 2, (kind, args, proc.stderr)
                assert proc.stderr.startswith("error:") and f"--{key}" in proc.stderr, \
                    proc.stderr
    # a null config value leaves the option unset
    path.write_text(json.dumps({"samples": None}), encoding="utf-8")
    proc = main_cli("sweep", "--kind", "gamma-roots", "--points", "3", "--config", str(path))
    assert proc.returncode == 0, proc.stderr


def test_sweep_er_sample(tmp_path, main_cli):
    base = ["sweep", "--kind", "er-sample", "--n", "200", "--gamma", "3",
            "--eps", "0.25", "--seed", "1", "--samples", "3"]
    assert main_cli(*base, "--out", str(tmp_path)).returncode == 0
    rep = report_from_dir(tmp_path)
    assert rep["samples"] == 3
    assert 0 <= rep["profiles_inside_certified_window"] <= 3
    assert rep["mean_measured_alpha"] > 0.0


# each count option with a value just below its lower limit (or at it, which
# runs): runs, points and samples >= 1; step_cap and trials >= 0
SIM = ["simulate", "--gen", "cycle:10", "--seed", "0"]
ER_SAMPLE = ["sweep", "--kind", "er-sample", "--n", "200", "--gamma", "3", "--eps", "0.25",
             "--seed", "1"]
COUNT_CASES = [
    (SIM, "runs", 0, 2),
    (SIM, "runs", -1, 2),
    (SIM, "step_cap", -1, 2),
    (SIM, "step_cap", 0, 0),
    (["sweep", "--kind", "gamma-roots"], "points", 0, 2),
    (["sweep", "--kind", "gamma-roots"], "points", -3, 2),
    (["sweep", "--kind", "alpha-condition"], "points", 0, 2),
    (ER_SAMPLE, "samples", 0, 2),
    (ER_SAMPLE, "samples", -1, 2),
    (["profile", "--gen", "cycle:10", "--seed", "0"], "trials", -1, 2),
    (["profile", "--gen", "cycle:10", "--seed", "0"], "trials", 0, 0),
]


@pytest.mark.parametrize("argv, key, value, status", COUNT_CASES, ids=[
    f"{argv[2] if argv[0] == 'sweep' else argv[0]}-{key}={value}"
    for argv, key, value, _ in COUNT_CASES])
def test_count_options_reject_values_below_their_limit(tmp_path, main_cli, argv, key, value,
                                                       status):
    flag = f"--{key.replace('_', '-')}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    for args in ([flag, str(value)], ["--config", str(cfg)]):
        proc = main_cli(*argv, *args)
        assert proc.returncode == status, (args, proc.stderr)
        if status == 2:
            least = 0 if key in ("step_cap", "trials") else 1
            assert proc.stderr == f"error: {flag} must be at least {least}, got {value}\n"
        else:
            assert report_from(proc)["config"][key] == value


def test_out_lists_exactly_the_files_it_writes(tmp_path, main_cli, monkeypatch):
    # stderr names every file written under --out, report.json first; without
    # --out the report goes to stdout and nothing is written
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    commands = {
        "generate": ["generate", "--gen", "cycle:6"],
        "profile": ["profile", "--gen", "cycle:8"],
        "certify": ["certify", "--gen", "complete:10"],
        "simulate": [*SIM, "--runs", "2", "--step-cap", "50"],
        "threshold": ["threshold", "--mode", "paper-proof", "--lo", "0.001", "--hi", "0.01"],
        "er-predict": ["er-predict", *PREDICT_ARGS],
        "gamma-roots": ["sweep", "--kind", "gamma-roots", "--points", "3"],
        "alpha-condition": ["sweep", "--kind", "alpha-condition", "--points", "3"],
        "er-sample": [*ER_SAMPLE, "--samples", "1"],
    }
    monkeypatch.chdir(cwd)
    for name, argv in commands.items():
        out = tmp_path / name
        proc = main_cli(*argv, "--out", str(out))
        assert proc.returncode in (0, 1), (name, proc.stderr)
        assert proc.stdout == ""
        listed = proc.stderr.splitlines()
        assert listed[0] == str(out / "report.json"), name
        assert sorted(listed) == sorted(str(p) for p in out.iterdir()), name
        proc = main_cli(*argv)
        assert proc.returncode in (0, 1) and proc.stderr == "", (name, proc.stderr)
        assert report_from(proc)["command"] == argv[0]
    assert list(cwd.iterdir()) == []


def test_csv_sidecars_match_frozen_writers(tmp_path):
    # each sidecar is byte for byte what the writers wrote before they were
    # merged into one; flow.csv rows are np.float64 values
    def sidecars(name, *argv):
        out = tmp_path / name
        return out, run([*argv, "--out", str(out)]).report

    def check(path, reference, *args):
        expected = tmp_path / "expected.csv"
        reference(expected, *args)
        assert path.read_bytes() == expected.read_bytes(), path

    out, rep = sidecars("simulate", "simulate", "--gen", "cycle:10", "--seed", "0",
                        "--runs", "3", "--step-cap", "500", "--classify")
    check(out / "runs.csv", runs_csv_reference, rep["runs"])
    res = flow(gen_named("cycle", 10), random_phases(10, 0), step_cap=500)
    assert isinstance(res.energies[0], np.float64)
    check(out / "flow.csv", flow_csv_reference, res)

    prof = ExpanderProfile(n=600, d_ref=600.0, alpha=0.0816, c_minus=-0.0816,
                           c_plus=0.0816)
    prof.save(tmp_path / "profile.json")
    preset_regular_schedule().save(tmp_path / "schedule.json")
    for mode in ("numeric", "paper-proof"):
        schedule = ["--schedule", str(tmp_path / "schedule.json")] if mode == "numeric" else []
        out, _ = sidecars(mode, "certify", "--profile", str(tmp_path / "profile.json"),
                          "--mode", mode, *schedule)
        sched = Schedule.load(tmp_path / "schedule.json") if schedule else None
        check(out / "trace.csv", trace_csv_reference,
              amplification_run(prof, sched, mode=mode.replace("-", "_")))

    out, _ = sidecars("gamma", "sweep", "--kind", "gamma-roots", "--lo", "1.5", "--hi", "3.0",
                      "--points", "5")
    rows = [(float(x), *gamma_roots(float(x))) for x in np.geomspace(1.5, 3.0, 5)]
    check(out / "sweep.csv", sweep_csv_reference, ["gamma", "c_minus", "c_plus"], rows)

    out, _ = sidecars("alpha", "sweep", "--kind", "alpha-condition", "--points", "7")
    rows = []
    for a in np.linspace(0.001, 0.2, 7):
        res = theorem_condition(ExpanderProfile(n=1, d_ref=1.0, alpha=float(a),
                                                c_minus=-float(a), c_plus=float(a)))
        rows.append((float(a), res.condition1, res.condition2, res.verdict))
    check(out / "sweep.csv", sweep_csv_reference,
          ["alpha", "condition1", "condition2", "verdict"], rows)

    out, _ = sidecars("er", "sweep", "--kind", "er-sample", "--n", "200", "--gamma", "3",
                      "--eps", "0.25", "--seed", "1", "--samples", "2")
    pred = er_prediction(200, 3.0, 0.25)
    rows = []
    for s in (1, 2):
        g = gen_erdos_renyi(200, pred.p, s)
        p = expander_profile(g, d_ref=pred.d_ref)
        rows.append((s, p.alpha, p.c_minus, p.c_plus, *degree_extrema(g)))
    check(out / "sweep.csv", sweep_csv_reference,
          ["seed", "measured_alpha", "measured_c_minus", "measured_c_plus", "d_min", "d_max"],
          rows)


# (subcommand, option it does not take, arguments it needs); simulate's
# --workers has its own test
PREDICT_ARGS = ["--n", "500", "--gamma", "3", "--eps", "0.25"]
REMOVED_OPTIONS = [
    ("generate", "tol", ["--gen", "cycle:6"]),
    ("threshold", "seed", []),
    ("er-predict", "seed", PREDICT_ARGS),
    ("er-predict", "tol", PREDICT_ARGS),
    ("sweep", "tol", ["--kind", "gamma-roots", "--points", "3"]),
    ("sweep", "workers", ["--kind", "er-sample", "--n", "200", "--gamma", "3", "--eps", "0.25",
                          "--seed", "1", "--samples", "1"]),
]


def test_config_file_merging(tmp_path, main_cli):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": "cycle:6"}), encoding="utf-8")
    rep = report_from(main_cli("generate", "--config", str(cfg)))
    assert rep["graph"]["n"] == 6
    # explicit flags win over the config file
    rep = report_from(main_cli("generate", "--config", str(cfg), "--gen", "cycle:8"))
    assert rep["graph"]["n"] == 8
    assert rep["config"]["gen"] == "cycle:8"

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    assert main_cli("generate", "--config", str(bad), "--gen", "cycle:6").returncode == 2

    # keys are option names in dest spelling; values are checked, never converted
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"gen": "cycle:6", "seed": 3, "tol": 1, "out": None}),
                  encoding="utf-8")
    rep = report_from(main_cli("profile", "--config", str(ok)))
    assert rep["config"] == {"gen": "cycle:6", "seed": 3, "tol": 1}
    for command, cfg_obj, named in [
        ("profile", {"trails": 5}, "trails"),  # misspelt: no mixing check would run
        ("profile", {"d-ref": 3.0}, "d-ref"),
        ("generate", {"command": "profile"}, "command"),
        ("generate", {"trials": 5}, "trials"),  # an option of another subcommand
        ("simulate", {"runs": "3"}, "runs"),
        ("simulate", {"runs": 3.0}, "runs"),
        ("simulate", {"classify": 1}, "classify"),
        ("generate", {"seed": True}, "seed"),
        ("profile", {"tol": "1e-3"}, "tol"),
        ("generate", {"gen": 6}, "gen"),
        ("certify", {"mode": "sideways"}, "mode"),
    ]:
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(cfg_obj), encoding="utf-8")
        proc = main_cli(command, "--config", str(path), "--gen", "cycle:6", "--seed", "0")
        assert proc.returncode == 2, (command, cfg_obj, proc.stderr)
        assert proc.stderr.startswith("error:") and repr(named) in proc.stderr, proc.stderr

    # an option a subcommand does not have is not a key either
    for command, key, args in REMOVED_OPTIONS:
        path.write_text(json.dumps({key: 1}), encoding="utf-8")
        proc = main_cli(command, "--config", str(path), *args)
        assert proc.returncode == 2, (command, key, proc.stderr)
        assert proc.stderr.startswith("error:") and repr(key) in proc.stderr, proc.stderr


MALFORMED_SCHEDULES = [
    {"steps": [{"kind": "tail"}]},
    {"steps": [{"kind": "tail", "eps": "x"}]},
    {"steps": [5]},
    {"steps": 5},
]


@pytest.mark.parametrize("schedule", MALFORMED_SCHEDULES)
def test_threshold_rejects_malformed_schedule(tmp_path, main_cli, schedule):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule), encoding="utf-8")
    proc = main_cli("threshold", "--schedule", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize("text", ['{"steps": [', "", b"\xff\xfe"])
def test_malformed_json_files_exit_2(tmp_path, main_cli, text):
    path = tmp_path / "broken.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    for args in (["generate", "--gen", "cycle:6", "--config", str(path)],
                 ["certify", "--profile", str(path)],
                 ["threshold", "--schedule", str(path)]):
        proc = main_cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr, proc.stderr


def test_dense_certify_commands_peak_at_the_graph_size(tmp_path):
    # the commands of the benchmark's dense_certify workload; small runs
    # first, so first-call imports and caches stay out of the count
    def commands(n, regular, out):
        return [["generate", "--gen", f"complete:{n}", "--out", str(out)],
                ["certify", "--graph", str(out / "graph.txt")],
                ["certify", "--gen", f"regular:{regular}", "--seed", "0"]]

    for argv in commands(10, "30,4", tmp_path / "warm"):
        run(argv)
    peaks = []
    for argv in commands(800, "2000,200", tmp_path / "k800"):
        tracemalloc.start()
        try:
            run(argv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # K_800 keeps 40 bytes for each of its 319,600 edges; no command needs
    # much more than that graph: reading its file took 1.40 times as much
    # while the parsed pairs lived through the build
    assert max(peaks) <= 1.05 * 40 * 319_600, peaks


def test_non_utf8_edge_list_exits_2(tmp_path, main_cli):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1\n0 \xff1\n")
    proc = main_cli("generate", "--graph", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: edge-list file is not UTF-8 text"), \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_2(tmp_path, main_cli):
    assert main_cli().returncode == 2
    assert main_cli("frobnicate").returncode == 2
    assert main_cli("generate").returncode == 2  # no graph source
    assert main_cli("generate", "--gen", "er:10").returncode == 2  # malformed spec
    assert main_cli("generate", "--gen", "er:10,0.5").returncode == 2  # missing seed
    assert main_cli("generate", "--gen", "moebius:10").returncode == 2
    # a number that does not parse names the spec, without a traceback
    for spec in ("er:10,abc", "er:abc,0.5", "regular:10,x"):
        proc = main_cli("generate", "--gen", spec, "--seed", "0")
        assert proc.returncode == 2, spec
        assert proc.stderr.startswith("error:") and repr(spec) in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1\n", encoding="utf-8")
    assert main_cli("generate", "--graph", str(g), "--gen", "cycle:5").returncode == 2
    assert main_cli("generate", "--graph", str(tmp_path / "nope.txt")).returncode == 2
    for command, key, args in REMOVED_OPTIONS:
        proc = main_cli(command, *args, f"--{key}", "1")
        assert proc.returncode == 2, (command, key)
        assert f"unrecognized arguments: --{key}" in proc.stderr, proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_only_existing_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # _subcommand_flags leaves out --config, which every subcommand takes
    flags = {"--config"} | {s for c in sub.choices
                            for a in _subcommand_flags(parser, c).values()
                            for s in a.option_strings}
    text = README.read_text(encoding="utf-8")
    # backticked flags, alone or after a subcommand (not `pip install ... --x`)
    spans = [span.split() for span in re.findall(r"`([^`\n]+)`", text)]
    named = {w for words in spans if words[0] in sub.choices or words[0].startswith("--")
             for w in words if w.startswith("--")}
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("kurasync ")]
    assert len(lines) == 8
    for argv in lines:
        named.update(a for a in argv if a.startswith("--"))
        parser.parse_args(argv)
    assert named and named <= flags, sorted(named - flags)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("kurasync ")


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # loading either with the CLI would add to the start-up time of every
    # command: csgraph is imported where it is used, and no command uses
    # scipy.optimize, the root finder being the package's own
    lazy = ("scipy.optimize", "scipy.sparse.csgraph")
    commands = [
        ["er-predict", *PREDICT_ARGS],
        ["sweep", "--kind", "gamma-roots", "--points", "3"],
        ["sweep", "--kind", "alpha-condition", "--points", "3"],
        ["sweep", "--kind", "er-sample", "--n", "200", "--gamma", "3", "--eps", "0.25",
         "--seed", "1", "--samples", "1"],
    ]
    script = (
        "import sys, kurasync.cli\n"
        f"print([m for m in {lazy!r} if m in sys.modules])\n"
        f"for argv in {commands!r}:\n"
        "    kurasync.cli.run(argv)\n"
        "    print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=CLI_ENV, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", *["False"] * len(commands), ""]
