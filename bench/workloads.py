"""The benchmark's workloads: CLI ops, their recorded exit status, and checks.

Each workload is a list of ``kurasync`` command lines run in order; a pass
runs all of them once. The seed is the benchmark's argument and goes to the
``--seed`` of every op that samples. ``smoke`` swaps in tiny sizes with the
same ops, for the benchmark's own test.

Why these three (layers are named after the package modules):

- dense_certify: ``graphs`` dominates. Complete-graph construction through
  ``Graph.__init__``'s Python set, the edge-list write and read, and the
  random-regular pairing sampler; the complete graph is the traffic that
  certifies (verdict pass).
- er_sample_profile: ``spectral`` dominates. eigsh on sparse Erdos-Renyi
  graphs near the connectivity threshold, the mixing checks with their
  discrepancy search and ``edges_between``, plus the certificate arithmetic.
  It bypasses dense graph construction. Solver and search effort differ
  from graph to graph, so a pass samples three ER graphs and profiles two
  regular ones, which keeps one pass's cost from hinging on one graph.
- simulate_ensemble: ``dynamics`` dominates. Many small gradient flows where
  Python overhead rules, and equilibrium classification on a sparse random
  graph, where the dense QR rules. ``graphs`` and ``spectral`` stay near 0.
  About 2 % of cycle flows creep for thousands of steps; the step cap of
  500 bounds them, so a few of them cannot swing a pass's cost.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

# gradient tolerance the flow converges to by default (documented in the
# package's flow docstring); kept here so the check does not read it back
GRAD_TOL = 1e-10

SIZES = {
    False: {
        "complete": 800,
        "regular": (2000, 200),
        "er_n": 10000,
        "er_samples": 3,
        "profile_regular": (2500, 20),
        "profile_trials": 50,
        "cycle_runs": 200,
        "cycle_step_cap": 500,
        "er_sim": (1000, 0.02),
        "er_sim_runs": 3,
    },
    True: {
        "complete": 400,
        "regular": (200, 40),
        "er_n": 1000,
        "er_samples": 1,
        "profile_regular": (300, 10),
        "profile_trials": 5,
        "cycle_runs": 4,
        "cycle_step_cap": 2000,
        "er_sim": (60, 0.2),
        "er_sim_runs": 2,
    },
}


@dataclass
class Op:
    argv: list
    status: int  # the exit status recorded for this op at every seed
    check: object  # check(report, ctx) -> list of problems


def _close(a, b, tol):
    return abs(a - b) <= tol


def _check_generate(n):
    def check(report, ctx):
        g = report["graph"]
        m = n * (n - 1) // 2
        problems = []
        if (g["n"], g["m"], g["d_min"], g["d_max"]) != (n, m, n - 1, n - 1):
            problems.append(f"complete:{n} summary is {g}")
        with open(ctx["graph_file"], "r", encoding="utf-8") as fh:
            head = fh.readline().split()
        if head != [str(n), str(m)]:
            problems.append(f"edge-list header is {head}")
        return problems
    return check


def _check_complete_certify(n):
    def check(report, ctx):
        p = report["profile"]
        tol = p["tol"]
        want = 1.0 / (n - 1)
        problems = []
        if not _close(p["alpha"], want, tol):
            problems.append(f"K_{n} alpha {p['alpha']!r} != 1/{n - 1}")
        if not _close(p["c_minus"], 0.0, tol):
            problems.append(f"K_{n} c_minus {p['c_minus']!r} != 0")
        if not _close(p["c_plus"], want, tol):
            problems.append(f"K_{n} c_plus {p['c_plus']!r} != 1/{n - 1}")
        if report["verdict"] != "pass":
            problems.append(f"K_{n} verdict {report['verdict']!r}")
        return problems
    return check


def _check_regular_profile(d):
    # Delta_L = -Delta_A on a d-regular graph, so ||Delta_A|| is the larger
    # of the two Laplacian extremes in magnitude
    def check(report, ctx):
        g, p = report["graph"], report["profile"]
        problems = []
        if (g["d_min"], g["d_max"]) != (d, d):
            problems.append(f"regular degree range is {g['d_min']}..{g['d_max']}")
        if not _close(p["alpha"], max(-p["c_minus"], p["c_plus"]), 2 * p["tol"]):
            problems.append(f"alpha {p['alpha']!r} != max(-c_minus, c_plus) on a regular graph")
        return problems
    return check


def _check_profile(d):
    regular = _check_regular_profile(d)

    def check(report, ctx):
        problems = regular(report, ctx)
        if not report["mixing"]["passed"]:
            problems.append("mixing checks did not pass")
        return problems
    return check


def _check_er_predict(n):
    def check(report, ctx):
        pred = report["prediction"]
        return [] if pred["n"] == n else [f"prediction for n={pred['n']}"]
    return check


def _check_sweep(samples):
    def check(report, ctx):
        inside = report["profiles_inside_certified_window"]
        problems = []
        if report["samples"] != samples or not 0 <= inside <= samples:
            problems.append(f"sweep samples {report['samples']}, inside {inside}")
        if not report["mean_measured_alpha"] > 0:
            problems.append("sweep measured no expansion")
        return problems
    return check


def _check_threshold(report, ctx):
    lo, hi = report["bracket"]["lo"], report["bracket"]["hi"]
    if not lo < report["max_alpha"] < hi:
        return [f"max_alpha {report['max_alpha']!r} outside ({lo}, {hi})"]
    return []


def _check_simulate(runs):
    def check(report, ctx):
        rows = report["runs"]
        problems = []
        if [r["seed"] for r in rows] != [ctx["seed"] + i for i in range(runs)]:
            problems.append("simulate rows are not one per consecutive seed")
        for r in rows:
            if r["terminated"] == "converged" and not r["grad_norm_final"] < GRAD_TOL:
                problems.append(f"seed {r['seed']} converged at gradient {r['grad_norm_final']!r}")
        frac = sum(r["synchronized"] for r in rows) / max(len(rows), 1)
        if not math.isclose(report["sync_fraction"], frac):
            problems.append("sync_fraction disagrees with the rows")
        return problems
    return check


def build(workload, seed, workdir, smoke=False):
    """The ops of one pass. workdir is relative to the checkout root."""
    z = SIZES[smoke]
    s = str(seed)
    if workload == "dense_certify":
        n = z["complete"]
        rn, rd = z["regular"]
        return [
            Op(["generate", "--gen", f"complete:{n}", "--out", workdir], 0,
               _check_generate(n)),
            Op(["certify", "--graph", f"{workdir}/graph.txt"], 0,
               _check_complete_certify(n)),
            Op(["certify", "--gen", f"regular:{rn},{rd}", "--seed", s], 1,
               _check_regular_profile(rd)),
        ]
    if workload == "er_sample_profile":
        er = ["--n", str(z["er_n"]), "--gamma", "3", "--eps", "0.25"]
        pn, pd = z["profile_regular"]
        return [
            Op(["er-predict", *er], 1, _check_er_predict(z["er_n"])),
            Op(["sweep", "--kind", "er-sample", *er, "--samples", str(z["er_samples"]),
                "--seed", s], 0, _check_sweep(z["er_samples"])),
            *(Op(["profile", "--gen", f"regular:{pn},{pd}", "--seed", str(seed + k),
                  "--trials", str(z["profile_trials"])], 0, _check_profile(pd))
              for k in range(2)),
            Op(["threshold"], 0, _check_threshold),
        ]
    if workload == "simulate_ensemble":
        en, ep = z["er_sim"]
        return [
            Op(["simulate", "--gen", "cycle:10", "--seed", s, "--runs", str(z["cycle_runs"]),
                "--step-cap", str(z["cycle_step_cap"]), "--classify"], 0,
               _check_simulate(z["cycle_runs"])),
            Op(["simulate", "--gen", f"er:{en},{ep}", "--seed", s,
                "--runs", str(z["er_sim_runs"]), "--classify"], 0,
               _check_simulate(z["er_sim_runs"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("dense_certify", "er_sample_profile", "simulate_ensemble")


def digest(report):
    """sha256 of the report as the CLI prints it, timestamp removed."""
    body = dict(report)
    body["provenance"] = {k: v for k, v in report["provenance"].items() if k != "timestamp"}
    text = json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
