"""Batch command-line front end.

Subcommands: generate | profile | certify | simulate | threshold |
er-predict | sweep. Every run produces a machine-readable JSON report
(stdout, or report.json under --out) plus CSV sidecars for plotting.
Reports are byte-identical across reruns with the same config except for
the timestamp, which lives only in the provenance block. Exit status: 0
pass/success, 1 fail verdict, 2 error.

Each handler (_cmd_*, _sweep_*) is a function of the merged options alone.
It returns (body, status, sidecars): the command's part of the report, the
exit status, and an ordered {file name: write(path)} mapping of the files
the command writes besides report.json. Only run() reads --out; once the
handler has returned (so a run that fails on its input leaves no
directory behind), it creates the directory and writes the sidecars there
in order, then report.json. The merged options hold only
options that are set, so a handler's default is cfg.get(key, default).
The library's results are plain records: this module alone shapes them
into report blocks (record_json) and sidecars (write_json, write_csv).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    Schedule,
    amplification_run,
    max_alpha_regular,
    min_ramanujan_degree,
    preset_regular_schedule,
    theorem_condition,
)
from .dynamics import GRAD_TOL, STEP_CAP, classify_equilibrium, flow, flow_batch, random_phases
from .errors import InputError, KurasyncError
from .graphs import (
    degree_extrema,
    gen_erdos_renyi,
    gen_named,
    gen_random_regular,
    read_edge_list,
    write_edge_list,
)
from .randomgraphs import CERTIFIABLE_VERDICT, er_prediction, gamma_roots
from .spectral import (
    DEFAULT_TOL,
    ExpanderProfile,
    check_mixing_bounds,
    degree_bounds_from_profile,
    expander_profile,
    read_json,
    record_json,
    write_csv,
    write_json,
)

SYNC_RHO = 1.0 - 1e-6
NAMED_FAMILIES = ("cycle", "path", "complete", "star", "two_cliques_bridged")
# the seeded families NAME:N,X: their generator, the type of X and its label
SAMPLED_FAMILIES = {"er": (gen_erdos_renyi, float, "P"), "regular": (gen_random_regular, int, "D")}
SCHEDULE_HELP = ("JSON amplification schedule path (default: the built-in preset in numeric "
                 "mode, the aggregate proof in paper-proof mode)")
EIGEN_TOL_HELP = ("eigensolver residual bound on the profile's alpha, c_minus and c_plus, "
                  "in units of d_ref (default 1e-8)")


@dataclass(frozen=True)
class ReportBundle:
    report: dict
    exit_status: int
    files: tuple = ()


def build_parser():
    top = argparse.ArgumentParser(
        prog="kurasync",
        description="Spectral certificates and simulations of synchronization on graphs.",
    )
    top.add_argument("--version", action="version", version=f"kurasync {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    seed_help = "base seed for anything stochastic"

    def common(p, graph=False):
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.add_argument("--out", help="output directory (created if needed)")
        if graph:
            p.add_argument("--graph", help="edge-list file ('n m' header, one 'u v' line per edge)")
            p.add_argument(
                "--gen",
                help=(
                    "generator spec: cycle:N path:N complete:N star:N "
                    "two_cliques_bridged:N er:N,P regular:N,D"
                ),
            )

    p = sub.add_parser("generate", help="generate a graph and write its edge list")
    common(p, graph=True)
    p.add_argument("--seed", type=int, help=seed_help)

    p = sub.add_parser("profile", help="measure the expander profile of a graph")
    common(p, graph=True)
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--tol", type=float, help=EIGEN_TOL_HELP)
    p.add_argument("--trials", type=int, help="random mixing-bound checks to run (default 0)")
    p.add_argument("--d-ref", type=float, help="reference degree override (default 2m/n)")

    p = sub.add_parser("certify", help="run the synchronization certificate")
    common(p, graph=True)
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--tol", type=float, help=EIGEN_TOL_HELP)
    p.add_argument("--profile", help="load a saved profile JSON instead of measuring a graph")
    p.add_argument("--schedule", help=SCHEDULE_HELP)
    p.add_argument("--mode", choices=["paper-proof", "numeric"], help="amplification mode")

    p = sub.add_parser("simulate", help="integrate the gradient flow from random states")
    common(p, graph=True)
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--tol", type=float,
                   help="gradient sup-norm below which a run has converged and its "
                        "final state counts as an equilibrium (default 1e-10)")
    p.add_argument("--runs", type=int, help="number of random initial states (default 1)")
    p.add_argument("--step-cap", type=int, help="max accepted steps per run")
    p.add_argument("--classify", action="store_true", default=None,
                   help="classify the final state of each run (sparse Hessian "
                        "eigensolve with the rotation mode shifted out)")

    p = sub.add_parser("threshold", help="largest certified alpha for regular-shape profiles")
    common(p)
    p.add_argument("--tol", type=float,
                   help="bracket width at which bisection stops (default 1e-5)")
    p.add_argument("--schedule", help=SCHEDULE_HELP)
    p.add_argument("--mode", choices=["paper-proof", "numeric"], help="amplification mode")
    p.add_argument("--lo", type=float, help="bracket lower end (default 0.001)")
    p.add_argument("--hi", type=float, help="bracket upper end (default 0.25)")

    p = sub.add_parser("er-predict", help="predicted profile of a random graph near the threshold")
    common(p)
    p.add_argument("--n", type=int, help="number of vertices")
    p.add_argument("--gamma", type=float, help="density parameter, p = gamma log n / n")
    p.add_argument("--eps", type=float, help="slack of the certified window")

    p = sub.add_parser("sweep", help="parameter sweeps emitting CSV tables")
    common(p)
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--kind", choices=["gamma-roots", "alpha-condition", "er-sample"])
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--samples", type=int)
    return top


def _subcommand_flags(parser, command):
    """The options of one subcommand, keyed by dest (d_ref, step_cap, ...)."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest not in ("help", "config")}


def _config_value_ok(value, action):
    # a config value is what the option holds after parsing; null leaves it unset
    if value is None or isinstance(value, bool):
        return value is None or action.nargs == 0
    want = {int: int, float: (int, float)}.get(action.type, str)
    return (action.nargs != 0 and isinstance(value, want)
            and (action.choices is None or value in action.choices))


def _merge_config(args, parser):
    """Start from the config file (if any), let explicit flags win."""
    cfg = {}
    if getattr(args, "config", None):
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        flags = _subcommand_flags(parser, args.command)
        for key, value in loaded.items():
            if key not in flags:
                raise InputError(
                    f"config key {key!r} is not an option of {args.command} "
                    f"(keys are option names in dest spelling: {', '.join(sorted(flags))})"
                )
            if not _config_value_ok(value, flags[key]):
                raise InputError(
                    f"config key {key!r}: {value!r} is not a valid value for "
                    f"--{key.replace('_', '-')}"
                )
        # null leaves an option unset
        cfg.update({k: v for k, v in loaded.items() if v is not None})
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg, key, why):
    if key not in cfg:
        raise InputError(f"--{key.replace('_', '-')} is required {why}")
    return cfg[key]


def _count(cfg, key, default, least):
    value = cfg.get(key, default)
    if value < least:
        raise InputError(f"--{key.replace('_', '-')} must be at least {least}, got {value}")
    return value


def _parse_gen_spec(spec, seed):
    name, _, rest = spec.partition(":")
    if name in NAMED_FAMILIES:
        try:
            n = int(rest)
        except ValueError:
            raise InputError(f"generator {name} needs an integer size, got {rest!r}")
        return gen_named(name, n)
    if name in SAMPLED_FAMILIES:
        gen, kind, label = SAMPLED_FAMILIES[name]
        parts = rest.split(",")
        if len(parts) != 2:
            raise InputError(f"{name} spec must be {name}:N,{label}, got {spec!r}")
        try:
            n, x = int(parts[0]), kind(parts[1])
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise InputError(f"{name} spec needs an integer N and {what} {label}, "
                             f"got {spec!r}") from None
        if seed is None:
            raise InputError(f"--seed is required for {name} generation")
        return gen(n, x, seed)
    raise InputError(f"unknown generator {name!r}")


def _load_graph(cfg):
    if ("graph" in cfg) == ("gen" in cfg):
        raise InputError("exactly one graph source is required (--graph or --gen)")
    if "graph" in cfg:
        return read_edge_list(cfg["graph"]), {"source": "file", "path": str(cfg["graph"])}
    g = _parse_gen_spec(cfg["gen"], cfg.get("seed"))
    return g, {"source": "generator", "spec": cfg["gen"]}


def _graph_summary(g):
    d_min, d_max = degree_extrema(g)
    return {"n": g.n, "m": g.m, "d_min": d_min, "d_max": d_max}


def _config_echo(cfg):
    return {k: v for k, v in sorted(cfg.items()) if k not in ("command", "out")}


def _provenance(cfg):
    return {
        "tool": "kurasync",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.get("seed"),
    }


def _cmd_generate(cfg):
    g, src = _load_graph(cfg)
    return {"graph": _graph_summary(g) | src}, 0, {"graph.txt": lambda p: write_edge_list(g, p)}


def _measure_profile(g, cfg):
    return expander_profile(g, d_ref=cfg.get("d_ref"), tol=cfg.get("tol", DEFAULT_TOL))


def _cmd_profile(cfg):
    trials = _count(cfg, "trials", 0, 0)
    g, src = _load_graph(cfg)
    prof = _measure_profile(g, cfg)
    lo, hi = degree_bounds_from_profile(prof)
    report = {
        "graph": _graph_summary(g) | src,
        "profile": record_json(prof),
        "degree_bounds_implied": {"lower": lo, "upper": hi},
    }
    status = 0
    if trials:
        seed = _require(cfg, "seed", "when --trials is set")
        mix = check_mixing_bounds(g, prof, trials=trials, seed=seed)
        report["mixing"] = record_json(mix) | {"worst_slack": mix.worst() if mix.entries else None}
        status = 0 if mix.passed else 1
    return report, status, {"profile.json": lambda p: write_json(p, record_json(prof))}


def _replay(path, mode):
    """(schedule, engine mode, report label) of an amplification run in the
    command-line mode: the schedule file at path if one is given, else the
    preset in numeric mode and None, the aggregate proof, in paper-proof mode."""
    if path:
        return Schedule.from_json_dict(read_json(path)), mode.replace("-", "_"), str(path)
    if mode == "numeric":
        return preset_regular_schedule(), "numeric", "preset"
    return None, "paper_proof", "auto"


def _cmd_certify(cfg):
    if sum(key in cfg for key in ("graph", "gen", "profile")) != 1:
        raise InputError("exactly one of --graph, --gen, --profile is required")
    if "profile" in cfg:
        # a saved profile carries its own tol, and there is no graph to sample
        for key in ("tol", "seed"):
            if key in cfg:
                raise InputError(f"--{key} does not apply to certify --profile")
        prof = ExpanderProfile.from_json_dict(read_json(cfg["profile"]))
        report = {"profile": record_json(prof), "profile_source": str(cfg["profile"])}
    else:
        g, src = _load_graph(cfg)
        prof = _measure_profile(g, cfg)
        report = {"graph": _graph_summary(g) | src, "profile": record_json(prof)}
    schedule, mode, _ = _replay(cfg.get("schedule"), cfg.get("mode", "paper-proof"))
    closed = theorem_condition(prof)
    trace = amplification_run(prof, schedule, mode=mode)
    report["closed_form"] = record_json(closed)
    report["amplification"] = record_json(trace)
    report["verdict"] = trace.verdict
    return report, 0 if trace.verdict == "pass" else 1, {
        "trace.csv": lambda p: write_csv(p, ["k", "beta_k", "mass_frac", "step_kind"], (
            (r.k, r.beta, r.mass_frac, r.step_kind) for r in trace.rows)),
    }


def _cmd_simulate(cfg):
    g, src = _load_graph(cfg)
    seed = _require(cfg, "seed", "for random initial states")
    runs = _count(cfg, "runs", 1, 1)
    step_cap = _count(cfg, "step_cap", STEP_CAP, 0)
    grad_tol = cfg.get("tol", GRAD_TOL)
    classify = cfg.get("classify", False)
    # run 0's trajectory is flow.csv; the later runs are one block whose
    # rows keep only their final fields
    first = flow(g, random_phases(g.n, seed), grad_tol=grad_tol, step_cap=step_cap)
    starts = np.empty((runs - 1, g.n))
    for i, row in enumerate(starts, 1):
        row[:] = random_phases(g.n, seed + i)
    rest = flow_batch(g, starts, grad_tol=grad_tol, step_cap=step_cap)
    finals = [(first.final, first.steps, first.terminated, first.energies[-1],
               first.grad_norms[-1], first.rho1s[-1]),
              *zip(rest.final, rest.steps, rest.terminated, rest.energy, rest.grad_norm, rest.rho1)]
    rows = []
    for i, (final, steps, terminated, ene, gn, rho1) in enumerate(finals):
        row = {
            "seed": seed + i,
            "steps": int(steps),
            "terminated": str(terminated),
            "energy_final": float(ene),
            "grad_norm_final": float(gn),
            "rho1_final": float(rho1),
            "synchronized": bool(rho1 > SYNC_RHO),
        }
        if classify:
            row["classification"] = classify_equilibrium(g, final, grad_tol=grad_tol).classification
        rows.append(row)
    sync_fraction = sum(r["synchronized"] for r in rows) / runs
    report = {
        "graph": _graph_summary(g) | src,
        "runs": rows,
        "sync_fraction": sync_fraction,
        "sync_criterion": f"rho1 > {SYNC_RHO!r}",
    }
    cols = list(rows[0].keys())
    return report, 0, {
        "flow.csv": lambda p: write_csv(p, ["time", "energy", "grad_norm", "rho1"], zip(
            first.times, first.energies, first.grad_norms, first.rho1s)),
        "runs.csv": lambda p: write_csv(p, cols, ([r[c] for c in cols] for r in rows)),
    }


def _cmd_threshold(cfg):
    mode = cfg.get("mode", "numeric")
    schedule, engine_mode, label = _replay(cfg.get("schedule"), mode)
    lo, hi, tol = cfg.get("lo", 0.001), cfg.get("hi", 0.25), cfg.get("tol", 1e-5)
    value = max_alpha_regular(schedule, lo, hi, tol=tol, mode=engine_mode)
    report = {
        "max_alpha": value,
        "bracket": {"lo": lo, "hi": hi, "tol": tol},
        "schedule": label,
        "mode": mode,
        "min_ramanujan_degree": min_ramanujan_degree(value),
    }
    return report, 0, {}


def _cmd_er_predict(cfg):
    n = _require(cfg, "n", "for a prediction")
    gamma = _require(cfg, "gamma", "for a prediction")
    eps = _require(cfg, "eps", "for a prediction")
    pred = er_prediction(n, gamma, eps)
    report = {"prediction": record_json(pred)}
    return report, 0 if pred.verdict == CERTIFIABLE_VERDICT else 1, {}


def _sweep_gamma_roots(cfg):
    lo, hi = cfg.get("lo", 1.001), cfg.get("hi", 10.0)
    # both ends must lie in gamma_roots' domain before geomspace runs
    if not (math.isfinite(lo) and math.isfinite(hi) and lo > 1.0 and hi > 1.0):
        raise InputError(f"--lo and --hi must be finite and above 1, got lo={lo}, hi={hi}")
    points = _count(cfg, "points", 50, 1)
    rows = [(float(gamma), *gamma_roots(float(gamma))) for gamma in np.geomspace(lo, hi, points)]
    report = {
        "kind": "gamma-roots",
        "points": points,
        "range": [lo, hi],
        "first": rows[0],
        "last": rows[-1],
    }
    return report, 0, {"sweep.csv": lambda p: write_csv(p, ["gamma", "c_minus", "c_plus"], rows)}


def _sweep_alpha_condition(cfg):
    lo, hi = cfg.get("lo", 0.001), cfg.get("hi", 0.2)
    points = _count(cfg, "points", 50, 1)
    grid = np.linspace(lo, hi, points)
    rows = []
    n_pass = 0
    for alpha in grid:
        a = float(alpha)
        prof = ExpanderProfile(n=1, d_ref=1.0, alpha=a, c_minus=-a, c_plus=a)
        res = theorem_condition(prof)
        n_pass += res.verdict == "pass"
        rows.append((a, res.condition1, res.condition2, res.verdict))
    report = {"kind": "alpha-condition", "points": points, "range": [lo, hi], "passes": n_pass}
    header = ["alpha", "condition1", "condition2", "verdict"]
    return report, 0, {"sweep.csv": lambda p: write_csv(p, header, rows)}


def _sweep_er_sample(cfg):
    n = _require(cfg, "n", "for er sampling")
    gamma = _require(cfg, "gamma", "for er sampling")
    eps = _require(cfg, "eps", "for er sampling")
    seed = _require(cfg, "seed", "for er sampling")
    samples = _count(cfg, "samples", 10, 1)
    pred = er_prediction(n, gamma, eps)

    def one(s):
        g = gen_erdos_renyi(n, pred.p, s)
        prof = expander_profile(g, d_ref=pred.d_ref)
        d_min, d_max = degree_extrema(g)
        return (s, prof.alpha, prof.c_minus, prof.c_plus, d_min, d_max)

    rows = [one(seed + i) for i in range(samples)]
    inside = sum(
        1 for r in rows
        if pred.c_minus_eps - 1e-12 <= r[2] and r[3] <= pred.c_plus_eps + 1e-12
    )
    report = {
        "kind": "er-sample",
        "samples": samples,
        "prediction": record_json(pred),
        "profiles_inside_certified_window": inside,
        "mean_measured_alpha": float(np.mean([r[1] for r in rows])),
    }
    header = ["seed", "measured_alpha", "measured_c_minus", "measured_c_plus", "d_min", "d_max"]
    return report, 0, {"sweep.csv": lambda p: write_csv(p, header, rows)}


# each sweep kind, with the options it reads; it takes no other sweep option
_SWEEPS = {
    "gamma-roots": (_sweep_gamma_roots, ("lo", "hi", "points")),
    "alpha-condition": (_sweep_alpha_condition, ("lo", "hi", "points")),
    "er-sample": (_sweep_er_sample, ("n", "gamma", "eps", "seed", "samples")),
}


def _cmd_sweep(cfg):
    kind = _require(cfg, "kind", "to choose a sweep")
    sweep, keys = _SWEEPS[kind]
    others = sorted({k for _, ks in _SWEEPS.values() for k in ks} - set(keys))
    unread = [f"--{k}" for k in others if k in cfg]
    if unread:
        raise InputError(f"sweep --kind {kind} does not take {', '.join(unread)} "
                         f"(its options: {', '.join('--' + k for k in keys)})")
    return sweep(cfg)


_DISPATCH = {
    "generate": _cmd_generate,
    "profile": _cmd_profile,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
    "er-predict": _cmd_er_predict,
    "sweep": _cmd_sweep,
}


def run(argv=None):
    """Parse arguments, dispatch, write outputs. Returns a ReportBundle."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args, parser)
    _count(cfg, "seed", 0, 0)  # numpy takes no negative seed
    body, status, sidecars = _DISPATCH[cfg["command"]](cfg)
    report = {
        "command": cfg["command"],
        "config": _config_echo(cfg),
        "provenance": _provenance(cfg),
    }
    report.update(body)
    files = ()
    if cfg.get("out"):
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        for name, write in sidecars.items():
            write(outdir / name)
        write_json(outdir / "report.json", report)
        files = tuple(str(outdir / name) for name in ("report.json", *sidecars))
    return ReportBundle(report=report, exit_status=status, files=files)


def main():
    try:
        bundle = run()
    except KurasyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not bundle.files:
        print(json.dumps(bundle.report, indent=2, sort_keys=True))
    else:
        for f in bundle.files:
            print(f, file=sys.stderr)
    raise SystemExit(bundle.exit_status)


if __name__ == "__main__":
    main()
