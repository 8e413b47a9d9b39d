"""kurasync benchmark: drives ``kurasync.cli.run(argv)`` in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense_certify --seed 0 --seconds 30 --trace 0

One client in a closed loop: a pass runs the workload's ops one after the
other, each op starting when the previous one returned, and passes repeat
until ``--seconds`` have gone by. Every report is checked (exit status,
invariants, byte-identity across passes and, at the default seed, against
the recorded digest). ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit, and the environment.

``--smoke`` runs the same ops at tiny sizes. ``bench/digests.json`` holds
the reports' digests at the default seed; it is fixed data, because the
reports must stay byte-identical. ``bench/baseline.json`` holds the metrics measured at the commit that added
the benchmark, with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = "bench/.work"
OUTDIR = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_SPAWNS = 5
# per-command times are reported for commands at least this slow
COMMAND_FLOOR_S = 0.5
# BLAS runs one thread: the benchmark is one client with no extra threads,
# and a fixed thread count keeps float reductions, and so reports, identical
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is read from one traced pass)
PER_LAYER = {
    "graphs.gen_named_s": ("s", ("total", "graphs.gen_named")),
    "graphs.read_edge_list_s": ("s", ("total", "graphs.read_edge_list")),
    "graphs.write_edge_list_s": ("s", ("total", "graphs.write_edge_list")),
    "graphs.gen_random_regular_s": ("s", ("total", "graphs.gen_random_regular")),
    "graphs.gen_erdos_renyi_s": ("s", ("total", "graphs.gen_erdos_renyi")),
    "graphs.edges_built": ("count", ("count", "graphs.edges_built")),
    "graphs.build_ns_per_edge": ("ns", None),
    "graphs.edges_between_s": ("s", ("total", "graphs.edges_between")),
    "graphs.edges_between_calls": ("count", ("calls", "graphs.edges_between")),
    "spectral.eigsh_s": ("s", ("total", "spectral.eigsh")),
    "spectral.eigsh_calls": ("count", ("calls", "spectral.eigsh")),
    "spectral.matvecs": ("count", ("count", "spectral.matvecs")),
    "spectral.check_mixing_bounds_s": ("s", ("self", "spectral.check_mixing_bounds")),
    "dynamics.flow_s": ("s", ("self", "dynamics.flow")),
    "dynamics.energy_s": ("s", ("total", "dynamics.energy")),
    "dynamics.gradient_s": ("s", ("total", "dynamics.gradient")),
    "dynamics.energy_calls": ("count", ("calls", "dynamics.energy")),
    "dynamics.flow_steps": ("count", ("count", "dynamics.flow_steps")),
    "dynamics.accept_ratio": ("ratio", None),
    "dynamics.flows_step_cap": ("count", ("count", "dynamics.flows_step_cap")),
    "dynamics.classify_equilibrium_s": ("s", ("self", "dynamics.classify_equilibrium")),
    "dynamics.hessian_s": ("s", ("total", "dynamics.hessian")),
    "certify.theorem_condition_s": ("s", ("total", "certify.theorem_condition")),
    "certify.amplification_run_s": ("s", ("total", "certify.amplification_run")),
    "certify.max_alpha_regular_s": ("s", ("total", "certify.max_alpha_regular")),
    "randomgraphs.er_prediction_s": ("s", ("total", "randomgraphs.er_prediction")),
    "cli.self_s": ("s", ("layer", "cli")),
    "graphs.self_s": ("s", ("layer", "graphs")),
    "spectral.self_s": ("s", ("layer", "spectral")),
    "dynamics.self_s": ("s", ("layer", "dynamics")),
    "certify.self_s": ("s", ("layer", "certify")),
    "randomgraphs.self_s": ("s", ("layer", "randomgraphs")),
    "trace.wall_s": ("s", None),
    "trace.overhead_frac": ("ratio", None),
}

# counts that must repeat exactly between traced passes at one seed
EXACT_COUNTS = ("spectral.matvecs", "spectral.eigsh_calls", "dynamics.energy_calls",
                "dynamics.flow_steps", "graphs.edges_built")


class CheckoutError(Exception):
    """The directory the benchmark runs in does not hold the package source."""


def _load_package():
    """Import kurasync from this checkout's src/, never from elsewhere."""
    if not (SRC / "kurasync" / "cli.py").is_file():
        raise CheckoutError(f"no package source at {SRC / 'kurasync'}")
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import kurasync
    import kurasync.cli

    if Path(kurasync.__file__).resolve().parent != (SRC / "kurasync").resolve():
        raise CheckoutError(f"kurasync imported from {kurasync.__file__}, not {SRC}")


def measure_setup():
    """Median seconds from starting a fresh interpreter to kurasync.cli imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kurasync.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kurasync").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


class Runner:
    """Runs passes of one workload and keeps every check's outcome."""

    def __init__(self, workload, seed, smoke):
        from kurasync.errors import KurasyncError

        self._error_types = (KurasyncError, OSError)
        self.ops = workloads.build(workload, seed, WORKDIR, smoke)
        self.recorded = None
        if not smoke and seed == DEFAULT_SEED:
            self.recorded = json.loads(DIGESTS.read_text())[workload]
        self.first_digests = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.ctx = {"seed": seed, "graph_file": ROOT / WORKDIR / "graph.txt"}

    def run_pass(self, tracer=None):
        """One pass. Returns per-op (command, seconds) and the op digests."""
        from kurasync import cli

        timings, digests = [], []
        for i, op in enumerate(self.ops):
            command = op.argv[0]
            report, status, error = None, 2, None
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    bundle = cli.run(op.argv)
                else:
                    with tracer.span(f"cli.{command}"):
                        bundle = cli.run(op.argv)
                report, status = bundle.report, bundle.exit_status
            except self._error_types as exc:
                error = f"{type(exc).__name__}: {exc}"
            except SystemExit as exc:
                status, error = exc.code, f"exit {exc.code}"
            except Exception:  # the harness keeps going and counts the op failed
                error = traceback.format_exc()
            elapsed = (time.perf_counter_ns() - t0) / 1e9
            timings.append((command, elapsed))
            problems = [] if error is None else [error]
            if status != op.status:
                problems.append(f"exit status {status}, recorded {op.status}")
            d = None
            if report is not None:
                d = workloads.digest(report)
                try:
                    problems += op.check(report, self.ctx)
                except (KeyError, TypeError, OSError) as exc:
                    problems.append(f"check could not read the report: {exc!r}")
                if self.first_digests[i] is None:
                    self.first_digests[i] = d
                elif d != self.first_digests[i]:
                    problems.append("report differs from the same op's report in pass 1")
                if self.recorded is not None:
                    if self.recorded[i]["argv"] != op.argv:
                        problems.append("the digest recorded for this op is for another op")
                    elif d != self.recorded[i]["sha256"]:
                        problems.append("report differs from its digest at the default seed")
            digests.append(d)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED op {' '.join(op.argv)}:", *problems, sep="\n  ", file=sys.stderr)
        return timings, digests


def run_untraced(runner, seconds):
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(runner.run_pass()[0])
    return passes


def layer_values(summary):
    """Every per-layer metric of one traced pass."""
    by_name, counts = summary["by_name"], summary["counts"]
    out = {}
    for metric, (_, how) in PER_LAYER.items():
        if how is None:
            continue
        kind, key = how
        if kind == "count":
            out[metric] = counts.get(key, 0)
        elif kind == "calls":
            out[metric] = by_name.get(key, {}).get("calls", 0)
        elif kind == "layer":
            out[metric] = summary["layer_self_ns"].get(key, 0) / 1e9
        else:
            out[metric] = by_name.get(key, {}).get(f"{kind}_ns", 0) / 1e9
    build_ns = sum(by_name.get(k, {}).get("total_ns", 0)
                   for k in ("graphs.Graph.__init__", "graphs.Graph._from_sorted_pairs"))
    edges = counts.get("graphs.edges_built", 0)
    out["graphs.build_ns_per_edge"] = build_ns / edges if edges else 0.0
    trials = summary["energy_in_flow"] - counts.get("dynamics.flows", 0)
    out["dynamics.accept_ratio"] = counts.get("dynamics.flow_steps", 0) / trials if trials else 0.0
    out["trace.wall_s"] = summary["ops_wall_ns"] / 1e9
    return out


def run_traced(runner, seconds):
    """Pairs of one untraced and one traced pass, at least two, until time is up.

    Returns the untraced passes' timings, the traced passes' timings (taken
    outside the tracer) and the tracers.
    """
    from tracer import Tracer

    # every span name a per-layer metric reads must be traced
    required = {how[1] for how in PER_LAYER.values()
                if how is not None and how[0] in ("total", "self", "calls")}
    untraced, traced, tracers = [], [], []
    t_end = time.perf_counter() + seconds
    while len(tracers) < 2 or time.perf_counter() < t_end:
        untraced.append(runner.run_pass()[0])
        tr = Tracer()
        try:
            tr.install(required)
            traced.append(runner.run_pass(tr)[0])
        finally:
            tr.uninstall()
        tracers.append(tr)
    return untraced, traced, tracers


def _print_metric(name, value, unit, note=""):
    print(f"{name} = {value!r} {unit}{note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="same ops at tiny sizes")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    try:
        _load_package()
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (ROOT / WORKDIR).mkdir(parents=True, exist_ok=True)
    OUTDIR.mkdir(exist_ok=True)

    env = environment(args.seed)
    print("environment =", json.dumps(env, sort_keys=True))
    runner = Runner(args.workload, args.seed, args.smoke)
    tag = "smoke-" if args.smoke else ""
    result = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace,
              "environment": env}
    if args.trace == 0:
        setup_s, setup_samples = measure_setup()
        passes = run_untraced(runner, args.seconds)
        walls = [sum(t for _, t in p) for p in passes]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        per_command = {}
        for p in passes:
            totals = {}
            for command, t in p:
                totals[command] = totals.get(command, 0.0) + t
            for command, t in totals.items():
                per_command.setdefault(command, []).append(t)
        commands = {f"{c.replace('-', '_')}_s": statistics.median(ts)
                    for c, ts in per_command.items()}
        _print_metric("setup_s", setup_s, "s", f" (median of {len(setup_samples)} starts)")
        _print_metric("wall_s", metrics["wall_s"], "s", f" (median of {len(walls)} passes)")
        _print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB")
        for name, value in commands.items():
            if value >= COMMAND_FLOOR_S:
                _print_metric(name, value, "s", f" (median of {len(walls)} passes)")
        result.update(setup_samples=setup_samples, pass_walls=walls, commands=commands)
        units = END_TO_END
        mismatched = []
    else:
        from tracer import TraceTargetMissing, write_spans

        try:
            untraced, traced, tracers = run_traced(runner, args.seconds)
        except TraceTargetMissing as exc:
            print(f"error: the tracer cannot find {exc}; update bench/tracer.py",
                  file=sys.stderr)
            return 2
        summaries = [tr.summarize() for tr in tracers]
        per_pass = [layer_values(s) for s in summaries]
        # counts repeat exactly (checked below), so their median is one of them
        metrics = {m: (statistics.median_low if PER_LAYER[m][0] == "count" else statistics.median)(
            [v[m] for v in per_pass]) for m in per_pass[0]}
        untraced_wall = statistics.median([sum(t for _, t in p) for p in untraced])
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1.0
        mismatched = [k for k in EXACT_COUNTS if len({v[k] for v in per_pass}) > 1]
        if mismatched:
            print("FAILED exact-count self-check: " + ", ".join(
                f"{k} {[v[k] for v in per_pass]}" for k in mismatched), file=sys.stderr)
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
        for name in units:
            _print_metric(name, metrics[name], units[name],
                          f" (median of {len(per_pass)} traced passes)")
        write_spans(OUTDIR / f"{tag}{args.workload}-seed{args.seed}-spans.npz", tracers)
        result.update(per_pass=per_pass, summaries=summaries, exact_counts_match=not mismatched,
                      untraced_walls=[sum(t for _, t in p) for p in untraced],
                      traced_op_s=[[t for _, t in p] for p in traced])

    frac = runner.failed / runner.attempted
    _print_metric("ops_failed_frac", frac, "ratio",
                  f" ({runner.failed} of {runner.attempted} ops)")
    line = {
        "correct": runner.failed == 0 and not mismatched,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    result["result"] = line
    (OUTDIR / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
