"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Checks that each metric named in BENCHMARK.json prints with its unit, that
every output check passes, that layer self times plus ``cli.self_s`` add up
to the traced op wall time, that the spans agree with op times taken outside
the tracer and nest inside their parents, that the tracer refuses to run
when a function it wraps is gone, and that the benchmark refuses to run
where the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for name, unit in want.items():
            assert any(ln.startswith(f"{name} = ") and f" {unit}" in ln for ln in lines[:-1]), name

    saved = json.loads((BENCH / "out" / f"smoke-{workload}-seed{SEED}-trace1.json").read_text())
    assert saved["exact_counts_match"]
    for summary in saved["summaries"]:
        assert sum(summary["layer_self_ns"].values()) == summary["ops_wall_ns"]
    # with --seconds 0 there are two traced passes, so each median is a mean
    # and the identity carries over to the reported metrics
    assert len(saved["summaries"]) == 2
    metrics = saved["result"]["metrics"]
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)

    spans = np.load(BENCH / "out" / f"smoke-{workload}-seed{SEED}-spans.npz")
    names = json.loads(str(spans["names"]))
    for i, op_s in enumerate(saved["traced_op_s"]):
        sel = spans["pass"] == i
        parent, name, start, end = (spans[k][sel] for k in ("parent", "name", "start", "end"))
        assert (end >= start).all()
        child = parent >= 0
        up = parent[child]
        # every span lies inside its parent, and no function is wrapped twice
        assert (start[child] >= start[up]).all() and (end[child] <= end[up]).all()
        assert not (name[child] == name[up]).any()
        # the run has one thread, so spans with one parent never overlap
        order = np.lexsort((start, parent))
        same = parent[order][1:] == parent[order][:-1]
        assert (end[order][:-1][same] <= start[order][1:][same]).all()
        # one root span per op, covering the op as timed outside the tracer
        roots = ~child
        assert [names[n] for n in name[roots]] == [f"cli.{c}" for c in _commands(workload)]
        root_s = (end[roots] - start[roots]) / 1e9
        assert all(0 <= t - r < 0.02 for t, r in zip(op_s, root_s)), (op_s, root_s)


def _commands(workload):
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return [op.argv[0] for op in workloads.build(workload, SEED, "bench/.work", smoke=True)]


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import kurasync.spectral
    from tracer import TraceTargetMissing, Tracer

    eigsh = kurasync.spectral.eigsh
    monkeypatch.delattr(kurasync.spectral, "eigsh")
    tr = Tracer()
    with pytest.raises(TraceTargetMissing, match="eigsh"):
        tr.install()
    tr.uninstall()
    monkeypatch.undo()
    assert kurasync.spectral.eigsh is eigsh
    with pytest.raises(TraceTargetMissing, match="spectral.nothing"):
        tr.install(required={"spectral.nothing"})
    tr.uninstall()
    import kurasync.cli
    assert not any(hasattr(v, "__wrapped__") for v in vars(kurasync.cli).values())


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
