"""Outside-in span tracing for the kurasync benchmark.

The tracer never edits the package. It rebinds public names in the
namespaces that call them (``kurasync.cli``, ``kurasync.spectral``,
``kurasync.dynamics``) and the two ``Graph`` constructors, so every call
made through those names opens a span. Spans live in flat in-memory arrays
(start and end in integer nanoseconds, parent id, name id) and are written
out once, when the run ends. A span's layer is the module that defines the
wrapped function; the benchmark's own per-op root spans form the ``cli``
layer, whose self time is op wall time minus the top-level layer spans.

A name the tracer is told to wrap but cannot find raises
``TraceTargetMissing``: a package change that renames or merges a traced
function must update the tracer, rather than have its layer read 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "graphs", "spectral", "dynamics", "certify", "randomgraphs")


class TraceTargetMissing(Exception):
    """A function or class the tracer wraps is not where it looks for it."""


class Tracer:
    """Spans and exact counts for one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one op."""
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, fn, name, after=None):
        """fn wrapped in a span; after(result, args) records counts."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(out, args)
            return out

        return traced

    # -- installation ------------------------------------------------------

    @staticmethod
    def _lookup(owner, attr):
        if attr not in owner.__dict__:
            raise TraceTargetMissing(f"{owner.__name__}.{attr}")
        return owner.__dict__[attr]

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, self._lookup(owner, attr)))
        setattr(owner, attr, value)

    def _trace_attr(self, owner, attr, name, after=None):
        self._rebind(owner, attr, self.wrap(self._lookup(owner, attr), name, after))

    def install(self, required=()):
        """Wrap the package's public functions; required names the span
        names that must be among them."""
        import kurasync.cli as cli
        import kurasync.dynamics as dynamics
        import kurasync.graphs as graphs
        import kurasync.spectral as spectral

        counts = self.counts

        def count_flow(res, _args):
            counts["dynamics.flows"] += 1
            counts["dynamics.flow_steps"] += res.steps
            counts["dynamics.flows_step_cap"] += res.terminated == "step_cap"

        # every package function the CLI imported, named by its home module
        after = {"flow": count_flow}
        for attr, obj in list(vars(cli).items()):
            home = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type)
                    and home.startswith("kurasync.") and home != cli.__name__):
                layer = home.split(".", 1)[1]
                self._trace_attr(cli, attr, f"{layer}.{attr}", after.get(attr))

        self._trace_attr(spectral, "edges_between", "graphs.edges_between")
        self._trace_attr(spectral, "eigsh", "spectral.eigsh")
        linear_operator = self._lookup(spectral, "LinearOperator")

        def counting_linear_operator(*args, **kwargs):
            matvec = kwargs.get("matvec")
            if matvec is None:
                raise TraceTargetMissing("the matvec keyword of a spectral.LinearOperator call")

            def counted(x):
                counts["spectral.matvecs"] += 1
                return matvec(x)

            kwargs["matvec"] = counted
            return linear_operator(*args, **kwargs)

        self._rebind(spectral, "LinearOperator", counting_linear_operator)
        for attr in ("energy", "gradient", "hessian"):
            self._trace_attr(dynamics, attr, f"dynamics.{attr}")

        def count_init(_out, args):
            counts["graphs.edges_built"] += args[0].m

        def count_sorted(g, _args):
            counts["graphs.edges_built"] += g.m

        Graph = graphs.Graph
        self._trace_attr(Graph, "__init__", "graphs.Graph.__init__", count_init)
        from_sorted = self._lookup(Graph, "_from_sorted_pairs")
        if not isinstance(from_sorted, classmethod):
            raise TraceTargetMissing("classmethod Graph._from_sorted_pairs")
        self._rebind(Graph, "_from_sorted_pairs", classmethod(
            self.wrap(from_sorted.__func__, "graphs.Graph._from_sorted_pairs", count_sorted)))

        missing = sorted(set(required) - set(self.names))
        if missing:
            raise TraceTargetMissing("the traced names " + ", ".join(missing))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def arrays(self):
        """(parent, name, start, end) as int64 numpy arrays."""
        return tuple(np.frombuffer(a, dtype=np.int64).copy()
                     for a in (self.parent, self.name, self.start, self.end))

    def summarize(self):
        """Per-name inclusive and self time (ns) and call counts, exact."""
        parent, name, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        by_name = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            by_name[label] = {
                "calls": int(sel.sum()),
                "total_ns": int(dur[sel].sum()),
                "self_ns": int(self_ns[sel].sum()),
            }
        layer_self = dict.fromkeys(LAYERS, 0)
        for label, row in by_name.items():
            layer = label.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + row["self_ns"]
        roots = parent < 0
        # energy calls made directly by flow: each flow evaluates the
        # start state once, every later call is one trial step
        energy_in_flow = 0
        if "dynamics.energy" in self._name_ids and "dynamics.flow" in self._name_ids:
            e = name == self._name_ids["dynamics.energy"]
            inside = e & has_parent
            energy_in_flow = int(
                (name[parent[inside]] == self._name_ids["dynamics.flow"]).sum())
        return {
            "by_name": by_name,
            "layer_self_ns": layer_self,
            "ops_wall_ns": int(dur[roots].sum()),
            "spans": int(len(dur)),
            "energy_in_flow": energy_in_flow,
            "counts": dict(self.counts),
        }


def write_spans(path, tracers):
    """All spans of the given traced passes in one .npz, plus the name table."""
    cols = {"pass": [], "parent": [], "name": [], "start": [], "end": []}
    names = []
    for i, tr in enumerate(tracers):
        parent, name, start, end = tr.arrays()
        offset = len(names)
        names.extend(tr.names)
        cols["pass"].append(np.full(len(start), i, dtype=np.int64))
        cols["parent"].append(parent)
        cols["name"].append(name + offset)
        cols["start"].append(start)
        cols["end"].append(end)
    np.savez(path, names=np.array(json.dumps(names)),
             **{k: np.concatenate(v) if v else np.empty(0, np.int64) for k, v in cols.items()})
