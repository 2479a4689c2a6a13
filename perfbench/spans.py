"""Spans around every call into the package's public functions, for the
traced run, and the per-layer metrics computed from them.

`Tracer.install` replaces each public function by a wrapper wherever a
caller looks it up: in its own module, in every module that imported it
(`ryser.analysis.cover_number`, `ryser.construct.is_intersecting`) and
in the package namespace.  It also wraps `FiniteField.__init__` (span
`gf.FiniteField`) and the copying methods of `PartiteHypergraph`.  A
span records its name, start, end, parent span and a few counts read
off its arguments or result.  Spans stay in memory until the run ends.
"""

import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import ryser
from ryser import analysis, cli, construct, gf, hypergraph, plane, report, solver

LAYERS = (gf, plane, hypergraph, construct, solver, analysis, report, cli)

# Per-vertex helpers, called once for every token of an .rhg file: a
# span each would cost more than the work it measures.
UNTRACED = {"hypergraph.vid_str", "hypergraph.parse_vid"}

METHODS = (
    (gf.FiniteField, "__init__", "gf.FiniteField"),
    (hypergraph.PartiteHypergraph, "without_edge", "hypergraph.without_edge"),
    (hypergraph.PartiteHypergraph, "with_edge", "hypergraph.with_edge"),
)


def _cover_attrs(args, kwargs, res):
    enum = kwargs.get("enumerate_all", args[1] if len(args) > 1 else False)
    return {"mode": "enumerate" if enum else "decide", "nodes": res.nodes_explored}


def _plane_attrs(args, kwargs, res):
    n = len(res.points)                      # (q^2+q+1): every point against every line
    return {"incidence_tests": n * n}


def _intersecting_attrs(args, kwargs, res):
    m = args[0].num_edges                    # every pair of edges, at most
    return {"pair_tests": m * (m - 1) // 2}


# Counts taken at the span, computed from sizes where the program keeps none.
ATTRS = {
    "solver.cover_number": _cover_attrs,
    "solver.matching_number": lambda a, k, res: {"nodes": res.nodes_explored},
    "plane.build_plane": _plane_attrs,
    "hypergraph.is_intersecting": _intersecting_attrs,
    "hypergraph.dumps_rhg": lambda a, k, res: {"bytes": len(res.encode())},
    "analysis.minimize": lambda a, k, res: {"deleted": len(res.deleted)},
    "analysis.classify_extensions": lambda a, k, res: {"candidates": len(res.candidates)},
}

# Per-layer metrics in output order, with their units.
METRICS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end, attrs]
        self.rounds = []         # the span lists of finished rounds
        self._stack = []
        self._restore = []

    def end_round(self):
        self.rounds.append(self.spans)
        self.spans = []
        return self.rounds[-1]

    def wrap(self, name, fn):
        tracer, stack, attrs = self, self._stack, ATTRS.get(name)

        def traced(*args, **kwargs):
            spans = tracer.spans
            span = [name, stack[-1] if stack else -1, perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrapped = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[obj] = self.wrap(name, obj)
        for mod in (ryser, *LAYERS):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for cls, attr, name in METHODS:
            obj = cls.__dict__[attr]
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, self.wrap(name, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path):
        """One JSON object per span; ids and parents count within a round."""
        with open(path, "w", encoding="utf-8") as fh:
            for rnd, spans in enumerate(self.rounds):
                for i, (name, parent, start, end, attrs) in enumerate(spans):
                    rec = {"round": rnd, "id": i, "parent": parent, "name": name,
                           "start": start, "end": end}
                    fh.write(json.dumps({**rec, **(attrs or {})}) + "\n")


def layer_metrics(spans, scales):
    """Per-layer metrics of one round's spans, all but trace.wall_s,
    which run.py takes from the round's timed calls.  `scales` holds,
    for each call the round made, the factor that brings its times to
    the reference speed; a span takes the factor of the call it ran in."""
    child = defaultdict(float)
    top = []                 # index of the call each span ran in
    n_calls = 0
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            top.append(top[parent])
        else:
            top.append(n_calls)
            n_calls += 1
    if n_calls != len(scales):
        raise RuntimeError("spans and calls disagree")
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    cover = defaultdict(int)
    max_cover = 0.0
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        scale = scales[top[i]]
        dur = (end - start) * scale
        self_s[name] += dur - child[i] * scale
        calls[name] += 1
        attrs = attrs or {}
        if name == "solver.cover_number":
            mode = attrs["mode"]
            cover[mode + ".s"] += dur - child[i] * scale
            cover[mode + ".nodes"] += attrs["nodes"]
            cover[mode + ".calls"] += 1
            max_cover = max(max_cover, dur)
            if parent >= 0 and spans[parent][0] == "analysis.minimize":
                counts["analysis.minimize.cover_calls"] += 1
        for key, value in attrs.items():
            if key != "mode":
                counts[f"{name}.{key}"] += value

    cover_s = cover["decide.s"] + cover["enumerate.s"]
    cover_calls = cover["decide.calls"] + cover["enumerate.calls"]
    cover_nodes = cover["decide.nodes"] + cover["enumerate.nodes"]
    out = {}
    for metric in METRICS:
        if metric == "trace.wall_s":
            continue
        if metric.startswith("solver.cover_number."):
            key = metric[len("solver.cover_number."):]
            value = {
                "nodes_per_s": cover_nodes / cover_s if cover_s else 0.0,
                "max_call_s": max_cover,
                "s_per_call": cover_s / cover_calls if cover_calls else 0.0,
            }.get(key, cover[key])
        elif metric.endswith(".s"):
            value = self_s[metric[:-2]]
        elif metric.endswith(".calls"):
            value = calls[metric[:-6]]
        else:
            value = {
                "plane.incidence_tests": counts["plane.build_plane.incidence_tests"],
                "hypergraph.edge_pair_tests": counts["hypergraph.is_intersecting.pair_tests"],
                "hypergraph.rhg_bytes": counts["hypergraph.dumps_rhg.bytes"],
                "solver.matching_number.nodes": counts["solver.matching_number.nodes"],
                "analysis.minimize.cover_calls": counts["analysis.minimize.cover_calls"],
                "analysis.minimize.deleted": counts["analysis.minimize.deleted"],
                "analysis.classify_extensions.candidates":
                    counts["analysis.classify_extensions.candidates"],
                "trace.spans": len(spans),
            }[metric]
        out[metric] = value
    return out
