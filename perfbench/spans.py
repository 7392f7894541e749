"""Span tracing around the public functions of each rfpp layer.

A Tracer keeps spans (name, start, end, parent, counts) in memory.
``installed(tracer)`` wraps the public functions and methods listed in
WRAPPED (and one private helper, ``rfpp.lattice._box_axes``, for the size
of the FPP box) on every binding that rfpp code looks them up through: the
defining module, every rfpp module that imported the function by name (for
example ``rfpp.experiments.geodesic_shoot_batch``), and the class attribute
for methods.  Leaving the context restores the original objects, so untraced
runs execute unmodified code.

``layer_metrics`` turns one traced run's spans into the per-layer metrics.
A span's self time is its duration minus the part of its interval that its
child spans cover.  ``wrapper_cost`` calibrates what one wrapped call adds,
so a traced run can report the tracer's own cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end, parent, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent          # index of the enclosing span, or -1
        self.counts = counts or {}


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.count_s = 0.0            # time spent in count extractors
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), None, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")


# ---------------------------------------------------------------------------
# count extractors: (args, kwargs, result) -> dict of counts
# ---------------------------------------------------------------------------

def _points(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs.get("X", kwargs.get("x"))
    return {"points": int(np.shape(X)[0]) if np.ndim(X) == 2 else 1}


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _noise_nodes(args, kwargs, result):
    return {"noise_nodes": int(np.prod(args[0].noise.node_counts))}


def _shots(args, kwargs, result):
    counts = {"rk_steps": sum(len(p.times) - 1 for p in result),
              "drift_flags": sum(bool(p.drift_flagged) for p in result)}
    for p in result:
        key = "term_" + p.termination
        counts[key] = counts.get(key, 0) + 1
    return counts


def _jacobi_samples(args, kwargs, result):
    paths = args[1] if len(args) > 1 else kwargs["paths"]
    return {"jacobi_samples": sum(len(p.times) for p in paths)}


def _graph_edges(graph):
    """Undirected edges of a passage graph, from its shape and stencil."""
    total = 0
    for off in graph.offsets:
        if tuple(off) > tuple(-off):
            total += int(np.prod([max(0, n - abs(int(o)))
                                  for n, o in zip(graph.shape, off)]))
    return total


def _graph_size(args, kwargs, result):
    return {"nodes": int(args[0].n_nodes), "edges": _graph_edges(args[0])}


def _clipped(args, kwargs, result):
    return {"clipped": int(bool(result.clipped))}


def _box_sites(args, kwargs, result):
    # the (lo, hi) corners of the box fpp_passage builds its graph on
    lo, hi = result
    return {"sites": int(np.prod(np.asarray(hi) - np.asarray(lo) + 1))}


def _fpp_ties(args, kwargs, result):
    return {"ties": int(bool(result.tie_detected))}


def _lpp_sites(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    origin = kwargs.get("origin", args[2] if len(args) > 2 else (0, 0))
    m, n = (int(t) - int(o) for t, o in zip(target, origin))
    return {"sites": (m + 1) * (n + 1)}


def _polymer_sites(args, kwargs, result):
    return {"sites": (result.n + 1) * (result.n + 2) // 2}


def _harness_bytes(args, kwargs, result):
    out = args[0].out
    names = list(result.outputs) + ["manifest.json"]
    return {"bytes_written": sum(os.path.getsize(os.path.join(out, n))
                                 for n in names)}


# (span name, module, class or None, attribute, count extractor)
WRAPPED = (
    ("rng.hash_words", "rfpp.rng", None, "hash_words", _draws),
    ("rng.uniform", "rfpp.rng", None, "uniform", None),
    ("rng.normal", "rfpp.rng", None, "normal", None),
    ("rng.derive_seed", "rfpp.rng", None, "derive_seed", None),
    ("fields.sample", "rfpp.fields", "MetricField", "__init__", _noise_nodes),
    ("fields.evaluate", "rfpp.fields", "MetricField", "evaluate", _points),
    ("fields.evaluate_batch", "rfpp.fields", "MetricField", "evaluate_batch", _points),
    ("fields.values_batch", "rfpp.fields", "MetricField", "values_batch", _points),
    ("fields.conformal_factor_batch", "rfpp.fields", "MetricField",
     "conformal_factor_batch", _points),
    ("fields.conformal_exponent_batch", "rfpp.fields", "MetricField",
     "conformal_exponent_batch", _points),
    ("geometry.geodesic_shoot", "rfpp.geometry", None, "geodesic_shoot", None),
    ("geometry.geodesic_shoot_batch", "rfpp.geometry", None, "geodesic_shoot_batch", _shots),
    ("geometry.jacobi_integrate", "rfpp.geometry", None, "jacobi_integrate", None),
    ("geometry.jacobi_integrate_batch", "rfpp.geometry", None,
     "jacobi_integrate_batch", _jacobi_samples),
    ("geometry.riemannian_speeds", "rfpp.geometry", None, "riemannian_speeds", None),
    ("geometry.lengths", "rfpp.geometry", None, "lengths", None),
    ("geometry.cumulative_lengths", "rfpp.geometry", None, "cumulative_lengths", None),
    ("geometry.reparametrize", "rfpp.geometry", None, "reparametrize", None),
    ("distance.build_graph", "rfpp.distance", None, "build_graph", None),
    ("distance.graph_init", "rfpp.distance", "PassageGraph", "__init__", _graph_size),
    ("distance.sssp", "rfpp.distance", "PassageGraph", "sssp", None),
    ("distance.distance", "rfpp.distance", None, "distance", None),
    ("distance.ball", "rfpp.distance", None, "ball", _clipped),
    ("distance.is_minimizing", "rfpp.distance", None, "is_minimizing", None),
    ("lattice.fpp_passage", "rfpp.lattice", None, "fpp_passage", _fpp_ties),
    ("lattice.fpp_box", "rfpp.lattice", None, "_box_axes", _box_sites),
    ("lattice.lpp_passage", "rfpp.lattice", None, "lpp_passage", _lpp_sites),
    ("lattice.polymer_free_energy", "rfpp.lattice", None, "polymer_free_energy",
     _polymer_sites),
    ("experiments.frontier_scan", "rfpp.experiments", None, "frontier_scan", None),
    ("experiments.frontier_density", "rfpp.experiments", None, "frontier_density", None),
    ("experiments.direction_scan", "rfpp.experiments", None, "direction_scan", None),
    ("experiments.local_regularity", "rfpp.experiments", None, "local_regularity", None),
    ("harness.run", "rfpp.harness", None, "run", _harness_bytes),
)


def _wrap(tracer, name, func, count):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        if count is not None:
            t0 = tracer.clock()
            tracer.spans[index].counts = count(args, kwargs, result)
            tracer.count_s += tracer.clock() - t0
        return result
    return traced


def wrapper_cost():
    """Seconds that wrapping adds to one call, without count extractors: the
    median over five batches of 20,000 calls of a wrapped no-op's time minus
    the bare no-op's, per call."""
    def noop(*args, **kwargs):
        return None

    calls = 20000
    costs = []
    for _ in range(5):
        wrapped = _wrap(Tracer(), "noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(None)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(None)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every WRAPPED function on all its bindings inside the imported
    rfpp modules; restore the originals on exit.  Modules that are not
    imported yet are skipped, so callers import what they trace first."""
    undo = []
    try:
        for name, module_name, cls_name, attr, count in WRAPPED:
            if module_name not in sys.modules:
                continue
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, _wrap(tracer, name, orig, count))
                undo.append((cls, attr, orig))
                continue
            orig = getattr(module, attr)
            wrapper = _wrap(tracer, name, orig, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rfpp" or mod_name.startswith("rfpp.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, binding, wrapper)
                        undo.append((mod, binding, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the union of the child intervals,
    clipped to the span."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


FIELD_EVAL = frozenset(name for name, *_ in WRAPPED
                       if name.startswith("fields.") and name != "fields.sample")
SHOOT = frozenset({"geometry.geodesic_shoot", "geometry.geodesic_shoot_batch"})
JACOBI = frozenset({"geometry.jacobi_integrate", "geometry.jacobi_integrate_batch"})
FRONTIER = frozenset({"experiments.frontier_scan", "experiments.frontier_density"})
LATTICE = frozenset({"lattice.fpp_passage", "lattice.lpp_passage",
                     "lattice.polymer_free_energy"})
SITES = LATTICE | {"lattice.fpp_box"}

# per-layer metric -> unit; the order is the order of the printed table
LAYER_UNITS = {
    "rng.draws": "count", "rng.self_s": "s",
    "fields.calls": "count", "fields.points": "count",
    "fields.points_per_call": "points/call", "fields.self_s": "s",
    "fields.us_per_point": "us", "fields.sample_s": "s",
    "fields.noise_nodes": "count",
    "geometry.rk_steps": "count", "geometry.shoot_self_s": "s",
    "geometry.us_per_rk_step": "us", "geometry.jacobi_s": "s",
    "geometry.jacobi_samples": "count", "geometry.drift_flags": "count",
    "geometry.term_completed": "count", "geometry.term_left_region": "count",
    "geometry.term_numerical": "count",
    "distance.graph_init_s": "s", "distance.nodes": "count",
    "distance.edges": "count", "distance.sssp_calls": "count",
    "distance.sssp_self_s": "s", "distance.field_points_per_edge": "points/edge",
    "distance.ball_s": "s", "distance.minimality_s": "s",
    "distance.clipped_balls": "count",
    "lattice.fpp_s": "s", "lattice.lpp_s": "s", "lattice.polymer_s": "s",
    "lattice.sites": "count", "lattice.ties": "count", "lattice.rng_share": "ratio",
    "experiments.frontier_s": "s", "experiments.scan_self_s": "s",
    "harness.self_s": "s", "harness.bytes_written": "bytes",
    "harness.outputs_changed": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run (every LAYER_UNITS key except
    harness.outputs_changed and trace.overhead_frac, which the caller
    measures).  A ratio whose base is zero reads 0."""
    self_s = self_times(spans)
    dur = [s.end - s.start for s in spans]

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else None

    def total(names, key=None, outer=False, values=None):
        acc = 0
        for i, s in enumerate(spans):
            if s.name not in names or (outer and parent_name(s) in names):
                continue
            acc += s.counts.get(key, 0) if key else values[i]
        return acc

    def count(names, key):
        return total(names, key=key)

    def inclusive(names):
        return total(names, outer=True, values=dur)

    def own(names):
        return total(names, values=self_s)

    def under(i, names):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    rng_names = frozenset(n for n, *_ in WRAPPED if n.startswith("rng."))
    outer_evals = [i for i, s in enumerate(spans)
                   if s.name in FIELD_EVAL and parent_name(s) not in FIELD_EVAL]
    calls = len(outer_evals)
    points = sum(spans[i].counts.get("points", 0) for i in outer_evals)
    sssp_points = sum(spans[i].counts.get("points", 0) for i in outer_evals
                      if parent_name(spans[i]) == "distance.sssp")
    fields_self = own(FIELD_EVAL)
    rk_steps = count(SHOOT, "rk_steps")
    edges = count({"distance.graph_init"}, "edges")
    lattice_s = inclusive(LATTICE)
    lattice_rng = sum(self_s[i] for i, s in enumerate(spans)
                      if s.name in rng_names and under(i, LATTICE))
    return {
        "rng.draws": count(rng_names, "draws"),
        "rng.self_s": own(rng_names),
        "fields.calls": calls,
        "fields.points": points,
        "fields.points_per_call": _ratio(points, calls),
        "fields.self_s": fields_self,
        "fields.us_per_point": 1e6 * _ratio(fields_self, points),
        "fields.sample_s": inclusive({"fields.sample"}),
        "fields.noise_nodes": count({"fields.sample"}, "noise_nodes"),
        "geometry.rk_steps": rk_steps,
        "geometry.shoot_self_s": own(SHOOT),
        "geometry.us_per_rk_step": 1e6 * _ratio(inclusive(SHOOT), rk_steps),
        "geometry.jacobi_s": inclusive(JACOBI),
        "geometry.jacobi_samples": count(JACOBI, "jacobi_samples"),
        "geometry.drift_flags": count(SHOOT, "drift_flags"),
        "geometry.term_completed": count(SHOOT, "term_completed"),
        "geometry.term_left_region": count(SHOOT, "term_left_region"),
        "geometry.term_numerical": count(SHOOT, "term_numerical"),
        "distance.graph_init_s": inclusive({"distance.graph_init"}),
        "distance.nodes": count({"distance.graph_init"}, "nodes"),
        "distance.edges": edges,
        "distance.sssp_calls": sum(s.name == "distance.sssp" for s in spans),
        "distance.sssp_self_s": own({"distance.sssp"}),
        "distance.field_points_per_edge": _ratio(sssp_points, edges),
        "distance.ball_s": own({"distance.ball"}),
        "distance.minimality_s": own({"distance.is_minimizing"}),
        "distance.clipped_balls": count({"distance.ball"}, "clipped"),
        "lattice.fpp_s": inclusive({"lattice.fpp_passage"}),
        "lattice.lpp_s": inclusive({"lattice.lpp_passage"}),
        "lattice.polymer_s": inclusive({"lattice.polymer_free_energy"}),
        "lattice.sites": count(SITES, "sites"),
        "lattice.ties": count(LATTICE, "ties"),
        "lattice.rng_share": _ratio(lattice_rng, lattice_s),
        "experiments.frontier_s": inclusive(FRONTIER),
        "experiments.scan_self_s": own({"experiments.direction_scan"}),
        "harness.self_s": own({"harness.run"}),
        "harness.bytes_written": count({"harness.run"}, "bytes_written"),
    }
