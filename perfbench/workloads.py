"""Workload task lists, their seeded inputs, and the checks on their outputs.

A workload is a fixed list of ``rfpp`` experiment runs.  The benchmark's
``--seed`` only chooses the master seed of each task (see ``task_seed``), so
every seed does the same kind and size of work on a different random field
or lattice environment.

Every task's outputs are parsed back from the files ``rfpp.harness.run``
wrote and checked twice:

* invariants that hold for every seed (unit speed, radii in range, monotone
  verdicts, ...), and
* for the reference seed, the values and file digests in ``reference.json``
  with the tolerance stored next to each value.  A value outside its
  tolerance is a failure; a digest that differs only counts towards
  ``harness.outputs_changed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Task:
    experiment: str
    params: dict
    replicas: int
    seed: int


@dataclass(frozen=True)
class Workload:
    modules: tuple          # every rfpp module the task list imports
    tasks: tuple            # (experiment, params, replicas)
    tiny: tuple             # parameter overrides per task for smoke runs


WORKLOADS = {
    "graph": Workload(
        modules=("rfpp.harness", "rfpp.rng", "rfpp.fields", "rfpp.distance"),
        tasks=(("distance", {}, 1),
               ("shape", {"t": 6.0, "h": 0.3, "stencil": 32}, 1)),
        tiny=({"graph_half_width": 3.0, "h": 0.5, "target": (2.0, 0.0)},
              {"t": 3.0, "h": 0.5, "stencil": 16, "directions": 8})),
    "geodesic": Workload(
        modules=("rfpp.harness", "rfpp.rng", "rfpp.fields", "rfpp.geometry",
                 "rfpp.distance", "rfpp.experiments"),
        tasks=(("geodesic", {"T": 1.5, "step": 1e-3}, 1),
               ("frontier", {"T": 3.0}, 1),
               ("scan", {"radii": (2.0, 4.0), "directions": 8}, 1)),
        tiny=({"T": 0.2, "step": 1e-2},
              {"T": 0.4, "step": 1e-2},
              {"radii": (1.0, 2.0), "directions": 4, "h": 0.5})),
    "aniso": Workload(
        modules=("rfpp.harness", "rfpp.rng", "rfpp.fields", "rfpp.distance",
                 "rfpp.geometry"),
        tasks=(("distance", {"mode": "sym_exp", "graph_half_width": 10.0,
                             "h": 0.3}, 1),
               ("geodesic", {"mode": "sym_exp", "T": 1.5}, 1)),
        tiny=({"graph_half_width": 3.0, "h": 0.5, "target": (2.0, 0.0)},
              {"T": 0.2, "step": 1e-2})),
    "lattice": Workload(
        modules=("rfpp.harness", "rfpp.rng", "rfpp.lattice"),
        tasks=(("fpp", {"n": 300}, 10),
               ("lpp", {"n": 1000}, 10),
               ("polymer", {"n": 2000}, 5)),
        tiny=({"n": 20}, {"n": 30}, {"n": 40})),
}


def task_seed(workload, seed, index):
    """Master seed of task ``index``: a hash of the workload name, the
    benchmark seed and the index, independent of rfpp's own generator."""
    key = f"{workload}/{int(seed)}/{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def tasks(workload, seed, tiny=False):
    spec = WORKLOADS[workload]
    out = []
    for i, (experiment, params, replicas) in enumerate(spec.tasks):
        params = dict(params, **spec.tiny[i]) if tiny else dict(params)
        out.append(Task(experiment, params, replicas if not tiny else min(replicas, 2),
                        task_seed(workload, seed, i)))
    return out


# ---------------------------------------------------------------------------
# parsing outputs
# ---------------------------------------------------------------------------

def _num(text):
    # harness writes repr() of numpy scalars, e.g. "np.float64(1.5)"
    text = text.strip()
    if text.endswith(")") and "(" in text:
        text = text[text.index("(") + 1:-1]
    return float(text)


def _csv(path):
    """Header comments, column names and float rows of an output CSV."""
    comments, rows, columns = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                comments[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([_num(v) for v in line.split(",")])
    return comments, columns, np.asarray(rows, dtype=float).reshape(-1, len(columns))


def _json(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def summarize(experiment, outdir):
    """The checked values of one task, read back from its output files."""
    if experiment == "distance":
        d = _json(outdir, "distance.json")
        comments, _, ball = _csv(os.path.join(outdir, "ball.csv"))
        return {"d_hat": d["d_hat"], "witness_nodes": d["witness_nodes"],
                "stencil_factor": d["stencil_factor"], "target": d["target"],
                "ball_radius": float(comments["ball radius"]),
                "ball_nodes": len(ball),
                "ball_distance_sum": math.fsum(ball[:, 2]),
                "ball_distance_max": float(ball[:, 2].max()),
                "ball_distance_min": float(ball[:, 2].min())}
    if experiment == "shape":
        d = _json(outdir, "shape.json")
        return {"mu": d["mu"], "anisotropy_ratio": d["anisotropy_ratio"]}
    if experiment == "geodesic":
        d = _json(outdir, "geodesic.json")
        comments, _, rows = _csv(os.path.join(outdir, "geodesic.csv"))
        speeds_e = np.linalg.norm(rows[:, 3:5], axis=1)
        return {"riemannian_length": d["riemannian_length"],
                "euclidean_length": d["euclidean_length"],
                "speed_drift_max": d["speed_drift_max"],
                "termination": d["termination"],
                "conjugate_times": d.get("conjugate_times", []),
                "samples": len(rows), "t_end": float(rows[-1, 0]),
                "end_point": rows[-1, 1:3].tolist(),
                "euclid_speed_min": float(speeds_e.min())}
    if experiment == "frontier":
        d = _json(outdir, "frontier.json")
        _, columns, rows = _csv(os.path.join(outdir, "frontier.csv"))
        col = {c: i for i, c in enumerate(columns)}
        return {"intervals": [list(iv) for iv in d["intervals"]],
                "density_tail": d["density_tail"],
                "samples": len(rows), "t_end": float(rows[-1, col["l"]]),
                "radius_excess": float(np.max(rows[:, col["r"]] - rows[:, col["l"]])),
                "end_radius": float(rows[-1, col["r"]])}
    if experiment == "scan":
        d = _json(outdir, "scan.json")["replicas"][0]
        return {"fractions": d["fractions"], "verdicts": d["verdicts"],
                "final_directions": d["final_directions"], "radii": d["radii"]}
    if experiment in ("fpp", "lpp", "polymer"):
        _, _, rows = _csv(os.path.join(outdir, f"{experiment}.csv"))
        return {"values": rows[:, 1].tolist(),
                "replica_index": rows[:, 0].astype(int).tolist()}
    raise ValueError(f"no output check for experiment {experiment!r}")


# ---------------------------------------------------------------------------
# invariants (every seed)
# ---------------------------------------------------------------------------

def invariant_problems(task, s):
    """Properties every correct output has, whatever the seed."""
    p, e = task.params, task.experiment
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if e == "distance":
        norm = float(np.linalg.norm(s["target"]))
        need(np.isfinite(s["d_hat"]) and 0.1 * norm < s["d_hat"] < 10.0 * norm,
             "d_hat outside (0.1, 10) x |target|")
        need(s["witness_nodes"] >= 2, "witness shorter than two nodes")
        need(s["stencil_factor"] >= 1.0, "stencil factor below 1")
        need(s["ball_nodes"] >= 1 and s["ball_distance_min"] == 0.0,
             "ball misses its centre")
        need(s["ball_distance_max"] <= s["ball_radius"], "ball node beyond radius")
    elif e == "shape":
        mu = np.asarray(s["mu"])
        need(len(mu) == p.get("directions", 16), "wrong number of directions")
        need(np.all(np.isfinite(mu)) and np.all(mu > 0), "non-positive mu")
        need(abs(s["anisotropy_ratio"] - mu.max() / mu.min()) <= 1e-12 * mu.max() / mu.min(),
             "anisotropy ratio is not max/min")
    elif e == "geodesic":
        T, step = p.get("T", 5.0), p.get("step", 1e-3)
        need(s["termination"] == "completed", f"terminated: {s['termination']}")
        need(s["samples"] == math.ceil(T / step - 1e-12) + 1, "wrong sample count")
        need(abs(s["t_end"] - T) <= 1e-9 * T + step, "does not reach T")
        need(abs(s["riemannian_length"] - s["t_end"])
             <= s["t_end"] * (s["speed_drift_max"] + 1e-8),
             "riemannian length differs from unit-speed time")
        need(0.0 < s["euclidean_length"] and s["euclid_speed_min"] > 0.0,
             "zero euclidean speed")
        ct = s["conjugate_times"]
        need(all(0.0 < t <= s["t_end"] for t in ct) and ct == sorted(ct),
             "conjugate times out of order or range")
    elif e == "frontier":
        T, step = p.get("T", 10.0), p.get("step", 2e-3)
        need(s["samples"] == math.ceil(T / step - 1e-12) + 1, "wrong sample count")
        need(0.0 <= s["density_tail"] <= 1.0, "density outside [0, 1]")
        need(s["radius_excess"] <= 1e-8, "radius exceeds euclidean arc length")
        flat = [t for iv in s["intervals"] for t in iv]
        need(flat == sorted(flat) and all(0.0 <= t <= T + 2 * step for t in flat),
             "frontier intervals out of order or range")
    elif e == "scan":
        f = np.asarray(s["fractions"])
        v = np.asarray(s["verdicts"])
        k = p.get("directions", 64)
        need(v.shape == (k, len(p["radii"])), "verdict matrix has wrong shape")
        need(np.all(np.diff(v, axis=1) <= 0), "non-minimizing verdict not absorbing")
        need(np.allclose(f, v.mean(axis=0), rtol=0, atol=1e-12), "fractions != verdict means")
        norms = np.linalg.norm(np.asarray(s["final_directions"]), axis=1)
        need(np.allclose(norms, 1.0, rtol=0, atol=1e-9), "final directions not unit")
    else:
        vals = np.asarray(s["values"])
        need(s["replica_index"] == list(range(task.replicas)), "missing replicas")
        need(np.all(np.isfinite(vals)), "non-finite value")
        if e in ("fpp", "lpp"):
            need(np.all(vals > 0), "non-positive passage time")
    return bad


# ---------------------------------------------------------------------------
# reference values (reference seed only)
# ---------------------------------------------------------------------------

# tolerance per checked output: ("rel" | "abs", amount).  Passage-graph and
# lattice values are exact dyadic sums, so only rounding-free changes pass;
# geodesic quantities allow the 1e-12-relative drift a reformulated
# right-hand side may bring, amplified over thousands of RK steps; a scan
# fraction may move by one direction, since a verdict is a threshold test.
TOLERANCES = {
    "distance": {"d_hat": ("rel", 1e-9), "witness_nodes": ("abs", 0),
                 "stencil_factor": ("rel", 1e-9), "ball_nodes": ("abs", 0),
                 "ball_distance_sum": ("rel", 1e-9)},
    "shape": {"mu": ("rel", 1e-9), "anisotropy_ratio": ("rel", 1e-9)},
    "geodesic": {"riemannian_length": ("rel", 1e-8),
                 "euclidean_length": ("rel", 1e-8),
                 "end_point": ("abs", 1e-6), "conjugate_times": ("abs", 1e-5)},
    "frontier": {"density_tail": ("abs", 1e-6), "intervals": ("abs", 1e-6),
                 "end_radius": ("rel", 1e-8)},
    "scan": {"fractions": ("abs", None)},     # None: one direction, 1 / k
    "fpp": {"values": ("rel", 1e-12)},
    "lpp": {"values": ("rel", 1e-12)},
    "polymer": {"values": ("rel", 1e-10)},
}


def reference_entry(task, summary, digests):
    tol = {}
    for key, (kind, amount) in TOLERANCES[task.experiment].items():
        if amount is None:
            amount = 1.0 / task.params.get("directions", 64)
        tol[key] = {"value": summary[key], kind: amount}
    return {"experiment": task.experiment, "params": _plain(task.params),
            "replicas": task.replicas, "seed": task.seed,
            "values": tol, "digests": dict(digests)}


def _plain(obj):
    return json.loads(json.dumps(obj))


def load_reference(workload):
    """Reference entries of a workload, or [] when none are stored."""
    if not os.path.exists(REFERENCE_PATH):
        return []
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"].get(workload, [])


def _within(value, ref, kind, amount):
    a = np.asarray(value, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        return False
    scale = np.abs(b) if kind == "rel" else 1.0
    return bool(np.all(np.abs(a - b) <= amount * scale))


def reference_problems(task, summary, digests, entry):
    """(problems, changed digests) against a stored reference entry, or
    ([], 0) when the entry is for other inputs."""
    if (entry is None or entry["experiment"] != task.experiment
            or entry["params"] != _plain(task.params)
            or entry["replicas"] != task.replicas or entry["seed"] != task.seed):
        return [], 0
    bad = []
    for key, spec in entry["values"].items():
        kind = "rel" if "rel" in spec else "abs"
        if not _within(summary[key], spec["value"], kind, spec[kind]):
            bad.append(f"{key} differs from reference beyond {kind} {spec[kind]}")
    changed = sum(digests.get(name) != digest
                  for name, digest in entry["digests"].items())
    return bad, changed
