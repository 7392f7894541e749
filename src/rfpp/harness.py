"""Reproducible experiment orchestration.

Every experiment is described by an ExperimentConfig (a plain dict of
parameters plus seed/replica/worker counts), dispatched to the owning module
with per-replica seeds derived deterministically from the master seed (the
SINGLE_RUN experiments run once, on the master seed itself, and refuse
replicas > 1; fpp and lpp key their replicas by index under the master
seed), and written atomically (temp file + rename) together with a
RunManifest that records the config hash, code version, the seeds the run
used, wall time and SHA-256 digests of every output file.

Replica results are reduced in replica order with exact summation
(math.fsum), so aggregated statistics are bit-identical for any worker count
and any completion order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, rng

EXPERIMENTS = ("field-check", "geodesic", "distance", "shape", "frontier",
               "bump", "scan", "fpp", "lpp", "polymer", "accept")
# experiments that run once, on the master seed itself: the three that
# evaluate the field of --seed, and bump, which samples no field
SINGLE_RUN = ("geodesic", "distance", "frontier", "bump")
# experiments whose replicas all draw under the master seed itself: fpp and
# lpp key replica r's bonds by the word r
MASTER_SEEDED = SINGLE_RUN + ("fpp", "lpp")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = dc_field(default_factory=dict)
    seed: int = 1
    replicas: int = 1
    workers: int = 1
    out: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; valid names: "
                + ", ".join(EXPERIMENTS))
        for name in ("seed", "replicas", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.replicas > 1 and self.experiment in SINGLE_RUN:
            raise ConfigError(f"{self.experiment} runs once on the master "
                              f"seed; replicas must be 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def canonical(self):
        return json.dumps(
            {"experiment": self.experiment, "params": self.params,
             "seed": self.seed, "replicas": self.replicas},
            sort_keys=True, separators=(",", ":"))

    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    replica_seeds: list
    wall_time_s: float
    outputs: dict                 # filename -> sha256

    def to_json(self):
        return json.dumps(
            {"config_hash": self.config_hash, "code_version": self.code_version,
             "replica_seeds": self.replica_seeds,
             "wall_time_s": self.wall_time_s, "outputs": self.outputs},
            sort_keys=True, indent=2)


def atomic_write(path, data):
    """Write bytes or text to path via a temp file and rename."""
    mode = "wb" if isinstance(data, bytes) else "w"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rfpp-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def exact_mean(values):
    """Order-independent exact mean (math.fsum)."""
    values = list(values)
    return math.fsum(values) / len(values)


def replica_seeds(master, replicas):
    return [rng.derive_seed(master, r) for r in range(replicas)]


def _run_replicas(task, seeds, workers):
    """Map a picklable task over replica seeds; results return in replica
    order regardless of completion order."""
    if workers <= 1 or len(seeds) <= 1:
        return [task(s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, seeds))


def canonical_json(obj):
    """Deterministic JSON serialization (sorted keys, repr floats)."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"not serializable: {type(o)}")
    return json.dumps(obj, sort_keys=True, indent=2, default=default)


def _replica_csv(column, values):
    """A replica,<column> table with one row per replica, in replica order."""
    return f"replica,{column}\n" + "".join(
        f"{r},{float(v)!r}\n" for r, v in enumerate(values))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _default_field_params(params):
    return {
        "mode": params.get("mode", "conformal"),
        "amplitude": params.get("amplitude", 0.3),
        "range": params.get("range", 1.0),
        "shift": params.get("shift", 1.0),
        "half_width": params.get("half_width", 16.0),
        "spacing": params.get("spacing", None),
    }


def make_field(seed, params):
    from .fields import Box, KernelSpec, MetricField, load_field
    if params.get("load_field"):
        return load_field(params["load_field"])
    p = _default_field_params(params)
    kernel = KernelSpec(range=p["range"], amplitude=p["amplitude"])
    return MetricField(p["mode"], seed=seed, region=Box.cube(p["half_width"], 2),
                       kernel=kernel, shift=p["shift"], spacing=p["spacing"])


def _field_check_replica(args):
    seed, params = args
    from .fields import Box, check_spd_on_region, eigen_bounds
    field = make_field(seed, params)
    hw = min(4.0, _default_field_params(params)["half_width"] / 2)
    ok, lam_floor = check_spd_on_region(field, Box.cube(hw, 2),
                                        grid=params.get("grid", 0.25))
    eb = eigen_bounds(field, (0, 0))
    return {"seed": seed, "spd_ok": bool(ok), "lambda_floor": lam_floor,
            "lambda_min_cube0": eb.lambda_min, "lambda_max_cube0": eb.lambda_max}


def _run_field_check(config):
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_field_check_replica,
                         [(s, config.params) for s in seeds], config.workers)
    accept_rate = exact_mean([1.0 if r["spd_ok"] else 0.0 for r in rows])
    report = {"replicas": rows, "spd_accept_rate": accept_rate}
    return {"field-check.json": canonical_json(report)}


def _run_geodesic(config):
    from .geometry import geodesic_shoot, jacobi_integrate, lengths
    p = config.params
    field = make_field(config.seed, p)
    path = geodesic_shoot(field, p.get("x0", (0.0, 0.0)),
                          np.asarray(p.get("v0", (1.0, 0.0))),
                          T=p.get("T", 5.0), step=p.get("step", 1e-3),
                          parametrization=p.get("parametrization", "riemannian"))
    R, L = lengths(path, field)
    out = {"geodesic.csv": path.csv_text()}
    summary = {"riemannian_length": R, "euclidean_length": L,
               "speed_drift_max": path.speed_drift_max,
               "termination": path.termination, "steps": path.steps,
               "rejected": path.rejected}
    if p.get("jacobi", True) and path.parametrization == "riemannian":
        rec = jacobi_integrate(field, path)
        summary["conjugate_times"] = list(rec.conjugate_times)
    out["geodesic.json"] = canonical_json(summary)
    return out


def _run_distance(config):
    from .distance import build_graph, distance, ball
    from .fields import Box
    p = config.params
    field = make_field(config.seed, p)
    hw = p.get("graph_half_width", 12.0)
    graph = build_graph(field, Box.cube(hw, 2), p.get("h", 0.25),
                        stencil=p.get("stencil", 16))
    target = np.asarray(p.get("target", (10.0, 0.0)))
    d_hat, witness = distance(graph, np.zeros(2), target)
    raster = ball(graph, p.get("ball_radius", hw / 2))
    return {"distance.json": canonical_json(
                {"target": target.tolist(), "d_hat": d_hat,
                 "witness_nodes": len(witness), "stencil_factor": graph.factor}),
            "ball.csv": raster.csv_text()}


def _shape_replica(args):
    seed, params = args
    from .distance import build_graph, directional_mu
    from .fields import Box
    p = dict(params)
    t = p.get("t", 30.0)
    p.setdefault("half_width", t + 3.0)
    field = make_field(seed, p)
    graph = build_graph(field, Box.cube(t + 2.0, 2), p.get("h", 0.3),
                        stencil=p.get("stencil", 32))
    return directional_mu(graph, t, p.get("directions", 16))


def _run_shape(config):
    from .distance import ShapeEstimate
    p = config.params
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_shape_replica, [(s, p) for s in seeds], config.workers)
    est = ShapeEstimate.from_samples(rows, p.get("t", 30.0))
    report = {"t": est.t, "replicas": est.replicas,
              "anisotropy_ratio": est.anisotropy_ratio,
              "mu": est.mu.tolist(), "stderr": est.stderr.tolist()}
    return {"shape.csv": est.csv_text(), "shape.json": canonical_json(report)}


def _run_frontier(config):
    from .experiments import frontier_scan
    from .geometry import geodesic_shoot
    p = config.params
    field = make_field(config.seed, p)
    path = geodesic_shoot(field, (1e-9, 0.0), np.asarray(p.get("v0", (1.0, 0.0))),
                          T=p.get("T", 10.0), step=p.get("step", 2e-3),
                          parametrization="euclidean")
    scan = frontier_scan(path, field, beta=p.get("beta", 0.5), rho=p.get("rho", 1.0))
    return {"frontier.csv": scan.csv_text(),
            "frontier.json": canonical_json(
                {"intervals": scan.intervals,
                 "density_tail": float(scan.density[-1])})}


def _run_bump(config):
    from .experiments import BumpSpec, bump_experiment
    from .fields import FlatMetric
    p = config.params
    spec = BumpSpec(center=tuple(p.get("center", (0.0, 0.0))),
                    cone_half_angle=p.get("cone_half_angle", float(np.arccos(0.25))),
                    cap_curvature=p.get("cap_curvature", 1.0),
                    glue_width=p.get("glue_width", 0.2))
    report = bump_experiment(FlatMetric(2), spec, eps=p.get("eps", 0.0),
                             entries=p.get("entries", 20),
                             perturbations=p.get("perturbations", 1),
                             seed=config.seed,
                             check_minimizing=p.get("check_minimizing", True))
    return {"bump.json": canonical_json(report.as_dict())}


def _scan_replica(args):
    seed, params = args
    from .distance import build_graph
    from .fields import Box
    from .experiments import direction_scan
    p = dict(params)
    radii = p.get("radii", (5.0, 10.0, 20.0, 40.0))
    p.setdefault("half_width", max(radii) * 1.25 + 5.0)
    field = make_field(seed, p)
    graph = build_graph(field, Box.cube(max(radii) * 1.1 + 2.0, 2),
                        p.get("h", 0.4), stencil=p.get("stencil", 16))
    scan = direction_scan(field, graph, radii, k=p.get("directions", 64),
                          step=p.get("step", 1e-2))
    return scan.as_dict()


def _run_scan(config):
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_scan_replica, [(s, config.params) for s in seeds],
                         config.workers)
    return {"scan.json": canonical_json({"replicas": rows})}


def _run_fpp(config):
    from .lattice import LatticeConfig, fpp_passage, exponent_chi
    p = config.params
    law = _law_from_params(p)
    n = p.get("n", 50)
    cfg = LatticeConfig(p.get("dimension", 2), n, law, config.seed)
    target = np.array([n] + [0] * (cfg.dimension - 1))
    taus = [fpp_passage(cfg, target, replica=r).tau
            for r in range(config.replicas)]
    out = {"fpp.csv": _replica_csv("tau", taus)}
    if p.get("exponents", False):
        sizes = tuple(p.get("sizes", (50, 100, 200, 400)))
        est = exponent_chi("fpp", cfg, sizes, replicas=config.replicas)
        out["fpp-chi.json"] = canonical_json(est.as_dict())
    return out


def _run_lpp(config):
    from .lattice import LatticeConfig, lpp_passage, exponent_chi
    p = config.params
    law = _law_from_params(p, default="geometric")
    n = p.get("n", 100)
    cfg = LatticeConfig(2, n, law, config.seed)
    vals = [lpp_passage(cfg, (n, n), replica=r) for r in range(config.replicas)]
    out = {"lpp.csv": _replica_csv("last_passage", vals)}
    if p.get("exponents", False):
        sizes = tuple(p.get("sizes", (125, 250, 500, 1000)))
        est = exponent_chi("lpp", cfg, sizes, replicas=config.replicas)
        out["lpp-chi.json"] = canonical_json(est.as_dict())
    return out


def _run_polymer(config):
    from .lattice import polymer_free_energy
    p = config.params
    n = p.get("n", 100)
    beta = p.get("beta", 1.0)
    rows = []
    for r in range(config.replicas):
        seed_r = rng.derive_seed(config.seed, r)
        res = polymer_free_energy(seed_r, n, beta)
        rows.append(res.free_energy)
    return {"polymer.csv": _replica_csv("free_energy", rows)}


def _law_from_params(p, default="exponential"):
    from .lattice import LAW_DEFAULTS, WeightLaw
    kind = p.get("law", default)
    params = tuple(p.get("law_params", ())) or LAW_DEFAULTS.get(kind, ())
    return WeightLaw(kind, params)


def _run_accept(config):
    from .acceptance import run_suite
    suite = config.params.get("suite", "fast")
    report = run_suite(suite=suite, workers=config.workers)
    return {"acceptance.json": report.to_json()}


# each experiment's runner and the output files it writes; a (name, param)
# pair is written only when that parameter is set
_RUNNERS = {
    "field-check": (_run_field_check, ("field-check.json",)),
    "geodesic": (_run_geodesic, ("geodesic.csv", "geodesic.json")),
    "distance": (_run_distance, ("ball.csv", "distance.json")),
    "shape": (_run_shape, ("shape.csv", "shape.json")),
    "frontier": (_run_frontier, ("frontier.csv", "frontier.json")),
    "bump": (_run_bump, ("bump.json",)),
    "scan": (_run_scan, ("scan.json",)),
    "fpp": (_run_fpp, ("fpp.csv", ("fpp-chi.json", "exponents"))),
    "lpp": (_run_lpp, ("lpp.csv", ("lpp-chi.json", "exponents"))),
    "polymer": (_run_polymer, ("polymer.csv",)),
    "accept": (_run_accept, ("acceptance.json",)),
}


def output_paths(config, force=False):
    """{name: path} of the files ``config``'s run writes, in name order;
    ConfigError if one of them exists already and ``force`` is not set."""
    names = []
    for entry in _RUNNERS[config.experiment][1]:
        name, param = (entry, None) if isinstance(entry, str) else entry
        if param is None or config.params.get(param, False):
            names.append(name)
    paths = {name: os.path.join(config.out, name) for name in sorted(names)}
    clash = [path for path in paths.values() if os.path.exists(path)]
    if clash and not force:
        raise ConfigError(f"output {clash[0]} exists; pass force to overwrite")
    return paths


def run(config, force=False):
    """Execute an experiment config; returns the RunManifest.

    Output files land in config.out.  If any of them exists already, the
    run is refused before anything is computed or written, unless
    force=True, which overwrites.  A manifest.json with the config hash,
    per-replica seeds and output digests is written alongside.
    """
    t0 = time.perf_counter()
    paths = output_paths(config, force)
    outputs = _RUNNERS[config.experiment][0](config)
    if sorted(outputs) != list(paths):
        raise AssertionError(f"{config.experiment} wrote {sorted(outputs)}, "
                             f"not its declared outputs {list(paths)}")
    os.makedirs(config.out, exist_ok=True)
    digests = {}
    for name, path in paths.items():
        atomic_write(path, outputs[name])
        digests[name] = file_digest(path)
    manifest = RunManifest(
        config_hash=config.digest(), code_version=__version__,
        replica_seeds=([config.seed] if config.experiment in MASTER_SEEDED
                       else replica_seeds(config.seed, config.replicas)),
        wall_time_s=time.perf_counter() - t0, outputs=digests)
    atomic_write(os.path.join(config.out, "manifest.json"), manifest.to_json())
    return manifest
