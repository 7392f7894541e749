"""Reproducible experiment orchestration.

Every experiment is one record of the EXPERIMENTS table: its runner, the
output files it writes, how its replicas are seeded and every parameter it
reads, with its default.  An ExperimentConfig (a plain dict of parameters
plus seed/replica/worker counts) naming a parameter its record does not
declare is refused with a ConfigError before anything runs.  The runner
reads the declared defaults merged under the given parameters.  Seeding is
"master" (the run happens once, on the master seed itself, and refuses
replicas > 1), "keyed" (every replica draws under the master seed, keyed by
its index), "derived" (replica r draws from derive_seed(seed, r)) or "fixed"
(the run happens once on seeds of its own, reads no seed, records none and
refuses replicas > 1).
Outputs are written atomically (temp file + rename) together with a
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
import numbers
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, rng


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
        spec = EXPERIMENTS[self.experiment]
        unknown = [key for key in self.params if key not in spec.params]
        if unknown:
            raise ConfigError(
                f"{self.experiment} does not read "
                f"{', '.join(map(repr, unknown))}; its parameters are: "
                + ", ".join(sorted(spec.params)))
        for name in ("seed", "replicas", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.replicas > 1 and spec.seeding in ("master", "fixed"):
            source = {"master": "the master seed",
                      "fixed": "its own fixed seeds"}[spec.seeding]
            raise ConfigError(f"{self.experiment} runs once on {source}; "
                              f"replicas must be 1")
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
    """Write bytes to path via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rfpp-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    # imported here: only runs with workers > 1 use a pool, and every rfpp
    # process would pay for the import
    from concurrent.futures import ProcessPoolExecutor
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

# the parameters make_field reads, with their defaults
FIELD_PARAMS = {"mode": "conformal", "amplitude": 0.3, "range": 1.0,
                "shift": 1.0, "half_width": 16.0, "spacing": None}
# a run on the one field of the master seed can load that field instead, or
# save it; a run that draws a field per replica cannot
SEED_FIELD_PARAMS = {**FIELD_PARAMS, "load_field": None, "save_field": None}


def make_field(seed, params):
    """The sampled field of ``seed``, FIELD_PARAMS merged under ``params``
    (other keys of ``params`` are not read)."""
    from .fields import Box, KernelSpec, MetricField
    p = {**FIELD_PARAMS, **params}
    kernel = KernelSpec(range=p["range"], amplitude=p["amplitude"])
    return MetricField(p["mode"], seed=seed, region=Box.cube(p["half_width"], 2),
                       kernel=kernel, shift=p["shift"], spacing=p["spacing"])


def _seed_field(seed, p):
    """The field a master-seeded run evaluates: the container p["load_field"]
    names, else the field of ``seed``; written to p["save_field"] when set."""
    from .fields import load_field, save_field
    field = load_field(p["load_field"]) if p["load_field"] else make_field(seed, p)
    if p["save_field"]:
        os.makedirs(os.path.dirname(os.path.abspath(p["save_field"])), exist_ok=True)
        save_field(field, p["save_field"])
    return field


def _finite_real(value):
    """Whether value is a finite real number; a bool is none here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_positive(name, value):
    if not (_finite_real(value) and value > 0):
        raise ConfigError(f"{name} must be a finite real number > 0, "
                          f"not {value!r}")


def _check_point(name, value):
    """ConfigError unless value is a point of the plane: two finite reals."""
    try:
        ok = len(value) == 2 and all(map(_finite_real, value))
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a point of the plane, not {value!r}")


def _check_graph_box(what, graph_hw, field_hw):
    """Refuse a graph box [-graph_hw, graph_hw]^2 that the field to be drawn,
    on [-field_hw, field_hw]^2, does not cover; ``what`` names graph_hw."""
    if graph_hw > field_hw:
        raise ConfigError(f"{what} = {graph_hw:g} exceeds the field's "
                          f"half_width {field_hw:g}")


def _field_check_replica(args):
    seed, params = args
    from .fields import Box, check_spd_on_region, eigen_bounds
    p = {**EXPERIMENTS["field-check"].params, **params}
    field = make_field(seed, p)
    ok, lam_floor = check_spd_on_region(
        field, Box.cube(min(4.0, p["half_width"] / 2), 2), grid=p["grid"])
    eb = eigen_bounds(field, (0, 0))
    return {"seed": seed, "spd_ok": bool(ok), "lambda_floor": lam_floor,
            "lambda_min_cube0": eb.lambda_min, "lambda_max_cube0": eb.lambda_max}


def _run_field_check(config, p):
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_field_check_replica, [(s, p) for s in seeds],
                         config.workers)
    accept_rate = exact_mean([1.0 if r["spd_ok"] else 0.0 for r in rows])
    report = {"replicas": rows, "spd_accept_rate": accept_rate}
    return {"field-check.json": canonical_json(report)}


def _run_geodesic(config, p):
    from .geometry import geodesic_shoot, jacobi_integrate, lengths
    # refused before the field is drawn
    _check_positive("T", p["T"])
    _check_positive("step", p["step"])
    _check_point("x0", p["x0"])
    _check_point("v0", p["v0"])
    if not isinstance(p["jacobi"], bool):
        raise ConfigError(f"jacobi must be a bool, not {p['jacobi']!r}")
    if p["parametrization"] not in ("riemannian", "euclidean"):
        raise ConfigError("parametrization must be 'riemannian' or "
                          f"'euclidean', not {p['parametrization']!r}")
    field = _seed_field(config.seed, p)
    path = geodesic_shoot(field, p["x0"], np.asarray(p["v0"]), T=p["T"],
                          step=p["step"], parametrization=p["parametrization"])
    R, L = lengths(path, field)
    out = {"geodesic.csv": path.csv_text()}
    summary = {"riemannian_length": R, "euclidean_length": L,
               "speed_drift_max": path.speed_drift_max,
               "termination": path.termination, "steps": path.steps,
               "rejected": path.rejected}
    if p["jacobi"] and path.parametrization == "riemannian":
        rec = jacobi_integrate(field, path)
        summary["conjugate_times"] = list(rec.conjugate_times)
    out["geodesic.json"] = canonical_json(summary)
    return out


def _run_distance(config, p):
    from .distance import build_graph, distance, ball, stencil_offsets
    from .fields import Box
    hw = p["graph_half_width"]
    # refused before the field is drawn: a target outside the box would be
    # clipped to its edge, and a bad stencil or a box outside the field
    # would fail after the draw
    _check_point("target", p["target"])
    target = np.asarray(p["target"])
    if not np.all(np.abs(target) <= hw):
        raise ConfigError(f"target {target.tolist()} lies outside the graph box "
                          f"[-{hw}, {hw}]^2")
    stencil_offsets(p["stencil"])
    if not p["load_field"]:
        _check_graph_box("graph_half_width", hw, p["half_width"])
    field = _seed_field(config.seed, p)
    graph = build_graph(field, Box.cube(hw, 2), p["h"], stencil=p["stencil"])
    d_hat, witness = distance(graph, np.zeros(2), target)
    raster = ball(graph, hw / 2 if p["ball_radius"] is None else p["ball_radius"])
    return {"distance.json": canonical_json(
                {"target": target.tolist(), "d_hat": d_hat,
                 "witness_nodes": len(witness), "stencil_factor": graph.factor}),
            "ball.csv": raster.csv_text()}


def _shape_replica(args):
    seed, params = args
    from .distance import build_graph, directional_mu
    from .fields import Box
    p = {**EXPERIMENTS["shape"].params, **params}
    t = p["t"]
    if p["half_width"] is None:
        p["half_width"] = t + 3.0
    field = make_field(seed, p)
    graph = build_graph(field, Box.cube(t + 2.0, 2), p["h"], stencil=p["stencil"])
    return directional_mu(graph, t, p["directions"])


def _run_shape(config, p):
    from .distance import ShapeEstimate, stencil_offsets
    # a bad stencil or a graph box outside the field fails before any draw
    stencil_offsets(p["stencil"])
    if p["half_width"] is not None:
        _check_graph_box("graph half-width t + 2", p["t"] + 2.0,
                         p["half_width"])
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_shape_replica, [(s, p) for s in seeds], config.workers)
    est = ShapeEstimate.from_samples(rows, p["t"])
    report = {"t": est.t, "replicas": est.replicas,
              "anisotropy_ratio": est.anisotropy_ratio,
              "mu": est.mu.tolist(), "stderr": est.stderr.tolist()}
    return {"shape.csv": est.csv_text(), "shape.json": canonical_json(report)}


def _run_frontier(config, p):
    from .experiments import frontier_scan
    from .geometry import geodesic_shoot
    # refused before the field is drawn
    _check_positive("T", p["T"])
    _check_positive("step", p["step"])
    _check_point("v0", p["v0"])
    field = _seed_field(config.seed, p)
    path = geodesic_shoot(field, (1e-9, 0.0), np.asarray(p["v0"]), T=p["T"],
                          step=p["step"], parametrization="euclidean")
    scan = frontier_scan(path, field, beta=p["beta"], rho=p["rho"])
    return {"frontier.csv": scan.csv_text(),
            "frontier.json": canonical_json(
                {"intervals": scan.intervals,
                 "density_tail": float(scan.density[-1])})}


def _run_bump(config, p):
    from .experiments import BumpSpec, bump_experiment
    from .fields import FlatMetric
    spec = BumpSpec(center=tuple(p["center"]),
                    cone_half_angle=p["cone_half_angle"],
                    cap_curvature=p["cap_curvature"], glue_width=p["glue_width"])
    report = bump_experiment(FlatMetric(2), spec, eps=p["eps"],
                             entries=p["entries"],
                             perturbations=p["perturbations"], seed=config.seed,
                             check_minimizing=p["check_minimizing"])
    return {"bump.json": canonical_json(report.as_dict())}


def _scan_replica(args):
    seed, params = args
    from .distance import build_graph
    from .fields import Box
    from .experiments import direction_scan
    p = {**EXPERIMENTS["scan"].params, **params}
    radii = p["radii"]
    if p["half_width"] is None:
        p["half_width"] = max(radii) * 1.25 + 5.0
    field = make_field(seed, p)
    graph = build_graph(field, Box.cube(max(radii) * 1.1 + 2.0, 2),
                        p["h"], stencil=p["stencil"])
    scan = direction_scan(field, graph, radii, k=p["directions"], step=p["step"])
    return scan.as_dict()


def _run_scan(config, p):
    from .distance import stencil_offsets
    # a bad stencil or a graph box outside the field fails before any draw
    stencil_offsets(p["stencil"])
    if p["half_width"] is not None:
        _check_graph_box("graph half-width 1.1 max(radii) + 2",
                         max(p["radii"]) * 1.1 + 2.0, p["half_width"])
    seeds = replica_seeds(config.seed, config.replicas)
    rows = _run_replicas(_scan_replica, [(s, p) for s in seeds], config.workers)
    return {"scan.json": canonical_json({"replicas": rows})}


def _run_fpp(config, p):
    from .lattice import LatticeConfig, fpp_passage
    n = p["n"]
    cfg = LatticeConfig(p["dimension"], n, _law_from_params(p), config.seed)
    # the estimate first: exponent_chi checks its sizes, replica count and
    # law before it draws, so a bad one is refused before any replica runs
    out = _exponent_output("fpp", cfg, p, config.replicas)
    target = np.array([n] + [0] * (cfg.dimension - 1))
    taus = [fpp_passage(cfg, target, replica=r).tau
            for r in range(config.replicas)]
    out["fpp.csv"] = _replica_csv("tau", taus)
    return out


def _run_lpp(config, p):
    from .lattice import LatticeConfig, lpp_passage
    n = p["n"]
    cfg = LatticeConfig(2, n, _law_from_params(p), config.seed)
    out = _exponent_output("lpp", cfg, p, config.replicas)
    vals = [lpp_passage(cfg, (n, n), replica=r) for r in range(config.replicas)]
    out["lpp.csv"] = _replica_csv("last_passage", vals)
    return out


def _exponent_output(model, cfg, p, replicas):
    """{"<model>-chi.json": exponent_chi's estimate} when p["exponents"] is
    set, else {}."""
    if not p["exponents"]:
        return {}
    from .lattice import exponent_chi
    est = exponent_chi(model, cfg, tuple(p["sizes"]), replicas=replicas)
    return {f"{model}-chi.json": canonical_json(est.as_dict())}


def _run_polymer(config, p):
    from .lattice import polymer_free_energy
    rows = [polymer_free_energy(seed, p["n"], p["beta"]).free_energy
            for seed in replica_seeds(config.seed, config.replicas)]
    return {"polymer.csv": _replica_csv("free_energy", rows)}


def _law_from_params(p):
    from .lattice import LAW_DEFAULTS, WeightLaw
    kind, params = p["law"], p["law_params"]
    if not isinstance(params, (list, tuple)):
        raise ConfigError(f"law_params must be a list, not {params!r}")
    return WeightLaw(kind, tuple(params) or LAW_DEFAULTS.get(kind, ()))


def _run_accept(config, p):
    from .acceptance import run_suite
    report = run_suite(suite=p["suite"], workers=config.workers)
    return {"acceptance.json": report.to_json()}


@dataclass(frozen=True)
class Experiment:
    """One experiment.  ``runner(config, p)`` reads the merged parameters p
    and returns {output name: text}; ``outputs`` names the files it writes, a
    (name, param) pair being written only when that parameter is set;
    ``seeding`` is "master", "keyed", "derived" or "fixed" (see the module
    docstring); ``params`` maps every parameter the runner reads to its
    default, None where the runner works the default out from the others."""
    runner: object
    outputs: tuple
    seeding: str
    params: dict


EXPERIMENTS = {
    "field-check": Experiment(
        _run_field_check, ("field-check.json",), "derived",
        {**FIELD_PARAMS, "grid": 0.25}),
    "geodesic": Experiment(
        _run_geodesic, ("geodesic.csv", "geodesic.json"), "master",
        {**SEED_FIELD_PARAMS, "x0": (0.0, 0.0), "v0": (1.0, 0.0), "T": 5.0,
         "step": 1e-3, "parametrization": "riemannian", "jacobi": True}),
    "distance": Experiment(
        _run_distance, ("ball.csv", "distance.json"), "master",
        {**SEED_FIELD_PARAMS, "graph_half_width": 12.0, "h": 0.25,
         "stencil": 16, "target": (10.0, 0.0), "ball_radius": None}),
    "shape": Experiment(
        _run_shape, ("shape.csv", "shape.json"), "derived",
        {**FIELD_PARAMS, "half_width": None, "t": 30.0, "h": 0.3,
         "stencil": 32, "directions": 16}),
    "frontier": Experiment(
        _run_frontier, ("frontier.csv", "frontier.json"), "master",
        {**SEED_FIELD_PARAMS, "v0": (1.0, 0.0), "T": 10.0, "step": 2e-3,
         "beta": 0.5, "rho": 1.0}),
    "bump": Experiment(
        _run_bump, ("bump.json",), "master",
        {"center": (0.0, 0.0), "cone_half_angle": float(np.arccos(0.25)),
         "cap_curvature": 1.0, "glue_width": 0.2, "eps": 0.0, "entries": 20,
         "perturbations": 1, "check_minimizing": True}),
    "scan": Experiment(
        _run_scan, ("scan.json",), "derived",
        {**FIELD_PARAMS, "half_width": None, "radii": (5.0, 10.0, 20.0, 40.0),
         "h": 0.4, "stencil": 16, "directions": 64, "step": 1e-2}),
    "fpp": Experiment(
        _run_fpp, ("fpp.csv", ("fpp-chi.json", "exponents")), "keyed",
        {"law": "exponential", "law_params": (), "n": 50, "dimension": 2,
         "exponents": False, "sizes": (50, 100, 200, 400)}),
    "lpp": Experiment(
        _run_lpp, ("lpp.csv", ("lpp-chi.json", "exponents")), "keyed",
        {"law": "geometric", "law_params": (), "n": 100, "exponents": False,
         "sizes": (125, 250, 500, 1000)}),
    "polymer": Experiment(
        _run_polymer, ("polymer.csv",), "derived", {"n": 100, "beta": 1.0}),
    "accept": Experiment(
        _run_accept, ("acceptance.json",), "fixed", {"suite": "fast"}),
}


def output_paths(config, force=False):
    """{name: path} of the files ``config``'s run writes, in name order;
    ConfigError if one of them exists already and ``force`` is not set."""
    names = []
    for entry in EXPERIMENTS[config.experiment].outputs:
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
    spec = EXPERIMENTS[config.experiment]
    outputs = spec.runner(config, {**spec.params, **config.params})
    if sorted(outputs) != list(paths):
        raise AssertionError(f"{config.experiment} wrote {sorted(outputs)}, "
                             f"not its declared outputs {list(paths)}")
    os.makedirs(config.out, exist_ok=True)
    digests = {}
    for name, path in paths.items():
        data = outputs[name].encode()
        atomic_write(path, data)
        digests[name] = hashlib.sha256(data).hexdigest()
    if spec.seeding == "derived":
        seeds = replica_seeds(config.seed, config.replicas)
    else:
        seeds = [] if spec.seeding == "fixed" else [config.seed]
    manifest = RunManifest(
        config_hash=config.digest(), code_version=__version__,
        replica_seeds=seeds,
        wall_time_s=time.perf_counter() - t0, outputs=digests)
    atomic_write(os.path.join(config.out, "manifest.json"),
                 manifest.to_json().encode())
    return manifest
