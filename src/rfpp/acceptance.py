"""Acceptance criteria: the exit checks of the laboratory.

Each criterion runs at its stated scale with a fixed master seed and returns
a CriterionResult with a pass flag, measured values, the tolerance it was
judged against, and (for stochastic criteria) a SHA-256 digest of its raw
per-replica outputs.  The reproducibility criterion reruns every stochastic
criterion with a different worker count and demands bit-identical digests,
which simultaneously exercises run-to-run and across-worker determinism.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, rng
from .fields import Box, FlatMetric, KernelSpec, MetricField, SpherePatchField
from .harness import canonical_json, _run_replicas

FAST_CRITERIA = (1, 2, 3, 4, 5, 6, 7)
STOCHASTIC_CRITERIA = (3, 7, 8, 9, 10, 11, 12)

@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    tolerance: str
    details: dict
    runtime_s: float = 0.0
    digest: str = None

    def as_dict(self):
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "runtime_s": self.runtime_s, "tolerance": self.tolerance,
                "digest": self.digest, "details": self.details}


def _sha(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _conformal(seed, amplitude=0.3, half_width=16.0):
    return MetricField("conformal", seed=seed, region=Box.cube(half_width, 2),
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


# -- 1: flat-metric distance -------------------------------------------------

def _c1_flat_distance(workers=1):
    from .distance import build_graph, distance, stencil_factor
    graph = build_graph(FlatMetric(2), Box.cube(10.4, 2), h=0.05, stencil=16)
    d_hat, _ = distance(graph, (0.0, 0.0), (10.0, 0.0))
    ratio = d_hat / 10.0
    passed = 1.0 <= ratio <= 1.03
    return CriterionResult(
        1, "flat-metric distance ratio", passed,
        "d_hat/|x| in [1.0, 1.03] (analytic stencil bound %.5f)"
        % stencil_factor(16),
        {"d_hat": d_hat, "ratio": ratio, "stencil_factor": graph.factor})


# -- 2: round-sphere conjugate point ------------------------------------------

def _c2_sphere_conjugate(workers=1):
    from .geometry import geodesic_shoot, jacobi_integrate
    sphere = SpherePatchField(radius=1.0)
    path = geodesic_shoot(sphere, (1.0, 0.0), np.array([0.0, 1.0]),
                          T=3.3, step=1e-3)
    rec = jacobi_integrate(sphere, path)
    t_star = rec.conjugate_times[0] if rec.conjugate_times else float("nan")
    passed = abs(t_star - np.pi) <= 1e-3
    return CriterionResult(
        2, "round-sphere conjugate time", passed,
        "first conjugate time = pi +- 1e-3",
        {"conjugate_time": t_star, "error": abs(t_star - np.pi)})


# -- 3: geodesic speed conservation -------------------------------------------

def _c3_speed_conservation(workers=1):
    from .fields import FieldStack
    from .geometry import geodesic_shoot_batch
    seeds = [rng.derive_seed(30001, r) for r in range(20)]
    fields = [_conformal(s, half_width=30.0) for s in seeds]
    stack = FieldStack(fields)
    angles = 2.0 * np.pi * rng.uniform(30002, np.arange(20))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    paths = geodesic_shoot_batch(stack, np.zeros(2), dirs, T=10.0, step=1e-3)
    drifts = [p.speed_drift_max for p in paths]
    complete = all(p.termination == "completed" for p in paths)
    passed = bool(max(drifts) <= 1e-5 and complete)
    digest = _sha({"drifts": drifts,
                   "endpoints": [p.positions[-1].tolist() for p in paths]})
    return CriterionResult(
        3, "geodesic speed conservation", passed,
        "max |speed - 1| <= 1e-5 over 20 seeds, T = 10, step 1e-3",
        {"max_drift": max(drifts), "all_completed": complete}, digest=digest)


# -- 4: Christoffel consistency ------------------------------------------------

def _c4_christoffel(workers=1):
    from .geometry import christoffel, christoffel_from_derivatives
    field = _conformal(40001, half_width=8.0)
    pts = 6.0 * rng.uniform(40002, np.arange(200)).reshape(100, 2) - 3.0
    h = 1e-4
    worst = 0.0
    for x in pts:
        gamma = christoffel(field, x)
        grads = np.empty((1, 2, 2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            gp = field.values_batch((x + e)[None, :])[0]
            gm = field.values_batch((x - e)[None, :])[0]
            grads[0, i] = (gp - gm) / (2 * h)
        val = field.values_batch(x[None, :])
        gamma_fd = christoffel_from_derivatives(val, grads)[0]
        worst = max(worst, float(np.max(np.abs(gamma - gamma_fd))))
    passed = worst <= 1e-6
    return CriterionResult(
        4, "Christoffel analytic vs finite differences", passed,
        "max abs difference <= 1e-6 at 100 random points",
        {"max_abs_diff": worst})


# -- 5: exactness of lattice kernels -------------------------------------------

def _enumerate_fpp(cfg, target, replica):
    """Exhaustive DFS over simple paths with branch-and-bound pruning."""
    from .lattice import _bond_weights
    target = tuple(target)
    best = [np.inf]
    start = (0, 0)

    def weight(a, b):
        axis = 0 if b[0] != a[0] else 1
        lo = a if (b[0] > a[0] or b[1] > a[1]) else b
        w = _bond_weights(cfg, replica, axis, np.array([lo], dtype=np.int64))
        return float(w[0])

    lo_box = (min(0, target[0]), min(0, target[1]))
    hi_box = (max(0, target[0]), max(0, target[1]))

    def dfs(node, cost, seen):
        if cost >= best[0]:
            return
        if node == target:
            best[0] = cost
            return
        x, y = node
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not (lo_box[0] <= nxt[0] <= hi_box[0]
                    and lo_box[1] <= nxt[1] <= hi_box[1]):
                continue
            if nxt in seen:
                continue
            dfs(nxt, cost + weight(node, nxt), seen | {nxt})

    dfs(start, 0.0, {start})
    return best[0]


def _enumerate_lpp(cfg, m, n, replica):
    from itertools import combinations
    best = -np.inf
    for rights in combinations(range(m + n), m):
        x = y = 0
        tot = 0.0
        for s in range(m + n):
            if s in rights:
                tot += float(cfg.law.sample(cfg.seed, replica, 0, x, y))
                x += 1
            else:
                tot += float(cfg.law.sample(cfg.seed, replica, 1, x, y))
                y += 1
        best = max(best, tot)
    return best


def _c5_lattice_kernels(workers=1):
    from itertools import product
    from .lattice import (LatticeConfig, exponential_law, fpp_passage,
                          geometric_law, lpp_passage, polymer_free_energy)
    fpp_ok = True
    cfg = LatticeConfig(2, 8, exponential_law(1.0), seed=50001)
    for r in range(5):
        got = fpp_passage(cfg, (4, 4), replica=r, margin=0).tau
        want = _enumerate_fpp(cfg, (4, 4), r)
        fpp_ok &= (got == want)
    lpp_ok = True
    cfgL = LatticeConfig(2, 8, geometric_law(0.5), seed=50002)
    for r in range(5):
        lpp_ok &= (lpp_passage(cfgL, (4, 4), replica=r)
                   == _enumerate_lpp(cfgL, 4, 4, r))
    # polymer Z_2 against the 4-path sum
    poly_err = 0.0
    for r in range(5):
        seed = rng.derive_seed(50003, r)
        beta = 1.25
        res = polymer_free_energy(seed, 2, beta)
        total = 0.0
        for steps in product((-1, 1), repeat=2):
            x = 0
            energy = 0.0
            for j, s in enumerate(steps, start=1):
                x += s
                energy += float(rng.normal(seed, j, x))
            total += 0.25 * np.exp(beta * energy)
        poly_err = max(poly_err, abs(res.log_z - np.log(total)))
    passed = bool(fpp_ok and lpp_ok and poly_err <= 1e-12)
    return CriterionResult(
        5, "lattice kernels against enumeration", passed,
        "FPP and LPP exact on 4x4; polymer log Z_2 within 1e-12",
        {"fpp_exact": fpp_ok, "lpp_exact": lpp_ok, "polymer_err": poly_err})


# -- 6: subadditivity / superadditivity ----------------------------------------

def _c6_additivity(workers=1):
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra
    from .lattice import (LatticeConfig, bond_matrix, exponential_law,
                          geometric_law, lpp_passage)
    cfg = LatticeConfig(2, 24, exponential_law(1.0), seed=60001)
    # one shared environment on a box, several sources
    lo, hi = -12, 12
    side = hi - lo + 1
    mat = bond_matrix(cfg, 0, (lo, lo), (hi, hi))

    def flat(z):
        return (z[..., 0] - lo) * side + (z[..., 1] - lo)

    n_src = 25
    src_pts = (rng.uniform(60002, np.arange(2 * n_src)).reshape(n_src, 2)
               * (hi - lo - 2) + lo + 1).astype(np.int64)
    dist = sp_dijkstra(mat, directed=True, indices=flat(src_pts))
    fpp_viol = 0
    u = rng.uniform(60003, np.arange(3000)).reshape(1000, 3)
    for t in range(1000):
        ia, ib = int(u[t, 0] * n_src), int(u[t, 1] * n_src)
        c = int(u[t, 2] * side * side)
        d_ab = dist[ia, flat(src_pts[ib])]
        d_ac = dist[ia, c]
        d_bc = dist[ib, c]
        if d_ac > d_ab + d_bc:
            fpp_viol += 1
    cfgL = LatticeConfig(2, 60, geometric_law(0.5), seed=60004)
    lpp_viol = 0
    v = rng.uniform(60005, np.arange(4000)).reshape(1000, 4)
    for t in range(1000):
        z = (int(v[t, 0] * 15) + 1, int(v[t, 1] * 15) + 1)
        zz = (z[0] + int(v[t, 2] * 15) + 1, z[1] + int(v[t, 3] * 15) + 1)
        whole = lpp_passage(cfgL, zz)
        first = lpp_passage(cfgL, z)
        second = lpp_passage(cfgL, zz, origin=z)
        if whole < first + second:
            lpp_viol += 1
    passed = fpp_viol == 0 and lpp_viol == 0
    return CriterionResult(
        6, "exact subadditivity and superadditivity", passed,
        "zero violations over 1000 FPP triples and 1000 LPP splits",
        {"fpp_violations": fpp_viol, "lpp_violations": lpp_viol})


# -- 7: LPP chi anchor -----------------------------------------------------------

def _c7_task(args):
    from .lattice import LatticeConfig, geometric_law, lpp_passage
    replica, sizes = args
    cfg = LatticeConfig(2, 10, geometric_law(0.5), seed=70001)
    return [lpp_passage(cfg, (n, n), replica=replica) for n in sizes]


def _c7_lpp_chi(workers=1):
    from .lattice import chi_estimate
    sizes = (125, 250, 500, 1000)
    rows = _run_replicas(_c7_task, [(r, sizes) for r in range(200)], workers)
    arr = np.asarray(rows)
    est = chi_estimate(sizes, arr.T)
    passed = 0.25 <= est.estimate <= 0.42
    digest = _sha({"samples": arr.tolist()})
    return CriterionResult(
        7, "LPP chi anchor (geometric weights)", passed,
        "chi in [0.25, 0.42] at sizes 125..1000, 200 replicas",
        {"chi": est.estimate, "slope_se": 2.0 * est.stderr,
         "r2": est.r_squared, "variances": list(est.statistics)},
        digest=digest)


# -- 8: FPP xi trend and KPZ residual --------------------------------------------

def _c8_task(args):
    from .lattice import (LatticeConfig, exponential_law, untied_fpp_passage,
                          _witness_deviation)
    n, replica = args
    cfg = LatticeConfig(2, n, exponential_law(1.0), seed=80001)
    res = untied_fpp_passage(cfg, np.array([n, 0]), replica, margin=max(10, n // 4))
    return res.tau, _witness_deviation(res.witness, n)


def _c8_fpp_xi(workers=1):
    from .lattice import kpz_report
    sizes = (50, 100, 200, 400)
    replicas = 100
    tasks = [(n, r) for n in sizes for r in range(replicas)]
    rows = _run_replicas(_c8_task, tasks, workers)
    taus = np.asarray([t for t, _ in rows]).reshape(len(sizes), replicas)
    devs = np.asarray([d for _, d in rows]).reshape(len(sizes), replicas)
    report = kpz_report(sizes, taus, devs)
    xi = report.xi.estimate
    mean_dev = list(report.xi.statistics)
    increasing = bool(np.all(np.diff(mean_dev) > 0))
    passed = (0.5 <= xi <= 0.8) and increasing and report.kpz_consistent
    digest = _sha({"taus": taus.tolist(), "devs": devs.tolist()})
    return CriterionResult(
        8, "FPP xi trend and KPZ residual", passed,
        "xi in [0.5, 0.8]; mean d_n strictly increasing; "
        "|chi - (2 xi - 1)| <= 2 sigma",
        {"xi": xi, "xi_r2": report.xi.r_squared, "chi": report.chi.estimate,
         "mean_dev": mean_dev, "kpz_residual": report.kpz_residual,
         "residual_tol": report.residual_tol, "increasing": increasing},
        digest=digest)


# -- 9: shape isotropy ------------------------------------------------------------

def _c9_task(args):
    seed, t, k = args
    from .distance import build_graph, directional_mu
    field = _conformal(seed, half_width=t + 3.0)
    graph = build_graph(field, Box.cube(t + 2.0, 2), h=0.3, stencil=32)
    return directional_mu(graph, t, k)


def _c9_shape_isotropy(workers=1):
    from .distance import ShapeEstimate
    t, k, n_seeds = 30.0, 16, 20
    seeds = [rng.derive_seed(90001, r) for r in range(n_seeds)]
    rows = _run_replicas(_c9_task, [(s, t, k) for s in seeds], workers)
    est = ShapeEstimate.from_samples(rows, t)
    passed = est.anisotropy_ratio <= 1.05
    digest = _sha({"mu_rows": np.asarray(rows).tolist()})
    return CriterionResult(
        9, "shape isotropy", passed,
        "max/min directional mu ratio <= 1.05 (t = 30, 16 dirs, 20 seeds)",
        {"ratio": est.anisotropy_ratio, "mu": est.mu.tolist()}, digest=digest)


# -- 10: bump destabilization -------------------------------------------------------

def _c10_bump(workers=1):
    from .experiments import BumpSpec, bump_experiment
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=float(np.arccos(0.25)),
                    cap_curvature=1.0, glue_width=0.2)
    sweep = bump_experiment(FlatMetric(2), spec, eps=0.0, entries=50,
                            perturbations=1, seed=100001,
                            check_minimizing=False)
    perturbed = bump_experiment(FlatMetric(2), spec, eps=0.01, entries=20,
                                perturbations=20, seed=100002,
                                check_minimizing=False)
    passed = sweep.conjugate_fraction == 1.0 and perturbed.conjugate_fraction == 1.0
    digest = _sha({"sweep": sweep.conjugate_times.tolist(),
                   "perturbed": perturbed.conjugate_times.tolist()})
    return CriterionResult(
        10, "bump-induced conjugate points", passed,
        "conjugate fraction = 1 for eps = 0 (50 entries) and "
        "eps = 0.01 kappa (20 x 20 grid)",
        {"sweep_fraction": sweep.conjugate_fraction,
         "perturbed_fraction": perturbed.conjugate_fraction,
         "sweep_time_spread": float(np.ptp(sweep.conjugate_times))},
        digest=digest)


# -- 11: frontier machinery ----------------------------------------------------------

def _c11_task(args):
    seed, = args
    from .distance import build_graph, is_minimizing, length_ratio
    from .experiments import frontier_density
    from .geometry import geodesic_shoot
    field = _conformal(seed, half_width=17.0)
    graph = build_graph(field, Box.cube(14.0, 2), h=0.3, stencil=32)
    angle = float(2 * np.pi * rng.uniform(seed, 777))
    v0 = np.array([np.cos(angle), np.sin(angle)])
    path = geodesic_shoot(field, (1e-9, 0.0), v0, T=12.0, step=2e-3,
                          parametrization="euclidean")
    verdict = is_minimizing(field, path, graph)
    if np.isnan(verdict.first_failure_time):
        end = path.times[-1]
    else:
        end = verdict.first_failure_time
    ratios = [length_ratio(field, graph, 10.0 * np.array(
        [np.cos(a), np.sin(a)])) for a in np.arange(8) * (np.pi / 4)]
    d_hat = max(max(ratios), 1.0 + 1e-9)
    beta = 1.0 / (2.0 * d_hat)
    times, density = frontier_density(path, beta)
    mask = (times >= 1.0) & (times <= end)
    floor = 1.0 / (2.0 * d_hat - 1.0)
    ok = bool(np.all(density[mask] >= floor))
    return {"seed": seed, "ok": ok, "d_hat": d_hat,
            "min_density": float(np.min(density[mask])) if np.any(mask) else 1.0,
            "floor": floor, "segment_end": float(end)}


def _c11_frontier(workers=1):
    from .experiments import frontier_scan
    from .geometry import geodesic_shoot
    flat = FlatMetric(2)
    radial = geodesic_shoot(flat, (1e-12, 0.0), np.array([1.0, 0.0]),
                            T=5.0, step=1e-3, parametrization="euclidean")
    scan = frontier_scan(radial, flat, beta=0.5, rho=0.5, regularity=False)
    flags = [r.is_frontier for r in scan.records]
    angles = [r.cone_angle for r in scan.records]
    flat_ok = bool(all(flags) and max(angles) == 0.0 and scan.density[-1] == 1.0)
    seeds = [(rng.derive_seed(110001, r),) for r in range(10)]
    rows = _run_replicas(_c11_task, seeds, workers)
    random_ok = all(r["ok"] for r in rows)
    passed = bool(flat_ok and random_ok)
    digest = _sha({"rows": rows})
    return CriterionResult(
        11, "frontier density machinery", passed,
        "flat radial: density 1 and cone angle 0 exactly; random minimizing "
        "segments: density >= 1/(2 D - 1) past one correlation length",
        {"flat_ok": flat_ok, "seeds_ok": random_ok, "rows": rows},
        digest=digest)


# -- 12: direction-scan trend ----------------------------------------------------------

# amplitude for the scan-trend criterion: strong enough that directions keep
# dropping out across radii 5..40, weak enough that the fractions do not
# collapse to zero before the last radius
SCAN_AMPLITUDE = 0.1


def _c12_task(args):
    seed, = args
    from .distance import build_graph
    from .experiments import direction_scan
    field = MetricField("conformal", seed=seed, region=Box.cube(47.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=SCAN_AMPLITUDE))
    graph = build_graph(field, Box.cube(44.0, 2), h=0.5, stencil=16)
    scan = direction_scan(field, graph, radii=(5.0, 10.0, 20.0, 40.0),
                          k=64, step=2e-2)
    return scan.fractions.tolist()


def _c12_scan_trend(workers=1):
    seeds = [(rng.derive_seed(120001, r),) for r in range(10)]
    rows = _run_replicas(_c12_task, seeds, workers)
    arr = np.asarray(rows)
    non_increasing = bool(np.all(np.diff(arr, axis=1) <= 0))
    strict = int(np.sum(np.all(np.diff(arr, axis=1) < 0, axis=1)))
    passed = non_increasing and strict >= 8
    digest = _sha({"fractions": arr.tolist()})
    return CriterionResult(
        12, "minimizing-direction scan trend", passed,
        "fractions non-increasing for all 10 seeds; strictly decreasing "
        "for >= 8 of 10",
        {"fractions": arr.tolist(), "strictly_decreasing_seeds": strict},
        digest=digest)


# -- 13: reproducibility ------------------------------------------------------------------

def _c13_reproducibility(results, workers_pair=(1, 8)):
    """Rerun each stochastic criterion with the alternate worker count and
    compare digests; the primary suite run provides the first sample."""
    checked = {}
    passed = True
    for cid in STOCHASTIC_CRITERIA:
        if cid not in results:
            continue
        rerun = _CRITERIA[cid][1](workers=workers_pair[1])
        same = rerun.digest == results[cid].digest
        checked[str(cid)] = {"digest_first": results[cid].digest,
                             "digest_second": rerun.digest, "identical": same}
        passed &= same
    return CriterionResult(
        13, "bit reproducibility across runs and worker counts", bool(passed),
        "identical output digests across two runs with worker counts "
        f"{workers_pair[0]} and {workers_pair[1]}",
        {"criteria": checked})


_CRITERIA = {
    1: ("flat-metric distance ratio", _c1_flat_distance),
    2: ("round-sphere conjugate time", _c2_sphere_conjugate),
    3: ("geodesic speed conservation", _c3_speed_conservation),
    4: ("Christoffel consistency", _c4_christoffel),
    5: ("lattice kernels against enumeration", _c5_lattice_kernels),
    6: ("exact subadditivity/superadditivity", _c6_additivity),
    7: ("LPP chi anchor", _c7_lpp_chi),
    8: ("FPP xi trend and KPZ residual", _c8_fpp_xi),
    9: ("shape isotropy", _c9_shape_isotropy),
    10: ("bump destabilization", _c10_bump),
    11: ("frontier machinery", _c11_frontier),
    12: ("direction scan trend", _c12_scan_trend),
}


def run_criterion(cid, workers=1):
    name, fn = _CRITERIA[cid]
    t0 = time.perf_counter()
    res = fn(workers=workers)
    res.runtime_s = time.perf_counter() - t0
    return res


@dataclass
class SuiteReport:
    suite: str
    results: list = dc_field(default_factory=list)

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        return canonical_json({
            "suite": self.suite, "code_version": __version__,
            "all_passed": self.all_passed,
            "criteria": [r.as_dict() for r in self.results]})


def run_suite(suite="full", workers=1, echo=True):
    """Run the acceptance criteria; 'fast' runs the sub-minute subset.

    Prints one pass/fail line per criterion and returns a SuiteReport.
    """
    if suite not in ("fast", "full"):
        raise ValueError("suite must be fast or full")
    cids = FAST_CRITERIA if suite == "fast" else tuple(range(1, 13))
    report = SuiteReport(suite=suite)
    results = {}
    for cid in cids:
        res = run_criterion(cid, workers=workers)
        results[cid] = res
        report.results.append(res)
        if echo:
            print(f"[{'PASS' if res.passed else 'FAIL'}] criterion {cid:2d}: "
                  f"{res.name} ({res.runtime_s:.1f}s)", flush=True)
    t0 = time.perf_counter()
    res13 = _c13_reproducibility(results, workers_pair=(workers, 8))
    res13.runtime_s = time.perf_counter() - t0
    report.results.append(res13)
    if echo:
        print(f"[{'PASS' if res13.passed else 'FAIL'}] criterion 13: "
              f"{res13.name} ({res13.runtime_s:.1f}s)", flush=True)
    return report
