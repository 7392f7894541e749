import warnings

import numpy as np
import pytest

from rfpp import experiments, geometry, rng
from rfpp.fields import (Box, ConstantMetric, FlatMetric, KernelSpec,
                         MetricField, SpherePatchField)
from rfpp.geometry import (GeodesicPath, geodesic_shoot, geodesic_shoot_batch,
                           jacobi_integrate)
from rfpp.distance import build_graph, is_minimizing
from rfpp.experiments import (BumpError, BumpSpec, ExperimentError,
                              bump_experiment, direction_scan,
                              frontier_density, frontier_scan,
                              local_regularity, make_bump)

FLAT = FlatMetric()
CONE_ANGLE = float(np.arccos(0.25))      # cos(phi) = beta/2 with beta = 1/2


def conformal(seed, half_width=14.0, amplitude=0.3):
    return MetricField("conformal", seed=seed, region=Box.cube(half_width, 2),
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


def synthetic_path(points):
    pts = np.asarray(points, dtype=float)
    seg = np.diff(pts, axis=0)
    ls = np.concatenate([[0.0], np.cumsum(np.linalg.norm(seg, axis=1))])
    vel = np.vstack([seg / np.linalg.norm(seg, axis=1, keepdims=True),
                     seg[-1:] / np.linalg.norm(seg[-1])])
    return GeodesicPath(times=ls, positions=pts, velocities=vel,
                        parametrization="euclidean", step=1.0)


# --------------------------------------------------------------- frontier scan

def test_flat_radial_all_frontier():
    path = geodesic_shoot(FLAT, (1e-12, 0.0), np.array([1.0, 0.0]), T=4.0,
                          step=1e-3, parametrization="euclidean")
    scan = frontier_scan(path, FLAT, beta=0.5, rho=0.5, regularity=False)
    assert all(r.is_frontier for r in scan.records)
    assert max(r.cone_angle for r in scan.records) == 0.0
    _, density = frontier_density(path, 0.5)
    assert density[-1] == 1.0


def test_tangential_point_not_frontier():
    path = geodesic_shoot(FLAT, (1.0, 0.0), np.array([0.0, 1.0]), T=0.3,
                          step=1e-3, parametrization="euclidean")
    scan = frontier_scan(path, FLAT, beta=0.3, rho=0.5, regularity=False)
    assert not scan.records[0].is_frontier        # r_dot = 0 < beta


def test_circular_arc_no_frontier():
    ts = np.linspace(0, np.pi, 200)
    pts = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    path = synthetic_path(pts)
    scan = frontier_scan(path, FLAT, beta=0.05, rho=0.5, regularity=False)
    # r constant: radial speed ~ 0 below any positive beta
    assert not any(r.is_frontier for r in scan.records[1:-1])


def test_alternating_radial_tangential_density_half():
    # radial unit segments interleaved with exact circular arcs of unit
    # length: the frontier measure is the radial half, density -> 1/2
    pts = []
    r, theta = 0.5, 0.0
    for k in range(12):
        for s in range(10):                   # radial piece, length 1
            rr = r + s / 10.0
            pts.append([rr * np.cos(theta), rr * np.sin(theta)])
        r += 1.0
        dphi = 1.0 / r                        # arc piece, length 1, radius r
        for s in range(40):
            th = theta + s * dphi / 40.0
            pts.append([r * np.cos(th), r * np.sin(th)])
        theta += dphi
    path = synthetic_path(np.asarray(pts))
    times, density = frontier_density(path, beta=0.5)
    assert abs(density[-1] - 0.5) <= 0.06


def test_frontier_intervals_right_open_runs():
    path = geodesic_shoot(FLAT, (1e-12, 0.0), np.array([1.0, 0.0]), T=2.0,
                          step=1e-2, parametrization="euclidean")
    scan = frontier_scan(path, FLAT, beta=0.5, rho=0.5, regularity=False)
    assert len(scan.intervals) == 1
    lo, hi = scan.intervals[0]
    assert lo == path.times[0] and hi >= path.times[-1]


def test_frontier_cone_bound_implied():
    field = conformal(3)
    path = geodesic_shoot(field, (1e-9, 0.0), np.array([1.0, 0.5]), T=8.0,
                          step=2e-3, parametrization="euclidean")
    beta = 0.4
    scan = frontier_scan(path, field, beta=beta, rho=1.0, regularity=False)
    limit = np.arccos(beta) + 1e-8
    for rec in scan.records:
        if rec.is_frontier:
            assert rec.cone_angle <= limit


def test_frontier_requires_euclidean():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=1.0, step=1e-2)
    with pytest.raises(ExperimentError):
        frontier_scan(path, FLAT, beta=0.5, rho=0.5)


# --------------------------------------------------------------- local regularity

def test_regularity_flat_baseline():
    assert local_regularity(FLAT, (0.0, 0.0), 0.5) == 2.0


def test_regularity_constant_metric():
    field = ConstantMetric(4.0 * np.eye(2))
    assert local_regularity(field, (0.0, 0.0), 0.5) == 4.0 + 0.25


def test_regularity_monotone_under_refinement():
    field = conformal(5)
    vals = [local_regularity(field, (0.3, -0.4), 0.8, subgrid=n)
            for n in (5, 9, 17)]
    assert vals[0] <= vals[1] <= vals[2]


def test_regularity_dominates_flat_floor():
    field = conformal(6, amplitude=0.5)
    est = local_regularity(field, (1.0, 1.0), 0.6)
    val = field.values_batch(np.array([[1.0, 1.0]]))[0]
    lam = np.linalg.eigvalsh(val)
    assert est >= lam.max() + 1.0 / lam.min() - 1e-12


# --------------------------------------------------------------- transience

def late_times(field, graph, path, radius):
    """Times at which a geodesic from the origin is inside the ball of the
    radius later than radius sqrt(Lambda_hat) (the bound direction_scan's
    trapped rule rests on), split into those while is_minimizing accepts
    the segment so far and those after, and the last time inside."""
    bound = radius * np.sqrt(experiments._ball_lambda_max(field, radius))
    cut = is_minimizing(field, path, graph).first_failure_time
    inside = np.linalg.norm(path.positions, axis=1) <= radius
    late = path.times[inside & (path.times > bound)]
    after = late > cut                  # all False when nothing fails (nan)
    return late[~after], late[after], path.times[inside][-1]


def test_transience_flat_radial():
    graph = build_graph(FLAT, Box.cube(6.0, 2), 0.25, 16)
    path = geodesic_shoot_batch(FLAT, np.zeros(2), np.array([[1.0, 0.0]]),
                                5.0, step=1e-3)[0]
    for r in (1.0, 2.0, 4.0):
        while_min, _, last_in = late_times(FLAT, graph, path, r)
        assert abs(last_in - r) <= 1e-3
        assert len(while_min) == 0


def test_transience_sphere_violations_only_after_cut():
    # cap centered at (-1, 0): the geodesic from the origin along (0, 1) is
    # the bounded great circle |x + e1| = 1, re-entering balls repeatedly
    sphere = SpherePatchField(radius=1.0, center=(-1.0, 0.0))
    graph = build_graph(sphere, Box.cube(2.5, 2), 0.05, 32)
    path = geodesic_shoot_batch(sphere, np.zeros(2), np.array([[0.0, 1.0]]),
                                9.0, step=2e-3)[0]
    while_min, after, _ = late_times(sphere, graph, path, 2.0)
    # the proof inequality t <= r sqrt(Lambda) fails only past the cut at pi
    assert len(while_min) == 0
    assert len(after) > 0
    assert after.min() > np.pi


def test_transience_random_minimizing_inequality():
    field = conformal(7)
    graph = build_graph(field, Box.cube(11.0, 2), 0.3, 32)
    dirs = np.stack([np.cos(np.arange(4) * np.pi / 2),
                     np.sin(np.arange(4) * np.pi / 2)], axis=1)
    for path in geodesic_shoot_batch(field, np.zeros(2), dirs, 9.0, step=2e-3):
        for r in (2.0, 4.0, 8.0):
            assert len(late_times(field, graph, path, r)[0]) == 0


# --------------------------------------------------------------- bump metric

def test_bump_spec_validation():
    with pytest.raises(BumpError):
        BumpSpec(center=(0, 0), cone_half_angle=0.1)      # cos phi > 1/2
    with pytest.raises(BumpError):
        BumpSpec(center=(0, 0), cone_half_angle=CONE_ANGLE, glue_width=1e-4)
    spec = BumpSpec(center=(0, 0), cone_half_angle=CONE_ANGLE)
    assert spec.entry_half_angle < spec.cone_half_angle


def test_bump_is_c2_at_glue():
    # value, gradient and Hessian are continuous across the glue boundary:
    # the mismatch across +-delta must shrink linearly with delta
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.25)
    bump = make_bump(spec, FLAT)
    gaps = []
    for delta in (1e-5, 1e-6):
        inner = bump.evaluate_batch(np.array([[0.25 - delta, 0.0]]))
        outer = bump.evaluate_batch(np.array([[0.25 + delta, 0.0]]))
        gaps.append(max(np.max(np.abs(a - b)) for a, b in zip(inner, outer)))
    assert gaps[0] <= 2.0                       # bounded third derivatives
    assert gaps[1] <= 0.2 * gaps[0]             # shrinks ~ linearly
    # at the apex the blend switches off to second order: base metric exactly
    apex = bump.evaluate_batch(np.array([[1e-12, 0.0]]))
    assert abs(apex[0][0, 0, 0] - 1.0) <= 1e-9
    assert np.max(np.abs(apex[2])) <= 1.0       # Hessian stays bounded


def test_bump_axial_conjugate_near_pi():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.2)
    bump = make_bump(spec, FLAT)
    path = geodesic_shoot(bump, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=np.pi + 0.7, step=5e-3)
    rec = jacobi_integrate(bump, path)
    assert rec.conjugate_times
    assert abs(rec.conjugate_times[0] - np.pi) <= 0.05
    # conjugate point sits near the apex antipode through the cap
    spline = path.position_spline()
    assert np.linalg.norm(spline(rec.conjugate_times[0]) - [2.0, 0.0]) <= 0.05


def test_bump_conjugate_scaling_with_curvature():
    for kappa in (1.0, 4.0):
        spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                        cap_curvature=kappa, glue_width=0.2 / np.sqrt(kappa))
        report = bump_experiment(FLAT, spec, eps=0.0, entries=5,
                                 perturbations=1, check_minimizing=False)
        assert report.conjugate_fraction == 1.0
        expected = np.pi / np.sqrt(kappa)
        assert np.all(np.abs(report.conjugate_times - expected)
                      <= 0.05 * expected)


def test_bump_entry_containment_in_cone():
    # geodesics entering within theta stay inside the cone through the cap
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.2)
    bump = make_bump(spec, FLAT)
    theta = spec.entry_half_angle
    angles = np.linspace(-theta, theta, 9)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    from rfpp.geometry import geodesic_shoot_batch
    paths = geodesic_shoot_batch(bump, np.zeros(2), dirs,
                                 T=np.pi + 0.4, step=5e-3)
    recs = jacobi_integrate(bump, paths[0])  # smoke: axial record exists
    for p in paths:
        rec = jacobi_integrate(bump, p)
        assert rec.conjugate_times
        spline = p.position_spline()
        x_star = spline(rec.conjugate_times[0])
        assert spec.contains_cone(x_star[None, :])[0]


def test_bump_sweep_continuity_of_conjugate_times():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.2)
    report = bump_experiment(FLAT, spec, eps=0.0, entries=25,
                             perturbations=1, check_minimizing=False)
    times = report.conjugate_times[:, 0]
    assert report.conjugate_fraction == 1.0
    assert np.max(np.abs(np.diff(times))) <= 0.05


def test_bump_perturbed_fraction_stable():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.2)
    report = bump_experiment(FLAT, spec, eps=0.01, entries=6,
                             perturbations=4, seed=77, check_minimizing=False)
    assert report.conjugate_fraction == 1.0


def test_bump_nonminimizing_after_conjugate():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE,
                    cap_curvature=1.0, glue_width=0.2)
    report = bump_experiment(FLAT, spec, eps=0.0, entries=6,
                             perturbations=1, check_minimizing=True)
    assert report.conjugate_fraction == 1.0
    assert report.nonminimizing_fraction == 1.0


def test_bump_needs_conformal_base():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=CONE_ANGLE)
    sym = MetricField("sym_exp", seed=1, region=Box.cube(8.0, 2),
                      kernel=KernelSpec(range=1.0, amplitude=0.1), shift=1.0)
    with pytest.raises(BumpError):
        make_bump(spec, sym)


# --------------------------------------------------------------- direction scan

def test_scan_flat_all_minimizing():
    graph = build_graph(FLAT, Box.cube(9.0, 2), 0.25, 32)
    scan = direction_scan(FLAT, graph, radii=(2.0, 4.0, 8.0), k=16, step=5e-3)
    assert np.all(scan.fractions == 1.0)
    assert not np.any(scan.trapped)


def test_scan_sphere_cut_all_directions(monkeypatch):
    # from a non-polar base point every great circle cuts at pi; only the
    # through-pole direction exits the chart still minimizing.  The two
    # meridian rows (directions +e1 and -e1) run into the pole, the chart's
    # point at infinity: they end "numerical" at their last finite sample,
    # before anything overflows
    shots = []

    def recorded(*args, **kwargs):
        paths = shoot(*args, **kwargs)
        shots.extend(paths)
        return paths

    shoot = experiments.geodesic_shoot_batch
    monkeypatch.setattr(experiments, "geodesic_shoot_batch", recorded)
    # the scan starts at the origin: the sphere and the graph box are the
    # sphere about the origin and the box [-6, 6]^2 translated by -(1, 0),
    # so the scan runs from the base point (1, 0) of that picture
    sphere = SpherePatchField(radius=1.0, center=(-1.0, 0.0))
    graph = build_graph(sphere, Box((-7.0, -6.0), (5.0, 6.0)), 0.08, 32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = direction_scan(sphere, graph, radii=(0.5, 1.0, 2.5, 4.0), k=8,
                              step=2e-3)
    assert np.all(np.diff(scan.fractions) <= 0)
    assert scan.fractions[-1] <= 2.0 / 8.0
    assert [p.termination for p in shots] == (
        ["numerical"] + ["completed"] * 3 + ["numerical"] + ["completed"] * 3)
    for p in shots:
        assert np.all(np.isfinite(p.positions)) and np.all(np.isfinite(p.velocities))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                and ("overflow" in str(w.message) or "invalid" in str(w.message))]


def test_scan_verdicts_monotone_absorbing():
    field = conformal(10, half_width=13.0, amplitude=0.4)
    graph = build_graph(field, Box.cube(11.0, 2), 0.4, 16)
    scan = direction_scan(field, graph, radii=(2.0, 4.0, 8.0), k=16, step=1e-2)
    diffs = np.diff(scan.verdicts.astype(int), axis=1)
    assert np.all(diffs <= 0)
    assert np.all(np.diff(scan.fractions) <= 0)


def test_scan_row_evaluates_its_speeds_once(monkeypatch):
    # is_minimizing reuses the speeds the shot evaluated for its drift check
    calls = []
    evaluate = geometry.riemannian_speeds

    def counted(f, positions, velocities):
        calls.append(len(positions))
        return evaluate(f, positions, velocities)

    monkeypatch.setattr(geometry, "riemannian_speeds", counted)
    field = conformal(10, half_width=13.0)
    graph = build_graph(field, Box.cube(11.0, 2), 0.5, 16)
    direction_scan(field, graph, radii=(2.0, 4.0), k=4, step=1e-2)
    assert len(calls) == 4


def test_scan_final_directions_unit():
    graph = build_graph(FLAT, Box.cube(5.0, 2), 0.25, 16)
    scan = direction_scan(FLAT, graph, radii=(2.0,), k=8, step=5e-3)
    norms = np.linalg.norm(scan.final_directions, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
