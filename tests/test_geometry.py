import dataclasses
import hashlib

import numpy as np
import pytest

from rfpp import geometry, rng
from rfpp.experiments import BumpSpec, PerturbedConformalField, make_bump
from rfpp.fields import (Box, ConformalAnalyticField, ConstantMetric,
                         FieldStack, FlatMetric, HyperbolicDiskField,
                         KernelSpec, MetricField, RegionError,
                         SpherePatchField)
from rfpp.geometry import (GeodesicPath, GeometryError, _geodesic_rhs,
                           christoffel, christoffel_from_derivatives,
                           cumulative_lengths, curvature_at, geodesic_shoot,
                           geodesic_shoot_batch, jacobi_integrate,
                           jacobi_integrate_batch, lengths, reparametrize,
                           riemannian_speeds)

FLAT = FlatMetric()
SPHERE = SpherePatchField(radius=1.0)


def conformal(seed, half_width=16.0, amplitude=0.3):
    return MetricField("conformal", seed=seed, region=Box.cube(half_width, 2),
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


def same_bits(a, b):
    """Equal shape and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------- christoffel

def test_christoffel_flat_zero():
    gamma = christoffel(FLAT, np.array([1.0, 2.0]))
    assert np.all(gamma == 0.0)


def test_christoffel_constant_diagonal_zero():
    field = ConstantMetric(np.diag([2.0, 3.0]))
    gamma = christoffel(field, np.array([0.5, -0.5]))
    assert np.all(gamma == 0.0)


def test_christoffel_conformal_closed_form():
    field = conformal(3, half_width=6.0)
    pts = 8.0 * rng.uniform(42, np.arange(200)).reshape(100, 2) - 4.0
    worst = 0.0
    for x in pts:
        val, grad, _ = field.evaluate_batch(x[None, :], order=1)
        dphi = grad[0, :, 0, 0] / (2.0 * val[0, 0, 0])
        gamma = christoffel(field, x)
        closed = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    closed[k, i, j] = ((k == i) * dphi[j] + (k == j) * dphi[i]
                                       - (i == j) * dphi[k])
        worst = max(worst, float(np.max(np.abs(gamma - closed))))
    assert worst <= 1e-10


def test_christoffel_lower_symmetry_exact():
    field = MetricField("sym_exp", seed=5, region=Box.cube(4.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.2), shift=2.0)
    gamma = christoffel(field, np.array([0.3, 0.7]))
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


# ------------------------------------------------------------- shooting

def test_flat_geodesic_straight_line():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=5.0, step=1e-3)
    assert abs(path.positions[-1][0] - 5.0) <= 1e-12
    assert abs(path.positions[-1][1]) <= 1e-12
    assert path.speed_drift_max <= 1e-12


def test_sphere_radial_escape_monotone():
    # shot from the chart origin: |gamma| grows monotonically toward the
    # antipode image and the Riemannian speed holds to 1e-6
    path = geodesic_shoot(SPHERE, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=3.0, step=1e-3)
    r = np.linalg.norm(path.positions, axis=1)
    assert np.all(np.diff(r) > 0)
    assert r[-1] > 10.0       # tan(1.5) ~ 14: far out before time pi
    assert path.speed_drift_max <= 1e-6


def test_sphere_radial_closed_form():
    # from the chart origin the unit sphere's geodesic along e1 is the
    # meridian, |gamma(t)| = tan(t / 2); the samples between step ends come
    # from the Hermite interpolant
    path = geodesic_shoot(SPHERE, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=2.5, step=1e-3)
    r = np.linalg.norm(path.positions, axis=1)
    assert path.termination == "completed"
    assert np.max(np.abs(r - np.tan(path.times / 2.0))) <= 1e-9
    assert np.max(np.abs(path.positions[:, 1])) == 0.0


def test_field_calls_per_shot():
    # error-controlled steps several sample spacings long: at most 2000
    # right-hand-side field calls for 1500 samples (classical RK4 at the
    # sample spacing made 6000)
    field = conformal(12345)
    calls = []
    exponent = field.conformal_exponent_batch

    def counted(X, order=2):
        calls.append(len(X))
        return exponent(X, order=order)

    field.conformal_exponent_batch = counted
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.0]), T=1.5,
                          step=1e-3)
    assert path.termination == "completed" and len(path.times) == 1501
    assert len(calls) == 6 * (path.steps + path.rejected) + 1
    assert len(calls) <= 2000


def test_richardson_convergence_order():
    field = conformal(11)
    ref = geodesic_shoot(field, (0.0, 0.0), np.array([0.6, 0.8]),
                         T=2.0, step=1.25e-4).positions[-1]
    errs = []
    steps = (4e-3, 2e-3, 1e-3)
    for s in steps:
        end = geodesic_shoot(field, (0.0, 0.0), np.array([0.6, 0.8]),
                             T=2.0, step=s).positions[-1]
        errs.append(np.linalg.norm(end - ref))
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(steps[i] / steps[i + 1])
              for i in range(len(steps) - 1)]
    assert min(orders) >= 3.7


def test_time_reversal():
    field = conformal(12)
    T, step = 2.0, 1e-3
    fwd = geodesic_shoot(field, (0.0, 0.0), np.array([0.6, 0.8]), T=T, step=step)
    back = geodesic_shoot(field, fwd.positions[-1], -fwd.velocities[-1],
                          T=T, step=step)
    assert np.linalg.norm(back.positions[-1]) <= 10.0 * step ** 4 * T + 1e-12


def test_speed_conservation_random_field():
    field = conformal(13)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 1.0]),
                          T=10.0, step=1e-3)
    assert path.speed_drift_max <= 1e-6 * (1.0 + 10.0)


def test_euclidean_parametrization_unit_speed():
    field = conformal(14)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([2.0, 0.0]),
                          T=5.0, step=1e-3, parametrization="euclidean")
    speeds = np.linalg.norm(path.velocities, axis=1)
    assert np.max(np.abs(speeds - 1.0)) <= 1e-6 * (1.0 + 5.0)


def test_left_region_termination():
    field = conformal(15, half_width=3.0)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=50.0, step=1e-3)
    assert path.termination == "left_region"
    assert np.max(np.abs(path.positions)) <= 3.0


def test_zero_velocity_rejected():
    with pytest.raises(GeometryError):
        geodesic_shoot(FLAT, (0.0, 0.0), np.array([0.0, 0.0]), T=1.0)


def test_local_minimality_against_perturbations():
    # short geodesic beats 50 smooth perturbations vanishing at the endpoints
    field = conformal(16)
    T = 0.1
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.3]), T=T, step=1e-3)
    R0, _ = lengths(path, field)
    n = len(path.times)
    bump = np.sin(np.pi * np.linspace(0, 1, n))[:, None]
    normal = np.array([-path.velocities[:, 1], path.velocities[:, 0]]).T
    for trial in range(50):
        amp = 0.02 * (rng.uniform(777, trial) - 0.5)
        disturbed = path.positions + amp * bump * normal
        seg = np.diff(disturbed, axis=0)
        mids = 0.5 * (disturbed[1:] + disturbed[:-1])
        g = field.values_batch(mids)
        length = np.sum(np.sqrt(np.einsum("bi,bij,bj->b", seg, g, seg)))
        assert R0 <= length + 1e-9


# ------------------------------------------------------------- lengths

def test_lengths_flat_straight():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=5.0, step=1e-3)
    R, L = lengths(path, FLAT)
    assert abs(R - 5.0) <= 1e-9 and abs(L - 5.0) <= 1e-9


def test_lengths_constant_scaling():
    field = ConstantMetric(4.0 * np.eye(2))
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=10.0, step=1e-3)   # riemannian time 10 = euclid 5
    R, L = lengths(path, field)
    assert abs(R - 10.0) <= 1e-9
    assert abs(L - 5.0) <= 1e-9


def test_lengths_selfconsistency_random():
    field = conformal(21)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([0.0, 1.0]), T=6.0, step=1e-3)
    R, _ = lengths(path, field)
    assert abs(R - path.times[-1]) / path.times[-1] <= 1e-6


@pytest.mark.parametrize("n", list(range(2, 41)) + [1155, 1500, 1501])
def test_simpson_matches_scipy_bit_for_bit(n):
    # geometry avoids importing scipy.integrate for one routine; the private
    # rule must give what scipy.integrate.simpson gives, to the last bit, on
    # the uniform cumsum grids shooting produces and on irregular ones
    from scipy.integrate import simpson
    gen = np.random.default_rng(n)
    grids = [np.cumsum(np.full(n, step)) for step in (1e-3, 2e-3, 1e-2)]
    grids += [np.cumsum(gen.uniform(1e-4, 1e-1, n)),
              np.unique(gen.uniform(0.0, 5.0, n))]
    for x in grids:
        assert len(x) == n
        for y in (gen.normal(size=n), 1.0 + gen.uniform(0.0, 1e-3, n)):
            assert same_bits(np.asarray(geometry._simpson(y, x)),
                             np.asarray(simpson(y, x=x)))


def test_lengths_reuse_speeds_only_for_the_field_that_evaluated_them(
        monkeypatch):
    # shooting keeps the speeds it evaluated for the drift check; lengths
    # and cumulative_lengths reuse them on that field object, bit for bit,
    # and evaluate their own on any other, an equal twin included
    field = conformal(21)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([0.3, 1.0]), T=2.0,
                          step=1e-2)
    bare = dataclasses.replace(path, speeds=None, speeds_field=None)
    assert same_bits(path.speeds, riemannian_speeds(field, path.positions,
                                                    path.velocities))
    calls = []
    evaluate = geometry.riemannian_speeds

    def counted(f, positions, velocities):
        calls.append(f)
        return evaluate(f, positions, velocities)

    monkeypatch.setattr(geometry, "riemannian_speeds", counted)
    assert lengths(path, field) == lengths(bare, field)
    assert same_bits(cumulative_lengths(path, field),
                     cumulative_lengths(bare, field))
    assert calls == [field, field]
    for other in (conformal(22), conformal(21)):
        calls.clear()
        assert lengths(path, other) == lengths(bare, other)
        assert same_bits(cumulative_lengths(path, other),
                         cumulative_lengths(bare, other))
        assert calls == [other] * 4
    assert lengths(path, conformal(22)) != lengths(path, field)


# ------------------------------------------------------------- reparametrize

def test_reparametrize_flat_identity():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=3.0, step=1e-3)
    out = reparametrize(path, "euclidean", FLAT)
    assert np.allclose(out.times, path.times, atol=1e-12)
    assert np.max(np.abs(out.positions - path.positions)) <= 1e-12


def test_reparametrize_constant_factor_two():
    field = ConstantMetric(4.0 * np.eye(2))
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.0]), T=4.0, step=1e-3)
    out = reparametrize(path, "euclidean", field)
    # riemannian time = 2 x euclidean time at every sample
    spline = path.position_spline()
    assert abs(out.times[-1] - 2.0) <= 1e-9
    assert np.max(np.abs(spline(2.0 * out.times) - out.positions)) <= 1e-9


def test_reparametrize_round_trip():
    field = conformal(22)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, -0.4]),
                          T=4.0, step=1e-3, parametrization="euclidean")
    rie = reparametrize(path, "riemannian", field)
    back = reparametrize(rie, "euclidean", field)
    spline = path.position_spline()
    common = back.times[back.times <= path.times[-1] + 1e-12]
    drift = np.max(np.abs(back.positions[:len(common)]
                          - spline(np.clip(common, 0, path.times[-1]))))
    assert drift <= 1e-8


# ------------------------------------------------------------- jacobi

def test_jacobi_flat_linear_growth():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=2.0, step=1e-3)
    rec = jacobi_integrate(FLAT, path)
    assert np.max(np.abs(rec.det_history - rec.times)) <= 1e-12
    assert rec.conjugate_times == []


def test_jacobi_sphere_conjugate_at_pi():
    path = geodesic_shoot(SPHERE, (1.0, 0.0), np.array([0.0, 1.0]),
                          T=3.3, step=1e-3)
    rec = jacobi_integrate(SPHERE, path)
    assert len(rec.conjugate_times) == 1
    assert abs(rec.conjugate_times[0] - np.pi) <= 1e-3


def test_jacobi_hyperbolic_no_conjugate():
    field = HyperbolicDiskField()
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=1.2, step=1e-3)
    rec = jacobi_integrate(field, path)
    assert rec.conjugate_times == []
    # closed form: det = sinh(t)
    assert np.max(np.abs(rec.det_history - np.sinh(rec.times))) <= 1e-8


def _transverse_frame(g, v0):
    """g-orthonormal frame (v0, e_2), oriented positively, for the metric
    matrix g at the start point (Gram-Schmidt from the coordinate axes)."""
    vecs = [v0 / np.sqrt(v0 @ g @ v0)]
    for axis in np.eye(len(v0)):
        if len(vecs) == len(v0):
            break
        cand = axis
        for e in vecs:
            cand = cand - (cand @ g @ e) * e
        nrm = np.sqrt(cand @ g @ cand)
        if nrm > 1e-10:
            vecs.append(cand / nrm)
    frame = np.column_stack(vecs)
    if np.linalg.det(frame) < 0:
        frame[:, -1] = -frame[:, -1]
    return frame


def test_jacobi_scalar_oracle_d2():
    # the propagator product equals the scalar Jacobi solution j'' + K j = 0
    # by a stage-form RK4 loop (same step and midpoint rule)
    from rfpp.geometry import _gauss_curvature, _hermite_midpoints
    field = conformal(23)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.5]), T=3.0, step=1e-3)
    rec = jacobi_integrate(field, path)
    K = _gauss_curvature(field, path.positions)
    xm = _hermite_midpoints(path.times, path.positions, path.velocities)
    Kmid = _gauss_curvature(field, xm)
    j = np.zeros(len(path.times))
    jp = 1.0
    jv = 0.0
    h = path.times[1] - path.times[0]
    for i in range(len(path.times) - 1):
        def f(jj, pp, k):
            return pp, -k * jj
        k1 = f(jv, jp, K[i])
        k2 = f(jv + 0.5 * h * k1[0], jp + 0.5 * h * k1[1], Kmid[i])
        k3 = f(jv + 0.5 * h * k2[0], jp + 0.5 * h * k2[1], Kmid[i])
        k4 = f(jv + h * k3[0], jp + h * k3[1], K[i + 1])
        jv = jv + (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        jp = jp + (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        j[i + 1] = jv
    assert np.max(np.abs(rec.det_history - j)) <= 1e-8


def _stage_form_dets(field, path):
    """Reference: the Jacobi determinant history sqrt(det g) det(V, J) of
    the matrix Jacobi equation D2 J + R(J, V) V = 0, by the stage-form RK4
    loop (four right-hand-side evaluations per step on (J, W), W the
    covariant derivative), with the drag and tidal operator from the public
    christoffel_from_derivatives and riemann_tensor, midpoint data from the
    Hermite cubics through the samples and the frame from a values_batch
    call."""
    from rfpp.geometry import riemann_tensor

    def coefficients(X, V):
        val, grad, hess = field.evaluate_batch(X)
        gv = np.einsum("bkij,bi->bkj", christoffel_from_derivatives(val, grad), V)
        cv = np.einsum("brsmn,bs,bn->brm", riemann_tensor(val, grad, hess), V, V)
        return gv, cv, np.sqrt(np.linalg.det(val))

    times, pos, vel = path.times, path.positions, path.velocities
    h = np.diff(times)[:, None]
    x_mid = 0.5 * (pos[:-1] + pos[1:]) + 0.125 * h * (vel[:-1] - vel[1:])
    v_mid = 1.5 * (pos[1:] - pos[:-1]) / h - 0.25 * (vel[:-1] + vel[1:])
    gv_s, cv_s, vol_s = coefficients(pos, vel)
    gv_m, cv_m, _ = coefficients(x_mid, v_mid)
    g0 = field.values_batch(pos[:1])[0]
    W = _transverse_frame(g0, vel[0])[:, 1:]
    J = np.zeros_like(W)
    dets = np.zeros(len(times))

    def rhs(gv, cv, Jc, Wc):
        return Wc - gv @ Jc, -(cv @ Jc) - gv @ Wc

    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]
        k1J, k1W = rhs(gv_s[i], cv_s[i], J, W)
        k2J, k2W = rhs(gv_m[i], cv_m[i], J + 0.5 * h * k1J, W + 0.5 * h * k1W)
        k3J, k3W = rhs(gv_m[i], cv_m[i], J + 0.5 * h * k2J, W + 0.5 * h * k2W)
        k4J, k4W = rhs(gv_s[i + 1], cv_s[i + 1], J + h * k3J, W + h * k3W)
        J = J + (h / 6.0) * (k1J + 2 * k2J + 2 * k3J + k4J)
        W = W + (h / 6.0) * (k1W + 2 * k2W + 2 * k3W + k4W)
        dets[i + 1] = vol_s[i + 1] * np.linalg.det(
            np.column_stack([vel[i + 1], J]))
    return dets


def _bench_field(mode):
    from rfpp.harness import make_field
    return make_field(12345, {"mode": mode})


@pytest.mark.parametrize("case", ["conformal", "sym_exp", "sphere"])
def test_jacobi_propagators_match_stage_form(case):
    # the scalar j'' + K j = 0 in propagator form against the matrix Jacobi
    # equation in stage form: two discretisations of one ODE on the same
    # samples and midpoints, which agree to 1e-8, and conjugate times to
    # well within the bracket width
    from rfpp.geometry import _detect_conjugates
    field, x0, v0, T = {
        "conformal": (_bench_field("conformal"), (0.0, 0.0), (1.0, 0.0), 1.5),
        "sym_exp": (_bench_field("sym_exp"), (0.0, 0.0), (1.0, 0.0), 1.5),
        "sphere": (SPHERE, (1.0, 0.0), (0.0, 1.0), 3.3),
    }[case]
    path = geodesic_shoot(field, x0, np.array(v0), T=T, step=1e-3)
    rec = jacobi_integrate(field, path)
    ref = _stage_form_dets(field, path)
    assert np.max(np.abs(rec.det_history - ref)) <= 1e-8
    ref_times = _detect_conjugates(path.times, ref).conjugate_times
    assert len(rec.conjugate_times) == len(ref_times)
    assert np.allclose(rec.conjugate_times, ref_times, rtol=0.0, atol=1e-9)
    if case == "sphere":
        assert len(ref_times) == 1 and abs(ref_times[0] - np.pi) <= 1e-3


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
def test_jacobi_batch_rows_match_single(mode):
    field = MetricField(mode, seed=47, region=Box.cube(4.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.5))
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    paths = geodesic_shoot_batch(field, np.zeros(2), dirs, T=1.5, step=1e-3)
    records = jacobi_integrate_batch(field, paths)
    for path, rec in zip(paths, records):
        single = jacobi_integrate(field, path)
        assert same_bits(rec.det_history, single.det_history)
        assert rec.conjugate_times == single.conjugate_times


def test_jacobi_batch_rejects_differing_times():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=0.1,
                          step=1e-2)
    shifted = GeodesicPath(times=path.times * (1.0 + 1e-9),
                           positions=path.positions, velocities=path.velocities,
                           parametrization="riemannian", step=path.step)
    with pytest.raises(GeometryError):
        jacobi_integrate_batch(FLAT, [path, shifted])


def test_conjugate_time_on_a_sample():
    from rfpp.geometry import _detect_conjugates
    times = np.arange(7.0)
    # a zero sample between opposite signs is a conjugate time; a zero
    # touched from one side, and the zero at t = 0, are not
    det = np.array([0.0, 1.0, 0.5, 0.0, -0.5, 0.0, -1.0])
    assert _detect_conjugates(times, det).conjugate_times == [3.0]
    det = np.array([0.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    found = _detect_conjugates(times, det).conjugate_times
    assert len(found) == 2 and 1.0 < found[0] < 2.0 and 3.0 < found[1] < 4.0


def test_jacobi_requires_riemannian():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]),
                          T=1.0, step=1e-3, parametrization="euclidean")
    with pytest.raises(GeometryError):
        jacobi_integrate(FLAT, path)


# ------------------------------------------------------------- curvature

def test_curvature_flat_zero():
    assert curvature_at(FLAT, np.array([0.3, 0.3])) == 0.0


def test_curvature_sphere_unit():
    pts = 4.0 * rng.uniform(31, np.arange(200)).reshape(100, 2) - 2.0
    ks = np.array([curvature_at(SPHERE, x) for x in pts])
    assert np.max(np.abs(ks - 1.0)) <= 1e-12


def _riemann_curvature(field, X):
    """The oracle K = R_1212 / det g from riemann_tensor and the metric's
    derivatives to order 2, R_1212 = g_r1 R^r_212."""
    from rfpp.geometry import riemann_tensor
    g, grad, hess = field.evaluate_batch(X)
    R = riemann_tensor(g, grad, hess)
    num = R[:, 0, 1, 0, 1] * g[:, 0, 0] + R[:, 1, 1, 0, 1] * g[:, 1, 0]
    return num / (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 0, 1])


def test_curvature_conformal_identity():
    # curvature_at reads K = -e^{-2 phi} Laplacian(phi) off the Laplacian
    # sums; the oracle assembles R_1212 / det g from the order-2 metric
    field = conformal(32)
    pts = 6.0 * rng.uniform(33, np.arange(60)).reshape(30, 2) - 3.0
    ref = _riemann_curvature(field, pts)
    scale = np.max(np.abs(ref))
    for x, k in zip(pts, ref):
        assert abs(curvature_at(field, x) - k) <= 1e-12 * scale


# ------------------------------------------------------------- batching

def test_batch_matches_single():
    field = conformal(41)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    batch = geodesic_shoot_batch(field, np.zeros(2), dirs, T=1.0, step=1e-3)
    for i, v in enumerate(dirs):
        single = geodesic_shoot(field, np.zeros(2), v, T=1.0, step=1e-3)
        assert same_bits(batch[i].positions, single.positions)
        assert same_bits(batch[i].velocities, single.velocities)


def test_rows_independent_under_differing_step_histories():
    # on an amplitude-1 field the rows take different steps and reject
    # different ones (in the stack, row 0 crosses a strongly curved patch
    # the others never see); each row still equals its own single shot
    x0 = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    field = conformal(43, amplitude=1.0)
    fields = [conformal(s, amplitude=1.0) for s in (44, 45, 46)]
    for shot, singles, start in (
            (field, [field] * 3, x0),
            (FieldStack(fields), fields, np.zeros((3, 2)))):
        paths = geodesic_shoot_batch(shot, start, dirs, T=2.0, step=1e-3)
        histories = {(p.steps, p.rejected) for p in paths}
        assert len(histories) == 3 and max(p.rejected for p in paths) > 0
        for i, path in enumerate(paths):
            single = geodesic_shoot(singles[i], start[i], dirs[i], T=2.0,
                                    step=1e-3)
            assert (single.steps, single.rejected) == (path.steps, path.rejected)
            assert same_bits(path.positions, single.positions)
            assert same_bits(path.velocities, single.velocities)


def test_csv_export():
    path = geodesic_shoot(FLAT, (0.0, 0.0), np.array([1.0, 0.0]), T=0.2, step=1e-2)
    text = path.csv_text().splitlines()
    assert text[0] == "# parametrization: riemannian"
    assert text[3].split(",") == ["t", "x1", "x2", "v1", "v2"]
    assert len(text) == 4 + len(path.times)


# ------------------------------------------------------------- conformal fast path

def _tensor_acceleration(field, X, V, parametrization):
    """Geodesic acceleration through the general Christoffel tensor."""
    val, grad, _ = field.evaluate_batch(X, order=1)
    gamma = christoffel_from_derivatives(val, grad)
    acc = -np.einsum("bkij,bi,bj->bk", gamma, V, V)
    if parametrization == "euclidean":
        acc = acc - np.einsum("bk,bk->b", acc, V)[:, None] * V
    return acc


def _bump():
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=1.2, glue_width=0.5)
    return make_bump(spec, conformal(61, half_width=6.0))


CONFORMAL_FIELDS = {
    "metric_field": lambda: conformal(61, half_width=6.0),
    "field_stack": lambda: FieldStack([conformal(s, half_width=6.0)
                                       for s in (61, 62, 63, 64)]),
    "sphere_patch": lambda: SpherePatchField(radius=2.0, center=(0.3, -0.2)),
    "hyperbolic_disk": lambda: HyperbolicDiskField(),
    "bump": _bump,
    "perturbed": lambda: PerturbedConformalField(
        _bump(), conformal(65, half_width=6.0), 0.05),
}


@pytest.mark.parametrize("parametrization", ["riemannian", "euclidean"])
@pytest.mark.parametrize("name", sorted(CONFORMAL_FIELDS))
def test_conformal_rhs_matches_tensor_path(name, parametrization):
    field = CONFORMAL_FIELDS[name]()
    assert field.conformal
    # 64 points spanning the bump's glue ring and its cap
    X = 1.1 * rng.uniform(71, np.arange(128)).reshape(64, 2) - 0.5
    V = 2.0 * rng.uniform(72, np.arange(128)).reshape(64, 2) - 1.0
    if parametrization == "euclidean":
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
    dX, acc = _geodesic_rhs(field, X, V, parametrization)
    ref = _tensor_acceleration(field, X, V, parametrization)
    assert dX is V
    err = np.max(np.abs(acc - ref), axis=1)
    assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))


@pytest.mark.parametrize("name", sorted(CONFORMAL_FIELDS) + ["flat"])
def test_conformal_exponent_order_one_is_order_two_without_hessian(name):
    field = FLAT if name == "flat" else CONFORMAL_FIELDS[name]()
    X = 1.1 * rng.uniform(71, np.arange(128)).reshape(64, 2) - 0.5
    phi1, dphi1, d2phi1 = field.conformal_exponent_batch(X, order=1)
    phi2, dphi2, d2phi2 = field.conformal_exponent_batch(X, order=2)
    assert d2phi1 is None and d2phi2.shape == (64, 2, 2)
    assert phi1.tobytes() == phi2.tobytes() and dphi1.tobytes() == dphi2.tobytes()


@pytest.mark.parametrize("name", sorted(CONFORMAL_FIELDS))
def test_conformal_gauss_curvature_matches_riemann_oracle(name):
    # K = -e^{-2 phi} Lap phi from conformal_laplacian_batch (Laplacian sums
    # on sampled fields, closed forms on analytic ones) against
    # R_1212 / det g
    from rfpp.geometry import _gauss_curvature
    field = CONFORMAL_FIELDS[name]()
    X = 1.1 * rng.uniform(71, np.arange(128)).reshape(64, 2) - 0.5
    K = _gauss_curvature(field, X)
    ref = _riemann_curvature(field, X)
    assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
    closed = {"sphere_patch": 1.0 / 2.0 ** 2, "hyperbolic_disk": -1.0}
    if name in closed:
        assert np.max(np.abs(K - closed[name])) <= 1e-12


@pytest.mark.parametrize("name", sorted(CONFORMAL_FIELDS) + ["flat"])
def test_order_zero_exponent_and_values_keep_their_bits(name):
    # phi alone at order 0, and the metric values from it, with the bits of
    # phi and the values of order 1; the Laplacian entry's phi has them too
    field = FLAT if name == "flat" else CONFORMAL_FIELDS[name]()
    X = 1.1 * rng.uniform(71, np.arange(128)).reshape(64, 2) - 0.5
    phi0, dphi0, d2phi0 = field.conformal_exponent_batch(X, order=0)
    phi1, _, _ = field.conformal_exponent_batch(X, order=1)
    assert dphi0 is None and d2phi0 is None
    assert same_bits(phi0, phi1)
    assert same_bits(field.values_batch(X), field.evaluate_batch(X, order=1)[0])
    phi_lap, lap = field.conformal_laplacian_batch(X)
    assert same_bits(phi_lap, phi1) and lap.shape == (64,)


@pytest.mark.parametrize("mode", ["sym_exp"])
def test_tensor_fields_keep_tensor_path(mode):
    # sym_exp rows take their acceleration from the channel sums of A and
    # its partials (no Christoffel tensor), within 1e-12 of the tensor
    # path, for a field and a stack in both parametrizations; a constant
    # metric keeps the tensor path bit for bit
    fields = [MetricField(mode, seed=s, region=Box.cube(4.0, 2),
                          kernel=KernelSpec(range=1.0, amplitude=0.2),
                          shift=2.0) for s in (66, 67)]
    X = 4.0 * rng.uniform(73, np.arange(40)).reshape(20, 2) - 2.0
    V = 2.0 * rng.uniform(74, np.arange(40)).reshape(20, 2) - 1.0
    constant = ConstantMetric([[2.0, 0.3], [0.3, 0.5]])
    for field in (fields[0], FieldStack(fields)):
        assert field.sym_exp and not field.conformal
        for parametrization in ("riemannian", "euclidean"):
            _, acc = _geodesic_rhs(field, X, V, parametrization)
            ref = _tensor_acceleration(field, X, V, parametrization)
            err = np.max(np.abs(acc - ref), axis=1)
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))
    assert not constant.sym_exp and not constant.conformal
    for parametrization in ("riemannian", "euclidean"):
        _, acc = _geodesic_rhs(constant, X, V, parametrization)
        assert np.array_equal(acc, _tensor_acceleration(constant, X, V,
                                                        parametrization))


def _path_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        for a in (p.times, p.positions, p.velocities):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(p.termination.encode())
    return h.hexdigest()


def test_sym_exp_paths_golden_digest():
    # computed with the Dormand-Prince shooter and the closed-form sym_exp
    # acceleration (numpy 2.4.6, x86-64): a refactoring must reproduce the
    # paths bit for bit, early left_region terminations included
    field = MetricField("sym_exp", seed=7, region=Box.cube(2.5, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [0.7, -0.7]])
    digests = {}
    for parametrization in ("riemannian", "euclidean"):
        paths = geodesic_shoot_batch(field, np.zeros(2), dirs, T=3.0,
                                     step=2e-3, parametrization=parametrization)
        assert [p.termination for p in paths].count("left_region") == 3
        digests[parametrization] = _path_digest(paths)
    assert digests == {
        "riemannian":
            "9d23f602b32ae5cb2063a6210318df0d3afabcf4edd621bfc10a5b2e328e8a7b",
        "euclidean":
            "19e0ddfd0d4f00c50d7629df0d3293a3623864339fa111f171559ff1834780b6",
    }


def test_conformal_paths_golden_digest():
    # computed before the conformal stage and dense-output rewrites (numpy
    # 2.4.6, x86-64): 8 batched directions through the order-1 kernel sums,
    # with rows leaving the box in both parametrizations
    field = MetricField("conformal", seed=7, region=Box.cube(2.5, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    angles = np.arange(8) * (np.pi / 4) + 0.1
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    digests, left = {}, {}
    for parametrization in ("riemannian", "euclidean"):
        paths = geodesic_shoot_batch(field, np.zeros(2), dirs, T=3.4,
                                     step=2e-3, parametrization=parametrization)
        left[parametrization] = [p.termination for p in paths].count(
            "left_region")
        digests[parametrization] = _path_digest(paths)
    assert left == {"riemannian": 2, "euclidean": 5}
    assert digests == {
        "riemannian":
            "a3e42776ae9f7087b65c94a7f9ece783302796caccae27ebacca347a3f130c91",
        "euclidean":
            "c14653f4204bca7f62a86cb3e6bad5ca500d90a83a280febce2eac902553abbc",
    }


class _NaNBeyond(ConformalAnalyticField):
    """A conformal field whose exponent is NaN beyond x1 = edge.  The NaN
    stage positions that follow reach its base, which evaluates them as
    NaN: a finite point outside a sampled field's region raises
    RegionError, a non-finite one does not."""

    def __init__(self, base, edge):
        self.base, self.edge = base, edge
        self.region = base.region
        self.correlation_length = base.correlation_length

    def phi_batch(self, X, order=2):
        bad = X[:, 0] > self.edge
        return tuple(None if a is None
                     else np.where(bad.reshape((-1,) + (1,) * (a.ndim - 1)),
                                   np.nan, a)
                     for a in self.base.conformal_exponent_batch(X, order))


def test_non_finite_stage_ends_only_its_row():
    # row 0 runs into the NaN half-plane: its stages turn non-finite, its
    # steps shrink below MIN_STEP step and it ends "numerical" before the
    # edge; the other rows never see a NaN and keep their bits and counts.
    # Over a sampled base the NaN stages reach MetricField._gather, which
    # must not take them for points outside the region ("left_region")
    for base in (SpherePatchField(radius=3.0, center=(0.2, -0.1)),
                 conformal(69, half_width=2.0)):
        field = _NaNBeyond(base, 0.3)
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        paths = geodesic_shoot_batch(field, np.zeros(2), dirs, T=1.0,
                                     step=1e-2)
        assert [p.termination for p in paths] == ["numerical", "completed",
                                                  "completed"]
        bad = paths[0]
        assert bad.times[-1] < 1.0 and bad.rejected > 0
        assert np.all(np.isfinite(bad.positions))
        assert np.all(bad.positions[:, 0] <= 0.3)
        for i in (1, 2):
            single = geodesic_shoot(field, np.zeros(2), dirs[i], T=1.0,
                                    step=1e-2)
            assert (single.steps, single.rejected) == (paths[i].steps,
                                                       paths[i].rejected)
            assert same_bits(paths[i].positions, single.positions)
            assert same_bits(paths[i].velocities, single.velocities)


@pytest.mark.parametrize("name", ["conformal", "sym_exp", "hyperbolic_disk"])
def test_fields_with_a_region_screen_non_finite_points(name):
    # a NaN or infinite row evaluates to NaN and leaves the other rows'
    # bits alone; a finite row outside the region still raises RegionError
    field = {"conformal": lambda: conformal(69, half_width=2.0),
             "sym_exp": lambda: MetricField(
                 "sym_exp", seed=69, region=Box.cube(2.0, 2),
                 kernel=KernelSpec(range=1.0, amplitude=0.3)),
             "hyperbolic_disk": HyperbolicDiskField}[name]()
    X = np.array([[0.1, 0.2], [np.nan, 0.0], [0.5, np.inf], [-0.3, 0.3]])
    whole = field.evaluate_batch(X, order=2)
    inside = field.evaluate_batch(X[[0, 3]], order=2)
    for a, b in zip(whole, inside):
        assert same_bits(a[[0, 3]], b)
        assert np.all(np.isnan(a[[1, 2]]))
    with pytest.raises(RegionError):
        field.evaluate_batch(np.array([[np.nan, 0.0], [3.0, 0.0]]))


def test_region_error_ends_only_its_row():
    # the patch box pokes out of the unit disk, where phi_batch raises
    # RegionError; the diagonal shot reaches the disk edge inside the box, so
    # only an RK stage can see it leave.  The opposite shot must not notice.
    field = HyperbolicDiskField(patch_radius=1.3)
    x0 = np.array([0.5, 0.5])
    dirs = np.array([[1.0, 1.0], [-1.0, -1.0]])
    paths = geodesic_shoot_batch(field, x0, dirs, T=1.0, step=1e-2,
                                 parametrization="euclidean")
    out, done = paths
    assert out.termination == "left_region"
    assert done.termination == "completed"
    assert out.times[-1] < 0.5
    assert np.all(np.linalg.norm(out.positions, axis=1) < 1.0)
    single = geodesic_shoot(field, x0, dirs[1], T=1.0, step=1e-2,
                            parametrization="euclidean")
    assert same_bits(done.positions, single.positions)
    assert same_bits(done.velocities, single.velocities)


def test_field_stack_rows_terminate_independently():
    # row 0 leaves its small region early; row 1 keeps integrating against
    # its own field, exactly as when shot alone
    fields = [conformal(67, half_width=1.0), conformal(68, half_width=1.0)]
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    stack = FieldStack(fields)
    paths = geodesic_shoot_batch(stack, np.array([0.8, -0.5]), dirs, T=1.0,
                                 step=1e-2)
    assert [p.termination for p in paths] == ["left_region", "completed"]
    single = geodesic_shoot(fields[1], np.array([0.8, -0.5]), dirs[1], T=1.0,
                            step=1e-2)
    assert same_bits(paths[1].positions, single.positions)
    assert same_bits(paths[1].velocities, single.velocities)
