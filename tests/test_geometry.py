import hashlib

import numpy as np
import pytest

from rfpp import rng
from rfpp.experiments import BumpSpec, PerturbedConformalField, make_bump
from rfpp.fields import (Box, ConstantMetric, FieldStack, FlatMetric,
                         HyperbolicDiskField, KernelSpec, MetricField,
                         ScaledField, SpherePatchField)
from rfpp.geometry import (GeometryError, _geodesic_rhs,
                           christoffel, christoffel_from_derivatives,
                           cumulative_lengths, curvature_at, geodesic_shoot,
                           geodesic_shoot_batch, jacobi_integrate, lengths,
                           reparametrize, riemannian_speeds)

FLAT = FlatMetric(2)
SPHERE = SpherePatchField(radius=1.0)


def conformal(seed, half_width=16.0, amplitude=0.3):
    return MetricField("conformal", seed=seed, region=Box.cube(half_width, 2),
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


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
    assert abs(R - path.duration) / path.duration <= 1e-6


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


def _gauss_curvature_batch(field, pts):
    from rfpp.geometry import riemann_tensor
    val, grad, hess = field.evaluate_batch(pts)
    R = riemann_tensor(val, grad, hess)
    r_1212 = np.einsum("bs,bs->b", val[:, 0, :], R[:, :, 1, 0, 1])
    return r_1212 / np.linalg.det(val)


def test_jacobi_scalar_oracle_d2():
    # matrix determinant equals the scalar Jacobi solution j'' + K j = 0
    # in d = 2 (same step and midpoint rule, independent reduction)
    from rfpp.geometry import _hermite_midpoints
    field = conformal(23)
    path = geodesic_shoot(field, (0.0, 0.0), np.array([1.0, 0.5]), T=3.0, step=1e-3)
    rec = jacobi_integrate(field, path)
    K = _gauss_curvature_batch(field, path.positions)
    xm, _ = _hermite_midpoints(path.times, path.positions, path.velocities)
    Kmid = _gauss_curvature_batch(field, xm)
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
    assert np.max(np.abs(ks - 1.0)) <= 1e-6


def test_curvature_conformal_identity():
    # K = -e^{-2 phi} Laplacian(phi) in d = 2
    field = conformal(32)
    pts = 6.0 * rng.uniform(33, np.arange(60)).reshape(30, 2) - 3.0
    for x in pts:
        val, grad, hess = field.evaluate_batch(x[None, :])
        e2p = val[0, 0, 0]
        dphi = grad[0, :, 0, 0] / (2 * e2p)
        lap = sum(hess[0, i, i, 0, 0] / (2 * e2p) - 2 * dphi[i] ** 2
                  for i in range(2))
        closed = -lap / e2p
        assert abs(curvature_at(field, x) - closed) <= 1e-8


def test_sectional_curvature_d3_constant():
    field = ConstantMetric(np.diag([2.0, 2.0, 2.0]))
    k = curvature_at(field, np.zeros(3), plane=(np.array([1.0, 0, 0]),
                                                np.array([0, 1.0, 0])))
    assert k == 0.0


# ------------------------------------------------------------- batching

def test_batch_matches_single():
    field = conformal(41)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    batch = geodesic_shoot_batch(field, np.zeros(2), dirs, T=1.0, step=1e-3)
    for i, v in enumerate(dirs):
        single = geodesic_shoot(field, np.zeros(2), v, T=1.0, step=1e-3)
        assert np.array_equal(batch[i].positions, single.positions)
        assert np.array_equal(batch[i].velocities, single.velocities)


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
    "metric_field_scaled": lambda: conformal(61, half_width=6.0).scaled(3.0),
    "field_stack": lambda: FieldStack([conformal(s, half_width=6.0)
                                       for s in (61, 62, 63, 64)]),
    "sphere_patch": lambda: SpherePatchField(radius=2.0, center=(0.3, -0.2)),
    "hyperbolic_disk": lambda: HyperbolicDiskField(),
    "bump": _bump,
    "perturbed": lambda: PerturbedConformalField(
        _bump(), conformal(65, half_width=6.0), 0.05),
    "scaled_sphere": lambda: ScaledField(SpherePatchField(radius=2.0), 0.7),
    "scaled_bump": lambda: ScaledField(_bump(), 2.5),
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


@pytest.mark.parametrize("mode", ["sym_shift", "sym_exp"])
def test_tensor_fields_keep_tensor_path(mode):
    field = MetricField(mode, seed=66, region=Box.cube(4.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.2), shift=2.0)
    assert not field.conformal
    assert not ScaledField(field, 2.0).conformal
    X = 4.0 * rng.uniform(73, np.arange(40)).reshape(20, 2) - 2.0
    V = 2.0 * rng.uniform(74, np.arange(40)).reshape(20, 2) - 1.0
    for parametrization in ("riemannian", "euclidean"):
        _, acc = _geodesic_rhs(field, X, V, parametrization)
        assert np.array_equal(acc, _tensor_acceleration(field, X, V,
                                                        parametrization))


def _path_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        for a in (p.times, p.positions, p.velocities):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(p.termination.encode())
    return h.hexdigest()


def test_sym_exp_paths_golden_digest():
    # computed with per-step state copies and appended histories (numpy
    # 2.4.6, x86-64); writing the histories in place must reproduce them bit
    # for bit, early left_region terminations included
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
            "35dab3c855978a9534ce0152cdd30abb8cff7a90e8d684ce1abac533fd574b78",
        "euclidean":
            "6279a6b3403a66a4975b3343b3293b3f2e82c98ec1cde3c9fe93c07397217374",
    }


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
    assert out.duration < 0.5
    assert np.all(np.linalg.norm(out.positions, axis=1) < 1.0)
    single = geodesic_shoot(field, x0, dirs[1], T=1.0, step=1e-2,
                            parametrization="euclidean")
    assert np.array_equal(done.positions, single.positions)
    assert np.array_equal(done.velocities, single.velocities)


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
    assert np.array_equal(paths[1].positions, single.positions)
    assert np.array_equal(paths[1].velocities, single.velocities)
