import hashlib

import numpy as np
import pytest

from rfpp import rng
from rfpp.experiments import BumpSpec, PerturbedConformalField, make_bump
from rfpp.fields import (AssumptionReport, Box, ConstantMetric, FieldError,
                         FieldStack, FlatMetric, HyperbolicDiskField,
                         KernelSpec, MetricField, RegionError, ScaledField,
                         SpherePatchField, assumption_report,
                         check_spd_on_region, eigen_bounds, load_field,
                         sample_noise, save_field)

BOX = Box.cube(6.0, 2)
KERN = KernelSpec(range=1.0, amplitude=0.3)


def conformal(seed, amplitude=0.3, box=BOX):
    return MetricField("conformal", seed=seed, region=box,
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


# ---------------------------------------------------------------- noise

def test_noise_bitwise_deterministic():
    a = sample_noise(1, BOX, 0.25, 1, margin=1.0)
    b = sample_noise(1, BOX, 0.25, 1, margin=1.0)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_noise_seed_decorrelation():
    n1 = sample_noise(1, Box.cube(13.0, 2), 0.25, 1).coefficients.ravel()
    n2 = sample_noise(2, Box.cube(13.0, 2), 0.25, 1).coefficients.ravel()
    assert n1.size >= 10 ** 4
    corr = np.corrcoef(n1, n2)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n1.size)


def test_noise_moments():
    coeffs = sample_noise(3, Box.cube(63.0, 2), 0.25, 1).coefficients.ravel()
    n = coeffs.size
    assert n >= 10 ** 6 * 0.25
    assert abs(coeffs.mean()) <= 4.0 / np.sqrt(n)
    assert abs(coeffs.var() - 1.0) <= 0.01


def test_noise_validation():
    with pytest.raises(FieldError):
        sample_noise(1, BOX, -0.5, 1)
    with pytest.raises(FieldError):
        Box((0.0, 0.0), (0.0, 1.0))


# ---------------------------------------------------------------- metric values

def test_zero_amplitude_is_flat():
    f = MetricField("conformal", seed=9, region=BOX,
                    kernel=KernelSpec(range=1.0, amplitude=0.0))
    val, grad, hess = f.evaluate(np.array([0.3, 0.4]))
    assert np.allclose(val, np.eye(2), atol=0)
    assert np.all(grad == 0) and np.all(hess == 0)


def test_conformal_is_positive_multiple_of_identity():
    f = conformal(11)
    pts = 10.0 * rng.uniform(99, np.arange(40)).reshape(20, 2) - 5.0
    vals = f.values_batch(pts)
    assert np.all(vals[:, 0, 1] == 0.0) and np.all(vals[:, 1, 0] == 0.0)
    assert np.all(vals[:, 0, 0] == vals[:, 1, 1])
    assert np.all(vals[:, 0, 0] > 0)


def test_region_enforced():
    f = conformal(11)
    with pytest.raises(RegionError):
        f.evaluate(np.array([100.0, 0.0]))


@pytest.mark.parametrize("mode,shift", [("conformal", 1.0),
                                        ("sym_shift", 3.0),
                                        ("sym_exp", 2.0)])
def test_derivative_consistency(mode, shift):
    # Richardson-extrapolated central differences kill the h^2 truncation of
    # the oracle, isolating the analytic derivative error
    f = MetricField(mode, seed=17, region=BOX,
                    kernel=KernelSpec(range=1.0, amplitude=0.1), shift=shift)
    pts = 8.0 * rng.uniform(1234, np.arange(200)).reshape(100, 2) - 4.0
    val, grad, hess = f.evaluate_batch(pts)
    scale_g = np.max(np.abs(grad)) + 1.0
    scale_h = np.max(np.abs(hess)) + 1.0

    def fd(pts, h):
        g = np.zeros_like(grad)
        hs = np.zeros_like(hess)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            vp = f.values_batch(pts + e)
            vm = f.values_batch(pts - e)
            g[:, i] = (vp - vm) / (2 * h)
            hs[:, i, i] = (vp - 2 * val + vm) / h ** 2
        ei = np.array([h, 0.0])
        ej = np.array([0.0, h])
        mixed = (f.values_batch(pts + ei + ej) - f.values_batch(pts + ei - ej)
                 - f.values_batch(pts - ei + ej) + f.values_batch(pts - ei - ej)
                 ) / (4 * h * h)
        hs[:, 0, 1] = mixed
        hs[:, 1, 0] = mixed
        return g, hs

    g1, h1 = fd(pts, 2e-4)
    g2, h2 = fd(pts, 1e-4)
    g_rich = (4 * g2 - g1) / 3.0
    h_rich = (4 * h2 - h1) / 3.0
    assert np.max(np.abs(grad - g_rich)) / scale_g <= 1e-6
    assert np.max(np.abs(hess - h_rich)) / scale_h <= 1e-6


def test_sym_shift_rejection_rate():
    # tiny mean level, unit noise: Gaussian fluctuations must reject some seeds
    rejected = 0
    for seed in range(100):
        f = MetricField("sym_shift", seed=seed, region=Box.cube(3.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=1.0), shift=0.01)
        ok, _ = check_spd_on_region(f, Box.cube(2.0, 2), grid=0.5)
        if not ok:
            rejected += 1
    assert rejected > 0


def test_conformal_always_spd():
    for seed in range(10):
        f = conformal(seed, amplitude=1.0)
        ok, lam = check_spd_on_region(f, Box.cube(4.0, 2), grid=0.5, floor=0.0)
        assert ok and lam > 0


def test_flat_spd_floor():
    ok, lam = check_spd_on_region(FlatMetric(2), Box.cube(2.0, 2), grid=0.5)
    assert ok and lam == 1.0


# ---------------------------------------------------------------- finite range

def test_exact_finite_range():
    # correlation of values at separation >= 2 * range across 500 seeds
    x1 = np.array([[-2.0, 0.0]])
    x2 = np.array([[0.0, 0.0]])   # separation 2.0 = 2 * range
    a = np.empty(500)
    b = np.empty(500)
    for seed in range(500):
        f = conformal(seed, box=Box.cube(4.0, 2))
        a[seed] = f.values_batch(x1)[0, 0, 0]
        b[seed] = f.values_batch(x2)[0, 0, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(500)


def test_kernel_compact_support():
    k = KernelSpec(range=1.0)
    val, grad, hess = k.evaluate(np.array([[1.0, 0.0], [1.5, 0.2], [0.999, 0.05]]))
    assert val[0] == 0.0 and val[1] == 0.0
    assert np.all(grad[:2] == 0.0) and np.all(hess[:2] == 0.0)


def test_lattice_stationarity():
    # single-point moments agree at lattice-translated points across seeds
    shift = np.array([0.25 * 3, 0.25 * 5])     # a noise-lattice vector
    x = np.array([[0.37, -0.81]])
    a = np.empty(400)
    b = np.empty(400)
    for seed in range(400):
        f = conformal(seed, box=Box.cube(4.0, 2))
        a[seed] = np.log(f.values_batch(x)[0, 0, 0])
        b[seed] = np.log(f.values_batch(x + shift)[0, 0, 0])
    se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) <= 4.0 * se
    assert abs(a.var(ddof=1) - b.var(ddof=1)) <= 4.0 * a.var(ddof=1) / np.sqrt(200)


def test_conformal_isotropy_axis_vs_diagonal():
    delta = 0.4
    base = np.array([[0.0, 0.0]])
    ax = base + np.array([delta, 0.0])
    diag = base + delta / np.sqrt(2.0)
    va, vd = np.empty(400), np.empty(400)
    for seed in range(400):
        f = conformal(seed, box=Box.cube(3.0, 2))
        phis = 0.5 * np.log(f.values_batch(np.vstack([base, ax, diag]))[:, 0, 0])
        va[seed] = phis[1] - phis[0]
        vd[seed] = phis[2] - phis[0]
    # compare variances of increments along axis vs diagonal directions
    sa, sd = va.var(ddof=1), vd.var(ddof=1)
    se = sa * np.sqrt(2.0 / 399)
    assert abs(sa - sd) <= 3.0 * se


# ---------------------------------------------------------------- eigen bounds

def test_eigen_bounds_flat_and_diagonal():
    eb = eigen_bounds(FlatMetric(2), (0, 0))
    assert eb.lambda_min == 1.0 and eb.lambda_max == 1.0
    eb2 = eigen_bounds(ConstantMetric(np.diag([2.0, 3.0])), (1, 1))
    assert eb2.lambda_min == 2.0 and eb2.lambda_max == 3.0


def test_eigen_bounds_conformal_scalar_oracle():
    f = conformal(23)
    eb = eigen_bounds(f, (0, 0), subgrid=9)
    axes = [np.linspace(-0.5, 0.5, 9)] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    factors = f.conformal_factor_batch(pts)
    assert np.isclose(eb.lambda_min, factors.min(), rtol=0, atol=0)
    assert np.isclose(eb.lambda_max, factors.max(), rtol=0, atol=0)


def test_assumption_report_flat():
    report = assumption_report(FlatMetric(2),
                               [(4 * i, 4 * j) for i in range(8) for j in range(4)],
                               r_values=(0.7,))
    assert isinstance(report, AssumptionReport)
    assert np.isclose(report.mgf_lambda[0], np.exp(0.7))
    assert report.pair_covariance == 0.0


def test_assumption_report_separation_enforced():
    f = conformal(5, box=Box.cube(20.0, 2))
    with pytest.raises(FieldError):
        assumption_report(f, [(i, 0) for i in range(30)])


def test_assumption_report_independent_cubes():
    f = conformal(5, box=Box.cube(21.0, 2))
    cubes = [(4 * i - 18, 4 * j - 18) for i in range(10) for j in range(4)]
    report = assumption_report(f, cubes, r_values=(0.5,))
    assert report.n_cubes == 40
    assert report.mgf_lambda[0] > 0
    assert abs(report.pair_covariance) <= 4.0 * report.pair_covariance_se


def test_finite_range_cube_covariance_across_seeds():
    # two cubes with gap >= 2 * range: covariance of Lambda over 200 seeds
    a = np.empty(200)
    b = np.empty(200)
    for seed in range(200):
        f = conformal(seed, box=Box.cube(6.0, 2))
        a[seed] = eigen_bounds(f, (-2, 0), subgrid=5).lambda_max
        b[seed] = eigen_bounds(f, (2, 0), subgrid=5).lambda_max
    prod = (a - a.mean()) * (b - b.mean())
    cov = prod.mean()
    se = prod.std(ddof=1) / np.sqrt(len(prod))
    assert abs(cov) <= 4.0 * se


# ---------------------------------------------------------------- stack, scaling

def test_field_stack_matches_single_fields():
    fields = [conformal(s) for s in range(4)]
    stack = FieldStack(fields)
    pts = np.array([[0.1, 0.2], [1.0, -1.0], [2.0, 0.5], [-1.5, 2.5]])
    sv, sg, sh = stack.evaluate_batch(pts)
    for i, f in enumerate(fields):
        v, g, h = f.evaluate_batch(pts[i][None, :])
        assert np.array_equal(sv[i], v[0])
        assert np.array_equal(sg[i], g[0])
        assert np.array_equal(sh[i], h[0])


def _evaluation_digests(field, pts):
    """sha256 of evaluate_batch (orders 1 and 2) and values_batch, and of the
    conformal entry points (conformal_exponent_batch at orders 1 and 2, then
    conformal_factor_batch where the field has it; None for tensor fields).
    Every order-1 call must return None for the Hessian it skips."""
    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def orders(evaluate):
        first, second = evaluate(pts, order=1), evaluate(pts, order=2)
        assert first[2] is None
        return list(first[:2]) + list(second)

    evaluation = orders(field.evaluate_batch) + [field.values_batch(pts)]
    if not field.conformal:
        return digest(evaluation), None
    conformal = orders(field.conformal_exponent_batch)
    if hasattr(field, "conformal_factor_batch"):
        conformal.append(field.conformal_factor_batch(pts))
    return digest(evaluation), digest(conformal)


def _bump(base):
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=1.2, glue_width=0.5)
    return make_bump(spec, base)


# (evaluation, conformal) digests from _evaluation_digests at fixed points in
# [-w, w]^dim (the hyperbolic points stay inside its patch), computed on
# earlier implementations of the support gather, kernel sums and mode maps
# (numpy 2.4.6, x86-64); any rewrite of them must reproduce every bit.  The
# flat, bump, perturbed and scaled-sphere digests were computed when
# FlatMetric was a constant tensor field and bump exponents were assembled
# outside fields.py, always at order 2
GOLDEN_EVALUATIONS = {
    "conformal": (
        lambda: conformal(21), 2, 2.0,
        "f4729b9ad80d40ba54532d60ae3f7bc15f2e0f8a28ed6fe5e19d9f13487dde35",
        "b6d1f6c974ef2296d65622f23422ea394e02d731c47b441af4a5a87f83fb7444"),
    "sym_shift": (
        lambda: MetricField("sym_shift", seed=21, region=BOX, kernel=KERN,
                            shift=2.0), 2, 2.0,
        "f81345ee211cb54322be671f7e4e03f763f494127e3e1bef0c8ef89de221db02",
        None),
    "sym_exp": (
        lambda: MetricField("sym_exp", seed=21, region=BOX, kernel=KERN), 2, 2.0,
        "b1b4c671092fba3a4168021b9e4e7b7ef7a706b51025c08203b58794b623c74a",
        None),
    "stack": (
        lambda: FieldStack([conformal(s) for s in (21, 22)]), 2, 2.0,
        "28b0bd51b989c5643e6ef622c32f1080534c3d32a7475316353d06525844805f",
        "d61dd6e49b938c2f268cea244a7a846325318ed72940719613df64ccee07941f"),
    "conformal_3d": (
        lambda: MetricField("conformal", seed=21, region=Box.cube(3.0, 3),
                            kernel=KERN), 3, 2.0,
        "15239dbbe55382dbd79c1707765d730900eec19dd5065745ed5c878c806cf26a",
        "66ae11d1938b5cd7cbf27a82fc2beac2a14b7c5090bd792846ecec0431850a69"),
    "conformal_scaled": (
        lambda: conformal(21).scaled(4.0), 2, 2.0,
        "8db39232bddc8fc22e7efce723b0aafd2cb0d7bfeaa11f47d7953c5be9c41e07",
        "17f3f50c59b7269578e928ac1538cc2af88a61f1d571f2089acdc203b65179c4"),
    "sphere_patch": (
        lambda: SpherePatchField(radius=1.5, center=(0.25, -0.5)), 2, 2.0,
        "c81e2b4f7747b7e0497c3834fb182279ec7719c62af6f8991137d63c44bf0bde",
        "6ddf9b1b2f38c0a269050a306f00708b101e83e99f25ca99c06b2287c897ec6e"),
    "hyperbolic_disk": (
        lambda: HyperbolicDiskField(), 2, 0.65,
        "404eafabda22c103c77447a9725d525556bbf9b114cc0691d677862ec4258d8f",
        "cd6c222eba7a09efcf9b4c26e93a247b8c04276bb6d00f5c84bcb62cfee39862"),
    "flat": (
        lambda: FlatMetric(2), 2, 2.0,
        "2a3c0465947de3a09a9a039eda7d5efedaa50b8f0252cdbbd165eb68c1ee1b5f",
        "a11937f356a9b0ba592c82f5290bac8016cb33a3f9bc68d3490147c158ebb10d"),
    "bump_conformal": (
        lambda: _bump(conformal(21)), 2, 2.0,
        "99045b6857f2fbeabca15b8815ccbaa656e53d6560430aaed1d6a7e4799b406f",
        "0dde7999641272991562c954d16c4af61d013709d1102a5ff9b8105fbebd4a02"),
    "bump_flat": (
        lambda: _bump(FlatMetric(2)), 2, 2.0,
        "a9ff5b291e64b77f460f0112cb8a8643fef8e27b4f86282e2a5ef458c94c8e19",
        "c2bbfe035f3825e0f10298b295d8150159ffd5a9e805f3d47c62e9c3ed28433a"),
    "perturbed": (
        lambda: PerturbedConformalField(_bump(conformal(21)), conformal(22),
                                        0.05), 2, 2.0,
        "b95941f4bbfe57faac016b8b0187caa3d752fd0f7eb6a77276e28102240ddbee",
        "759727a0574589a161e8f4abcba59f664d88c2a9b473df0e0693d2adb33308ed"),
    "scaled_sphere": (
        lambda: ScaledField(SpherePatchField(radius=1.5, center=(0.25, -0.5)),
                            0.7), 2, 2.0,
        "8466300f3f9c1af38aa1e704d62234fb8b7391faeacc9b537956f03c90616ffb",
        "cf312a7ccfdafe3893de6fd84fe8a8dfe0088a3c298fdbe60a1ad2e24393d0d8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVALUATIONS))
def test_evaluation_golden_digest(name):
    make, dim, w, evaluation, conformal_ = GOLDEN_EVALUATIONS[name]
    pts = 2.0 * w * rng.uniform(210, np.arange(64 * dim)).reshape(64, dim) - w
    assert _evaluation_digests(make(), pts) == (evaluation, conformal_)


def test_scaled_field_exact_power_of_two():
    f = conformal(31)
    f4 = f.scaled(4.0)
    pts = np.array([[0.5, 0.5], [-2.0, 1.0]])
    assert np.array_equal(f4.values_batch(pts), 4.0 * f.values_batch(pts))


# ---------------------------------------------------------------- persistence

def test_save_load_roundtrip(tmp_path):
    f = MetricField("sym_exp", seed=77, region=Box.cube(3.0, 2),
                    kernel=KernelSpec(range=0.8, amplitude=0.2), shift=1.5)
    path = tmp_path / "field.rfpp"
    n_bytes = save_field(f, path)
    assert n_bytes > 100
    g = load_field(path)
    assert g.mode == f.mode and g.seed == f.seed
    pts = np.array([[0.3, -0.4], [1.1, 0.9]])
    a = f.evaluate_batch(pts)
    b = g.evaluate_batch(pts)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("offset,match", [(-1, "digest"), (16, "digest"),
                                          (8, "unsupported container version")])
def test_load_rejects_tampered_container(tmp_path, offset, match):
    # a flipped digest byte, a flipped seed byte (the regenerated
    # coefficients no longer match the digest), and version 1 (2 ^ 3)
    path = tmp_path / "field.rfpp"
    save_field(conformal(5, box=Box.cube(2.0, 2)), path)
    data = bytearray(path.read_bytes())
    data[offset] ^= 3 if offset == 8 else 1
    path.write_bytes(bytes(data))
    with pytest.raises(FieldError, match=match):
        load_field(path)


def test_load_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.rfpp"
    path.write_bytes(b"not a container at all")
    with pytest.raises(FieldError):
        load_field(path)
