import functools
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from rfpp import rng
from rfpp.experiments import BumpSpec, PerturbedConformalField, make_bump
from rfpp.fields import (_FIELD_BLOCK, Box, ConstantMetric, FieldError,
                         FieldStack, FlatMetric, HyperbolicDiskField, KernelSpec,
                         MetricField, RegionError, SpherePatchField, check_spd_on_region, eigen_bounds,
                         grid_points, load_field, sample_noise, save_field)

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


def test_field_evaluates_at_its_region_corners():
    # range / spacing = 10/3: floor((lo - range) / spacing) = -57 is one node
    # short of floor(lo / spacing) - ceil(range / spacing) = -58, so the
    # corners' support left the noise grid and values_batch raised
    kernel = KernelSpec(range=1.0, amplitude=0.3)
    field = MetricField("conformal", 3, Box.cube(16.0, 2), kernel, spacing=0.3)
    corners = np.array([[-16.0, -16.0], [16.0, 16.0], [-16.0, 16.0],
                        [16.0, -16.0]])
    assert np.all(np.isfinite(field.values_batch(corners)))
    assert field.noise.index_lo == (-58, -58)
    assert field.noise.node_counts == (116, 116)
    # coefficients are keyed by absolute node: the extended grid changes no
    # value at a point a smaller region already covered
    inner = MetricField("conformal", 3, Box.cube(12.0, 2), kernel, spacing=0.3)
    X = 24.0 * rng.uniform(24, np.arange(400)).reshape(200, 2) - 12.0
    assert field.values_batch(X).tobytes() == inner.values_batch(X).tobytes()
    # a grid that reached far enough stays as it was: the default spacing
    # divides the range, and the grid is floor((lo - range) / spacing) on
    assert conformal(1, box=Box.cube(16.0, 2)).noise.index_lo == (-68, -68)
    assert conformal(1, box=Box.cube(16.0, 2)).noise.node_counts == (137, 137)


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


def test_radial_has_the_bits_of_the_closed_form_on_the_support():
    # the oracle: the closed form on the entries with u < 1 alone, scattered
    # into +0.0; every entry matches it byte for byte, the signs of zeros
    # included, also where exp underflows next to the support's edge
    u = np.concatenate([np.linspace(0.0, 2.0, 20001),
                        1.0 - np.ldexp(1.0, -np.arange(1, 54)),
                        [1.0, 1e300, np.inf]])
    inside = u < 1.0
    inv = 1.0 / (1.0 - u[inside])
    e = np.exp(1.0 - inv)
    expected = [np.zeros_like(u) for _ in range(3)]
    expected[0][inside] = e
    expected[1][inside] = -e * inv * inv
    expected[2][inside] = e * (inv ** 4 - 2.0 * inv ** 3)
    kernel = KernelSpec(range=1.0)
    assert kernel.radial(u, 0).tobytes() == expected[0].tobytes()
    first = kernel.radial(u, 1)
    assert first[2] is None
    for got in (first[:2], kernel.radial(u, 2)):
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


def _boundary_points(spacing, dim):
    """Points whose coordinates are noise-lattice coordinates z * spacing,
    |z| <= 8, or 1 to 3 ulps below or above one: 600 with every coordinate
    drawn from those values, then, along each axis, every value with the
    other coordinates 0 (where u at a node off that axis alone can fall
    short of its bound)."""
    base = np.arange(-8, 9) * spacing
    values, lo, hi = [base], base, base
    for _ in range(3):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        values += [lo, hi]
    values = np.concatenate(values)
    pick = rng.uniform(240, dim, np.arange(600 * dim)) * len(values)
    lines = np.zeros((dim, len(values), dim))
    for i in range(dim):
        lines[i, :, i] = values
    return np.vstack([values[pick.astype(np.int64)].reshape(600, dim),
                      lines.reshape(-1, dim)])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("range_,spacing,ulp_short", [
    (1.0, 0.25, False), (1.0, 0.3, False), (1.0, 0.4, False),
    (0.6, 0.2, True)])
def test_dropped_support_line_carries_no_weight(range_, spacing, ulp_short,
                                                dim):
    # a support holds the lines -reach + 1 .. reach; the nodes of the full
    # (2 reach + 1)^d mesh it leaves out (the line -reach on some axis) lie
    # at least range from every point of the cell, at range / spacing an
    # integer (4) or not (3.33, 2.5), for points on cell boundaries and a
    # few ulps to either side.  psi, psi' and psi'' are +0.0 there at every
    # order, except that psi' is -0.0, as the closed form has it, where u
    # falls an ulp short of 1 because 0.6 / 0.2 = 3 with 0.2 not dyadic;
    # a zero of either sign adds nothing to a sum
    kernel = KernelSpec(range=range_)
    field = MetricField("conformal", seed=5, region=Box.cube(2.0, dim),
                        kernel=kernel, spacing=spacing)
    reach = field._reach
    assert field._line.tolist() == list(range(-reach + 1, reach + 1))
    full = grid_points([np.arange(-reach, reach + 1)] * dim)
    dropped = full[(full == -reach).any(axis=1)]
    assert (len(full) - len(dropped) == len(field._flat_offs)
            == (2 * reach) ** dim)
    X = _boundary_points(spacing, dim)
    cell = np.floor(X / spacing).astype(np.int64)
    dx = X[:, None, :] - (cell[:, None, :] + dropped) * spacing
    u = np.einsum("bki,bki->bk", dx, dx) / range_ ** 2
    zero = np.zeros_like(u).tobytes()
    assert kernel.radial(u, 0).tobytes() == zero
    for psi, psi1, psi2 in (kernel.radial(u, 1), kernel.radial(u, 2)):
        assert psi.tobytes() == zero
        assert psi2 is None or psi2.tobytes() == zero
        if ulp_short:
            assert np.all(psi1 == 0.0) and np.any(np.signbit(psi1))
        else:
            assert psi1.tobytes() == zero


@pytest.mark.parametrize("dim,nodes,steps", [(2, 64, (512, 256, 128)),
                                             (3, 512, (64, 21, 7))])
def test_support_size_and_block_points(dim, nodes, steps):
    # at the default spacing range / 4 a support holds (2 * 4)^d nodes, and
    # a block _FIELD_BLOCK // (K d^order) points at orders 0, 1 and 2
    field = MetricField("conformal", seed=5, region=Box.cube(2.0, dim),
                        kernel=KERN)
    assert len(field._flat_offs) == nodes
    assert field._steps == steps


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
        assert sv[i].tobytes() == v[0].tobytes()
        assert sg[i].tobytes() == g[0].tobytes()
        assert sh[i].tobytes() == h[0].tobytes()


def _evaluation_digests(field, pts, split=False):
    """sha256 of evaluate_batch (orders 1 and 2) and values_batch, and of the
    conformal entry points (conformal_exponent_batch at orders 1 and 2, then
    conformal_factor_batch where the field has it; None for tensor fields).
    Every order-1 call must return None for the Hessian it skips.  With
    ``split`` (conformal fields) the pair is (value, derivative) instead:
    the digest of every array that reads phi's value (the evaluate_batch
    and values_batch arrays, phi at orders 1 and 2, then
    conformal_factor_batch where the field has it), then of dphi at orders
    1 and 2 and d2phi."""
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
    if split:
        phi1, dphi1, phi2, dphi2, d2phi2, *factor = conformal
        return (digest(evaluation + [phi1, phi2] + factor),
                digest([dphi1, dphi2, d2phi2]))
    return digest(evaluation), digest(conformal)


def _bump(base):
    spec = BumpSpec(center=(0.0, 0.0), cone_half_angle=1.2, glue_width=0.5)
    return make_bump(spec, base)


# (evaluation, conformal) digests from _evaluation_digests at fixed points in
# [-w, w]^dim (the hyperbolic points stay inside its patch), computed on
# earlier implementations of the support gather, kernel sums and mode maps
# (numpy 2.4.6, x86-64); any rewrite of them must reproduce every bit.  The
# flat and bump_flat digests were computed when FlatMetric was a constant
# tensor field and bump exponents were assembled outside fields.py, always
# at order 2.
#
# The entries of SPLIT_DIGESTS, whose phi is a sampled kernel sum, hold
# (value, derivative) digests instead.  The last bits of phi, and of every
# array that reads it, depend on how the one-channel einsum over the support
# groups its sums, which the support's length decides; dphi and d2phi do
# not read phi, except where the bump's blend reads its base's phi, so the
# derivative digests of conformal, conformal_3d and stack hold across a
# change of the support's length and those of bump_conformal and perturbed
# do not
GOLDEN_EVALUATIONS = {
    "conformal": (
        lambda: conformal(21), 2, 2.0,
        "72b974fb063eb7943bfad970451056cd3d9a1e46a552aaf5478aa4102dc1fe86",
        "585a2410b73cd9cb88fd7cda9b510e0d134138f75a7feabf84250a5d5a43db8c"),
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
        "a21b7bd4b192e3e4882ddcb038142be8b83eb7df1b9fbbe951a30068c3d0c8b8",
        "285725044db28e7d1c27ce82d711994f123a3c2168b3cefa6dd8918092bb52c6"),
    "conformal_3d": (
        lambda: MetricField("conformal", seed=21, region=Box.cube(3.0, 3),
                            kernel=KERN), 3, 2.0,
        "df16f76506015e68fb88e0e0fac81905f74f7db7f84a627f9021e98ff147cd36",
        "b65ff4d7b53a9374d99ce703a951bf0594096b5a0bf621156f5b967a427c7a08"),
    "sym_exp_3d": (
        lambda: MetricField("sym_exp", seed=21, region=Box.cube(3.0, 3),
                            kernel=KERN), 3, 2.0,
        "0b620e6ba7f72c4dd7000b37eb9624e32f8f1dd6244afcb630a80be99616bdf3",
        None),
    "sym_shift_3d": (
        lambda: MetricField("sym_shift", seed=21, region=Box.cube(3.0, 3),
                            kernel=KERN, shift=2.0), 3, 2.0,
        "b962eb198e68f198b3d9dec276746d4d45754f43ef8eb92af1718168b93bb8fe",
        None),
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
        "9f72b1f0ec22c1605bc7fee13a52f568b0d7ba38a46378092f427bff994a9a8b",
        "1da746308d02b96e7230545b8f67df8901efa54c52eb2b5e1630ba5498dd65c5"),
    "bump_flat": (
        lambda: _bump(FlatMetric(2)), 2, 2.0,
        "a9ff5b291e64b77f460f0112cb8a8643fef8e27b4f86282e2a5ef458c94c8e19",
        "c2bbfe035f3825e0f10298b295d8150159ffd5a9e805f3d47c62e9c3ed28433a"),
    "perturbed": (
        lambda: PerturbedConformalField(_bump(conformal(21)), conformal(22),
                                        0.05), 2, 2.0,
        "3ee17517c523b6a169d6786a0b3d17e4d89c1602421bad60e6cd325cb3aba78f",
        "1c6a03d5c0516c16e72ea0c9c9a7fe905f704a47bb36f8d3b93fe685444d3bc4"),
}

SPLIT_DIGESTS = {"conformal", "conformal_3d", "stack", "bump_conformal",
                 "perturbed"}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVALUATIONS))
def test_evaluation_golden_digest(name):
    make, dim, w, first, second = GOLDEN_EVALUATIONS[name]
    pts = 2.0 * w * rng.uniform(210, np.arange(64 * dim)).reshape(64, dim) - w
    assert _evaluation_digests(make(), pts, name in SPLIT_DIGESTS) == (
        first, second)


def _batch_methods(field):
    """(order, method) of every batch entry point a field has, in one
    order: a FieldStack's list is its member fields' list less the last."""
    methods = [(0, field.values_batch)] + [
        (k, functools.partial(field.evaluate_batch, order=k)) for k in (1, 2)]
    if field.conformal:
        methods += [(k, functools.partial(field.conformal_exponent_batch,
                                          order=k)) for k in (1, 2)]
        if hasattr(field, "conformal_factor_batch"):
            methods.append((0, field.conformal_factor_batch))
    return methods


def _assert_rows_alone(whole, alone):
    """Row b of a batch result (an array, or a tuple with None for a skipped
    order) has the bytes of alone[b], the result for that point alone."""
    wholes = whole if isinstance(whole, tuple) else (whole,)
    for b, one in enumerate(alone):
        ones = one if isinstance(one, tuple) else (one,)
        for a, c in zip(wholes, ones, strict=True):
            assert (a is None) == (c is None)
            if a is not None:
                assert a[b].tobytes() == c[0].tobytes()


def _block_points(dim, n):
    return 5.0 * rng.uniform(230, np.arange(n * dim)).reshape(n, dim) - 2.5


@pytest.mark.parametrize("mode,dim", [("conformal", 2), ("conformal", 3),
                                      ("sym_exp", 2), ("sym_exp", 3),
                                      ("sym_shift", 2), ("sym_shift", 3)])
def test_rows_evaluate_independently(mode, dim):
    # every row of a batch is byte for byte the point evaluated alone, at
    # every order and entry point (signs of zeros included), for batches
    # one point short of an evaluation block, one block, one point over and
    # over three blocks: no row's result depends on the batch or the block
    # it came in
    field = MetricField(mode, seed=23, region=Box.cube(3.0, dim), kernel=KERN,
                        shift=2.0)
    for order, method in _batch_methods(field):
        step = field._steps[order]
        X = _block_points(dim, 3 * step + 7)
        alone = [method(X[b:b + 1]) for b in range(len(X))]
        for n in (step - 1, step, step + 1, 3 * step + 7):
            _assert_rows_alone(method(X[:n]), alone[:n])


@pytest.mark.parametrize("mode,dim", [("conformal", 2), ("conformal", 3),
                                      ("sym_exp", 2)])
def test_stack_rows_evaluate_independently(mode, dim):
    # row b of a stack's batch is byte for byte field b mod 3 at that point
    # alone, across block boundaries that do not fall on a multiple of the
    # stack size
    fields = [MetricField(mode, seed=s, region=Box.cube(3.0, dim), kernel=KERN,
                          shift=2.0) for s in (23, 24, 25)]
    stack = FieldStack(fields)
    members = [_batch_methods(f) for f in fields]
    for i, (order, method) in enumerate(_batch_methods(stack)):
        step = fields[0]._steps[order]
        sizes = [n - n % 3 for n in (step - 1, step + 3, 3 * step + 9)]
        X = _block_points(dim, sizes[-1])
        alone = [members[b % 3][i][1](X[b:b + 1]) for b in range(len(X))]
        for n in sizes:
            _assert_rows_alone(method(X[:n]), alone[:n])


@pytest.mark.parametrize("call,n,outputs", [
    (lambda f, X: f.conformal_factor_batch(X), 40000, 1),
    (lambda f, X: f.evaluate_batch(X, order=2), 5000, 4 + 8 + 16)],
    ids=["conformal_factor_batch", "evaluate_batch_order2"])
def test_large_batch_memory_stays_within_a_few_blocks(call, n, outputs):
    # tracemalloc sees numpy's buffers: the peak of one large call is its
    # output (``outputs`` doubles per point) plus a few evaluation blocks of
    # temporaries, not temporaries that grow with the batch
    field = conformal(5)
    X = 10.0 * rng.uniform(3, np.arange(2 * n)).reshape(n, 2) - 5.0
    tracemalloc.start()
    try:
        call(field, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * outputs + 8 * _FIELD_BLOCK)


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


@pytest.mark.parametrize("edit,match", [
    (lambda data: data[:14], "truncated"),
    (lambda data: data[:12] + bytes([7]) + data[13:], "mode code 7"),
    (lambda data: data[:13] + bytes([9]) + data[14:], "dimension 9"),
    (lambda data: data[:56] + np.array(4.0, "<f8").tobytes() + data[64:],
     "offset 56"),
], ids=["truncated", "bad_mode", "bad_dimension", "reserved_not_one"])
def test_load_refuses_malformed_header(tmp_path, edit, match):
    path = tmp_path / "field.rfpp"
    save_field(conformal(5, box=Box.cube(2.0, 2)), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FieldError, match=match):
        load_field(path)


# ---------------------------------------------------------------- membership

def _region_fields():
    """One field of every class; the perturbed field's base region (that of
    its bump) sticks out of its noise region on one side only."""
    small = Box.cube(3.0, 2)
    return {
        "MetricField": conformal(5, box=small),
        "FieldStack": FieldStack([conformal(5, box=small), conformal(6, box=small)]),
        "ConstantMetric": ConstantMetric(np.diag([1.0, 2.0])),
        "FlatMetric": FlatMetric(2),
        "SpherePatchField": SpherePatchField(radius=1.5),
        "HyperbolicDiskField": HyperbolicDiskField(),
        "BumpField": _bump(conformal(21)),
        "PerturbedConformalField": PerturbedConformalField(
            _bump(conformal(21, box=Box((-1.0, -3.0), (5.0, 1.0)))),
            conformal(22, box=Box.cube(3.0, 2)), 0.05),
    }


@pytest.mark.parametrize("name", [
    "MetricField", "FieldStack", "ConstantMetric", "FlatMetric",
    "SpherePatchField", "HyperbolicDiskField", "BumpField",
    "PerturbedConformalField"])
def test_contains_follows_region(name):
    field = _region_fields()[name]
    X = 14.0 * rng.uniform(220, np.arange(2000)).reshape(1000, 2) - 7.0
    if field.region is None:
        expected = np.ones(len(X), dtype=bool)
    else:
        lo, hi = np.asarray(field.region.lo), np.asarray(field.region.hi)
        expected = np.all((X >= lo) & (X <= hi), axis=1)
    assert 0 < np.sum(expected) <= len(X)
    assert np.array_equal(field.contains(X), expected)
    if name == "FieldStack":
        assert field.field_at(3) is field.fields[1]
        assert field.for_rows([1]).fields == [field.fields[1]]
    else:
        assert field.field_at(3) is field
        assert field.for_rows(np.arange(2)) is field


def test_box_identity_is_its_bounds(tmp_path):
    # the bound columns contains() reads are not fields: equality, hashing,
    # repr, pickling and the field container see lo and hi alone
    box = Box(np.array([-1, 0.5]), (2.0, 3))
    same = Box((-1.0, 0.5), (2.0, 3.0))
    assert box == same and hash(box) == hash(same)
    assert repr(box) == "Box(lo=(-1.0, 0.5), hi=(2.0, 3.0))"
    copy = pickle.loads(pickle.dumps(box))
    assert copy == box
    X = np.array([[0.0, 1.0], [2.5, 1.0], [-1.0, 3.0], [0.0, np.nan]])
    assert copy.contains(X).tolist() == [True, False, True, False]
    assert box.contains(X[0]).tolist() == [True]
    # sha256 of this container, computed before the bound columns existed
    field = MetricField("sym_exp", seed=5, region=Box((-1.0, -2.0), (2.0, 1.5)),
                        kernel=KernelSpec(range=0.8, amplitude=0.2))
    save_field(field, tmp_path / "field.rfpp")
    assert hashlib.sha256((tmp_path / "field.rfpp").read_bytes()).hexdigest() \
        == "f786e83b849fd20ea54059cb766b228653fbeabcc41a37728c33c47829eeff2d"


def test_perturbed_region_is_the_intersection():
    field = _region_fields()["PerturbedConformalField"]
    assert field.region == Box((-1.0, -3.0), (3.0, 1.0))
