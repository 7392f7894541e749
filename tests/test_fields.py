import functools
import hashlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from rfpp import rng
from rfpp.distance import GraphError, build_graph
from rfpp.experiments import BumpSpec, PerturbedConformalField, make_bump
from rfpp.fields import (_FIELD_BLOCK, Box, ConstantMetric, FieldError,
                         FieldStack, FlatMetric, HyperbolicDiskField, KernelSpec,
                         MetricField, RegionError, SpherePatchField,
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


def test_conformal_always_spd():
    X = grid_points([np.arange(-4.0, 4.25, 0.5)] * 2)
    for seed in range(10):
        f = conformal(seed, amplitude=1.0)
        assert np.all(np.linalg.eigvalsh(f.values_batch(X)) > 0)


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


@pytest.mark.parametrize("dim", [2])
@pytest.mark.parametrize("range_,spacing,ulp_short", [
    (1.0, 0.25, False), (1.0, 0.3, False), (1.0, 0.4, False),
    (0.6, 0.2, True)])
def test_dropped_support_line_carries_no_weight(range_, spacing, ulp_short,
                                                dim):
    # a support holds the lines -reach + 1 .. reach; the nodes of the full
    # (2 reach + 1)^2 mesh it leaves out (the line -reach on some axis) lie
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


@pytest.mark.parametrize("dim,nodes,steps", [(2, 64, (512, 256, 128))])
def test_support_size_and_block_points(dim, nodes, steps):
    # at the default spacing range / 4 a support holds (2 * 4)^2 nodes, and
    # a block _FIELD_BLOCK // (K 2^order) points at orders 0, 1 and 2
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


def test_finite_range_cube_covariance_across_seeds():
    # two unit cubes with gap >= 2 * range: covariance over 200 seeds of
    # Lambda, the largest conformal factor on a 5 x 5 mesh of each cube
    def cube(x):
        return grid_points([np.linspace(x - 0.5, x + 0.5, 5),
                            np.linspace(-0.5, 0.5, 5)])

    a = np.empty(200)
    b = np.empty(200)
    for seed in range(200):
        f = conformal(seed, box=Box.cube(6.0, 2))
        a[seed] = f.conformal_factor_batch(cube(-2.0)).max()
        b[seed] = f.conformal_factor_batch(cube(2.0)).max()
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
# at order 2.  The sym_exp digest was computed with the closed-form 2 x 2
# exponential, which moved the last bits the eigendecomposition gave.
#
# The entries of SPLIT_DIGESTS, whose phi is a sampled kernel sum, hold
# (value, derivative) digests instead.  The last bits of phi, and of every
# array that reads it, depend on how the one-channel einsum over the support
# groups its sums, which the support's length decides; dphi and d2phi do
# not read phi, except where the bump's blend reads its base's phi, so the
# derivative digests of conformal and stack hold across a change of the
# support's length and those of bump_conformal and perturbed do not
GOLDEN_EVALUATIONS = {
    "conformal": (
        lambda: conformal(21), 2, 2.0,
        "72b974fb063eb7943bfad970451056cd3d9a1e46a552aaf5478aa4102dc1fe86",
        "585a2410b73cd9cb88fd7cda9b510e0d134138f75a7feabf84250a5d5a43db8c"),
    "sym_exp": (
        lambda: MetricField("sym_exp", seed=21, region=BOX, kernel=KERN), 2, 2.0,
        "ba246f51740cbb6e9a33ec15c7c4667f8d69d61ec251ca0134ee61bc299db036",
        None),
    "stack": (
        lambda: FieldStack([conformal(s) for s in (21, 22)]), 2, 2.0,
        "a21b7bd4b192e3e4882ddcb038142be8b83eb7df1b9fbbe951a30068c3d0c8b8",
        "285725044db28e7d1c27ce82d711994f123a3c2168b3cefa6dd8918092bb52c6"),
    "sphere_patch": (
        lambda: SpherePatchField(radius=1.5, center=(0.25, -0.5)), 2, 2.0,
        "c81e2b4f7747b7e0497c3834fb182279ec7719c62af6f8991137d63c44bf0bde",
        "6ddf9b1b2f38c0a269050a306f00708b101e83e99f25ca99c06b2287c897ec6e"),
    "hyperbolic_disk": (
        lambda: HyperbolicDiskField(), 2, 0.65,
        "404eafabda22c103c77447a9725d525556bbf9b114cc0691d677862ec4258d8f",
        "cd6c222eba7a09efcf9b4c26e93a247b8c04276bb6d00f5c84bcb62cfee39862"),
    "flat": (
        lambda: FlatMetric(), 2, 2.0,
        "2a3c0465947de3a09a9a039eda7d5efedaa50b8f0252cdbbd165eb68c1ee1b5f",
        "a11937f356a9b0ba592c82f5290bac8016cb33a3f9bc68d3490147c158ebb10d"),
    "bump_conformal": (
        lambda: _bump(conformal(21)), 2, 2.0,
        "9f72b1f0ec22c1605bc7fee13a52f568b0d7ba38a46378092f427bff994a9a8b",
        "1da746308d02b96e7230545b8f67df8901efa54c52eb2b5e1630ba5498dd65c5"),
    "bump_flat": (
        lambda: _bump(FlatMetric()), 2, 2.0,
        "a9ff5b291e64b77f460f0112cb8a8643fef8e27b4f86282e2a5ef458c94c8e19",
        "c2bbfe035f3825e0f10298b295d8150159ffd5a9e805f3d47c62e9c3ed28433a"),
    "perturbed": (
        lambda: PerturbedConformalField(_bump(conformal(21)), conformal(22),
                                        0.05), 2, 2.0,
        "3ee17517c523b6a169d6786a0b3d17e4d89c1602421bad60e6cd325cb3aba78f",
        "1c6a03d5c0516c16e72ea0c9c9a7fe905f704a47bb36f8d3b93fe685444d3bc4"),
}

SPLIT_DIGESTS = {"conformal", "stack", "bump_conformal", "perturbed"}


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
    if field.sym_exp:
        methods += [(k, functools.partial(field.log_metric_batch, order=k))
                    for k in (0, 1, 2)]
    return methods


# a shift per mode: sym_exp reads any mean level, a conformal field only 1.0
SHIFT = {"conformal": 1.0, "sym_exp": 2.0}


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


@pytest.mark.parametrize("mode,dim", [("conformal", 2), ("sym_exp", 2)])
def test_rows_evaluate_independently(mode, dim):
    # every row of a batch is byte for byte the point evaluated alone, at
    # every order and entry point (signs of zeros included), for batches
    # one point short of an evaluation block, one block, one point over and
    # over three blocks: no row's result depends on the batch or the block
    # it came in
    field = MetricField(mode, seed=23, region=Box.cube(3.0, dim), kernel=KERN,
                        shift=SHIFT[mode])
    for order, method in _batch_methods(field):
        step = field._steps[order]
        X = _block_points(dim, 3 * step + 7)
        alone = [method(X[b:b + 1]) for b in range(len(X))]
        for n in (step - 1, step, step + 1, 3 * step + 7):
            _assert_rows_alone(method(X[:n]), alone[:n])


@pytest.mark.parametrize("mode,dim", [("conformal", 2), ("sym_exp", 2)])
def test_stack_rows_evaluate_independently(mode, dim):
    # row b of a stack's batch is byte for byte field b mod 3 at that point
    # alone, across block boundaries that do not fall on a multiple of the
    # stack size
    fields = [MetricField(mode, seed=s, region=Box.cube(3.0, dim), kernel=KERN,
                          shift=SHIFT[mode]) for s in (23, 24, 25)]
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


# ---------------------------------------------------------------- sym_exp closed form

def _sym(c):
    return np.array([[c[0], c[2]], [c[2], c[1]]])


def _expm_oracle(A, E, F, G):
    """e^A, D e^A[E] and D^2 e^A[E, F] + D e^A[G] for 2 x 2 matrices, from
    scipy.linalg.expm of block upper-triangular matrices: D e^A[E] is the
    (1, 2) block of exp([[A, E], [0, A]]), and D^2 e^A[E, F] the (1, 3)
    block of exp([[A, E, 0], [0, A, F], [0, 0, A]]) plus the same with E and
    F swapped (Najfeld and Havel 1995; Higham, Functions of Matrices, ch.
    3).  No eigendecomposition, so equal eigenvalues are no special case."""
    from scipy.linalg import expm
    Z = np.zeros((2, 2))

    def first(E):
        return expm(np.block([[A, E], [Z, A]]))[:2, 2:]

    def second(E, F):
        return expm(np.block([[A, E, Z], [Z, A, F], [Z, Z, A]]))[:2, 4:]

    return expm(A), first(E), second(E, F) + second(F, E) + first(G)


def _exponent(s, m=0.4, angle=0.7):
    """Channels (A_00, A_11, A_01) of A = m I + N with |N|^2 / 2 = s."""
    r = np.sqrt(s)
    return np.array([m + r * np.cos(angle), m - r * np.cos(angle),
                     r * np.sin(angle)])


# s = 0 is A = m I exactly; 1e-12 .. 0.999 take the series (below 1), 1.001
# and up the closed forms.  The oracle's own error grows with the norm of
# its block matrices (scaling and squaring), to about 1e-13 at s = 25, while
# the closed form stays within 1e-15 of a 40-digit evaluation there
EXPM_CASES = {"aI": (_exponent(0.0), 1e-14),
              "s=1e-12": (_exponent(1e-12), 1e-14),
              "s=0.3": (_exponent(0.3), 1e-14),
              "s=0.999": (_exponent(0.999), 1e-14),
              "s=1.001": (_exponent(1.001), 1e-14),
              "s=4": (_exponent(4.0), 1e-12),
              "s=25": (_exponent(25.0), 1e-12),
              "random": (2.0 * rng.uniform(240, np.arange(3)) - 1.0, 1e-14)}


@pytest.mark.parametrize("case", sorted(EXPM_CASES))
def test_sym_exp_closed_form_matches_block_expm(case):
    from rfpp.fields import _sym_exp_metric
    A, tol = EXPM_CASES[case]
    u = 2.0 * rng.uniform(241, np.arange(18)) - 1.0
    dA, d2A = u[:6].reshape(1, 2, 3), u[6:].reshape(1, 2, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, grad, hess = _sym_exp_metric(A[None], dA, d2A)
    for i in range(2):
        for j in range(2):
            ref = _expm_oracle(_sym(A), _sym(dA[0, i]), _sym(dA[0, j]),
                               _sym(d2A[0, i, j]))
            for got, want in zip((val[0], grad[0, i], hess[0, i, j]), ref):
                assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_sym_exp_rows_keep_their_bits_across_the_series_threshold():
    # a batch mixing s = 0, series rows and closed-form rows gives each row
    # the bytes of that row alone, at every order, without a warning
    from rfpp.fields import _sym_exp_metric
    A = np.array([_exponent(s) for s in (0.0, 0.5, 2.0, 1e-12, 9.0, 0.999)])
    u = 2.0 * rng.uniform(242, np.arange(6 * 18)) - 1.0
    dA, d2A = u[:36].reshape(6, 2, 3), u[36:].reshape(6, 2, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((A, None, None), (A, dA, None), (A, dA, d2A)):
            whole = _sym_exp_metric(*args)
            alone = [_sym_exp_metric(*(None if a is None else a[b:b + 1]
                                       for a in args)) for b in range(6)]
            _assert_rows_alone(whole, alone)


# ---------------------------------------------------------------- lattice tables

def _box_points(box):
    """The points (k_lo + i) step of a lattice box (k_lo, shape, step),
    row-major, as PassageGraph._samples builds them."""
    k_lo, shape, step = box
    return grid_points([np.arange(lo, lo + n) for lo, n in zip(k_lo, shape)]) * step


def _graph_box(h, half_width):
    """The doubled-lattice box a passage graph of spacing h samples on
    [-half_width, half_width]^2, (k_lo, shape, h / 2), and its points."""
    n = int(round(2 * half_width / h))
    box = ((-n, -n), (2 * n + 1,) * 2, h / 2)
    return box, _box_points(box)


def _order0_call(field):
    return field.conformal_factor_batch if field.conformal else field.values_batch


LATTICE_FIELDS = [("conformal", 2), ("sym_exp", 2)]


@pytest.mark.parametrize("mode,dim", LATTICE_FIELDS)
@pytest.mark.parametrize("h,pq", [(0.25, (1, 2)), (0.5, (1, 1))])
def test_dyadic_lattice_table_keeps_the_point_by_point_bits(mode, dim, h, pq):
    # the lattice points are exact dyadics, so every point of a phase has
    # its representative's displacements bit for bit; batches of several
    # evaluation blocks.  The box adds each point's node terms in the order
    # einsum takes for the transposed batch the passage graph's matrix has
    # always been made of (the row-major conformal sums differ in last bits)
    field = MetricField(mode, seed=31, region=Box.cube(2.5, dim), kernel=KERN)
    box, X = _graph_box(h, 1.5)
    call = _order0_call(field)
    assert field._phase_table(box[2])[:2] == pq
    assert call(X, lattice=box).tobytes() == call(np.asfortranarray(X)).tobytes()


@pytest.mark.parametrize("mode,dim", LATTICE_FIELDS)
@pytest.mark.parametrize("h", [0.3, 0.4])
def test_commensurate_lattice_table_within_ulps(mode, dim, h):
    # h / 2 = 3/5 and 4/5 of the spacing: 25 phases, whose displacements
    # differ from a point's own in their last bits
    field = MetricField(mode, seed=32, region=Box.cube(2.5, dim), kernel=KERN)
    box, X = _graph_box(h, 1.5)
    call = _order0_call(field)
    table = call(X, lattice=box)
    assert field._phase_table(box[2])[1] == 5
    per_point = call(X)
    assert np.max(np.abs(table - per_point)) <= 1e-14 * np.max(np.abs(per_point))


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
def test_incommensurate_lattice_keeps_the_point_by_point_path(mode):
    # h / 2 = 29/50 of the spacing: q = 50 phases per axis exceed the 8
    # support lines, so no table is built and the bits are the per-point ones
    field = MetricField(mode, seed=33, region=Box.cube(2.5, 2), kernel=KERN)
    box, X = _graph_box(0.29, 1.5)
    call = _order0_call(field)
    assert call(X, lattice=box).tobytes() == call(X).tobytes()
    assert field._phase_table(box[2]) is None


def test_lattice_outside_the_region_raises():
    field = conformal(34, box=Box.cube(2.0, 2))
    box, X = _graph_box(0.25, 2.5)
    with pytest.raises(RegionError):
        field.conformal_factor_batch(X, lattice=box)


def test_lattice_box_must_hold_the_points():
    field = conformal(34, box=Box.cube(2.0, 2))
    box, X = _graph_box(0.25, 1.5)
    with pytest.raises(FieldError, match="do not fill"):
        field.conformal_factor_batch(X[1:], lattice=box)


def test_lattice_cell_past_the_corner_cells_keeps_the_point_by_point_path():
    # 45 * 0.35 rounds down to 15.749999999999998, below 63 * 0.25: a region
    # ending there has its corner in cell 62, while the exact cell floor(45
    # * 7 / 5) of the box's last row and column is 63, so the table does
    # not apply to the box
    hi = 45 * 0.35
    assert hi < 63 * 0.25
    field = MetricField("conformal", seed=35, region=Box((0.0, 0.0), (hi, hi)),
                        kernel=KERN)
    box = ((43, 42), (3, 4), 0.35)
    X = _box_points(box)
    assert field._phase_table(box[2])[:2] == (7, 5)
    assert (field.conformal_factor_batch(X, lattice=box).tobytes()
            == field.conformal_factor_batch(X).tobytes())


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
@pytest.mark.parametrize("h", [0.25, 0.3])
def test_sub_boxes_keep_the_bits_of_their_box(mode, h):
    # a point's sums do not depend on the box around it: the row halves of
    # a box, one of its columns and one of its points give its bits (the
    # lone point sums one entry per node, the lone column few per phase)
    field = MetricField(mode, seed=36, region=Box.cube(3.5, 2), kernel=KERN)
    call = _order0_call(field)
    (k_lo, shape, step), X = _graph_box(h, 2.0)
    whole = call(X, lattice=(k_lo, shape, step))
    whole = whole.reshape(shape + whole.shape[1:])
    half = shape[0] // 2
    subs = [((k_lo[0], k_lo[1]), (half, shape[1]), (slice(0, half),)),
            ((k_lo[0] + half, k_lo[1]), (shape[0] - half, shape[1]),
             (slice(half, None),)),
            ((k_lo[0], k_lo[1] + 5), (shape[0], 1), (slice(None), slice(5, 6))),
            ((k_lo[0] + 7, k_lo[1] + 3), (1, 1), (slice(7, 8), slice(3, 4)))]
    for lo, sub_shape, part in subs:
        box = (lo, sub_shape, step)
        got = call(_box_points(box), lattice=box)
        assert got.tobytes() == np.ascontiguousarray(whole[part]).tobytes()


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


def test_save_load_roundtrip_above_the_signed_seed_range(tmp_path):
    # derived seeds reach 2^64 - 1: the container stores the seed as a u64
    seed = 2 ** 63 + 1
    f = conformal(seed, box=Box.cube(2.0, 2))
    path = tmp_path / "field.rfpp"
    save_field(f, path)
    assert path.read_bytes()[16:24] == seed.to_bytes(8, "little")
    g = load_field(path)
    assert g.seed == seed
    pts = np.array([[0.3, -0.4], [1.1, 0.9]])
    assert g.values_batch(pts).tobytes() == f.values_batch(pts).tobytes()


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
    (lambda data: data[:12] + bytes([1]) + data[13:], "mode code 1"),
    (lambda data: data[:13] + bytes([9]) + data[14:], "dimension 9"),
    (lambda data: data[:56] + np.array(4.0, "<f8").tobytes() + data[64:],
     "offset 56"),
], ids=["truncated", "bad_mode", "reserved_mode", "bad_dimension",
        "reserved_not_one"])
def test_load_refuses_malformed_header(tmp_path, edit, match):
    path = tmp_path / "field.rfpp"
    save_field(conformal(5, box=Box.cube(2.0, 2)), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FieldError, match=match):
        load_field(path)


CONFORMAL_SHIFT = ("^shift is the sym_exp mean level; a conformal field "
                   "takes only 1.0, not ")


def test_conformal_shift_is_refused_before_drawing(monkeypatch):
    # a conformal field never reads shift, so a value other than 1.0 would
    # be ignored and still saved into its container
    draws = []
    for fn in ("uniform", "normal"):
        monkeypatch.setattr(rng, fn, lambda *key: draws.append(key) or 1 / 0)
    with pytest.raises(FieldError, match=CONFORMAL_SHIFT + "5.0$"):
        MetricField("conformal", 3, Box.cube(2.0, 2), KERN, shift=5.0)
    assert draws == []


def test_load_refuses_a_conformal_shift(tmp_path):
    # the shift slot (offset 40) of a conformal container set to 5.0
    path = tmp_path / "field.rfpp"
    save_field(conformal(5, box=Box.cube(2.0, 2)), path)
    data = path.read_bytes()
    path.write_bytes(data[:40] + np.array(5.0, "<f8").tobytes() + data[48:])
    with pytest.raises(FieldError, match=CONFORMAL_SHIFT + "5.0$"):
        load_field(path)


# ---------------------------------------------------------------- the plane

def _container_3d(path):
    """A field container of dimension 3, laid out as save_field lays out a
    2-D one: a 2-D container's header with the dimension byte set to 3,
    three values per per-axis entry, then its coefficient digest."""
    save_field(conformal(5, box=Box.cube(2.0, 2)), path)
    data = path.read_bytes()
    axes = [np.full(3, -2.0, "<f8"), np.full(3, 2.0, "<f8"),
            np.full(3, -12, "<i8"), np.full(3, 25, "<i8")]
    path.write_bytes(data[:13] + bytes([3]) + data[14:68]
                     + b"".join(a.tobytes() for a in axes) + data[-32:])
    return path


# per name, the error and a function of the test's tmp_path returning the
# call that must refuse d = 3 (anything it writes first is written then)
PLANE_REFUSALS = {
    "MetricField": (FieldError, lambda tmp: functools.partial(
        MetricField, "conformal", 5, Box.cube(2.0, 3), KERN)),
    "FlatMetric": (FieldError, lambda tmp: functools.partial(
        FlatMetric().evaluate_batch, np.zeros((1, 3)))),
    "ConstantMetric": (FieldError, lambda tmp: functools.partial(
        ConstantMetric, np.eye(3))),
    "SpherePatchField": (FieldError, lambda tmp: functools.partial(
        SpherePatchField, center=(0.0, 0.0, 0.0))),
    "build_graph": (GraphError, lambda tmp: functools.partial(
        build_graph, FlatMetric(), Box.cube(1.0, 3), 0.25)),
    "load_field": (FieldError, lambda tmp: functools.partial(
        load_field, _container_3d(tmp / "field.rfpp"))),
}


@pytest.mark.parametrize("name", sorted(PLANE_REFUSALS))
def test_dimension_three_is_refused_before_drawing(name, tmp_path,
                                                   monkeypatch):
    error, prepare = PLANE_REFUSALS[name]
    refused = prepare(tmp_path)
    draws = []
    for fn in ("uniform", "normal"):
        monkeypatch.setattr(rng, fn, lambda *key: draws.append(key) or 1 / 0)
    with pytest.raises(error, match="^dimension 3: .* live in the plane"):
        refused()
    assert draws == []


# ---------------------------------------------------------------- membership

def _region_fields():
    """One field of every class; the perturbed field's base region (that of
    its bump) sticks out of its noise region on one side only."""
    small = Box.cube(3.0, 2)
    return {
        "MetricField": conformal(5, box=small),
        "FieldStack": FieldStack([conformal(5, box=small), conformal(6, box=small)]),
        "ConstantMetric": ConstantMetric(np.diag([1.0, 2.0])),
        "FlatMetric": FlatMetric(),
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
