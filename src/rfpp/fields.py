"""Stationary random Riemannian metric fields with exact finite-range
dependence and analytic derivatives to second order.

A field is a moving average of i.i.d. standard Gaussian coefficients living
on a global lattice of spacing ``spacing``:

    G(x) = (s / N0) * sum_nodes  c_node * k(x - node)

where k is a compactly supported C^inf bump kernel of radius ``range`` and
N0 normalizes so Var G = s^2 at node positions.  Because k vanishes outside
its radius, G(x) and G(y) are exactly independent once |x - y| >= 2 * range.
Coefficients are keyed by (seed, integer node coordinates, channel), so the
same seed reproduces the same field on any region and the law is invariant
under lattice translations.

A point x in lattice cell c = floor(x / spacing) sums over the K =
(2 reach)^d nodes c + j, j in -reach + 1 .. reach on every axis, reach =
ceil(range / spacing): 64 nodes in 2-D and 512 in 3-D at the default
spacing range / 4.  The line j = -reach is left out because it never
carries weight: every node on it lies at least reach * spacing >= range from
x, where k vanishes.  N0 is taken over the full symmetric (2 reach + 1)^d
grid of offsets.

Three constructions map G to a metric:

    conformal   g = e^{2 phi} I          phi scalar, always SPD (default)
    sym_shift   g = m I + G              G symmetric-matrix valued; positivity
                                         must be checked (rejection sampling)
    sym_exp     g = expm(log(m) I + G)   always SPD, log-space shift

Derivatives of g are computed analytically by differentiating the kernel sum
and chain-ruling through the construction map; no finite differences anywhere.

Index conventions for evaluation results:

    value[a, b]        = g_ab(x)
    grad[i, a, b]      = d_i g_ab(x)
    hess[i, j, a, b]   = d_i d_j g_ab(x)

Analytic (non-random) fields used throughout the experiments live here too:
flat and constant metrics, and conformal factors given in closed form (round
sphere, hyperbolic disk).  All field objects share the same evaluation
interface and can be passed anywhere a sampled field is accepted.

Every field is a ``Field``, which owns the protocol its consumers
(geodesics, the passage graph, the experiments) read:

    region        the Box a field is valid on, None for all of R^d; the
                  one source of membership, ``contains(points)``
    conformal     set when g = c e^{2 phi} I; this module alone decides it,
                  from the mode or the class, and every field with the flag
                  answers ``conformal_exponent_batch(X, order)`` with (phi,
                  dphi, d2phi), d2phi None below order 2
    field_at(b)   the field evaluating batch row b, and
    for_rows(r)   the field evaluating a batch cut down to rows r: the field
                  itself, except for a FieldStack, whose rows are separate
                  fields
"""

from __future__ import annotations

import functools
import hashlib
import io
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import rng


class FieldError(ValueError):
    """Invalid field construction parameters."""


class RegionError(FieldError):
    """Evaluation point outside the valid region."""


class RejectedRealizationError(FieldError):
    """A sym_shift realization failed positive-definiteness."""


# ---------------------------------------------------------------------------
# regions and kernels
# ---------------------------------------------------------------------------

# the (2, 1, 1) signs taking a point batch X to [X, -X] in Box.contains_all
_SIGNS = np.array([1.0, -1.0])[:, None, None]
# floor on 1 - u in KernelSpec.radial: exp(1 - 1/g) underflows to zero for
# every g below it (exp(1 - 1024) is far below the smallest double)
_GAP_FLOOR = 2.0 ** -10

@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_i, hi_i] in R^d."""
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise FieldError("box lo/hi dimension mismatch")
        if any(h <= l for l, h in zip(lo, hi)):
            raise FieldError("degenerate box")
        # (d, 1) bound columns for contains and the (2, 1, d) bounds [lo,
        # -hi] for contains_all, built once; they are not dataclass fields,
        # so equality, repr and hashing see lo and hi alone
        object.__setattr__(self, "_lo_col", np.array(lo)[:, None])
        object.__setattr__(self, "_hi_col", np.array(hi)[:, None])
        object.__setattr__(self, "_bounds",
                           np.array([lo, np.negative(hi)])[:, None, :])

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, points):
        # compare the (d, B) transpose into C order, so each comparison and
        # the reduction over axes run along the batch, not along rows of d
        xt = np.atleast_2d(np.asarray(points, dtype=float)).T
        inside = (np.greater_equal(xt, self._lo_col, order="C")
                  & np.less_equal(xt, self._hi_col, order="C"))
        return np.logical_and.reduce(inside)

    def contains_all(self, points):
        """Whether every row of points (B, d) lies in the box, as one
        comparison of [X, -X] against [lo, -hi]: negation is exact, so it
        holds exactly where lo <= X <= hi, and NaN fails it."""
        return (points * _SIGNS >= self._bounds).all()

    def intersection(self, other):
        """The box common to this box and ``other``."""
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    @staticmethod
    def cube(half_width, dim):
        return Box((-half_width,) * dim, (half_width,) * dim)


def grid_points(axes):
    """The (N, d) points of the mesh of the given 1-D axes, the first axis
    varying slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class KernelSpec:
    """Compactly supported smoothing kernel, scaled by ``amplitude``.

    k(x) = psi(|x|^2 / range^2) with psi(u) = exp(1 - 1/(1-u)) for u < 1 and
    0 otherwise: C^inf, radial, identically zero outside the radius, so the
    induced field has covariance exactly zero at separations >= 2 * range.
    """
    range: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.range <= 0:
            raise FieldError("kernel range must be > 0")
        if self.amplitude < 0:
            raise FieldError("kernel amplitude must be >= 0")

    def radial(self, u, order=2):
        """psi(u), psi'(u), psi''(u) for u = |x|^2 / range^2 (vectorized),
        computed up to ``order``: psi alone at order 0, (psi, psi', None)
        at order 1 and all three at order 2.

        The result equals, byte for byte, the closed form on the entries
        with u < 1 and +0.0 on the others, but each array operation runs on
        every entry in place, so no entry's result depends on what else its
        array holds.  Where 1 - u < _GAP_FLOOR, exp(1 - 1/(1 - u)) underflows
        to zero, and exp is slow on such arguments: those entries run at
        1 - u = 1/4 with psi then set to +0.0, which leaves psi' = -0.0 and
        psi'' = +0.0 as the closed form has them inside the support; psi' is
        set to +0.0 where u >= 1."""
        u = np.asarray(u, dtype=float)
        inv = np.subtract(1.0, u)
        below = inv < _GAP_FLOOR
        np.copyto(inv, 0.25, where=below)
        np.divide(1.0, inv, out=inv)
        psi = np.subtract(1.0, inv)
        np.exp(psi, out=psi)
        np.copyto(psi, 0.0, where=below)
        if order == 0:
            return psi
        # -(e inv inv) has the bits of (-e) inv inv: rounding is symmetric
        d1 = np.multiply(psi, inv)
        d1 *= inv
        np.negative(d1, out=d1)
        np.copyto(d1, 0.0, where=u >= 1.0)
        if order < 2:
            return psi, d1, None
        return psi, d1, psi * (inv ** 4 - 2.0 * inv ** 3)

    def evaluate(self, dx, order=2):
        """Kernel value, gradient and Hessian at displacements dx (B, d),
        computed up to ``order``: the value alone at order 0, (value,
        gradient, None) at order 1 and all three at order 2."""
        dx = np.atleast_2d(np.asarray(dx, dtype=float))
        xi2 = self.range ** 2
        u = np.einsum("bi,bi->b", dx, dx) / xi2
        if order == 0:
            return self.radial(u, 0)
        return self.chain(u, 2.0 * dx / xi2, order)

    def chain(self, u, du, order):
        """Kernel value, gradient and Hessian, the Hessian None below order
        2, from u = |x|^2 / range^2 (any shape S) and du = du/dx = 2 x /
        range^2 (S + (d,)), at order 1 or 2."""
        psi, d1, d2 = self.radial(u, order)
        grad = d1[..., None] * du
        if order < 2:
            return psi, grad, None
        hess = (d2[..., None, None] * du[..., :, None] * du[..., None, :]
                + d1[..., None, None] * (2.0 / self.range ** 2)
                * np.eye(du.shape[-1]))
        return psi, grad, hess


# ---------------------------------------------------------------------------
# lattice noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseField:
    """I.i.d. standard Gaussian coefficients on the global lattice
    {spacing * z : z integer}, one array slot per (node, channel).

    The node grid covers ``region`` plus a margin of ``margin`` (the kernel
    range) on every side, extended where needed to the ceil(margin /
    spacing) nodes either side of the cells of the region's corners (when
    margin / spacing is not an integer, floor((lo - margin) / spacing) can
    fall one node short of that).  Coefficient (z, c) is ``rng.normal(seed,
    *z, c)``: a pure function of the key, hence reproducible and
    region-independent.
    """
    seed: int
    region: Box
    spacing: float
    channels: int
    margin: float
    index_lo: tuple = dc_field(default=None, compare=False)
    coefficients: np.ndarray = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.spacing <= 0:
            raise FieldError("noise spacing must be > 0")
        if self.channels < 1:
            raise FieldError("need at least one channel")
        d = self.region.dim
        h = self.spacing
        region_lo, region_hi = np.asarray(self.region.lo), np.asarray(self.region.hi)
        reach = int(np.ceil(self.margin / h))
        lo = np.minimum(np.floor((region_lo - self.margin) / h),
                        np.floor(region_lo / h) - reach).astype(np.int64)
        hi = np.maximum(np.ceil((region_hi + self.margin) / h),
                        np.floor(region_hi / h) + reach).astype(np.int64)
        counts = hi - lo + 1
        axes = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coeff = np.empty(tuple(counts) + (self.channels,), dtype=np.float64)
        for c in range(self.channels):
            coeff[..., c] = rng.normal(self.seed, *mesh, c)
        object.__setattr__(self, "index_lo", tuple(int(v) for v in lo))
        object.__setattr__(self, "coefficients", coeff)

    @property
    def node_counts(self):
        return self.coefficients.shape[:-1]


def sample_noise(seed, region, spacing, channels, margin=None):
    """Draw the deterministic Gaussian coefficient array for a region.

    ``margin`` defaults to nothing extra; MetricField always passes the
    kernel range so every interior evaluation sees its full kernel support.
    """
    return NoiseField(seed=int(seed), region=region, spacing=float(spacing),
                      channels=int(channels), margin=float(margin or 0.0))


# ---------------------------------------------------------------------------
# the sampled metric field
# ---------------------------------------------------------------------------

_MODES = ("conformal", "sym_shift", "sym_exp")

# support-entry products per block of a field evaluation: a batch is summed
# in blocks of _FIELD_BLOCK // (K d^order) points, K = (2 reach)^d the
# support nodes of a point, so each (B, K, d^order) temporary of a block
# holds at most _FIELD_BLOCK doubles (256 KiB): few enough to stay in cache
# and for malloc to reuse, where larger ones are mapped and faulted in afresh
# every block (2^16 took twice as long at order 0).  At the default spacing
# (K = 64 in 2-D, 512 in 3-D) a block holds 512, 256 and 128 points at
# orders 0, 1 and 2 in 2-D, and 64, 21 and 7 in 3-D
_FIELD_BLOCK = 2 ** 15

# symmetric-matrix channel layout: diagonal entries first, then upper pairs;
# entry [i, j] is the channel holding g_ij
_SYM_CHANNELS = {
    2: np.array([[0, 2], [2, 1]]),
    3: np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]]),
}


def sym_channel_count(dim):
    return dim * (dim + 1) // 2


class Field:
    """The protocol every field shares (see the module docstring)."""

    region = None           # None means unbounded
    conformal = False

    def contains(self, points):
        """Membership of points (N, d) in ``region``."""
        if self.region is None:
            return np.ones(np.atleast_2d(points).shape[0], dtype=bool)
        return self.region.contains(points)

    def field_at(self, b):
        """The field that evaluates batch row b."""
        return self

    def for_rows(self, rows):
        """The field that evaluates a batch cut down to the given rows."""
        return self


class MetricField(Field):
    """A sampled random Riemannian metric on a box region.

    Immutable after construction; evaluation is pure and thread-safe.

    Every batch method evaluates its points in blocks of a fixed number of
    support-entry products, _FIELD_BLOCK // (K d^order) points for the K =
    (2 reach)^d support nodes of a point (the module docstring says why the
    line -reach is left out) at derivative order 0, 1 or 2, and writes
    each block's results into the output arrays; a batch of at most one
    block is one pass.  So no per-point temporary exceeds one block,
    whatever the batch size, and callers pass whole batches.  Each row is
    evaluated independently of its batch: a row's result is, byte for
    byte, the point evaluated alone, so blocking changes no output bit.
    """

    def __init__(self, mode, seed, region, kernel=None, shift=1.0,
                 spacing=None):
        if mode not in _MODES:
            raise FieldError(f"unknown mode {mode!r}")
        kernel = kernel or KernelSpec()
        if shift <= 0:
            raise FieldError("shift (mean level) must be > 0")
        self.mode = mode
        self.conformal = mode == "conformal"
        self.seed = int(seed)
        self.region = region
        self.kernel = kernel
        self.shift = float(shift)
        self.dim = region.dim
        self.spacing = float(spacing) if spacing else kernel.range / 4.0
        if self.dim < 2:
            raise FieldError("dimension must be >= 2")
        channels = 1 if mode == "conformal" else sym_channel_count(self.dim)
        self.noise = sample_noise(self.seed, region, self.spacing, channels,
                                  margin=kernel.range)
        # support geometry, fixed for the field's lifetime: the 2 reach node
        # offsets -reach + 1 .. reach along one axis, the (2 reach)^d offsets
        # around a cell (their mesh, first axis slowest), the index spreading
        # a row (m, d) of a per-axis table over the mesh, their offsets in
        # the flat (C-order) noise index, and the flat coefficient view they
        # index.  The line -reach is left out: a point X of cell c = floor(X
        # / h) lies at least reach h >= range from it along that axis, so
        # u >= 1 at every node on it and psi, psi', psi'' are +0.0 there.
        # Where X / h rounds up onto an integer, u can fall an ulp short of
        # 1; 1 - u is then below _GAP_FLOOR, so psi and psi'' are still +0.0
        # and psi' is -0.0, which adds nothing to a sum
        self._reach = int(np.ceil(kernel.range / self.spacing))
        self._line = np.arange(-self._reach + 1, self._reach + 1)     # (m,)
        offs = grid_points([self._line] * self.dim)                  # (K, d)
        self._spread = ((offs - self._line[0]) * self.dim
                        + np.arange(self.dim)).ravel()               # (K d,)
        index_lo = np.asarray(self.noise.index_lo, dtype=np.int64)
        counts = np.asarray(self.noise.node_counts, dtype=np.int64)
        self._strides = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
        # flat index of support node k of cell z: z @ strides + _flat_offs[k]
        self._flat_offs = (offs - index_lo) @ self._strides          # (K,)
        self._flat_coeff = self.noise.coefficients.reshape(-1, channels)
        # N0 over the full symmetric (2 reach + 1)^d node grid, so the
        # field's scale does not depend on which lines a support holds
        full = np.arange(-self._reach, self._reach + 1)
        self._norm = self._node_normalizer(grid_points([full] * self.dim))
        # points per evaluation block at orders 0, 1 and 2
        self._steps = tuple(max(1, _FIELD_BLOCK // (len(offs) * self.dim ** k))
                            for k in range(3))
        # every point of the region has its cell between the cells of the
        # two corners (floor is monotone), so the corners alone decide
        # whether each support stays on the noise grid
        corners = np.floor(np.array([region.lo, region.hi]) / self.spacing)
        rel = corners.astype(np.int64) - index_lo
        if np.any(rel[0] < self._reach) or np.any(rel[1] + self._reach >= counts):
            raise FieldError("kernel support escapes the noise grid")

    # -- plumbing ----------------------------------------------------------

    @property
    def correlation_length(self):
        return self.kernel.range

    def _node_normalizer(self, offs):
        val = self.kernel.evaluate(offs * self.spacing, order=0)
        return float(np.sqrt(np.sum(val ** 2)))

    # -- kernel sums -------------------------------------------------------

    def _gather(self, X, lookup=None, start=0):
        """Per-axis displacements to, and coefficients of, every support node.

        Returns (dx1 (B,m,d), coeff (B,K,ch)) for the K = m^d nodes, m =
        2 reach, whose kernel support can reach each point: the node lines
        -reach + 1 .. reach about the point's cell (the line -reach lies at
        least range away, so it carries no weight).  The support of a point
        is the mesh of m node lines per axis, so its displacements are a
        per-axis table: dx1[b, j, i] = X[b, i] - (cell[b, i] + j - reach +
        1) h, with the integer add, the multiply and the subtract a full
        (B,K,d) displacement tensor would apply to that entry.  Node k of
        coeff's K axis is the mesh point (j_0, ..., j_{d-1}), first axis
        slowest.  A point outside the region raises RegionError, tested on
        the (B,d) rows at once by Box.contains_all.  The support needs no
        test per call: __init__ checked it for the cells of the region's
        corners, which bound the cell of every point inside.
        ``lookup(flat, start)`` maps the flat noise-grid indices (B,K) of
        batch rows start .. start + B to coefficients; the default reads
        this field's own array.
        """
        if not self.region.contains_all(X):
            raise RegionError("evaluation point outside field region")
        h = self.spacing
        cell = np.floor(X / h).astype(np.int64)
        flat = (cell @ self._strides)[:, None] + self._flat_offs
        if lookup is None:
            coeff = self._flat_coeff.take(flat, axis=0)
        else:
            coeff = lookup(flat, start)
        dx1 = X[:, None, :] - (cell[:, None, :] + self._line[None, :, None]) * h
        return dx1, coeff

    def _sums(self, X, order, lookup=None, start=0):
        """Kernel sums at the points X (B,d) up to ``order`` (see
        _kernel_sums); ``lookup`` and ``start`` as in _gather."""
        dx1, coeff = self._gather(X, lookup, start)
        return _kernel_sums(self.kernel, self._norm, dx1, self._spread, coeff,
                            order)

    def _blocked(self, X, order, finish, lookup=None):
        """finish(self, sums, order) of the kernel sums (see _kernel_sums)
        at the points X, in blocks of self._steps[order] rows written into
        arrays of the batch's length: one array, or a tuple whose None
        entries (skipped orders) stay None.  ``lookup`` as in _gather."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            X = np.atleast_2d(X)
        step = self._steps[order]
        if len(X) <= step:
            return finish(self, self._sums(X, order, lookup), order)
        out = None
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            part = finish(self, self._sums(X[rows], order, lookup, start),
                          order)
            parts = part if isinstance(part, tuple) else (part,)
            if out is None:
                out = [None if a is None
                       else np.empty((len(X),) + a.shape[1:], a.dtype)
                       for a in parts]
            for whole, a in zip(out, parts):
                if whole is not None:
                    whole[rows] = a
        return tuple(out) if isinstance(part, tuple) else out[0]

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, X, order=2):
        """Metric value, gradient and Hessian at a batch of points.

        Shapes: value (B,d,d), grad (B,d,d,d) with grad[:,i,a,b] = d_i g_ab,
        hess (B,d,d,d,d) with hess[:,i,j,a,b] = d_i d_j g_ab.  Pass order=1
        when the Hessian is not needed (returned as None); the geodesic
        right-hand side only uses first derivatives.
        """
        return self._blocked(X, order, _metric_from_sums)

    def evaluate(self, x):
        val, grad, hess = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return val[0], grad[0], hess[0]

    def values_batch(self, X):
        """Metric values only (cheaper path for quadrature of edge weights)."""
        return self._blocked(X, 0, _metric_from_sums)

    def conformal_factor_batch(self, X):
        """Scalar e^{2 phi} for conformal fields (fast edge-weight path)."""
        if not self.conformal:
            raise FieldError("conformal_factor_batch needs a conformal field")
        return self._blocked(X, 0, _factor_from_sums)

    def conformal_exponent_batch(self, X, order=2):
        """(phi, dphi, d2phi) of the conformal exponent, conformal mode only.
        ``order`` means what it means in evaluate_batch: with order=1 the
        Hessian sum is skipped and d2phi is None (the conformal geodesic
        right-hand side needs only dphi)."""
        return self._blocked(X, order, _exponent_from_sums)


def _sym_from_channels(dim, A):
    """(B, ..., ch) channel arrays to (B, ..., d, d) symmetric matrices."""
    if A is None:
        return None
    # C order: on a strided view the sym_exp einsums round differently
    return np.ascontiguousarray(A[..., _SYM_CHANNELS[dim]])


def _exponent_from_sums(field, sums, order):
    """(phi, dphi, d2phi) of a conformal field from its one-channel sums
    at order 1 or 2 (d2phi None at order 1)."""
    if not field.conformal:
        raise FieldError("conformal_exponent_batch needs a conformal field")
    G, dG, d2G = sums
    return G[:, 0], dG[..., 0], _first_channel(d2G)


def _factor_from_sums(field, sums, order):
    """e^{2 phi} of a conformal field from its order-0 sums."""
    return np.exp(2.0 * sums[:, 0])


def _first_channel(A):
    """Channel 0 of a (B, ..., ch) sum array, or None for a skipped order."""
    return None if A is None else A[..., 0]


def _kernel_sums(kernel, norm, dx1, spread, coeff, order=2):
    """Contract kernel derivatives against coefficients, scaled by
    amplitude / N0: G (B,ch) alone at order 0, (G, dG (B,d,ch), None) at
    order 1 and (G, dG, d2G (B,d,d,ch)) at order 2.

    The displacements come as the per-axis table dx1 (B,m,d) of _gather and
    coeff (B,K,ch) holds the K = m^d mesh nodes, m = 2 reach (the lines
    -reach + 1 .. reach; the line -reach carries no weight), first axis
    slowest.  No (B,K,d) displacement tensor is built: u = |dx|^2 /
    range^2 is the outer sum of the squared per-axis displacements, added
    in the order einsum("bi,bi->b") adds a row of up to seven terms (two
    lanes, even axes and odd axes, then their sum): x0^2 + x1^2 in 2-D and
    (x0^2 + x2^2) + x1^2 in 3-D, so every u keeps the bits of the einsum
    over the full tensor.  From order 1 on, the factor du/dx = 2 dx /
    range^2 is computed per axis and spread over the mesh by ``spread``,
    the (K d,) positions in a flattened (m, d) table row of the mesh
    entries (k, i)."""
    B, m, d = dx1.shape
    K = m ** d
    xi2 = kernel.range ** 2
    sq = dx1 * dx1
    axes = _mesh_axes(d)
    lanes = [sq[axes[0]], sq[axes[1]]]
    for i in range(2, d):
        lanes[i % 2] = lanes[i % 2] + sq[axes[i]]
    u = np.add(lanes[0], lanes[1]).reshape(B, K)
    u /= xi2
    scale = kernel.amplitude / norm
    if order == 0:
        return scale * np.einsum("bk,bkc->bc", kernel.radial(u, 0), coeff)
    du = (2.0 * dx1 / xi2).reshape(B, m * d).take(spread, axis=1)
    val, grad, hess = kernel.chain(u, du.reshape(B, K, d), order)
    G = scale * np.einsum("bk,bkc->bc", val, coeff)
    dG = scale * np.einsum("bki,bkc->bic", grad, coeff)
    if order < 2:
        return G, dG, None
    return G, dG, scale * np.einsum("bkij,bkc->bijc", hess, coeff)


@functools.cache
def _mesh_axes(d):
    """Per axis i, the index taking column i of a per-axis table (B,m,d) to
    a view that broadcasts along axis i of the (B, m, ..., m) support
    mesh."""
    return tuple((slice(None),) + (None,) * i + (slice(None),)
                 + (None,) * (d - 1 - i) + (i,) for i in range(d))


def _metric_from_sums(field, sums, order):
    """Apply the field's construction-mode map to kernel sums of ``order``
    0, 1 or 2: the metric value alone at order 0, else (value, grad, hess)
    with hess None at order 1."""
    G, dG, d2G = (sums, None, None) if order == 0 else sums
    dim, shift = field.dim, field.shift
    eye = np.eye(dim)
    if field.mode == "conformal":
        return _conformal_metric(G[:, 0], _first_channel(dG),
                                 _first_channel(d2G), dim)
    if field.mode == "sym_shift":
        val = shift * eye + _sym_from_channels(dim, G)
        if not np.all(_spd_mask(val)):
            raise RejectedRealizationError(
                "sym_shift metric not positive-definite at an evaluation "
                "point; reject this realization (see check_spd_on_region)")
        return val if order == 0 else (val, _sym_from_channels(dim, dG),
                                       _sym_from_channels(dim, d2G))
    # sym_exp
    A = _sym_from_channels(dim, G) + np.log(shift) * eye
    return _expm_sym_with_derivatives(A, _sym_from_channels(dim, dG),
                                      _sym_from_channels(dim, d2G))


def _conformal_metric(phi, dphi, d2phi, dim):
    """g = e^{2 phi} I from phi (B,), dphi (B,d) and d2phi (B,d,d): the value
    alone when dphi is None, else (value, grad, hess) with hess None when
    d2phi is None."""
    eye = np.eye(dim)
    f = np.exp(2.0 * phi)
    val = f[:, None, None] * eye
    if dphi is None:
        return val
    grad = (2.0 * dphi * f[:, None])[:, :, None, None] * eye
    if d2phi is None:
        return val, grad, None
    d2f = (4.0 * dphi[:, :, None] * dphi[:, None, :]
           + 2.0 * d2phi) * f[:, None, None]
    return val, grad, d2f[:, :, :, None, None] * eye


class FieldStack(Field):
    """Evaluate row b of a point batch against field b of a stack.

    All stacked fields must share mode, kernel, spacing, region and shift
    (only seeds differ); this turns per-seed loops (one geodesic
    per replica field) into a single batched evaluation.
    """

    def __init__(self, fields_):
        if not fields_:
            raise FieldError("empty field stack")
        f0 = fields_[0]
        for f in fields_[1:]:
            same = (f.mode == f0.mode and f.kernel == f0.kernel
                    and f.spacing == f0.spacing and f.region == f0.region
                    and f.shift == f0.shift)
            if not same:
                raise FieldError("stacked fields must share all parameters but the seed")
        self.fields = list(fields_)
        self.template = f0
        self.dim = f0.dim
        self.region = f0.region
        self.conformal = f0.conformal
        self.correlation_length = f0.correlation_length
        self._coeff = np.stack(
            [f.noise.coefficients.reshape(-1, f.noise.channels) for f in self.fields])

    def __len__(self):
        return len(self.fields)

    def field_at(self, b):
        """The underlying field for batch row b."""
        return self.fields[b % len(self.fields)]

    def for_rows(self, rows):
        """Stack whose row i is batch row rows[i] of this one, for a batch
        cut down to some of its rows."""
        return FieldStack([self.field_at(b) for b in rows])

    def _lookup(self, flat, start):
        """Coefficients at the flat noise-grid indices flat (n, K) of batch
        rows start .. start + n, row i read from field (i mod F); batches
        of k * F rows therefore map block-cyclically onto the stack."""
        rows = np.arange(start, start + len(flat)) % len(self.fields)
        return self._coeff[rows[:, None], flat]

    def _blocked(self, X, order, finish):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(X) % len(self.fields) != 0:
            raise FieldError("point batch must be a multiple of the stack size")
        return self.template._blocked(X, order, finish, self._lookup)

    def evaluate_batch(self, X, order=2):
        return self._blocked(X, order, _metric_from_sums)

    def values_batch(self, X):
        return self.evaluate_batch(X, order=0)

    def conformal_exponent_batch(self, X, order=2):
        """As MetricField.conformal_exponent_batch, row b against field b."""
        return self._blocked(X, order, _exponent_from_sums)


def _spd_mask(mats):
    """Positive-definiteness by Sylvester's criterion (d = 2 or 3)."""
    d = mats.shape[-1]
    m1 = mats[..., 0, 0] > 0
    det2 = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    ok = m1 & (det2 > 0)
    if d == 3:
        ok = ok & (np.linalg.det(mats) > 0)
    return ok


# ---------------------------------------------------------------------------
# matrix exponential with Daleckii-Krein derivatives (sym_exp mode)
# ---------------------------------------------------------------------------

def _exp_dd1(a, b):
    """First divided difference of exp: (e^a - e^b) / (a - b), stable."""
    m = 0.5 * (a + b)
    h = 0.5 * (a - b)
    small = np.abs(h) < 1e-6
    hs = np.where(small, 1.0, h)
    out = np.where(small,
                   np.exp(m) * (1.0 + h * h / 6.0),
                   np.exp(m) * np.sinh(hs) / hs)
    return out


def _exp_dd2(a, b, c):
    """Second divided difference exp[a, b, c], stable for clustered args."""
    a, b, c = np.broadcast_arrays(a, b, c)
    spread = np.maximum(np.abs(a - c), np.maximum(np.abs(a - b), np.abs(b - c)))
    mu = (a + b + c) / 3.0
    # generic formula through the widest pair to avoid cancellation
    d_ac = np.where(np.abs(a - c) < 1e-6, 1.0, a - c)
    generic = (_exp_dd1(a, b) - _exp_dd1(b, c)) / d_ac
    swap = np.abs(a - c) < np.abs(a - b)   # then (b, c, a) has a wider end pair
    d_ba = np.where(np.abs(b - a) < 1e-6, 1.0, b - a)
    alt = (_exp_dd1(b, c) - _exp_dd1(c, a)) / d_ba
    out = np.where(swap, alt, generic)
    taylor = np.exp(mu) * (0.5 + (a + b + c - 3 * mu) / 6.0)
    return np.where(spread < 1e-5, taylor, out)


def _expm_sym_with_derivatives(A, dA, d2A):
    """e^A with first and second directional derivatives, A symmetric.

    A: (B,d,d); dA: (B,p,d,d) directions per coordinate; d2A: (B,p,p,d,d).
    Returns e^A alone when dA is None, else (e^A, grad, hess) with hess None
    when d2A is None.
    Uses the spectral (Daleckii-Krein) representation: in the eigenbasis of A,
    [De^A(E)]_ij = E~_ij f[l_i, l_j] and
    [D2e^A(E,F)]_ij = sum_k (E~_ik F~_kj + F~_ik E~_kj) f[l_i, l_k, l_j].
    """
    lam, Q = np.linalg.eigh(A)
    val = np.einsum("bik,bk,bjk->bij", Q, np.exp(lam), Q)
    if dA is None:
        return val
    f1 = _exp_dd1(lam[:, :, None], lam[:, None, :])              # (B,d,d)

    Et = np.einsum("bki,bpkl,blj->bpij", Q, dA, Q)               # directions in eigenbasis
    grad_t = Et * f1[:, None, :, :]
    grad = np.einsum("bik,bpkl,bjl->bpij", Q, grad_t, Q)
    if d2A is None:
        return val, grad, None

    f2 = _exp_dd2(lam[:, :, None, None], lam[:, None, :, None],
                  lam[:, None, None, :])                          # (B,d,d,d) [i,k,j]
    E2t = np.einsum("bki,bpqkl,blj->bpqij", Q, d2A, Q)
    # chain rule: D2 expm[E_p, E_q] + D expm[d2A_pq]
    cross = np.einsum("bpik,bqkj,bikj->bpqij", Et, Et, f2)
    cross = cross + np.swapaxes(cross, 1, 2)
    second_t = cross + E2t * f1[:, None, None, :, :]
    hess = np.einsum("bik,bpqkl,bjl->bpqij", Q, second_t, Q)
    return val, grad, hess


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------

class AnalyticField(Field):
    """Base for closed-form metrics valid on all of R^d (or a stated region)."""

    correlation_length = 1.0

    def evaluate(self, x):
        val, grad, hess = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return val[0], grad[0], hess[0]

    def values_batch(self, X):
        return self.evaluate_batch(X, order=1)[0]

    def evaluate_batch(self, X, order=2):
        raise NotImplementedError


class ConstantMetric(AnalyticField):
    """g(x) = A for a fixed SPD matrix A."""

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise FieldError("constant metric needs a square matrix")
        if not np.allclose(A, A.T):
            raise FieldError("constant metric must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            raise FieldError("constant metric must be positive-definite")
        self.matrix = A
        self.dim = A.shape[0]

    def evaluate_batch(self, X, order=2):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        B, d = X.shape
        val = np.broadcast_to(self.matrix, (B, d, d)).copy()
        grad = np.zeros((B, d, d, d))
        hess = np.zeros((B, d, d, d, d)) if order >= 2 else None
        return val, grad, hess


class ConformalAnalyticField(AnalyticField):
    """g = e^{2 phi} I for a closed-form phi; subclasses supply phi_batch."""

    conformal = True

    def __init__(self, dim=2):
        self.dim = dim

    def phi_batch(self, X, order=2):
        """Return (phi (B,), dphi (B,d), d2phi (B,d,d)), d2phi None below
        order 2."""
        raise NotImplementedError

    def conformal_exponent_batch(self, X, order=2):
        """phi_batch behind the region check."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.region is not None and not self.region.contains_all(X):
            raise RegionError("evaluation point outside field region")
        return self.phi_batch(X, order)

    def evaluate_batch(self, X, order=2):
        return _conformal_metric(*self.conformal_exponent_batch(X, order),
                                 self.dim)


class FlatMetric(ConformalAnalyticField):
    """The euclidean metric g = I, the conformal field with phi = 0."""

    def phi_batch(self, X, order=2):
        B, d = X.shape
        return (np.zeros(B), np.zeros((B, d)),
                np.zeros((B, d, d)) if order >= 2 else None)


class SpherePatchField(ConformalAnalyticField):
    """Stereographic image of the round sphere of radius R: curvature 1/R^2.

    Conformal factor e^{2 phi} = 4 R^4 / (R^2 + |x - c|^2)^2.
    """

    def __init__(self, radius=1.0, center=None, dim=2):
        super().__init__(dim)
        self.radius = float(radius)
        self.center = np.zeros(dim) if center is None else np.asarray(center, float)

    def phi_batch(self, X, order=2):
        return _stereographic_exponent(X - self.center, self.radius ** 2, 1.0,
                                       order)


class HyperbolicDiskField(ConformalAnalyticField):
    """Poincare disk: e^{2 phi} = 4 / (1 - |x|^2)^2 on |x| < 1, curvature -1."""

    def __init__(self, dim=2, patch_radius=0.99):
        super().__init__(dim)
        self.region = Box.cube(patch_radius / np.sqrt(dim), dim)

    def phi_batch(self, X, order=2):
        return _stereographic_exponent(X, 1.0, -1.0, order)


def _stereographic_exponent(y, a, sign, order):
    """(phi, dphi, d2phi) of e^{2 phi} = 4 a^2 / (a + sign |y|^2)^2, the
    stereographic chart of curvature sign / a, d2phi None below order 2;
    points where a + sign |y|^2 <= 0 lie outside the chart."""
    q = a + sign * np.einsum("bi,bi->b", y, y)
    if np.any(q <= 0):
        raise RegionError("point outside the stereographic chart")
    phi = np.log(2.0 * a) - np.log(q)
    dphi = -2.0 * sign * y / q[:, None]
    if order < 2:
        return phi, dphi, None
    d2phi = (-2.0 * sign * np.eye(y.shape[1]) / q[:, None, None]
             + 4.0 * y[:, :, None] * y[:, None, :] / (q ** 2)[:, None, None])
    return phi, dphi, d2phi


# ---------------------------------------------------------------------------
# SPD checks and eigenvalue bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenBounds:
    """Sampled eigenvalue extrema over a region (lambda_min, lambda_max)."""
    lambda_min: float
    lambda_max: float
    region: object

    def __post_init__(self):
        if not (0 < self.lambda_min <= self.lambda_max):
            raise FieldError("eigenvalue bounds must satisfy 0 < min <= max")


def check_spd_on_region(field, region, grid, floor=1e-3):
    """Scan minimum eigenvalue over a sampling grid.

    Returns (ok, lambda_floor): ok iff the observed minimum is >= ``floor``.
    For sym_shift fields this is the rejection step that keeps only
    realizations that are positive-definite with margin.
    """
    pts = grid_points([np.arange(region.lo[i], region.hi[i] + grid * 0.5, grid)
                       for i in range(field.dim)])
    try:
        vals = field.values_batch(pts)
    except RejectedRealizationError:
        return False, float("-inf")
    lam_min = float(np.min(np.linalg.eigvalsh(vals)))
    return lam_min >= floor, lam_min


def eigen_bounds(field, cube_center, subgrid=9):
    """Eigenvalue extrema over the unit cube centered at a lattice point,
    sampled on a subgrid x subgrid x ... mesh."""
    center = np.asarray(cube_center, dtype=float)
    d = field.dim
    cube = Box(tuple(center - 0.5), tuple(center + 0.5))
    if not np.all(field.contains(np.array([cube.lo, cube.hi]))):
        raise RegionError("cube outside field region")
    pts = grid_points([np.linspace(cube.lo[i], cube.hi[i], subgrid)
                       for i in range(d)])
    lam = np.linalg.eigvalsh(field.values_batch(pts))
    return EigenBounds(lambda_min=float(np.min(lam)),
                       lambda_max=float(np.max(lam)), region=cube)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
#
# Binary container layout (little-endian, version 2).  The coefficients are a
# pure function of the seed and the node grid, so the container stores the
# spec and a digest of the coefficients, and loading regenerates them:
#
#   offset  size  field
#   0       8     magic  b"RFPP-FLD"
#   8       4     u32    version (2)
#   12      1     u8     mode code (0 conformal, 1 sym_shift, 2 sym_exp)
#   13      1     u8     dimension d
#   14      2     u8[2]  reserved (0)
#   16      8     i64    seed
#   24      8     f64    kernel range
#   32      8     f64    kernel amplitude
#   40      8     f64    shift (mean level m)
#   48      8     f64    noise spacing
#   56      8     f64    reserved, always 1.0
#   64      4     u32    channel count
#   68      8d    f64[d] region lo
#   ..      8d    f64[d] region hi
#   ..      8d    i64[d] node index lo (global lattice coordinates)
#   ..      8d    i64[d] node counts per axis
#   ..      32    sha256 of the coefficient array (f64, C order, shape
#                        counts + (channels,))

_MAGIC = b"RFPP-FLD"
_FORMAT_VERSION = 2
_HEADER_BYTES = 100     # container size less its 32 d per-axis bytes


def _coefficient_digest(noise):
    return hashlib.sha256(np.ascontiguousarray(
        noise.coefficients, dtype="<f8").tobytes()).digest()


def save_field(field, path):
    """Write a MetricField to the documented binary container."""
    if not isinstance(field, MetricField):
        raise FieldError("only sampled MetricField objects are persisted")
    d = field.dim
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _FORMAT_VERSION))
    buf.write(struct.pack("<BBBB", _MODES.index(field.mode), d, 0, 0))
    buf.write(struct.pack("<q", field.seed))
    buf.write(struct.pack("<ddddd", field.kernel.range, field.kernel.amplitude,
                          field.shift, field.spacing, 1.0))
    buf.write(struct.pack("<I", field.noise.channels))
    buf.write(struct.pack(f"<{d}d", *field.region.lo))
    buf.write(struct.pack(f"<{d}d", *field.region.hi))
    buf.write(struct.pack(f"<{d}q", *field.noise.index_lo))
    buf.write(struct.pack(f"<{d}q", *field.noise.node_counts))
    buf.write(_coefficient_digest(field.noise))
    data = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_field(path):
    """Read a MetricField back, regenerating its coefficients from the stored
    seed; a node grid or coefficient digest that differs from the
    regeneration is refused."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise FieldError("not a field container (bad magic)")
    if len(data) < _HEADER_BYTES:
        raise FieldError(f"truncated field container ({len(data)} bytes)")
    version, = struct.unpack_from("<I", data, 8)
    if version != _FORMAT_VERSION:
        raise FieldError(f"unsupported container version {version}")
    mode_c, d = data[12], data[13]
    if mode_c >= len(_MODES):
        raise FieldError(f"unknown mode code {mode_c}")
    if d < 2:
        raise FieldError(f"dimension {d} below 2")
    if len(data) != _HEADER_BYTES + 32 * d:
        raise FieldError(f"field container of dimension {d} has {len(data)} "
                         f"bytes, not {_HEADER_BYTES + 32 * d}")
    seed, = struct.unpack_from("<q", data, 16)
    rng_, amp, shift, spacing, reserved = struct.unpack_from("<ddddd", data, 24)
    if reserved != 1.0:
        raise FieldError(f"reserved value {reserved!r} at offset 56 is not 1.0")
    channels, = struct.unpack_from("<I", data, 64)
    off = 68
    lo = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    hi = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    index_lo = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    counts = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    field = MetricField(_MODES[mode_c], seed, Box(lo, hi),
                        kernel=KernelSpec(range=rng_, amplitude=amp),
                        shift=shift, spacing=spacing)
    if (field.noise.index_lo != index_lo or field.noise.node_counts != counts
            or field.noise.channels != channels):
        raise FieldError("stored node grid does not match regeneration")
    if _coefficient_digest(field.noise) != data[off:]:
        raise FieldError("stored coefficient digest does not match the stored seed")
    return field
