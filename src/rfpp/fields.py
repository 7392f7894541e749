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

Fields live in the plane: every field refuses a dimension other than 2
with one FieldError.

A point x in lattice cell c = floor(x / spacing) sums over the K =
(2 reach)^2 nodes c + j, j in -reach + 1 .. reach on both axes, reach =
ceil(range / spacing): 64 nodes at the default spacing range / 4.  The line
j = -reach is left out because it never carries weight: every node on it
lies at least reach * spacing >= range from x, where k vanishes.  N0 is
taken over the full symmetric (2 reach + 1)^2 grid of offsets.

A passage graph samples the field on a box of the lattice {step k : k
integer}.  When step = (p / q) spacing with q^2 <= K (q <= 2 reach), a
lattice point lies in the exact integer cell floor(k p / q), at one of q^2
phases inside it, so the kernel is evaluated once per phase and support
node, a q^2 x K table (4 x 64 rows at h = 0.25, 25 x 64 at h = 0.3 and 0.4,
default spacing; see MetricField._phase_table).  The points of one phase
are every q-th point of the box along each axis, and their cells step by p,
so their sums are one strided correlation of the phase's row with the
coefficient grid (see MetricField._box_sums).  Each row is built from one
representative point through the same displacement and kernel code, so a
lattice of exact dyadics keeps the bits the point-by-point sums of a
passage graph's batch have; on other commensurate lattices the sums move by
a few ulps.

Two constructions map G to a metric, both SPD by construction:

    conformal   g = e^{2 phi} I          phi scalar (default)
    sym_exp     g = expm(log(m) I + G)   G symmetric-matrix valued

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

    region        the Box a field is valid on, None for all of R^2; the
                  one source of membership, ``contains(points)``
    conformal     set when g = e^{2 phi} I; this module alone decides it,
                  from the mode or the class, and every field with the flag
                  answers ``conformal_exponent_batch(X, order)`` with (phi,
                  dphi, d2phi), dphi None below order 1 and d2phi None below
                  order 2, and ``conformal_laplacian_batch(X)`` with (phi,
                  Laplacian of phi), which Gauss curvature reads
    sym_exp       set when g = e^A for a symmetric A (the sym_exp mode);
                  every field with the flag answers ``log_metric_batch(X,
                  order)`` with the channels (A_00, A_11, A_01) of A and of
                  its derivatives, which the geodesic right-hand side reads
    field_at(b)   the field evaluating batch row b, and
    for_rows(r)   the field evaluating a batch cut down to rows r: the field
                  itself, except for a FieldStack, whose rows are separate
                  fields
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng


class FieldError(ValueError):
    """Invalid field construction parameters."""


class RegionError(FieldError):
    """Evaluation point outside the valid region."""


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

    def screen(self, points):
        """points (B, d) with every non-finite row set to NaN, which a field
        evaluates to NaN, after a batch that contains_all refused: a finite
        row outside the box raises RegionError.  Only that refusal pays for
        the finiteness test."""
        finite = np.isfinite(points).all(axis=1)
        if not self.contains_all(points[finite]):
            raise RegionError("evaluation point outside field region")
        return np.where(finite[:, None], points, np.nan)

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


def csv_table(lines, columns):
    """The header ``lines``, then one comma-separated row per entry of the
    equal-length 1-D arrays ``columns``, every line ending in a newline.
    A cell is the repr of its entry's Python value (column.tolist()), so a
    float keeps every digit, signed zero, nan and the infinities.  Each
    column is formatted as a whole and the rows are its cells zipped."""
    cells = (map(repr, column.tolist()) for column in columns)
    return "\n".join([*lines, *map(",".join, zip(*cells))]) + "\n"


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
        psi, inv = _psi_and_gap(u)
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

    def radial_laplacian(self, u):
        """psi(u) and u psi''(u) + psi'(u) for u = |x|^2 / range^2: the
        Laplacian of psi(u) in the plane is 4 / range^2 times the latter.

        With inv = 1 / (1 - u), psi' = -psi inv^2 and psi'' = psi inv^3
        (inv - 2), and u inv = inv - 1, so u psi'' + psi' = psi inv^2 (inv^2
        - 3 inv + 1), formed by products alone.  psi has the bits radial
        gives it; the guard of radial makes the second +-0.0 wherever psi
        is +0.0."""
        psi, inv = _psi_and_gap(np.asarray(u, dtype=float))
        lap = inv - 3.0
        lap *= inv
        lap += 1.0
        lap *= inv
        lap *= inv
        lap *= psi
        return psi, lap

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


def _psi_and_gap(u):
    """(psi(u), inv) with inv = 1 / (1 - u), run at 1 - u = 1/4 and psi set
    to +0.0 where 1 - u < _GAP_FLOOR (see KernelSpec.radial)."""
    inv = np.subtract(1.0, u)
    below = inv < _GAP_FLOOR
    np.copyto(inv, 0.25, where=below)
    np.divide(1.0, inv, out=inv)
    psi = np.subtract(1.0, inv)
    np.exp(psi, out=psi)
    np.copyto(psi, 0.0, where=below)
    return psi, inv


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

# construction modes by container mode code; code 1 is reserved
_MODE_CODES = {"conformal": 0, "sym_exp": 2}

# support-entry products per block of a field evaluation: a batch is summed
# in blocks of _FIELD_BLOCK // (K 2^order) points, K = (2 reach)^2 the
# support nodes of a point, so each (B, K, 2^order) temporary of a block
# holds at most _FIELD_BLOCK doubles (256 KiB): few enough to stay in cache
# and for malloc to reuse, where larger ones are mapped and faulted in afresh
# every block (2^16 took twice as long at order 0).  At the default spacing
# (K = 64) a block holds 512, 256 and 128 points at orders 0, 1 and 2
_FIELD_BLOCK = 2 ** 15

# symmetric-matrix channel layout: diagonal entries first, then the upper
# pair; entry [i, j] is the channel holding g_ij
_SYM_CHANNELS = np.array([[0, 2], [2, 1]])


def _check_plane(d):
    """Refuse every dimension but 2: fields live in the plane."""
    if d != 2:
        raise FieldError(f"dimension {d}: fields live in the plane (d = 2)")


class Field:
    """The protocol every field shares (see the module docstring)."""

    dim = 2
    region = None           # None means unbounded
    conformal = False
    sym_exp = False

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
    support-entry products, _FIELD_BLOCK // (K 2^order) points for the K =
    (2 reach)^2 support nodes of a point (the module docstring says why the
    line -reach is left out) at derivative order 0, 1 or 2, and writes
    each block's results into the output arrays; a batch of at most one
    block is one pass.  So no per-point temporary exceeds one block,
    whatever the batch size, and callers pass whole batches.  Each row of a
    batch in C (row-major) order is evaluated independently of its batch:
    a row's result is, byte for byte, the point evaluated alone, so
    blocking changes no output bit.  (A batch in another memory layout
    takes einsum's node sums in another order: the conformal sums of a
    transposed batch can differ from the row-major ones in their last
    bits.)

    values_batch and conformal_factor_batch also take the lattice box the
    points fill, as a passage graph samples them (see values_batch).
    Where its step = (p / q) spacing with q^2 <= K, the kernel sums are
    one strided correlation per lattice phase (_box_sums), with the node
    sums in the order of a transposed batch (points fastest), the order
    the passage graph's matrix has always used.  On a lattice of exact
    dyadics (h = 0.25 or 0.5 at the default spacing 0.25) the result is
    the point-by-point evaluation of the graph's batch bit for bit; on the
    other commensurate lattices it is within a few ulps (at most 6.5e-15
    relative in e^{2 phi} at h = 0.3 and 0.4 on [-12, 12]^2, seeds 1 to
    3: a table row's displacements are those of a point near the origin,
    a far point's own carry the rounding of k step).  Other steps take the
    point-by-point path.
    """

    def __init__(self, mode, seed, region, kernel=None, shift=1.0,
                 spacing=None):
        if mode not in _MODE_CODES:
            raise FieldError(f"unknown mode {mode!r}; valid modes: "
                             f"{', '.join(_MODE_CODES)}")
        _check_plane(region.dim)
        kernel = kernel or KernelSpec()
        if shift <= 0:
            raise FieldError("shift (mean level) must be > 0")
        if mode == "conformal" and shift != 1.0:
            raise FieldError(f"shift is the sym_exp mean level; a conformal "
                             f"field takes only 1.0, not {shift!r}")
        self.mode = mode
        self.conformal = mode == "conformal"
        self.sym_exp = mode == "sym_exp"
        self.seed = int(seed)
        self.region = region
        self.kernel = kernel
        self.correlation_length = kernel.range
        self.shift = float(shift)
        # the channels (00, 11, 01) of log(shift) I, which sym_exp adds to
        # the kernel sums
        self._shift_channels = np.log(self.shift) * _FROM_BASIS[:, 0]
        self.spacing = float(spacing) if spacing else kernel.range / 4.0
        channels = 1 if self.conformal else 3
        self.noise = sample_noise(self.seed, region, self.spacing, channels,
                                  margin=kernel.range)
        # support geometry, fixed for the field's lifetime: the 2 reach node
        # offsets -reach + 1 .. reach along one axis, the (2 reach)^2 offsets
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
        self._index_lo = index_lo = np.asarray(self.noise.index_lo,
                                               dtype=np.int64)
        counts = np.asarray(self.noise.node_counts, dtype=np.int64)
        self._strides = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
        # flat index of support node k of cell z: z @ strides + _flat_offs[k]
        self._flat_offs = (offs - index_lo) @ self._strides          # (K,)
        self._flat_coeff = self.noise.coefficients.reshape(-1, channels)
        # the grid channel-major (ch, N0, N1), whose strided windows hold
        # the supports of a lattice box's points (see _box_sums)
        self._grid_cm = np.ascontiguousarray(
            np.moveaxis(self.noise.coefficients, -1, 0))
        # N0 over the full symmetric (2 reach + 1)^2 node grid, so the
        # field's scale does not depend on which lines a support holds
        full = np.arange(-self._reach, self._reach + 1)
        val = kernel.evaluate(grid_points([full] * self.dim) * self.spacing,
                              order=0)
        self._norm = float(np.sqrt(np.sum(val ** 2)))
        # points per evaluation block at orders 0, 1 and 2
        self._steps = tuple(max(1, _FIELD_BLOCK // (len(offs) * self.dim ** k))
                            for k in range(3))
        # every point of the region has its cell between the cells of the
        # two corners (floor is monotone), so the corners alone decide
        # whether each support stays on the noise grid
        corners = np.floor(np.array([region.lo, region.hi]) / self.spacing)
        self._corner_cells = corners.astype(np.int64)                # (2, d)
        rel = self._corner_cells - index_lo
        if np.any(rel[0] < self._reach) or np.any(rel[1] + self._reach >= counts):
            raise FieldError("kernel support escapes the noise grid")
        # psi tables of the lattices sampled so far, by lattice step (see
        # _phase_table); filled on first use
        self._phase_tables = {}

    # -- kernel sums -------------------------------------------------------

    def _gather(self, X, lookup=None, start=0):
        """Per-axis displacements to, and coefficients of, every support node.

        Returns (dx1 (B,m,2), coeff (B,K,ch)) for the K = m^2 nodes, m =
        2 reach, whose kernel support can reach each point: the node lines
        -reach + 1 .. reach about the point's cell (the line -reach lies at
        least range away, so it carries no weight).  The support of a point
        is the mesh of m node lines per axis, so its displacements are a
        per-axis table (see _displacements).  Node k of coeff's K axis is
        the mesh point (j_0, j_1), first axis slowest.  A point outside the
        region raises RegionError, tested on the (B,2) rows at
        once by Box.contains_all; a non-finite point is evaluated as NaN
        (Box.screen), on the support of the region's low corner.  The
        support needs no test per call: __init__ checked it for the cells
        of the region's corners, which bound the cell of every point
        inside.
        ``lookup(flat, start)`` maps the flat noise-grid indices (B,K) of
        batch rows start .. start + B to coefficients; the default reads
        this field's own array.
        """
        if self.region.contains_all(X):
            cell = np.floor(X / self.spacing).astype(np.int64)
        else:
            X = self.region.screen(X)
            cell = np.floor(np.where(np.isnan(X), self.region.lo, X)
                            / self.spacing).astype(np.int64)
        flat = (cell @ self._strides)[:, None] + self._flat_offs
        if lookup is None:
            coeff = self._flat_coeff.take(flat, axis=0)
        else:
            coeff = lookup(flat, start)
        return self._displacements(X, cell), coeff

    def _displacements(self, X, cell):
        """The per-axis table dx1 (B,m,d) of points X (B,d) in the cells
        cell (B,d): dx1[b, j, i] = X[b, i] - (cell[b, i] + j - reach + 1)
        h, with the integer add, the multiply and the subtract a full
        (B,K,d) displacement tensor would apply to that entry."""
        return X[:, None, :] - ((cell[:, None, :] + self._line[None, :, None])
                                * self.spacing)

    def _sums(self, X, order, lookup=None, start=0, contract=None):
        """Kernel sums at the points X (B,d) up to ``order``, formed by
        ``contract`` from the support (_kernel_sums unless given; see
        _laplacian_sums); ``lookup`` and ``start`` as in _gather."""
        dx1, coeff = self._gather(X, lookup, start)
        return (contract or _kernel_sums)(self.kernel, self._norm, dx1,
                                          self._spread, coeff, order)

    def _phase_table(self, step):
        """(p, q, psi) for the lattice {step k : k integer}, or None.

        The lattice is commensurate with the noise lattice when step = (p /
        q) spacing for integers p >= 1 and 1 <= q <= m = 2 reach, so that q^2
        <= K (q is the least such; q step and p spacing agree to a few
        ulps).  A point k step then lies in the cell floor(k p / q), an
        exact integer, at one of q^2 offsets inside it, its phase r = k p mod
        q (per axis, taken as the base-q number r_0 r_1); p and q are
        coprime, so the phase repeats every q points along an axis while
        the cell advances by p (the strides of _box_sums).  Column r of psi
        (K, q^2) holds psi at the K support nodes of one representative
        point of phase r, k in {0 .. q - 1}^2 (k -> k p mod q
        is one-to-one there), computed as _gather and _kernel_sums compute
        them for that point, nodes in the order of the mesh (first axis
        slowest), as a support window of the grid holds them.  Where the
        lattice points are exact dyadics, as at step 1/8 or 1/4 with the
        default spacing 1/4, every point of a phase has the displacements
        of its representative bit for bit, and so its psi; elsewhere the
        displacements differ from a point's own in their last bits.  Built
        on first use for each step and kept."""
        if step not in self._phase_tables:
            self._phase_tables[step] = self._make_phase_table(step)
        return self._phase_tables[step]

    def _make_phase_table(self, step):
        ratio = step / self.spacing
        if not (np.isfinite(ratio) and ratio > 0):
            return None
        for q in range(1, len(self._line) + 1):
            p = int(round(ratio * q))
            if p >= 1 and abs(p * self.spacing - q * step) <= 8e-16 * q * step:
                break
        else:
            return None
        reps = grid_points([np.arange(q)] * self.dim)                # (q^2, 2)
        cell = reps * p // q
        phase = (reps * p - cell * q) @ q ** np.arange(self.dim - 1, -1, -1)
        dx1 = self._displacements(reps * step, cell)
        psi = np.empty((len(self._flat_offs), len(reps)))
        psi[:, phase] = self.kernel.radial(_support_u(self.kernel, dx1), 0).T
        return p, q, psi

    def _box_sums(self, X, box):
        """The order-0 kernel sums (N, ch) of the points X of the lattice
        box = (k_lo, shape, step) (see values_batch), or None where the
        phase table of step does not apply (see _phase_table) or the exact
        cell of a box corner lies outside the cells of the region's corners
        (which __init__ checked), as an ulp of rounding at the region's edge
        can make it.  A box outside the region raises RegionError.

        The points of one phase are every q-th point of the box along each
        axis and their cells step by p, so their supports are a strided
        window of the channel-major coefficient grid, which the corner
        check keeps on the grid.  Each phase multiplies its psi column into
        its window node-major, (K, ch, rows, n1), in blocks of rows holding
        at most _FIELD_BLOCK products (at least one row), and adds the K
        node terms in node order (see _node_sum): the order einsum takes in
        _kernel_sums for a transposed batch, whatever the box around a
        point."""
        k_lo, shape, step = box
        table = self._phase_table(step)
        if table is None or len(X) == 0:
            return None
        k_lo = np.asarray(k_lo, dtype=np.int64)
        shape = tuple(int(n) for n in shape)
        if len(X) != np.prod(shape):
            raise FieldError(f"{len(X)} points do not fill a {shape} box")
        # the box's first and last points are its corners
        if not self.region.contains_all(X[[0, -1]]):
            raise RegionError("evaluation point outside field region")
        p, q, psi = table
        # a cell is monotone in k along each axis
        cells = np.array([k_lo, k_lo + shape - 1]) * p // q
        if (np.any(cells[0] < self._corner_cells[0])
                or np.any(cells[1] > self._corner_cells[1])):
            return None
        m, ch = len(self._line), len(self._grid_cm)
        windows = sliding_window_view(self._grid_cm, (m, m), axis=(1, 2))
        scale = self.kernel.amplitude / self._norm
        out = np.empty(shape + (ch,))
        for c in np.ndindex(*np.minimum(q, shape)):
            kp = (k_lo + c) * p
            cell = kp // q
            phase = (kp[0] - cell[0] * q) * q + kp[1] - cell[1] * q
            col = psi[:, phase].reshape(m, m, 1, 1, 1)
            n0, n1 = ((np.asarray(shape) - c + q - 1) // q).tolist()
            # window a of an axis holds the nodes a .. a + m - 1 of the grid
            a0, a1 = (cell - self._reach + 1 - self._index_lo).tolist()
            win = windows[:, a0::p, a1::p][:, :n0, :n1]
            rows = max(1, _FIELD_BLOCK // (m * m * ch * n1))
            for r in range(0, n0, rows):
                part = win[:, r:r + rows]
                # in C order, not the window's layout, the (K, n) reshape
                # is a view and each node's terms are one contiguous slice
                terms = np.multiply(col, part.transpose(3, 4, 0, 1, 2), order="C")
                sums = _node_sum(terms.reshape(m * m, -1))
                dest = out[c[0] + q * r:c[0] + q * (r + rows):q, c[1]::q]
                np.multiply(sums.reshape(part.shape[:3]).transpose(1, 2, 0),
                            scale, out=dest)
        return out.reshape(-1, ch)

    def _blocked(self, X, order, finish, lookup=None, lattice=None,
                 contract=None):
        """finish(self, sums, order) of the kernel sums (see _kernel_sums)
        at the points X, in blocks of self._steps[order] rows written into
        arrays of the batch's length: one array, or a tuple whose None
        entries (skipped orders) stay None.  ``lookup`` as in _gather and
        ``contract`` as in _sums; ``lattice`` = (k_lo, shape, step) at order
        0 says X is that lattice box and takes the sums from the box's
        phases where the phase table applies (see _box_sums)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            X = np.atleast_2d(X)
        step = self._steps[order]
        box = None if lattice is None else self._box_sums(X, lattice)
        if len(X) <= step:
            if box is None:
                box = self._sums(X, order, lookup, 0, contract)
            return finish(self, box, order)
        if box is not None:
            def sums(rows):
                return box[rows]
        else:
            def sums(rows):
                return self._sums(X[rows], order, lookup, rows.start, contract)
        out = None
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            part = finish(self, sums(rows), order)
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

    def values_batch(self, X, lattice=None):
        """Metric values only (cheaper path for quadrature of edge weights).
        ``lattice`` = (k_lo, shape, step) says X holds the points (k_lo + i)
        step, i in 0 .. shape - 1 per axis, row-major, as a passage graph's
        samples do; the kernel sums then come from the lattice's phase table
        where it applies (see _box_sums)."""
        return self._blocked(X, 0, _metric_from_sums, lattice=lattice)

    def conformal_factor_batch(self, X, lattice=None):
        """Scalar e^{2 phi} for conformal fields (fast edge-weight path);
        ``lattice`` as in values_batch."""
        if not self.conformal:
            raise FieldError("conformal_factor_batch needs a conformal field")
        return self._blocked(X, 0, _factor_from_sums, lattice=lattice)

    def conformal_exponent_batch(self, X, order=2):
        """(phi, dphi, d2phi) of the conformal exponent, conformal mode only.
        ``order`` means what it means in evaluate_batch: with order=1 the
        Hessian sum is skipped and d2phi is None (the conformal geodesic
        right-hand side needs only dphi), with order=0 dphi is None too."""
        return self._blocked(X, order, _exponent_from_sums)

    def conformal_laplacian_batch(self, X):
        """(phi, Laplacian of phi) of the conformal exponent, conformal mode
        only, from the Laplacian sums of _laplacian_sums: no Hessian tensor
        is formed."""
        return self._blocked(X, 1, _laplacian_from_sums,
                             contract=_laplacian_sums)

    def log_metric_batch(self, X, order=2):
        """(A, dA, d2A) of the exponent A = log g, sym_exp mode only, as
        channels (A_00, A_11, A_01): A (B,3), dA (B,2,3) with dA[:, i] = d_i
        A and d2A (B,2,2,3), the derivatives above ``order`` None as in
        evaluate_batch.  No exponential is formed."""
        return self._blocked(X, order, _log_metric_from_sums)


def _sym_from_channels(A):
    """(B, ..., 3) channel arrays to (B, ..., 2, 2) symmetric matrices."""
    if A is None:
        return None
    # C order: on a strided view the sym_exp einsums round differently
    return np.ascontiguousarray(A[..., _SYM_CHANNELS])


def _exponent_from_sums(field, sums, order):
    """(phi, dphi, d2phi) of a conformal field from its one-channel sums,
    the derivatives above ``order`` None."""
    if not field.conformal:
        raise FieldError("conformal_exponent_batch needs a conformal field")
    G, dG, d2G = (sums, None, None) if order == 0 else sums
    return G[:, 0], _first_channel(dG), _first_channel(d2G)


def _laplacian_from_sums(field, sums, order):
    """(phi, Laplacian of phi) of a conformal field from the one-channel
    sums of _laplacian_sums."""
    if not field.conformal:
        raise FieldError("conformal_laplacian_batch needs a conformal field")
    G, LG = sums
    return G[:, 0], LG[:, 0]


def _log_metric_from_sums(field, sums, order):
    """(A, dA, d2A) channels of a sym_exp field's exponent A = log(shift) I
    + G from its kernel sums, the derivatives above ``order`` None."""
    if not field.sym_exp:
        raise FieldError("log_metric_batch needs a sym_exp field")
    G, dG, d2G = (sums, None, None) if order == 0 else sums
    return G + field._shift_channels, dG, d2G


def _factor_from_sums(field, sums, order):
    """e^{2 phi} of a conformal field from its order-0 sums."""
    return np.exp(2.0 * sums[:, 0])


def _first_channel(A):
    """Channel 0 of a (B, ..., ch) sum array, or None for a skipped order."""
    return None if A is None else A[..., 0]


def _kernel_sums(kernel, norm, dx1, spread, coeff, order=2):
    """Contract kernel derivatives against coefficients, scaled by
    amplitude / N0: G (B,ch) alone at order 0, (G, dG (B,2,ch), None) at
    order 1 and (G, dG, d2G (B,2,2,ch)) at order 2.

    The displacements come as the per-axis table dx1 (B,m,2) of _gather and
    coeff (B,K,ch) holds the K = m^2 mesh nodes, m = 2 reach (the lines
    -reach + 1 .. reach; the line -reach carries no weight), first axis
    slowest.  No (B,K,2) displacement tensor is built: u = |dx|^2 /
    range^2 is the outer sum x0^2 + x1^2 of the squared per-axis
    displacements, the sum einsum("bi,bi->b") forms over the full tensor,
    so every u keeps its bits.  From order 1 on, the factor du/dx = 2 dx /
    range^2 is computed per axis and spread over the mesh by ``spread``,
    the (2 K,) positions in a flattened (m, 2) table row of the mesh
    entries (k, i)."""
    B, m, d = dx1.shape
    K = m ** d
    xi2 = kernel.range ** 2
    u = _support_u(kernel, dx1)
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


def _laplacian_sums(kernel, norm, dx1, spread, coeff, order):
    """The order-0 sums G (B,ch) and the sums of the kernel's Laplacian,
    from _kernel_sums's arguments (``spread`` and ``order`` unused: a
    block holds two (B,K) products per node, as at order 1).

    For u = |x|^2 / range^2 in the plane, |grad u|^2 = 4 u / range^2 and
    Lap u = 4 / range^2, so the Laplacian of psi(u) is (4 / range^2)(u psi''
    + psi') per node (KernelSpec.radial_laplacian): no (B,K,2,2) Hessian
    tensor is formed.  G keeps the bits of the order-0 sums."""
    psi, lap = kernel.radial_laplacian(_support_u(kernel, dx1))
    scale = kernel.amplitude / norm
    return (scale * np.einsum("bk,bkc->bc", psi, coeff),
            (4.0 * scale / kernel.range ** 2)
            * np.einsum("bk,bkc->bc", lap, coeff))


def _node_sum(terms):
    """The sums over axis 0 of terms (K, n), node 0 first and one node at a
    time, as einsum adds a node axis: add.reduce keeps that order where n
    > 1, but sums a single column pairwise; add.accumulate never does."""
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _support_u(kernel, dx1):
    """u = |dx|^2 / range^2 (B,K) at the K = m^2 mesh nodes of the per-axis
    table dx1 (B,m,2), first axis slowest (see _kernel_sums)."""
    B, m, _ = dx1.shape
    sq = dx1 * dx1
    u = np.add(sq[:, :, None, 0], sq[:, None, :, 1]).reshape(B, m * m)
    u /= kernel.range ** 2
    return u


def _metric_from_sums(field, sums, order):
    """Apply the field's construction-mode map to kernel sums of ``order``
    0, 1 or 2: the metric value alone at order 0, else (value, grad, hess)
    with hess None at order 1."""
    G, dG, d2G = (sums, None, None) if order == 0 else sums
    if field.conformal:
        return _conformal_metric(G[:, 0], _first_channel(dG),
                                 _first_channel(d2G))
    return _sym_exp_metric(*_log_metric_from_sums(field, sums, order))


def _conformal_metric(phi, dphi, d2phi):
    """g = e^{2 phi} I from phi (B,), dphi (B,2) and d2phi (B,2,2): the value
    alone when dphi is None, else (value, grad, hess) with hess None when
    d2phi is None."""
    eye = np.eye(2)
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
        self.region = f0.region
        self.conformal = f0.conformal
        self.sym_exp = f0.sym_exp
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

    def _blocked(self, X, order, finish, contract=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(X) % len(self.fields) != 0:
            raise FieldError("point batch must be a multiple of the stack size")
        return self.template._blocked(X, order, finish, self._lookup,
                                      contract=contract)

    def evaluate_batch(self, X, order=2):
        return self._blocked(X, order, _metric_from_sums)

    def values_batch(self, X):
        return self.evaluate_batch(X, order=0)

    def conformal_exponent_batch(self, X, order=2):
        """As MetricField.conformal_exponent_batch, row b against field b."""
        return self._blocked(X, order, _exponent_from_sums)

    def conformal_laplacian_batch(self, X):
        """As MetricField.conformal_laplacian_batch, row b against field b."""
        return self._blocked(X, 1, _laplacian_from_sums, _laplacian_sums)

    def log_metric_batch(self, X, order=2):
        """As MetricField.log_metric_batch, row b against field b."""
        return self._blocked(X, order, _log_metric_from_sums)


# ---------------------------------------------------------------------------
# the 2 x 2 symmetric exponential in closed form (sym_exp mode)
# ---------------------------------------------------------------------------
#
# A symmetric 2 x 2 matrix X with channels (X_00, X_11, X_01) has the
# coordinates (x0, xi) = ((X_00 + X_11) / 2, (X_00 - X_11) / 2, X_01) in the
# basis (I, Z, X) of the identity and the traceless [[1, 0], [0, -1]] and
# [[0, 1], [1, 0]], whose squares are I and whose products anticommute.  So
# A = m I + N, N = nu . (Z, X), has N^2 = s I with s = |nu|^2, and
#
#     e^A = e^m (C I + S N),   C = cosh(sqrt s),  S = sinh(sqrt s) / sqrt s,
#
# both entire in s, with C' = S / 2 and S' = (C - S) / (2 s) (' = d/ds).
# A direction E = (e, eps) moves s by 2 tau, tau = nu . eps, so
#
#     D e^A[E] = e^m M(E),  M(e, eps) = (C e + S tau, (S e + 2 S' tau) nu
#                                        + S eps),
#
# a symmetric map of the coordinates, and with F = (f, phi), sigma = nu . phi
# and S'' = (S / 2 - 3 S') / (2 s), D^2 e^A[E, F] = e^m (f M(E) + d_F M(E)):
#
#     first coordinate   C e f + S (e sigma + f tau) + 2 S' tau sigma
#                        + S eps . phi
#     traceless part     (S e f + 2 S' (e sigma + f tau) + 4 S'' tau sigma
#                        + 2 S' eps . phi) nu + (S e + 2 S' tau) phi
#                        + (S f + 2 S' sigma) eps
#
# Each row is computed on its own, by products and sums in a fixed order.

# the coordinates (x0, xi) of the channels (X_00, X_11, X_01) of a row
# vector X are X _TO_BASIS, and the channels of coordinates x are x
# _FROM_BASIS
_TO_BASIS = np.array([[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 1.0]])
_FROM_BASIS = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
# below this s, (C, S, S', S'') come from their Taylor series in s, where
# (C - S) / (2 s) would cancel; at s = 0 they are exact
_SERIES_S = 1.0
# Taylor coefficients of C = sum s^k / (2k)!, S = sum s^k / (2k+1)!, S' =
# sum k s^(k-1) / (2k+1)! and S'' = sum k (k-1) s^(k-2) / (2k+1)!, by power
# of s (rows) and coefficient (columns); at s = 1 the first term left out is
# below 1e-17 of the sum
_EXP_SERIES = np.array(
    [[1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1),
      (k + 1) / math.factorial(2 * k + 3),
      (k + 2) * (k + 1) / math.factorial(2 * k + 5)] for k in range(10)])
# M (flattened) = (k _M_PRODUCTS) o^T o + k _M_DIAGONAL for the coefficients
# k = (C, S, S', S'') and o = (1, nu): the products C, S nu and 2 S' nu nu^T
# and S on the traceless diagonal
_M_PRODUCTS = np.zeros((4, 9))
_M_PRODUCTS[0, 0] = 1.0
_M_PRODUCTS[1, [1, 2, 3, 6]] = 1.0
_M_PRODUCTS[2, [4, 5, 7, 8]] = 2.0
_M_DIAGONAL = np.zeros((4, 9))
_M_DIAGONAL[1, [4, 8]] = 1.0


def _exp_coefficients(s):
    """(B,4) columns C, S, S', S'' of e^N = C I + S N at s = |N|^2 / 2 >=
    0 (B,).  Rows with s < _SERIES_S take the series, the others the
    closed forms; a row's coefficients depend on its own s alone."""
    small = s < _SERIES_S
    count = np.count_nonzero(small)
    if count == len(s):
        return _series_coefficients(s)
    if count == 0:
        return _direct_coefficients(s)
    return np.where(small[:, None],
                    _series_coefficients(np.where(small, s, 0.0)),
                    _direct_coefficients(np.where(small, _SERIES_S, s)))


def _series_coefficients(s):
    """The coefficients from their series: the powers of s by one running
    product along each row, times _EXP_SERIES."""
    powers = np.empty((len(s), 1, len(_EXP_SERIES)))
    powers[:, 0, 0] = 1.0
    powers[:, 0, 1:] = s[:, None]
    np.multiply.accumulate(powers, axis=2, out=powers)
    return np.matmul(powers, _EXP_SERIES)[:, 0]


def _direct_coefficients(s):
    """The coefficients from their closed forms, s > 0."""
    x = np.sqrt(s)
    C = np.cosh(x)
    S = np.sinh(x) / x
    S1 = (C - S) / (2.0 * s)
    return np.stack([C, S, S1, (0.5 * S - 3.0 * S1) / (2.0 * s)], axis=1)


def _exp_coordinates(A):
    """The coordinates a (B,1,3) = (m, nu) of the channels A (B,3) of a
    symmetric exponent, and the _exp_coefficients (B,4) at s = |nu|^2."""
    a = np.matmul(A[:, None, :], _TO_BASIS)
    nu = a[:, :, 1:]
    return a, _exp_coefficients(np.matmul(nu, np.swapaxes(nu, 1, 2))[:, 0, 0])


def _exp_derivative_map(a, k):
    """The symmetric (B,3,3) matrices M of the formulas above, from
    _exp_coordinates: the coordinates of D e^A[E] / e^m are E M, for the
    coordinates E of a direction (a row vector).  The first row of M is (C,
    S nu), the coordinates of e^A / e^m."""
    o = a.copy()
    o[:, :, 0] = 1.0
    kk = k[:, None, :]
    M = np.matmul(kk, _M_PRODUCTS).reshape(-1, 3, 3)
    M *= np.matmul(np.swapaxes(o, 1, 2), o)
    M += np.matmul(kk, _M_DIAGONAL).reshape(-1, 3, 3)
    return M


def _sym_exp_metric(A, dA, d2A):
    """e^A with its first and second derivatives, from the channels A (B,3)
    of the symmetric exponent, dA (B,p,3) of its derivatives along p
    coordinates and d2A (B,p,p,3) of its second derivatives.  Returns e^A
    (B,2,2) alone when dA is None, else (e^A, grad (B,p,2,2), hess
    (B,p,p,2,2)) with hess None when d2A is None (formulas above)."""
    a, k = _exp_coordinates(A)
    nu = a[:, :, 1:]
    em = np.exp(a[:, :, :1])                                   # (B,1,1)
    x = a * k[:, 1, None, None]                                # (C, S nu)
    x[:, :, 0] = k[:, :1]
    value = _sym_from_channels((em * np.matmul(x, _FROM_BASIS))[:, 0])
    if dA is None:
        return value
    # in channels, D e^A[E] = e^m E J
    J = np.matmul(np.matmul(_TO_BASIS, _exp_derivative_map(a, k)),
                  _FROM_BASIS)
    grad = _sym_from_channels(em * np.matmul(dA, J))
    if d2A is None:
        return value, grad, None
    # the coordinates (e, eps) of the directions d_k A, tau = eps . nu and
    # the symmetric (B,p,p) products of the formulas above
    C, S, S1, S2 = (k[:, i, None, None] for i in range(4))
    da = np.matmul(dA, _TO_BASIS)
    e, eps = da[:, :, :1], da[:, :, 1:]
    tau = np.matmul(eps, np.swapaxes(nu, 1, 2))               # (B,p,1)
    ee = np.matmul(e, np.swapaxes(e, 1, 2))
    et = np.matmul(e, np.swapaxes(tau, 1, 2))
    et = et + np.swapaxes(et, 1, 2)
    tt = np.matmul(tau, np.swapaxes(tau, 1, 2))
    epsilon = np.matmul(eps, np.swapaxes(eps, 1, 2))
    x = np.empty(ee.shape + (3,))
    x[..., 0] = C * ee + S * et + 2.0 * S1 * tt + S * epsilon
    x[..., 1:] = ((S * ee + 2.0 * S1 * et + 4.0 * S2 * tt
                   + 2.0 * S1 * epsilon)[..., None] * nu[:, None])
    cross = (S * e + 2.0 * S1 * tau)[:, :, None] * eps[:, None]
    x[..., 1:] += cross + np.swapaxes(cross, 1, 2)
    hess = np.matmul(x, _FROM_BASIS) + np.matmul(d2A, J[:, None])
    return value, grad, _sym_from_channels(em[:, :, :, None] * hess)


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------

class AnalyticField(Field):
    """Base for closed-form metrics valid on all of R^2 (or a stated region)."""

    correlation_length = 1.0

    def evaluate(self, x):
        val, grad, hess = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return val[0], grad[0], hess[0]

    def values_batch(self, X):
        return self.evaluate_batch(X, order=1)[0]

    def evaluate_batch(self, X, order=2):
        raise NotImplementedError

    def _points(self, X):
        """X as a (B, 2) float batch, behind the dimension and region
        checks (Box.screen sets a non-finite row to NaN)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _check_plane(X.shape[1])
        if self.region is not None and not self.region.contains_all(X):
            X = self.region.screen(X)
        return X


class ConstantMetric(AnalyticField):
    """g(x) = A for a fixed SPD 2 x 2 matrix A."""

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise FieldError("constant metric needs a square matrix")
        _check_plane(len(A))
        if not np.allclose(A, A.T):
            raise FieldError("constant metric must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            raise FieldError("constant metric must be positive-definite")
        self.matrix = A

    def evaluate_batch(self, X, order=2):
        B = len(self._points(X))
        val = np.broadcast_to(self.matrix, (B, 2, 2)).copy()
        grad = np.zeros((B, 2, 2, 2))
        hess = np.zeros((B, 2, 2, 2, 2)) if order >= 2 else None
        return val, grad, hess


class ConformalAnalyticField(AnalyticField):
    """g = e^{2 phi} I for a closed-form phi; subclasses supply phi_batch
    and phi_laplacian_batch."""

    conformal = True

    def phi_batch(self, X, order=2):
        """Return (phi (B,), dphi (B,2), d2phi (B,2,2)), dphi None below
        order 1 and d2phi None below order 2."""
        raise NotImplementedError

    def phi_laplacian_batch(self, X):
        """Return (phi (B,), Laplacian of phi (B,)), phi with the bits of
        phi_batch's."""
        raise NotImplementedError

    def conformal_exponent_batch(self, X, order=2):
        """phi_batch behind the dimension and region checks."""
        return self.phi_batch(self._points(X), order)

    def conformal_laplacian_batch(self, X):
        """phi_laplacian_batch behind the dimension and region checks."""
        return self.phi_laplacian_batch(self._points(X))

    def values_batch(self, X):
        return _conformal_metric(self.conformal_exponent_batch(X, 0)[0],
                                 None, None)

    def evaluate_batch(self, X, order=2):
        return _conformal_metric(*self.conformal_exponent_batch(X, order))


class FlatMetric(ConformalAnalyticField):
    """The euclidean metric g = I, the conformal field with phi = 0."""

    def phi_batch(self, X, order=2):
        B = len(X)
        return (np.zeros(B), np.zeros((B, 2)) if order >= 1 else None,
                np.zeros((B, 2, 2)) if order >= 2 else None)

    def phi_laplacian_batch(self, X):
        return np.zeros(len(X)), np.zeros(len(X))


class SpherePatchField(ConformalAnalyticField):
    """Stereographic image of the round sphere of radius R: curvature 1/R^2.

    Conformal factor e^{2 phi} = 4 R^4 / (R^2 + |x - c|^2)^2.
    """

    def __init__(self, radius=1.0, center=None):
        self.radius = float(radius)
        self.center = np.zeros(2) if center is None else np.asarray(center, float)
        _check_plane(len(self.center))

    def phi_batch(self, X, order=2):
        return _stereographic_exponent(X - self.center, self.radius ** 2, 1.0,
                                       order)

    def phi_laplacian_batch(self, X):
        # curvature 1 / R^2 = -e^{-2 phi} Lap phi
        phi = self.phi_batch(X, 0)[0]
        return phi, np.exp(2.0 * phi) * (-1.0 / self.radius ** 2)


class HyperbolicDiskField(ConformalAnalyticField):
    """Poincare disk: e^{2 phi} = 4 / (1 - |x|^2)^2 on |x| < 1, curvature -1."""

    def __init__(self, patch_radius=0.99):
        self.region = Box.cube(patch_radius / np.sqrt(2), 2)

    def phi_batch(self, X, order=2):
        return _stereographic_exponent(X, 1.0, -1.0, order)

    def phi_laplacian_batch(self, X):
        # curvature -1 = -e^{-2 phi} Lap phi
        phi = self.phi_batch(X, 0)[0]
        return phi, np.exp(2.0 * phi)


def _stereographic_exponent(y, a, sign, order):
    """(phi, dphi, d2phi) of e^{2 phi} = 4 a^2 / (a + sign |y|^2)^2, the
    stereographic chart of curvature sign / a, dphi None below order 1 and
    d2phi None below order 2; points where a + sign |y|^2 <= 0 lie outside
    the chart."""
    q = a + sign * np.einsum("bi,bi->b", y, y)
    if np.any(q <= 0):
        raise RegionError("point outside the stereographic chart")
    phi = np.log(2.0 * a) - np.log(q)
    if order < 1:
        return phi, None, None
    dphi = -2.0 * sign * y / q[:, None]
    if order < 2:
        return phi, dphi, None
    d2phi = (-2.0 * sign * np.eye(2) / q[:, None, None]
             + 4.0 * y[:, :, None] * y[:, None, :] / (q ** 2)[:, None, None])
    return phi, dphi, d2phi


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
#   12      1     u8     mode code (0 conformal, 2 sym_exp; 1 is reserved,
#                        it was sym_shift)
#   13      1     u8     dimension d (2; the loader refuses any other)
#   14      2     u8[2]  reserved (0)
#   16      8     u64    seed
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
    buf.write(struct.pack("<BBBB", _MODE_CODES[field.mode], d, 0, 0))
    # the generator reads seeds mod 2^64: a negative seed keeps its i64 bytes
    buf.write(struct.pack("<Q", field.seed % 2 ** 64))
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
    mode = {c: m for m, c in _MODE_CODES.items()}.get(mode_c)
    if mode is None:
        raise FieldError(f"unknown mode code {mode_c}")
    _check_plane(d)
    if len(data) != _HEADER_BYTES + 32 * d:
        raise FieldError(f"field container of dimension {d} has {len(data)} "
                         f"bytes, not {_HEADER_BYTES + 32 * d}")
    seed, = struct.unpack_from("<Q", data, 16)
    rng_, amp, shift, spacing, reserved = struct.unpack_from("<ddddd", data, 24)
    if reserved != 1.0:
        raise FieldError(f"reserved value {reserved!r} at offset 56 is not 1.0")
    channels, = struct.unpack_from("<I", data, 64)
    off = 68
    lo = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    hi = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    index_lo = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    counts = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    field = MetricField(mode, seed, Box(lo, hi),
                        kernel=KernelSpec(range=rng_, amplitude=amp),
                        shift=shift, spacing=spacing)
    if (field.noise.index_lo != index_lo or field.noise.node_counts != counts
            or field.noise.channels != channels):
        raise FieldError("stored node grid does not match regeneration")
    if _coefficient_digest(field.noise) != data[off:]:
        raise FieldError("stored coefficient digest does not match the stored seed")
    return field
