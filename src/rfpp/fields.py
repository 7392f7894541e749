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

This module alone decides which fields are conformal: every field has a
``conformal`` flag derived from its mode or its class, and every field
with the flag set answers ``conformal_exponent_batch(X, order)`` with
(phi, dphi, d2phi), d2phi None below order 2.
"""

from __future__ import annotations

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

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, points, margin=0.0):
        x = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo) + margin
        hi = np.asarray(self.hi) - margin
        return np.all((x >= lo) & (x <= hi), axis=1)

    @staticmethod
    def cube(half_width, dim):
        return Box((-half_width,) * dim, (half_width,) * dim)


_PROFILES = ("bump",)


@dataclass(frozen=True)
class KernelSpec:
    """Compactly supported smoothing kernel.

    ``profile='bump'`` is k(x) = psi(|x|^2 / range^2) with
    psi(u) = exp(1 - 1/(1-u)) for u < 1 and 0 otherwise: C^inf, radial,
    identically zero outside the radius, so the induced field has covariance
    exactly zero at separations >= 2 * range.
    """
    range: float = 1.0
    profile: str = "bump"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.range <= 0:
            raise FieldError("kernel range must be > 0")
        if self.amplitude < 0:
            raise FieldError("kernel amplitude must be >= 0")
        if self.profile not in _PROFILES:
            raise FieldError(f"unknown kernel profile {self.profile!r}")

    def radial(self, u, order=2):
        """psi(u), psi'(u), psi''(u) for u = |x|^2 / range^2 (vectorized),
        computed up to ``order``: psi alone at order 0, (psi, psi', None)
        at order 1 and all three at order 2."""
        u = np.asarray(u, dtype=float)
        inside = u < 1.0
        # clamp to keep 1/(1-u) finite where the result is masked out anyway
        w = np.where(inside, 1.0 - u, 1.0)
        inv = 1.0 / w
        psi = np.where(inside, np.exp(1.0 - inv), 0.0)
        if order == 0:
            return psi
        d1 = np.where(inside, -psi * inv * inv, 0.0)
        if order < 2:
            return psi, d1, None
        d2 = np.where(inside, psi * (inv ** 4 - 2.0 * inv ** 3), 0.0)
        return psi, d1, d2

    def evaluate(self, dx, order=2):
        """Kernel value, gradient and Hessian at displacements dx (B, d),
        computed up to ``order``: the value alone at order 0, (value,
        gradient, None) at order 1 and all three at order 2."""
        dx = np.atleast_2d(np.asarray(dx, dtype=float))
        xi2 = self.range ** 2
        u = np.einsum("bi,bi->b", dx, dx) / xi2
        if order == 0:
            return self.radial(u, 0)
        psi, d1, d2 = self.radial(u, order)
        du = 2.0 * dx / xi2                            # (B, d) = du/dx_i
        grad = d1[:, None] * du
        if order < 2:
            return psi, grad, None
        hess = (d2[:, None, None] * du[:, :, None] * du[:, None, :]
                + d1[:, None, None] * (2.0 / xi2) * np.eye(dx.shape[1]))
        return psi, grad, hess


# ---------------------------------------------------------------------------
# lattice noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseField:
    """I.i.d. standard Gaussian coefficients on the global lattice
    {spacing * z : z integer}, one array slot per (node, channel).

    The node grid covers ``region`` plus a margin of ``margin`` (the kernel
    range) on every side.  Coefficient (z, c) is ``rng.normal(seed, *z, c)``:
    a pure function of the key, hence reproducible and region-independent.
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
        lo = np.floor((np.asarray(self.region.lo) - self.margin) / self.spacing).astype(np.int64)
        hi = np.ceil((np.asarray(self.region.hi) + self.margin) / self.spacing).astype(np.int64)
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

# symmetric-matrix channel layout: diagonal entries first, then upper pairs;
# entry [i, j] is the channel holding g_ij
_SYM_CHANNELS = {
    2: np.array([[0, 2], [2, 1]]),
    3: np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]]),
}


def sym_channel_count(dim):
    return dim * (dim + 1) // 2


class MetricField:
    """A sampled random Riemannian metric on a box region.

    Immutable after construction; evaluation is pure and thread-safe.
    ``value_scale`` multiplies the metric (and its derivatives) by a global
    constant; power-of-two scales commute exactly with IEEE rounding, which
    the scaling tests rely on.
    """

    def __init__(self, mode, seed, region, kernel=None, shift=1.0,
                 spacing=None, value_scale=1.0):
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
        self.value_scale = float(value_scale)
        if self.dim < 2:
            raise FieldError("dimension must be >= 2")
        channels = 1 if mode == "conformal" else sym_channel_count(self.dim)
        self.noise = sample_noise(self.seed, region, self.spacing, channels,
                                  margin=kernel.range)
        # support geometry, fixed for the field's lifetime: the (2 reach + 1)^d
        # node offsets around a cell, their offsets in the flat (C-order)
        # noise index, and the flat coefficient view they index
        self._reach = int(np.ceil(kernel.range / self.spacing))
        axes = [np.arange(-self._reach, self._reach + 1)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        self._offs = np.stack([m.ravel() for m in mesh], axis=1)    # (K, d)
        self._index_lo = np.asarray(self.noise.index_lo, dtype=np.int64)
        self._counts = np.asarray(self.noise.node_counts, dtype=np.int64)
        self._strides = np.append(np.cumprod(self._counts[:0:-1])[::-1], 1)
        self._flat_offs = self._offs @ self._strides                 # (K,)
        self._flat_coeff = self.noise.coefficients.reshape(-1, channels)
        self._norm = self._node_normalizer()

    # -- plumbing ----------------------------------------------------------

    @property
    def correlation_length(self):
        return self.kernel.range

    @property
    def dependence_range(self):
        """Separation beyond which field values are exactly independent."""
        return 2.0 * self.kernel.range

    def scaled(self, factor):
        """Copy of this field with the metric multiplied by ``factor``."""
        out = object.__new__(MetricField)
        out.__dict__.update(self.__dict__)
        out.value_scale = self.value_scale * float(factor)
        return out

    def _node_normalizer(self):
        val = self.kernel.evaluate(self._offs * self.spacing, order=0)
        return float(np.sqrt(np.sum(val ** 2)))

    def contains(self, points, margin=0.0):
        return self.region.contains(points, margin=margin)

    # -- kernel sums -------------------------------------------------------

    def _gather(self, X, lookup=None):
        """Displacements to, and coefficients of, every support node.

        Returns (dx (B,K,d), coeff (B,K,ch)) for the (2 reach + 1)^d nodes
        whose kernel support can reach each point.  The bounds check runs on
        the (B,d) cells: every support node of a cell lies within ``reach``
        of it on each axis, so the cells alone decide whether the support
        stays on the noise grid.  ``lookup`` maps the flat noise-grid indices
        (B,K) to coefficients; the default reads this field's own array.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(self.contains(X)):
            raise RegionError("evaluation point outside field region")
        h = self.spacing
        cell = np.floor(X / h).astype(np.int64)
        rel = cell - self._index_lo
        if (rel.min() < self._reach
                or np.any(rel.max(axis=0) + self._reach >= self._counts)):
            # interior points always see their full support; anything else is
            # a bookkeeping bug, not a soft condition
            raise RegionError("kernel support escapes the noise grid")
        flat = (rel @ self._strides)[:, None] + self._flat_offs
        if lookup is None:
            coeff = self._flat_coeff[flat]
        else:
            coeff = lookup(flat)
        node_pos = (cell[:, None, :] + self._offs[None, :, :]) * h
        dx = X[:, None, :] - node_pos
        return dx, coeff

    def _sums(self, X, order, lookup=None):
        """Kernel sums of this field at X up to ``order`` (see _kernel_sums);
        ``lookup`` as in _gather."""
        dx, coeff = self._gather(X, lookup)
        return _kernel_sums(self.kernel, self._norm, dx, coeff, order)

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, X, order=2):
        """Metric value, gradient and Hessian at a batch of points.

        Shapes: value (B,d,d), grad (B,d,d,d) with grad[:,i,a,b] = d_i g_ab,
        hess (B,d,d,d,d) with hess[:,i,j,a,b] = d_i d_j g_ab.  Pass order=1
        when the Hessian is not needed (returned as None); the geodesic
        right-hand side only uses first derivatives.
        """
        return _metric_from_sums(self, self._sums(X, order), order)

    def evaluate(self, x):
        val, grad, hess = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return val[0], grad[0], hess[0]

    def values_batch(self, X):
        """Metric values only (cheaper path for quadrature of edge weights)."""
        return _metric_from_sums(self, self._sums(X, 0), 0)

    def conformal_factor_batch(self, X):
        """Scalar e^{2 phi} for conformal fields (fast edge-weight path)."""
        if not self.conformal:
            raise FieldError("conformal_factor_batch needs a conformal field")
        return self.value_scale * np.exp(2.0 * self._sums(X, 0)[:, 0])

    def conformal_exponent_batch(self, X, order=2):
        """(phi, dphi, d2phi) of the conformal exponent, conformal mode only;
        value_scale contributes log(scale)/2 to phi.  ``order`` means what it
        means in evaluate_batch: with order=1 the Hessian sum is skipped and
        d2phi is None (the conformal geodesic right-hand side needs only
        dphi)."""
        return _exponent_from_sums(self, self._sums(X, order))


def _sym_from_channels(dim, A):
    """(B, ..., ch) channel arrays to (B, ..., d, d) symmetric matrices."""
    if A is None:
        return None
    # C order: on a strided view the sym_exp einsums round differently
    return np.ascontiguousarray(A[..., _SYM_CHANNELS[dim]])


def _exponent_from_sums(field, sums):
    """(phi, dphi, d2phi) of a conformal field from its one-channel sums
    at order 1 or 2 (d2phi None at order 1)."""
    if not field.conformal:
        raise FieldError("conformal_exponent_batch needs a conformal field")
    G, dG, d2G = sums
    phi = G[:, 0] + 0.5 * np.log(field.value_scale)
    return phi, dG[..., 0], _first_channel(d2G)


def _first_channel(A):
    """Channel 0 of a (B, ..., ch) sum array, or None for a skipped order."""
    return None if A is None else A[..., 0]


def _kernel_sums(kernel, norm, dx, coeff, order=2):
    """Contract kernel derivatives against coefficients, scaled by
    amplitude / N0: G (B,ch) alone at order 0, (G, dG (B,d,ch), None) at
    order 1 and (G, dG, d2G (B,d,d,ch)) at order 2."""
    B, K, d = dx.shape
    k = kernel.evaluate(dx.reshape(B * K, d), order=order)
    val, grad, hess = (k, None, None) if order == 0 else k
    scale = kernel.amplitude / norm
    G = scale * np.einsum("bk,bkc->bc", val.reshape(B, K), coeff)
    if order == 0:
        return G
    dG = scale * np.einsum("bki,bkc->bic", grad.reshape(B, K, d), coeff)
    if order < 2:
        return G, dG, None
    d2G = scale * np.einsum("bkij,bkc->bijc", hess.reshape(B, K, d, d), coeff)
    return G, dG, d2G


def _metric_from_sums(field, sums, order):
    """Apply the field's construction-mode map to kernel sums of ``order``
    0, 1 or 2: the metric value alone at order 0, else (value, grad, hess)
    with hess None at order 1."""
    G, dG, d2G = (sums, None, None) if order == 0 else sums
    dim, shift = field.dim, field.shift
    eye = np.eye(dim)
    if field.mode == "conformal":
        out = _conformal_metric(G[:, 0], _first_channel(dG),
                                _first_channel(d2G), dim)
    elif field.mode == "sym_shift":
        val = shift * eye + _sym_from_channels(dim, G)
        if not np.all(_spd_mask(val)):
            raise RejectedRealizationError(
                "sym_shift metric not positive-definite at an evaluation "
                "point; reject this realization (see check_spd_on_region)")
        out = val if order == 0 else (val, _sym_from_channels(dim, dG),
                                      _sym_from_channels(dim, d2G))
    else:  # sym_exp
        A = _sym_from_channels(dim, G) + np.log(shift) * eye
        out = _expm_sym_with_derivatives(A, _sym_from_channels(dim, dG),
                                         _sym_from_channels(dim, d2G))
    s = field.value_scale
    if s == 1.0:
        return out
    return s * out if order == 0 else tuple(
        None if a is None else s * a for a in out)


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


class FieldStack:
    """Evaluate row b of a point batch against field b of a stack.

    All stacked fields must share mode, kernel, spacing, region, shift and
    value scale (only seeds differ); this turns per-seed loops (one geodesic
    per replica field) into a single batched evaluation.
    """

    def __init__(self, fields_):
        if not fields_:
            raise FieldError("empty field stack")
        f0 = fields_[0]
        for f in fields_[1:]:
            same = (f.mode == f0.mode and f.kernel == f0.kernel
                    and f.spacing == f0.spacing and f.region == f0.region
                    and f.shift == f0.shift and f.value_scale == f0.value_scale)
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

    def contains(self, points, margin=0.0):
        return self.template.contains(points, margin=margin)

    def field_at(self, b):
        """The underlying field for batch row b."""
        return self.fields[b % len(self.fields)]

    def for_rows(self, rows):
        """Stack whose row i is batch row rows[i] of this one, for a batch
        cut down to some of its rows."""
        return FieldStack([self.field_at(b) for b in rows])

    def _lookup(self, X):
        """Coefficient lookup reading row i of the batch X from field
        (i mod F); batches of k * F rows therefore map block-cyclically onto
        the stack."""
        B = np.atleast_2d(np.asarray(X, dtype=float)).shape[0]
        if B % len(self.fields) != 0:
            raise FieldError("point batch must be a multiple of the stack size")
        rows = np.arange(B) % len(self.fields)
        return lambda flat: self._coeff[rows[:, None], flat]

    def evaluate_batch(self, X, order=2):
        t = self.template
        return _metric_from_sums(t, t._sums(X, order, self._lookup(X)), order)

    def values_batch(self, X):
        return self.evaluate_batch(X, order=0)

    def conformal_exponent_batch(self, X, order=2):
        """As MetricField.conformal_exponent_batch, row b against field b."""
        t = self.template
        return _exponent_from_sums(t, t._sums(X, order, self._lookup(X)))


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

class AnalyticField:
    """Base for closed-form metrics valid on all of R^d (or a stated region)."""

    region = None           # None means unbounded
    correlation_length = 1.0
    conformal = False

    def contains(self, points, margin=0.0):
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if self.region is None:
            return np.ones(x.shape[0], dtype=bool)
        return self.region.contains(points, margin=margin)

    def evaluate(self, x):
        val, grad, hess = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return val[0], grad[0], hess[0]

    def values_batch(self, X):
        return self.evaluate_batch(X, order=1)[0]

    def evaluate_batch(self, X, order=2):
        raise NotImplementedError

    def scaled(self, factor):
        return ScaledField(self, factor)


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
        if not np.all(self.contains(X)):
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


class ScaledField(AnalyticField):
    """Wrapper multiplying another field's metric by a constant factor."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim
        self.region = base.region
        self.correlation_length = base.correlation_length
        self.conformal = base.conformal

    def contains(self, points, margin=0.0):
        return self.base.contains(points, margin=margin)

    def evaluate_batch(self, X, order=2):
        val, grad, hess = self.base.evaluate_batch(X, order=order)
        if hess is not None:
            hess = self.factor * hess
        return self.factor * val, self.factor * grad, hess

    def values_batch(self, X):
        return self.factor * self.base.values_batch(X)

    def conformal_exponent_batch(self, X, order=2):
        """The base's (phi, dphi, d2phi) with log(factor) / 2 added to phi."""
        phi, dphi, d2phi = self.base.conformal_exponent_batch(X, order)
        return phi + 0.5 * np.log(self.factor), dphi, d2phi


# ---------------------------------------------------------------------------
# SPD checks, eigenvalue bounds, assumption diagnostics
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


def _grid_points(box, step, dim):
    axes = [np.arange(box.lo[i], box.hi[i] + step * 0.5, step) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def check_spd_on_region(field, region, grid, floor=1e-3):
    """Scan minimum eigenvalue over a sampling grid.

    Returns (ok, lambda_floor): ok iff the observed minimum is >= ``floor``.
    For sym_shift fields this is the rejection step that keeps only
    realizations that are positive-definite with margin.
    """
    pts = _grid_points(region, grid, field.dim)
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
    axes = [np.linspace(cube.lo[i], cube.hi[i], subgrid) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    lam = np.linalg.eigvalsh(field.values_batch(pts))
    return EigenBounds(lambda_min=float(np.min(lam)),
                       lambda_max=float(np.max(lam)), region=cube)


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical moment-generating estimates for Lambda_0 and Lambda_0/lambda_0
    over disjoint, independent unit cubes, plus a finite-range covariance check."""
    r_values: tuple
    mgf_lambda: tuple          # mean of exp(r * Lambda) per r
    mgf_lambda_se: tuple
    mgf_ratio: tuple           # mean of exp(r * Lambda/lambda) per r
    mgf_ratio_se: tuple
    pair_covariance: float     # cov of Lambda over consecutive cube pairs
    pair_covariance_se: float
    n_cubes: int


def _cube_gap(a, b):
    """Euclidean gap between unit cubes centered at lattice points a, b."""
    diff = np.abs(np.asarray(a, float) - np.asarray(b, float))
    per_axis = np.maximum(diff - 1.0, 0.0)
    return float(np.linalg.norm(per_axis))


def assumption_report(field, cubes, r_values=(0.5, 1.0), subgrid=7):
    """Moment-generating diagnostics for the eigenvalue envelope.

    ``cubes`` must contain at least 30 lattice points whose unit cubes are
    pairwise separated by at least the field's dependence range, so the
    per-cube extrema are genuinely independent samples.
    """
    cubes = [np.asarray(c, dtype=float) for c in cubes]
    if len(cubes) < 30:
        raise FieldError("need at least 30 cubes for the assumption report")
    sep = field.dependence_range if hasattr(field, "dependence_range") else 0.0
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            if _cube_gap(cubes[i], cubes[j]) < sep:
                raise FieldError("cubes closer than the dependence range")
    lam_max = np.empty(len(cubes))
    lam_min = np.empty(len(cubes))
    for idx, c in enumerate(cubes):
        eb = eigen_bounds(field, c, subgrid=subgrid)
        lam_max[idx] = eb.lambda_max
        lam_min[idx] = eb.lambda_min
    ratio = lam_max / lam_min

    def mgf(samples, r):
        e = np.exp(r * samples)
        return float(np.mean(e)), float(np.std(e, ddof=1) / np.sqrt(len(e)))

    mgf_l, se_l, mgf_r, se_r = [], [], [], []
    for r in r_values:
        m, s = mgf(lam_max, r)
        mgf_l.append(m)
        se_l.append(s)
        m, s = mgf(ratio, r)
        mgf_r.append(m)
        se_r.append(s)

    # consecutive disjoint pairs as independent covariance samples
    pairs = len(cubes) // 2
    a = lam_max[0:2 * pairs:2]
    b = lam_max[1:2 * pairs:2]
    prod = (a - a.mean()) * (b - b.mean())
    cov = float(np.mean(prod))
    cov_se = float(np.std(prod, ddof=1) / np.sqrt(pairs))
    return AssumptionReport(tuple(r_values), tuple(mgf_l), tuple(se_l),
                            tuple(mgf_r), tuple(se_r), cov, cov_se, len(cubes))


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
#   14      1     u8     kernel profile code (0 bump)
#   15      1     u8     reserved (0)
#   16      8     i64    seed
#   24      8     f64    kernel range
#   32      8     f64    kernel amplitude
#   40      8     f64    shift (mean level m)
#   48      8     f64    noise spacing
#   56      8     f64    value scale
#   64      4     u32    channel count
#   68      8d    f64[d] region lo
#   ..      8d    f64[d] region hi
#   ..      8d    i64[d] node index lo (global lattice coordinates)
#   ..      8d    i64[d] node counts per axis
#   ..      32    sha256 of the coefficient array (f64, C order, shape
#                        counts + (channels,))

_MAGIC = b"RFPP-FLD"
_FORMAT_VERSION = 2


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
    buf.write(struct.pack("<BBBB", _MODES.index(field.mode), d,
                          _PROFILES.index(field.kernel.profile), 0))
    buf.write(struct.pack("<q", field.seed))
    buf.write(struct.pack("<ddddd", field.kernel.range, field.kernel.amplitude,
                          field.shift, field.spacing, field.value_scale))
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
    version, = struct.unpack_from("<I", data, 8)
    if version != _FORMAT_VERSION:
        raise FieldError(f"unsupported container version {version}")
    mode_c, d, profile_c, _ = struct.unpack_from("<BBBB", data, 12)
    seed, = struct.unpack_from("<q", data, 16)
    rng_, amp, shift, spacing, vscale = struct.unpack_from("<ddddd", data, 24)
    channels, = struct.unpack_from("<I", data, 64)
    off = 68
    lo = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    hi = struct.unpack_from(f"<{d}d", data, off); off += 8 * d
    index_lo = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    counts = struct.unpack_from(f"<{d}q", data, off); off += 8 * d
    field = MetricField(_MODES[mode_c], seed, Box(lo, hi),
                        kernel=KernelSpec(range=rng_, profile=_PROFILES[profile_c],
                                          amplitude=amp),
                        shift=shift, spacing=spacing, value_scale=vscale)
    if (field.noise.index_lo != index_lo or field.noise.node_counts != counts
            or field.noise.channels != channels):
        raise FieldError("stored node grid does not match regeneration")
    if _coefficient_digest(field.noise) != data[off:]:
        raise FieldError("stored coefficient digest does not match the stored seed")
    return field
