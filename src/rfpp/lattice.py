"""Reference lattice models: standard FPP, directed LPP and the directed
polymer free energy, with fluctuation-exponent estimation.

Bond weights are pure functions of (seed, replica, bond), drawn through the
package's counter-based generator, and are quantized to multiples of 2^-30:
path costs are then exact IEEE-754 sums, so subadditivity of passage times
and superadditivity of last-passage times hold exactly, and multiplying all
weights by a constant c with an exact binary representation (integers,
dyadics) multiplies every passage time by exactly c without changing any
witness path.

Exponent estimation follows the variance route: chi from the slope of
log Var a_n against log n (a_n the passage time to n e1 for FPP, to (n, n)
for directed LPP, whose up/right paths to n e1 would be degenerate), and xi
from the slope of log E d_n against log n, d_n the maximal deviation of the
unique witness from the axis.  The KPZ residual chi - (2 xi - 1) is reported
with the combined regression error.

Every model draws its weights in blocks, so none holds a full box of
draws beside its result.  FPP assembles the CSR bond matrix straight into
its final arrays, one block of axis-0 layers (about _SAMPLE_BLOCK slots) at
a time, with a peak of at most 12 bytes per entry, 8 per node and 2 MiB;
LPP keeps O(n) rows and a block of about _SAMPLE_BLOCK bonds, and the
polymer blocks of at most _POLYMER_SITES sites.

Of SciPy, only FPP loads anything: ``scipy.sparse`` when ``bond_matrix``
first assembles a box and ``scipy.sparse.csgraph`` when ``fpp_passage``
first runs Dijkstra.  LPP, the polymer and the weight laws run on numpy
alone, so a run of them imports no SciPy module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng
from .harness import exact_mean

_WEIGHT_GRID = 2.0 ** 30
# keys per WeightLaw.sample block: its uint64 and float64 temporaries
# (256 KiB each) stay in cache
_SAMPLE_BLOCK = 2 ** 15


class LatticeError(ValueError):
    pass


def _check_number(name, value, kind):
    """LatticeError unless value is a number of the kind (numbers.Integral
    or numbers.Real, numpy's included); a bool is no number here."""
    if not isinstance(value, kind) or isinstance(value, bool):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise LatticeError(f"{name} must be {noun}, not {value!r}")


# ---------------------------------------------------------------------------
# weight laws
# ---------------------------------------------------------------------------

# the law kinds and the parameters a law of each kind takes when none are
# given
LAW_DEFAULTS = {"exponential": (1.0,), "geometric": (0.5,),
                "uniform": (0.0, 1.0), "bernoulli": (0.5, 1.0, 2.0),
                "deterministic": (1.0,)}


@dataclass(frozen=True)
class WeightLaw:
    """Bond weight distribution.

    kind/params: exponential(rate) | geometric(p) on {0, 1, ...} |
    uniform(a, b) | bernoulli(p, lo, hi) (weight hi with probability p) |
    deterministic(c).  ``scale`` multiplies every quantized draw; exact
    binary scales preserve exactness.
    """
    kind: str
    params: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LAW_DEFAULTS:
            raise LatticeError(f"unknown weight law {self.kind!r}")
        p = self.params
        for value in p:
            _check_number(f"a parameter of law {self.kind}", value,
                          numbers.Real)
        _check_number("scale", self.scale, numbers.Real)
        ok = {
            "exponential": lambda: len(p) == 1 and p[0] > 0,
            "geometric": lambda: len(p) == 1 and 0 < p[0] < 1,
            "uniform": lambda: len(p) == 2 and 0 <= p[0] < p[1],
            "bernoulli": lambda: len(p) == 3 and 0 <= p[0] <= 1
            and p[1] >= 0 and p[2] >= 0,
            "deterministic": lambda: len(p) == 1 and p[0] >= 0,
        }[self.kind]()
        if not ok:
            raise LatticeError(f"bad parameters {p} for law {self.kind}")
        if self.scale <= 0:
            raise LatticeError("scale must be > 0")

    @property
    def random(self):
        return self.kind != "deterministic"

    def sample(self, seed, *words):
        """Deterministic quantized draws keyed by (seed, words).

        The draws are made in blocks of about _SAMPLE_BLOCK keys, row
        blocks along the first axis of the broadcast shape, and mapped to
        quantized weights in place; each value equals the draw of its own
        key.  Scalar words, and words of extent 1 along that axis, are
        passed to the generator unsliced, so they are hashed once per block.
        """
        shape = np.broadcast_shapes(*(np.shape(w) for w in words))
        out = np.empty(shape)
        if not shape:
            self._fill(seed, words, out)
            return out[()]
        step = max(1, _SAMPLE_BLOCK // max(math.prod(shape[1:]), 1))
        sliced = [np.ndim(w) == len(shape) and np.shape(w)[0] > 1 for w in words]
        for r0 in range(0, shape[0], step):
            rows = slice(r0, r0 + step)
            self._fill(seed, [np.asarray(w)[rows] if cut else w
                              for w, cut in zip(words, sliced)], out[rows])
        return out

    def _fill(self, seed, words, out):
        """Write the quantized draws keyed by (seed, words) into out: the
        law's raw weight w as round(w 2^30) 2^-30 scale, with passes folded
        where the fold gives the same bits (see the comments)."""
        if self.kind == "geometric":
            # floor makes an integer k, which the grid leaves fixed:
            # round(k 2^30) 2^-30 = k, so only the scale is applied
            np.log(rng.uniform(seed, *words), out=out)
            out /= np.log1p(-self.params[0])
            np.floor(out, out=out)
            if self.scale != 1:
                out *= self.scale
            return
        if self.kind == "exponential":
            # (-log u / rate) 2^30 as (log u (-2^30)) / rate: the factor
            # -2^30 is exact on |log u| in [2^-54, 38], so it commutes with
            # the rounding of the division; dividing by rate 1 is the
            # identity
            np.log(rng.uniform(seed, *words), out=out)
            out *= -_WEIGHT_GRID
            if self.params[0] != 1:
                out /= self.params[0]
        else:
            if self.kind == "deterministic":
                out.fill(self.params[0])
            elif self.kind == "uniform":
                a, b = self.params
                np.multiply(rng.uniform(seed, *words), b - a, out=out)
                out += a
            else:  # bernoulli
                prob, lo, hi = self.params
                out.fill(lo)
                np.copyto(out, hi, where=rng.uniform(seed, *words) < prob)
            out *= _WEIGHT_GRID
        np.round(out, out=out)
        # (k 2^-30) scale as k (scale 2^-30): both products by 2^-30 are
        # exact (k an integer, scale >= 2^-992), so each side rounds the
        # same product k scale 2^-30 once
        out *= self.scale / _WEIGHT_GRID

def exponential_law(rate=1.0):
    return WeightLaw("exponential", (float(rate),))


def geometric_law(p=0.5):
    return WeightLaw("geometric", (float(p),))


@dataclass(frozen=True)
class LatticeConfig:
    """Dimension, principal size, weight law and master seed of a model."""
    dimension: int
    n: int
    law: WeightLaw
    seed: int

    def __post_init__(self):
        _check_number("dimension", self.dimension, numbers.Integral)
        _check_number("n", self.n, numbers.Integral)
        if self.dimension < 2:
            raise LatticeError("dimension must be >= 2")
        if self.n < 1:
            raise LatticeError("box size must be >= 1")


# ---------------------------------------------------------------------------
# standard FPP (Dijkstra on bond weights)
# ---------------------------------------------------------------------------

@dataclass
class FppResult:
    tau: float
    witness: np.ndarray          # (M, d) lattice points from source to target
    tie_detected: bool


def _box_axes(source, target, margin):
    lo = np.minimum(source, target) - margin
    hi = np.maximum(source, target) + margin
    return lo.astype(np.int64), hi.astype(np.int64)


def _bond_weights(config, replica, axis, coords):
    """Weights of the bonds coords -> coords + e_axis (absolute keying)."""
    words = [replica, axis] + [coords[..., i] for i in range(coords.shape[-1])]
    return config.law.sample(config.seed, *words)


def bond_matrix(config, replica, lo, hi):
    """Symmetric CSR matrix of the bond weights on the box lo..hi.

    Nodes are numbered in row-major order of the box.  Each node has 2d
    neighbour slots in ascending column order, -e_0 ... -e_{d-1} then
    +e_{d-1} ... +e_0, and slots that leave the box are dropped.  The result
    is the canonical CSR form (sorted columns, no duplicates, explicit zero
    weights kept).

    indptr follows from the box shape alone (a node's degree is 2d less one
    per box face it lies on), so data and indices are allocated once at
    their final size and filled one block of axis-0 layers at a time, about
    _SAMPLE_BLOCK slots per block.  A block draws, one draw per axis, the
    weights of the bonds leaving its nodes, writes each into the slots of
    both ends in a block-sized slot table and mask, and compacts those into
    its slice of data and indices; the bonds into its first layer were drawn
    by the block below, which carries them over.  Weights are keyed by
    absolute coordinates, so the blocking changes no bit.  The peak stays
    within 12 bytes per entry (float64 data, int32 indices), 8 per node
    (indptr, the degrees summed in place) and 2 MiB of block tables: 9.7 MiB
    for the 601 x 301 box of fpp_passage at n = 300, whose CSR takes
    9.0 MiB.
    """
    from scipy.sparse import csr_matrix
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = len(lo)
    shape = tuple(int(k) for k in hi - lo + 1)
    n_nodes, layer = math.prod(shape), math.prod(shape[1:])
    # the index dtype scipy would pick; building it directly saves a copy
    index = np.int32 if 2 * d * n_nodes < 2 ** 31 else np.int64
    indptr = np.zeros(n_nodes + 1, dtype=index)
    degree = indptr[1:].reshape(shape)
    degree.fill(2 * d)
    for axis in range(d):
        degree[(slice(None),) * axis + (0,)] -= 1
        degree[(slice(None),) * axis + (-1,)] -= 1
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index)
    strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    offsets = np.concatenate([-strides, strides[::-1]]).astype(index)
    step = max(1, _SAMPLE_BLOCK // (2 * d * layer))
    carry = None  # weights of the axis-0 bonds into the block's first layer
    for a0 in range(0, shape[0], step):
        a1 = min(a0 + step, shape[0])
        slots = np.zeros((a1 - a0,) + shape[1:] + (2 * d,))
        valid = np.zeros(slots.shape, dtype=bool)
        start = (a0,) + (0,) * (d - 1)
        for axis in range(d):
            # the bonds x -> x + e_axis with x in the block, x + e_axis in the box
            stop = [a1, *shape[1:]]
            stop[axis] = min(stop[axis], shape[axis] - 1)
            grids = [np.arange(lo[k] + start[k], lo[k] + stop[k]).reshape(
                [-1 if j == k else 1 for j in range(d)]) for k in range(d)]
            w = config.law.sample(config.seed, replica, axis, *grids)
            down, up = axis, 2 * d - 1 - axis
            tail = (slice(None),) * axis + (slice(0, w.shape[axis]),)
            head = (slice(None),) * axis + (slice(1, None),)
            slots[tail + (Ellipsis, up)] = w
            valid[tail + (Ellipsis, up)] = True
            if axis == 0:
                # the bonds into layer a0 were drawn by the block below, and
                # the last row of w leads into the next block
                if a0:
                    slots[:1, ..., down] = carry
                    valid[:1, ..., down] = True
                carry = w[a1 - a0 - 1:].copy()
                w = w[:a1 - a0 - 1]
            slots[head + (Ellipsis, down)] = w
            valid[head + (Ellipsis, down)] = True
        entries = slice(indptr[a0 * layer], indptr[a1 * layer])
        data[entries] = slots[valid]
        cols = np.arange(a0 * layer, a1 * layer, dtype=index)[:, None] + offsets
        indices[entries] = cols[valid.reshape(cols.shape)]
    return csr_matrix((data, indices, indptr), shape=(n_nodes, n_nodes))


def _lattice_point(point, d, name):
    """point as an int64 vector of Z^d, or a LatticeError naming it."""
    point = np.asarray(point, dtype=np.int64)
    if point.shape != (d,):
        raise LatticeError(f"{name} must be a point of Z^{d}, got shape {point.shape}")
    return point


def _node(point, lo, hi):
    """Row-major index of a lattice point in the box lo..hi."""
    return int(np.ravel_multi_index(tuple(point - lo), tuple(hi - lo + 1)))


# fpp_passage runs the pass over the box of margin _NARROW_MARGIN only when
# that box holds at most 1 / _NARROW_SHARE of the full box's nodes: in d = 2
# the pass costs about what its bound saves at a tenth, more above it (in
# d = 3 the break-even lies near a quarter)
_NARROW_MARGIN = 8
_NARROW_SHARE = 10


def fpp_passage(config, target, replica=0, margin=None, source=None):
    """Passage time and witness between lattice points, by Dijkstra over
    i.i.d. bond weights drawn deterministically from (seed, replica, bond).

    The path is confined to the bounding box of source and target plus a
    margin (default max(8, n // 2)) on every side; transversal wandering of
    the witness beyond that margin would be astronomically unlikely for the
    sizes this laboratory targets.

    When the box of margin 8 holds at most a tenth of the full box's nodes
    (at the default margin and target n e1: from n = 100 on in d = 2, from
    n = 44 on in d = 3), the passage time in that box is computed first.
    It lies inside the full box and its bonds carry the same weights, so
    its passage time bounds tau from above, and the Dijkstra of the full
    box settles only the nodes within that bound (scipy keeps a node whose
    distance equals the bound).  A node beyond the bound is neither on a
    witness nor an optimal parent of a witness vertex, so tau, the witness
    when untied and ``tie_detected`` equal those of the unbounded search.
    """
    from scipy.sparse.csgraph import dijkstra
    d = config.dimension
    source = _lattice_point(np.zeros(d) if source is None else source, d, "source")
    target = _lattice_point(target, d, "target")
    if margin is None:
        margin = max(8, config.n // 2)
    lo, hi = _box_axes(source, target, margin)
    if np.any(np.abs(target - source) > config.n):
        raise LatticeError("target outside the configured box size")
    bound = np.inf
    nlo, nhi = lo + (margin - _NARROW_MARGIN), hi - (margin - _NARROW_MARGIN)
    # a margin of 8 or less fails the test: the narrow box is then no smaller
    if _NARROW_SHARE * np.prod(nhi - nlo + 1) <= np.prod(hi - lo + 1):
        dist = dijkstra(bond_matrix(config, replica, nlo, nhi), directed=True,
                        indices=_node(source, nlo, nhi))
        bound = float(dist[_node(target, nlo, nhi)])
    mat = bond_matrix(config, replica, lo, hi)
    src_idx, tgt_idx = _node(source, lo, hi), _node(target, lo, hi)
    dist, pred = dijkstra(mat, directed=True, indices=src_idx,
                          return_predecessors=True, limit=bound)
    chain = [tgt_idx]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    if chain[0] != src_idx:
        raise LatticeError("target unreachable (bounding box too small?)")
    witness = np.stack(np.unravel_index(chain, tuple(hi - lo + 1)), axis=1) + lo
    return FppResult(tau=float(dist[tgt_idx]), witness=witness,
                     tie_detected=_witness_tie(mat, dist, chain))


def _witness_tie(mat, dist, chain):
    """True if some witness vertex is reached optimally from two parents."""
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for v in chain[1:]:
        optimal = 0
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if dist[u] + data[k] == dist[v]:
                optimal += 1
                if optimal > 1:
                    return True
    return False


def _witness_deviation(witness, n):
    """sup over witness vertices of the distance to {0, e1, ..., n e1}."""
    pts = witness.astype(float)
    j = np.clip(np.rint(pts[:, 0]), 0, n)
    delta = pts.copy()
    delta[:, 0] -= j
    return float(np.max(np.linalg.norm(delta, axis=1)))


# untied_fpp_passage gives up after this many tied resamples: a law with
# atoms (geometric, bernoulli, deterministic) can tie on every replica
_TIED_RESAMPLES = 20


def untied_fpp_passage(config, target, replica, margin):
    """fpp_passage at the first of replica, replica + 10^6, replica + 2 10^6,
    ... whose witness has no equal-cost rival; LatticeError when the first
    1 + _TIED_RESAMPLES of them all tie."""
    for extra in range(_TIED_RESAMPLES + 1):
        res = fpp_passage(config, target, replica=replica + extra * 10 ** 6,
                          margin=margin)
        if not res.tie_detected:
            return res
    raise LatticeError(
        f"replica {replica} and its {_TIED_RESAMPLES} resamples all have a "
        f"tied witness under the {config.law.kind} law {config.law.params}")


# ---------------------------------------------------------------------------
# directed last-passage percolation (bond weights, up/right paths)
# ---------------------------------------------------------------------------

def lpp_passage(config, target, origin=(0, 0), replica=0):
    """Last-passage time over directed up/right paths with bond weights.

    The recursion is T(z) = max over the two incoming bonds b of
    T(tail(b)) + w_b with T(origin) = 0: the paper's bond convention, with
    the incoming-bond weight playing the role of a site share.  Weights are
    keyed by absolute bond coordinates, so passage times started from z
    restrict the same environment (superadditivity is exact).

    It is evaluated one row at a time.  With A = T[i-1, :] + wR[i-1, :] and
    C = [0, cumsum(wU[i, :])], unrolling the recursion along row i gives

        T[i, j] = max_{k <= j} (A[k] + C[j] - C[k])
                = C[j] + max_{k <= j} (A[k] - C[k]),

    a running maximum.  The weights are drawn and folded one block of rows
    at a time, about _SAMPLE_BLOCK bonds of each direction per block: the
    block's wU rows are cumsummed in place and wR[i-1, :] - C is formed in
    place of its wR rows, so a row costs one add, one running maximum and
    one add of the row's cumsum; the next block is drawn into the same
    buffer.  Memory is O(n), one block of at least one row, not the two
    full (m + 1) x n tables.  This equals the recursion bit for bit while every partial
    sum, A - C included, is a multiple of 2^-30 below 2^53 units in
    magnitude (the regime of the module docstring: quantized weights,
    exact binary ``scale``); then no addition or subtraction rounds.
    """
    if config.dimension != 2:
        raise LatticeError("directed LPP is implemented on Z^2")
    ox, oy = (int(v) for v in _lattice_point(origin, 2, "origin"))
    tx, ty = (int(v) for v in _lattice_point(target, 2, "target"))
    m, n = tx - ox, ty - oy
    if m < 0 or n < 0:
        raise LatticeError("target must lie up/right of the origin")
    # wR[i, j]: bond (ox+i, oy+j) -> (ox+i+1, oy+j), i < m
    # wU[i, j]: bond (ox+i, oy+j) -> (ox+i, oy+j+1), j < n
    law, seed = config.law, config.seed
    jr = np.arange(oy, oy + n + 1)[None, :]
    ju = jr[:, :n]
    T = np.zeros(n + 1)
    np.cumsum(law.sample(seed, replica, 1, ox, ju[0]), out=T[1:])
    step = max(1, _SAMPLE_BLOCK // (n + 1))
    # one buffer holds both blocks; each block is drawn into it by one
    # _fill, the call sample makes for at most _SAMPLE_BLOCK keys or one
    # row.  Reusing it spares the page faults of fresh blocks, and with
    # glibc, freeing a chunk as large as both blocks raises the heap's trim
    # threshold above the draws' temporaries, which would otherwise be
    # returned to the system and faulted in again block after block
    rows = min(step, m)
    buf = np.empty(rows * (2 * n + 1))
    bufR = buf[:rows * (n + 1)].reshape(rows, n + 1)
    bufU = buf[rows * (n + 1):].reshape(rows, n)
    for i0 in range(1, m + 1, step):
        # row i of the recursion reads wR row i - 1 and wU row i
        ii = np.arange(ox + i0, ox + min(i0 + step, m + 1))[:, None]
        wR, wU = bufR[:len(ii)], bufU[:len(ii)]
        law._fill(seed, (replica, 0, ii - 1, jr), wR)
        law._fill(seed, (replica, 1, ii, ju), wU)
        np.cumsum(wU, axis=1, out=wU)
        wR[:, 1:] -= wU
        for r in range(len(wU)):
            T += wR[r]
            np.maximum.accumulate(T, out=T)
            T[1:] += wU[r]
    return float(T[n])


# ---------------------------------------------------------------------------
# exponent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentEstimate:
    """Log-log regression estimate of a fluctuation exponent."""
    name: str                    # "chi" or "xi"
    estimate: float
    halfwidth: float             # 2 sigma of the regression slope, mapped
    stderr: float
    sizes: tuple
    statistics: tuple            # per-size Var a_n (chi) or mean d_n (xi)
    slope: float
    r_squared: float

    def __post_init__(self):
        if self.halfwidth <= 0:
            raise LatticeError("confidence half-width must be > 0")
        if len(self.sizes) < 4 or list(self.sizes) != sorted(self.sizes):
            raise LatticeError("need at least 4 increasing sizes")

    def as_dict(self):
        return {"exponent": self.name, "estimate": self.estimate,
                "halfwidth": self.halfwidth, "stderr": self.stderr,
                "sizes": list(self.sizes), "stats": list(self.statistics),
                "slope": self.slope, "r2": self.r_squared}


def _loglog_fit(sizes, stats):
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(stats, dtype=float))
    n = len(x)
    xm = x - x.mean()
    slope = float(np.sum(xm * y) / np.sum(xm ** 2))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(n - 2, 1)
    se = float(np.sqrt(ss_res / dof / np.sum(xm ** 2)))
    return slope, se, r2


def _passage_samples(model, config, n, replicas):
    if model == "lpp":
        return np.array([lpp_passage(config, (n, n), replica=r)
                         for r in range(replicas)])
    cfg = LatticeConfig(config.dimension, max(config.n, int(n)),
                        config.law, config.seed)
    target = np.array([n] + [0] * (config.dimension - 1))
    return np.array([fpp_passage(cfg, target, replica=r).tau
                     for r in range(replicas)])


def chi_estimate(sizes, samples):
    """chi from the regression of log Var a_n on log n (chi = slope / 2),
    samples[i] holding the passage times at sizes[i].  Var is
    mean((a - m)^2) n / (n - 1) with exact (math.fsum) means."""
    variances = []
    for row in np.asarray(samples, dtype=float):
        m = exact_mean(row)
        v = exact_mean((row - m) ** 2) * len(row) / (len(row) - 1)
        if v == 0:
            raise LatticeError("degenerate variance; weights deterministic?")
        variances.append(v)
    slope, se, r2 = _loglog_fit(sizes, variances)
    return ExponentEstimate(name="chi", estimate=slope / 2.0,
                            halfwidth=max(se, 1e-12), stderr=se / 2.0,
                            sizes=tuple(sizes), statistics=tuple(variances),
                            slope=slope, r_squared=r2)


def exponent_chi(model, config, sizes, replicas=100):
    """chi_estimate over ``replicas`` passage times at each size."""
    if model not in ("fpp", "lpp"):
        raise LatticeError("model must be fpp or lpp")
    if (len(sizes) < 4
            or any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
                   for n in sizes)
            or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:]))):
        raise LatticeError(f"sizes must be at least 4 strictly increasing "
                           f"integers >= 1, not {list(sizes)!r}")
    if replicas < 100:
        raise LatticeError("need at least 100 replicas")
    if not config.law.random:
        raise LatticeError("deterministic weights have no fluctuations")
    return chi_estimate(sizes, [_passage_samples(model, config, n, replicas)
                                for n in sizes])


@dataclass(frozen=True)
class KpzReport:
    xi: ExponentEstimate
    chi: ExponentEstimate
    kpz_residual: float          # chi - (2 xi - 1)
    residual_tol: float          # 2 sigma combined from both regressions

    @property
    def kpz_consistent(self):
        return abs(self.kpz_residual) <= self.residual_tol


def kpz_report(sizes, taus, devs):
    """xi from the regression of log E d_n on log n (exact means), chi from
    the passage times of the same runs on the identical size grid
    (chi_estimate), and the residual chi - (2 xi - 1) with a propagated
    two-sigma tolerance; taus[i] and devs[i] hold the runs at sizes[i]."""
    means = [exact_mean(row) for row in devs]
    xi_slope, xi_se, xi_r2 = _loglog_fit(sizes, means)
    xi = ExponentEstimate(name="xi", estimate=xi_slope,
                          halfwidth=max(2.0 * xi_se, 1e-12), stderr=xi_se,
                          sizes=tuple(sizes), statistics=tuple(means),
                          slope=xi_slope, r_squared=xi_r2)
    chi = chi_estimate(sizes, taus)
    residual = chi.estimate - (2.0 * xi.estimate - 1.0)
    tol = 2.0 * float(np.sqrt(chi.stderr ** 2 + 4.0 * xi.stderr ** 2))
    return KpzReport(xi=xi, chi=chi, kpz_residual=float(residual),
                     residual_tol=tol)


# ---------------------------------------------------------------------------
# directed polymer free energy (d = 1)
# ---------------------------------------------------------------------------

@dataclass
class PolymerResult:
    n: int
    beta: float
    log_z: float
    free_energy: float           # -(1/beta) log Z_n


# sites per polymer environment block: each rng.normal temporary of a
# block (128 KiB at most) stays in cache; 2^15 and 2^16 measured no faster
_POLYMER_SITES = 2 ** 14


def _logaddexp(a, b, out, t):
    """log(e^a + e^b) into out, as M + log1p(exp(t)) with M = max(a, b) and
    t = min(a, b) - M; t is a scratch array of out's shape.  out may be a
    or b itself, but no shifted view of either.

    Vectorized exp and log1p replace np.logaddexp's scalar libm calls, so
    the result may differ from it in the last bits.  An equal infinite pair
    gives t = NaN, which fmin maps to 0, so the result is M itself, as in
    np.logaddexp; the subtraction then raises numpy's invalid-value flag,
    which the caller silences.  A NaN input gives NaN.
    """
    np.minimum(a, b, out=t)
    np.maximum(a, b, out=out)
    t -= out
    np.fmin(t, 0.0, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out += t
    return out


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-D array, bit for bit as
    scipy.special.logsumexp computes it: with M = max(a), m the count of
    entries equal to M and s the sum of exp(a - M) over the array with
    those entries zeroed, log1p(s / m) + log(m) + M (log1p(0) where s = 0),
    under SciPy's errstate; where that is not finite, log(sum(exp(a)))."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.max(a)
        tied = a == top
        m = np.count_nonzero(tied)
        e = np.exp(a - top)
        e[tied] = 0.0
        s = np.sum(e)
        out = np.log1p(s / m if s != 0 else s) + np.log(m) + top
    if not np.isfinite(out):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def polymer_free_energy(seed, n, beta, eta=None):
    """Free energy of the d = 1 directed polymer in a random environment.

    Z_n integrates e^{beta sum eta(j, w_j)} over simple random walks from
    the origin; the forward transfer recursion over reachable sites uses
    log-sum-exp throughout (``_logaddexp``, vectorized, and ``_logsumexp``
    over the final sites), so Z_n is exact up to floating error.  ``eta``
    may be a callable (j, x_array) -> values, called once per time j with
    the reachable sites x in {-j, -j+2, ..., j}; by default it is an
    i.i.d. standard normal table keyed by (seed, j, x).

    The default table is drawn in blocks of consecutive times, one
    ``rng.normal`` call per block, each row padded to the sites of the
    block's last time (the padding draws are unused); every value equals
    the per-site draw.  A block from time j0 takes the most times k whose
    padded table, k (j0 + k) sites, fits in _POLYMER_SITES (2^14), and at
    least one time.
    """
    _check_number("n", n, numbers.Integral)
    _check_number("beta", beta, numbers.Real)
    if not beta > 0:
        raise LatticeError("inverse temperature must be > 0")
    if n < 1:
        raise LatticeError("horizon must be >= 1")
    if eta is None:
        def eta_block(js, xs):
            return rng.normal(seed, js[:, None], xs)
    else:
        def eta_block(js, xs):
            out = np.zeros(xs.shape)
            for r, j in enumerate(js.tolist()):
                out[r, :j + 1] = eta(j, xs[r, :j + 1])
            return out
    log_half = np.log(0.5)
    # P[1:j+2] holds L at time j over the sites x in {-j, -j+2, ..., j};
    # the -inf on either side stands for the unreachable neighbours
    P = np.full(n + 3, -np.inf)
    P[1] = 0.0
    M = np.empty(n + 1)
    t = np.empty(n + 1)
    j0 = 1
    while j0 <= n:
        # the largest k with k (j0 + k) <= _POLYMER_SITES
        k = max(1, (math.isqrt(j0 * j0 + 4 * _POLYMER_SITES) - j0) // 2)
        js = np.arange(j0, min(j0 + k, n + 1))
        j0 += k
        xs = 2 * np.arange(js[-1] + 1) - js[:, None]
        weight = eta_block(js, xs)
        weight *= beta
        with np.errstate(invalid="ignore"):
            for r, j in enumerate(js.tolist()):
                L = P[1:j + 2]
                # M first: L overlaps P[:j + 1], so it is written last
                _logaddexp(P[:j + 1], L, M[:j + 1], t[:j + 1])
                np.add(M[:j + 1], log_half, out=L)
                L += weight[r, :j + 1]
    log_z = _logsumexp(P[1:n + 2])
    return PolymerResult(n=n, beta=float(beta), log_z=log_z,
                         free_energy=-log_z / beta)
