"""Reference lattice models: standard FPP, Euclidean FPP, directed LPP and
the directed polymer free energy, with fluctuation-exponent estimation.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from . import rng
from .harness import exact_mean

_WEIGHT_GRID = 2.0 ** 30


class LatticeError(ValueError):
    pass


class TieDetectedError(LatticeError):
    """Two equal-cost witness paths; resample the replica."""


# ---------------------------------------------------------------------------
# weight laws
# ---------------------------------------------------------------------------

_LAW_KINDS = ("exponential", "geometric", "uniform", "bernoulli",
              "deterministic", "power_alpha")


@dataclass(frozen=True)
class WeightLaw:
    """Bond weight distribution.

    kind/params: exponential(rate) | geometric(p) on {0, 1, ...} |
    uniform(a, b) | bernoulli(p, lo, hi) (weight hi with probability p) |
    deterministic(c) | power_alpha(alpha) (Euclidean FPP edge cost
    |q - q'|^alpha; not samplable).  ``scale`` multiplies every quantized
    draw; exact binary scales preserve exactness.
    """
    kind: str
    params: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise LatticeError(f"unknown weight law {self.kind!r}")
        p = self.params
        ok = {
            "exponential": lambda: len(p) == 1 and p[0] > 0,
            "geometric": lambda: len(p) == 1 and 0 < p[0] < 1,
            "uniform": lambda: len(p) == 2 and 0 <= p[0] < p[1],
            "bernoulli": lambda: len(p) == 3 and 0 <= p[0] <= 1
            and p[1] >= 0 and p[2] >= 0,
            "deterministic": lambda: len(p) == 1 and p[0] >= 0,
            "power_alpha": lambda: len(p) == 1 and p[0] > 1,
        }[self.kind]()
        if not ok:
            raise LatticeError(f"bad parameters {p} for law {self.kind}")
        if self.scale <= 0:
            raise LatticeError("scale must be > 0")

    @property
    def continuous(self):
        return self.kind in ("exponential", "uniform")

    @property
    def random(self):
        return self.kind not in ("deterministic", "power_alpha")

    def sample(self, seed, *words):
        """Deterministic quantized draws keyed by (seed, words)."""
        if self.kind == "power_alpha":
            raise LatticeError("power_alpha weights come from point pairs")
        if self.kind == "deterministic":
            shape = np.broadcast(*[np.asarray(w) for w in words]).shape if words else ()
            raw = np.full(shape, self.params[0], dtype=float)
        else:
            u = rng.uniform(seed, *words)
            if self.kind == "exponential":
                raw = -np.log(u) / self.params[0]
            elif self.kind == "geometric":
                raw = np.floor(np.log(u) / np.log1p(-self.params[0]))
            elif self.kind == "uniform":
                a, b = self.params
                raw = a + (b - a) * u
            else:  # bernoulli
                prob, lo, hi = self.params
                raw = np.where(u < prob, hi, lo)
        q = np.round(raw * _WEIGHT_GRID) / _WEIGHT_GRID
        return self.scale * q

    def survival(self, t):
        """P(weight/scale > t) for the unscaled draw."""
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.where(t < 0, 1.0, np.exp(-self.params[0] * np.maximum(t, 0)))
        if self.kind == "geometric":
            p = self.params[0]
            return np.where(t < 0, 1.0, (1 - p) ** (np.floor(t) + 1))
        if self.kind == "uniform":
            a, b = self.params
            return np.clip((b - t) / (b - a), 0.0, 1.0)
        if self.kind == "bernoulli":
            prob, lo, hi = self.params
            lo, hi = min(lo, hi), max(hi, lo)
            plo = 1 - prob if self.params[1] <= self.params[2] else prob
            return np.where(t < lo, 1.0, np.where(t < hi, 1 - plo, 0.0))
        if self.kind == "deterministic":
            return np.where(t < self.params[0], 1.0, 0.0)
        raise LatticeError("no survival function for power_alpha")

    def min_moment(self, dimension):
        """E[min(t_1, ..., t_{2d})^{2d}] for 2d independent copies.

        Finite for every supported law; the value itself is reported so the
        moment condition can be inspected, not just asserted.
        """
        from scipy.integrate import quad
        m = 2 * dimension
        if self.kind == "power_alpha":
            raise LatticeError("moment condition does not apply to power_alpha")
        if self.kind == "deterministic":
            return (self.scale * self.params[0]) ** m
        if self.kind in ("geometric", "bernoulli"):
            tail = 0.0
            val = 0.0
            k = 0.0
            while True:
                s_before = float(self.survival(k - 0.5) ** m)
                s_after = float(self.survival(k + 0.5) ** m)
                val += (s_before - s_after) * (self.scale * k) ** m
                if s_after < 1e-14 or k > 1e6:
                    break
                k += 1.0
            return val + tail
        integrand = lambda t: m * t ** (m - 1) * float(self.survival(t) ** m)
        hi = (200.0 / self.params[0] if self.kind == "exponential"
              else self.params[1])
        val, _ = quad(integrand, 0.0, hi, limit=200)
        return val * self.scale ** m


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
    source: tuple
    target: tuple


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
    +e_{d-1} ... +e_0; one weight draw per axis over the bonds inside the
    box fills both ends of each bond, and slots that leave the box are
    dropped.  The result is the canonical CSR form (sorted columns, no
    duplicates, explicit zero weights kept).
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = len(lo)
    shape = tuple(int(k) for k in hi - lo + 1)
    n_nodes = int(np.prod(shape))
    # the index dtype scipy would pick; building it directly saves a copy
    index = np.int32 if 2 * d * n_nodes < 2 ** 31 else np.int64
    slots = np.zeros(shape + (2 * d,))
    valid = np.zeros(shape + (2 * d,), dtype=bool)
    degree = np.full(shape, 2 * d, dtype=index)
    offsets = np.empty(2 * d, dtype=index)
    strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    for axis in range(d):
        grids = [np.arange(lo[i], hi[i] + (i != axis)).reshape(
            [-1 if k == i else 1 for k in range(d)]) for i in range(d)]
        w = config.law.sample(config.seed, replica, axis, *grids)
        tail = (slice(None),) * axis + (slice(0, -1),)
        head = (slice(None),) * axis + (slice(1, None),)
        down, up = axis, 2 * d - 1 - axis
        slots[head + (Ellipsis, down)] = w
        valid[head + (Ellipsis, down)] = True
        slots[tail + (Ellipsis, up)] = w
        valid[tail + (Ellipsis, up)] = True
        degree[(slice(None),) * axis + (0,)] -= 1
        degree[(slice(None),) * axis + (-1,)] -= 1
        offsets[down], offsets[up] = -strides[axis], strides[axis]
    valid = valid.reshape(n_nodes, 2 * d)
    cols = np.arange(n_nodes, dtype=index)[:, None] + offsets
    indptr = np.zeros(n_nodes + 1, dtype=index)
    np.cumsum(degree.ravel(), out=indptr[1:])
    return csr_matrix((slots.reshape(n_nodes, 2 * d)[valid], cols[valid], indptr),
                      shape=(n_nodes, n_nodes))


def fpp_passage(config, target, replica=0, margin=None, source=None):
    """Passage time and witness between lattice points, by Dijkstra over
    i.i.d. bond weights drawn deterministically from (seed, replica, bond).

    The path is confined to the bounding box of source and target plus a
    margin (default max(8, n // 2)) on every side; transversal wandering of
    the witness beyond that margin would be astronomically unlikely for the
    sizes this laboratory targets.
    """
    d = config.dimension
    source = np.zeros(d, dtype=np.int64) if source is None else np.asarray(source, np.int64)
    target = np.asarray(target, dtype=np.int64)
    if target.shape != (d,):
        raise LatticeError("target dimension mismatch")
    if margin is None:
        margin = max(8, config.n // 2)
    lo, hi = _box_axes(source, target, margin)
    if np.any(np.abs(target - source) > config.n):
        raise LatticeError("target outside the configured box size")
    shape = tuple((hi - lo + 1).astype(int))
    mat = bond_matrix(config, replica, lo, hi)
    src_idx = int(np.ravel_multi_index(tuple(source - lo), shape))
    tgt_idx = int(np.ravel_multi_index(tuple(target - lo), shape))
    dist, pred = _sp_dijkstra(mat, directed=True, indices=src_idx,
                              return_predecessors=True)
    chain = [tgt_idx]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    if chain[0] != src_idx:
        raise LatticeError("target unreachable (bounding box too small?)")
    witness = np.stack(np.unravel_index(chain, shape), axis=1) + lo
    tie = _witness_tie(mat, dist, chain)
    return FppResult(tau=float(dist[tgt_idx]), witness=witness,
                     tie_detected=tie, source=tuple(source), target=tuple(target))


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


@dataclass
class TimeConstantTable:
    sizes: tuple
    mu: np.ndarray
    stderr: np.ndarray
    cauchy_differences: np.ndarray      # |mu(n_i) - mu(n_{i+1})|

    @property
    def converging(self):
        d = self.cauchy_differences
        return bool(len(d) < 2 or d[-1] < d[0])


def time_constant(config, direction, sizes, replicas=20):
    """Empirical tau(0, n v)/n per size, with a Cauchy-difference trend."""
    if list(sizes) != sorted(sizes):
        raise LatticeError("sizes must be increasing")
    if replicas < 10:
        raise LatticeError("need at least 10 replicas")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    mu = np.empty(len(sizes))
    se = np.empty(len(sizes))
    for i, n in enumerate(sizes):
        target = np.rint(n * direction).astype(np.int64)
        cfg = LatticeConfig(config.dimension, max(config.n, int(n)),
                            config.law, config.seed)
        vals = np.array([fpp_passage(cfg, target, replica=r).tau / n
                         for r in range(replicas)])
        mu[i] = vals.mean()
        se[i] = vals.std(ddof=1) / np.sqrt(replicas)
    return TimeConstantTable(sizes=tuple(sizes), mu=mu, stderr=se,
                             cauchy_differences=np.abs(np.diff(mu)))


def _witness_deviation(witness, n):
    """sup over witness vertices of the distance to {0, e1, ..., n e1}."""
    pts = witness.astype(float)
    j = np.clip(np.rint(pts[:, 0]), 0, n)
    delta = pts.copy()
    delta[:, 0] -= j
    return float(np.max(np.linalg.norm(delta, axis=1)))


def untied_fpp_passage(config, target, replica, margin=None):
    """fpp_passage at the first of replica, replica + 10^6, replica + 2 10^6,
    ... whose witness has no equal-cost rival."""
    extra = 0
    while True:
        res = fpp_passage(config, target, replica=replica + extra * 10 ** 6,
                          margin=margin)
        if not res.tie_detected:
            return res
        extra += 1


def transversal_deviation(config, n, replica=0, margin=None):
    """Maximal Euclidean distance of the unique witness geodesic to the
    lattice segment {0, e1, ..., n e1}; ties abort with TieDetectedError."""
    if not config.law.continuous:
        raise LatticeError("transversal deviation needs a continuous law "
                           "(almost-sure unique witness)")
    res = fpp_passage(config, np.array([n] + [0] * (config.dimension - 1)),
                      replica=replica, margin=margin)
    if res.tie_detected:
        raise TieDetectedError(f"equal-cost witness at replica {replica}")
    return _witness_deviation(res.witness, n)


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

    a running maximum.  This equals the recursion bit for bit while every
    partial sum, A - C included, is a multiple of 2^-30 below 2^53 units
    in magnitude (the regime of the module docstring: quantized weights,
    exact binary ``scale``); then no addition or subtraction rounds.
    """
    if config.dimension != 2:
        raise LatticeError("directed LPP is implemented on Z^2")
    ox, oy = (int(v) for v in origin)
    tx, ty = (int(v) for v in target)
    m, n = tx - ox, ty - oy
    if m < 0 or n < 0:
        raise LatticeError("target must lie up/right of the origin")
    # wR[i, j]: bond (ox+i, oy+j) -> (ox+i+1, oy+j), i < m
    # wU[i, j]: bond (ox+i, oy+j) -> (ox+i, oy+j+1), j < n
    ii = np.arange(ox, ox + m)
    jj = np.arange(oy, oy + n + 1)
    wR = (config.law.sample(config.seed, replica, 0,
                            ii[:, None], jj[None, :]) if m else
          np.zeros((0, n + 1)))
    ii = np.arange(ox, ox + m + 1)
    jj = np.arange(oy, oy + n)
    wU = (config.law.sample(config.seed, replica, 1,
                            ii[:, None], jj[None, :]) if n else
          np.zeros((m + 1, 0)))

    T = np.zeros(n + 1)
    C = np.zeros(n + 1)
    np.cumsum(wU[0], out=T[1:])
    for i in range(1, m + 1):
        np.cumsum(wU[i], out=C[1:])
        T += wR[i - 1]
        T -= C
        np.maximum.accumulate(T, out=T)
        T += C
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
    if len(sizes) < 4:
        raise LatticeError("need at least 4 sizes")
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


def exponent_xi(model, config, sizes, replicas=100):
    """kpz_report over ``replicas`` untied witness runs at each size."""
    if model != "fpp":
        raise LatticeError("transversal deviations are defined for fpp")
    if not config.law.continuous:
        raise LatticeError("xi needs a continuous weight law")
    if len(sizes) < 4:
        raise LatticeError("need at least 4 sizes")
    taus = np.empty((len(sizes), replicas))
    devs = np.empty((len(sizes), replicas))
    for i, n in enumerate(sizes):
        cfg = LatticeConfig(config.dimension, max(config.n, int(n)),
                            config.law, config.seed)
        target = np.array([n] + [0] * (cfg.dimension - 1))
        for r in range(replicas):
            res = untied_fpp_passage(cfg, target, r)
            taus[i, r] = res.tau
            devs[i, r] = _witness_deviation(res.witness, n)
    return kpz_report(sizes, taus, devs)


# ---------------------------------------------------------------------------
# Euclidean FPP on a point sample
# ---------------------------------------------------------------------------

@dataclass
class EuclideanFppResult:
    time: float
    witness: np.ndarray          # indices into the point array
    k_used: int
    certified: bool


def euclidean_fpp(points, alpha, a, b):
    """Passage time with edge costs |q - q'|^alpha over a point sample.

    Dijkstra runs on the k-nearest-neighbor graph with k escalated until the
    best path costs no more than the cheapest conceivable pruned edge
    (min over nodes of the k-th neighbor distance, to the alpha): then no
    path through a pruned edge can improve on the answer, which certifies
    the k-NN result against the complete graph.
    """
    if alpha <= 1:
        raise LatticeError("alpha must exceed 1 (single edges win otherwise)")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise LatticeError("need at least two points")
    from scipy.spatial import cKDTree
    ia = int(np.argmin(np.linalg.norm(points - np.asarray(a), axis=1)))
    ib = int(np.argmin(np.linalg.norm(points - np.asarray(b), axis=1)))
    if np.linalg.norm(points[ia] - np.asarray(a)) > 1e-9 \
            or np.linalg.norm(points[ib] - np.asarray(b)) > 1e-9:
        raise LatticeError("endpoints must belong to the point sample")
    n = len(points)
    tree = cKDTree(points)
    k = min(8, n - 1)
    while True:
        dists, nbrs = tree.query(points, k=k + 1)
        dists, nbrs = dists[:, 1:], nbrs[:, 1:]
        rows = np.repeat(np.arange(n), k)
        cols = nbrs.ravel()
        data = dists.ravel() ** alpha
        # deduplicate mutual neighbor pairs (csr_matrix sums duplicates)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        _, keep = np.unique(lo * n + hi, return_index=True)
        lo, hi, data_u = lo[keep], hi[keep], data[keep]
        mat = csr_matrix((np.concatenate([data_u, data_u]),
                          (np.concatenate([lo, hi]),
                           np.concatenate([hi, lo]))), shape=(n, n))
        dist, pred = _sp_dijkstra(mat, directed=True, indices=ia,
                                  return_predecessors=True)
        best = float(dist[ib])
        prune_floor = float(np.min(dists[:, -1]) ** alpha)
        certified = (k >= n - 1) or (best <= prune_floor)
        if certified or k >= n - 1:
            chain = [ib]
            while pred[chain[-1]] >= 0:
                chain.append(int(pred[chain[-1]]))
            chain.reverse()
            return EuclideanFppResult(time=best,
                                      witness=np.asarray(chain), k_used=k,
                                      certified=bool(certified))
        k = min(2 * k, n - 1)


# ---------------------------------------------------------------------------
# directed polymer free energy (d = 1)
# ---------------------------------------------------------------------------

@dataclass
class PolymerResult:
    n: int
    beta: float
    log_z: float
    free_energy: float           # -(1/beta) log Z_n


_POLYMER_BLOCK = 64


def polymer_free_energy(seed, n, beta, eta=None):
    """Free energy of the d = 1 directed polymer in a random environment.

    Z_n integrates e^{beta sum eta(j, w_j)} over simple random walks from
    the origin; the forward transfer recursion over reachable sites uses
    log-sum-exp throughout, so Z_n is exact up to floating error.  ``eta``
    may be a callable (j, x_array) -> values, called once per time j with
    the reachable sites x in {-j, -j+2, ..., j}; by default it is an i.i.d.
    standard normal table keyed by (seed, j, x).

    The default table is drawn in blocks of _POLYMER_BLOCK (64) times, one
    ``rng.normal`` call per block, each row padded to the sites of the
    block's last time (the padding draws are unused); every value equals
    the per-site draw.
    """
    if beta <= 0:
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
    for j0 in range(1, n + 1, _POLYMER_BLOCK):
        js = np.arange(j0, min(j0 + _POLYMER_BLOCK, n + 1))
        xs = 2 * np.arange(js[-1] + 1) - js[:, None]
        weight = beta * eta_block(js, xs)
        for r, j in enumerate(js.tolist()):
            L = P[1:j + 2]
            np.logaddexp(P[:j + 1], L, out=L)
            L += log_half
            L += weight[r, :j + 1]
    from scipy.special import logsumexp
    log_z = float(logsumexp(P[1:n + 2]))
    return PolymerResult(n=n, beta=float(beta), log_z=log_z,
                         free_energy=-log_z / beta)
