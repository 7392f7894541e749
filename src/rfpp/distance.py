"""Global Riemannian distance on a discretized passage graph.

The continuum distance d(x, y) = inf over curves of the Riemannian length is
approximated from above by Dijkstra on a grid graph with a wide stencil.
Edge weights are the Riemannian lengths of straight segments between nodes,
by 3-point Simpson quadrature; the remaining error is dominated by the
stencil's angular resolution, whose worst-case overestimation factor is
computed exactly from the stencil geometry (stencil_factor).

Graphs live in the plane, as the fields do: a region of another dimension
is refused with a GraphError.

Every Simpson node of an edge from h z to h (z + o) is a point of the
doubled lattice (h/2) Z^2, namely (h/2) 2z, (h/2)(2z + o) and (h/2)(2z + 2o).
A graph therefore evaluates the field once, when it is built, on the
doubled lattice of the graph box, about 4 times the node count, in one
call; where the doubled lattice is commensurate with the field's noise
lattice, the field sums each lattice phase as one strided correlation over
its coefficient grid (see MetricField and PassageGraph._samples).  The
weight unit and the full weight matrix read those samples, an array over
the doubled lattice, and the edges along one stencil offset start at the
nodes of one sub-box of the graph box, so their sources, targets and
Simpson nodes are (strided) slices of the node and sample arrays.  The
weights go straight into the canonical CSR matrix (see PassageGraph): no
COO triplets, index sort or duplicate sum.

Weights are quantized to a dyadic grid (2^k / 2^24 for a power-of-two scale
k detected from the field), so every path cost is an exact IEEE-754 sum:
subadditivity and query symmetry hold exactly, not just to rounding, and
doubling the metric doubles every distance exactly while leaving witness
paths unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .fields import MetricField, csv_table, grid_points

_QUANT_BITS = 24


class GraphError(ValueError):
    pass


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _coprime_ring(radius):
    """Integer vectors of the plane with Chebyshev norm == radius and
    coprime entries."""
    vecs = grid_points([np.arange(-radius, radius + 1)] * 2)
    cheb = np.max(np.abs(vecs), axis=1)
    vecs = vecs[cheb == radius]
    g = np.gcd.reduce(np.abs(vecs), axis=1)
    return vecs[g == 1]


def stencil_offsets(stencil):
    """Directions of the {8, 16, 32} stencil: the coprime vectors of
    Chebyshev radius up to 1, 2 or 3."""
    rings = {8: 1, 16: 2, 32: 3}
    if isinstance(stencil, bool) or not isinstance(stencil, (int, np.integer)):
        raise GraphError(f"stencil must be an integer, not {stencil!r}")
    if stencil not in rings:
        raise GraphError(f"stencil must be one of {sorted(rings)}")
    vecs = [_coprime_ring(r) for r in range(1, rings[stencil] + 1)]
    return np.concatenate(vecs, axis=0)


def stencil_factor(stencil):
    """Worst-case ratio of stencil-path length to straight-line distance.

    The cheapest stencil path along a vector u costs the gauge of
    P = conv{o / |o|} at u (writing u = sum a_o o / |o| with a >= 0 costs
    sum a_o), so the worst ratio over unit vectors is 1 / the inradius of P,
    the distance from the origin to its nearest edge.  P's edges join
    angular neighbours on the unit circle, and an edge spanning the angle g
    lies at distance cos(g / 2) from the origin, so the ratio is exact.
    """
    offs = stencil_offsets(stencil).astype(float)
    angles = np.sort(np.arctan2(offs[:, 1], offs[:, 0]))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    return float(1 / np.cos(np.max(gaps) / 2))


# ---------------------------------------------------------------------------
# passage graph
# ---------------------------------------------------------------------------

@dataclass
class BallRaster:
    """Nodes with graph distance at most t from the source."""
    t: float
    inside: np.ndarray          # (M, d) node coordinates
    boundary: np.ndarray        # subset of inside adjacent to the outside
    distances: np.ndarray       # (M,) graph distances of inside nodes
    clipped: bool = False       # ball reached the region edge

    def csv_text(self):
        d = self.inside.shape[1]
        return csv_table(
            [f"# ball radius: {float(self.t)!r}", f"# clipped: {self.clipped}",
             ",".join([f"x{i + 1}" for i in range(d)] + ["distance"])],
            [*self.inside.T, self.distances])


class PassageGraph:
    """Grid graph whose edge weights approximate Riemannian segment lengths.

    Nodes are lattice points h * z inside the region; edges follow the given
    stencil.  Weights are computed on demand (the full matrix on the first
    distance query, single edges via edge_weight) and cached.  Both paths
    sample the field at the same doubled-lattice points, the matrix on the
    box sampled at construction and edge_weight on a box of its own, and
    share the speed, quadrature and quantization code, so they agree
    exactly.

    The matrix is assembled in a slot table of n_nodes rows by |stencil|
    slots, slot j of a row holding the edge along the j-th offset in
    lexicographic order.  Row-major numbering turns lexicographic order of
    the in-box targets into ascending column order, so the valid slots of
    each row, read in order, are its sorted CSR row, whatever the box's
    width.  (The flat column offsets themselves can tie or reorder when the
    box is narrower than the stencil's reach; no row has two in-box slots
    with one column.)  Each edge is weighed once and written to the slot of
    its offset at the source and of the negated offset at the target.  Peak
    memory is the samples, plus about 17 bytes per slot: the slot table,
    its mask and the stored weights, or later the mask, weights, column
    table and column indices.
    """

    dim = 2

    def __init__(self, field, region, h, stencil=16):
        if region.dim != 2:
            raise GraphError(f"dimension {region.dim}: passage graphs live "
                             "in the plane (d = 2)")
        if h <= 0:
            raise GraphError("grid spacing must be > 0")
        self.field = field
        self.region = region
        self.h = float(h)
        self.stencil = stencil
        self.offsets = stencil_offsets(stencil)
        corners = np.array([region.lo, region.hi])
        if not np.all(field.contains(corners)):
            raise GraphError("graph region exceeds the field's valid region")
        self.z_lo = np.ceil(np.asarray(region.lo) / self.h - 1e-9).astype(np.int64)
        self.z_hi = np.floor(np.asarray(region.hi) / self.h + 1e-9).astype(np.int64)
        self.shape = tuple((self.z_hi - self.z_lo + 1).astype(int))
        self.n_nodes = int(np.prod(self.shape))
        self.factor = stencil_factor(stencil)
        # only a sampled field has the scalar e^{2 phi} path
        self._scalar_speed = isinstance(field, MetricField) and field.conformal
        # the samples of the doubled-lattice box (see _samples), read by the
        # unit probes and, on the first distance query, by the matrix
        self._box_samples = self._samples(
            2 * self.z_lo, tuple(2 * n - 1 for n in self.shape))
        self._unit = self._weight_unit()
        self._matrix = None
        self._edge_cache = {}
        self._sssp_cache = {}

    # -- nodes ---------------------------------------------------------------

    def node_position(self, z):
        return np.asarray(z, dtype=float) * self.h

    def node_index(self, z):
        z = np.asarray(z, dtype=np.int64)
        rel = z - self.z_lo
        if np.any(rel < 0) or np.any(rel >= np.asarray(self.shape)):
            raise GraphError(f"lattice point {z} outside graph")
        idx = rel[..., 0]
        for i in range(1, self.dim):
            idx = idx * self.shape[i] + rel[..., i]
        return idx

    def index_node(self, idx):
        rel = np.empty((np.size(idx), self.dim), dtype=np.int64)
        rest = np.asarray(idx, dtype=np.int64).ravel()
        for i in range(self.dim - 1, -1, -1):
            rel[:, i] = rest % self.shape[i]
            rest = rest // self.shape[i]
        return rel + self.z_lo

    def snap(self, point):
        """Nearest node (lattice coordinates) to a point, clipped to the
        grid (points far outside snap to the nearest edge node)."""
        p = np.asarray(point, dtype=float) / self.h
        p = np.clip(p, self.z_lo.astype(float), self.z_hi.astype(float))
        return np.round(p).astype(np.int64)

    # -- weights ---------------------------------------------------------------

    def _weight_unit(self):
        """Dyadic quantization unit, equivariant under power-of-two scaling
        of the metric, from the samples at every (n_nodes // 512)-th node."""
        probe = self.index_node(np.arange(0, self.n_nodes,
                                          max(1, self.n_nodes // 512)))
        samples = self._box_samples[tuple(2 * (probe - self.z_lo).T)]
        if self._scalar_speed:
            smax = float(np.max(samples))
        else:
            smax = float(np.sqrt(np.max(np.linalg.eigvalsh(samples))))
        lmax = float(np.max(np.linalg.norm(self.offsets, axis=1))) * self.h
        scale = 2.0 ** np.floor(np.log2(smax * lmax))
        return scale * 2.0 ** (-_QUANT_BITS)

    def _samples(self, k_lo, shape):
        """Field data at the doubled-lattice box of points (k / 2) h, k =
        k_lo + i for i in 0 .. shape - 1 per axis, as an array of that
        shape: the speed factor sqrt(e^{2 phi}) for conformal fields, the
        metric matrices otherwise.

        The points go to the field row-major (first axis slowest), with
        their box (k_lo, shape, h / 2): where h / 2 is commensurate with a
        sampled field's spacing, the field evaluates the kernel once per
        lattice phase and support node and sums each phase as one strided
        correlation (see MetricField._box_sums).  Every sample of the graph
        goes through here, so the matrix's box and edge_weight's box of one
        edge share one definition of a sample.  Where the lattice points
        are exact dyadics (h = 0.25 or 0.5 at the default spacing) the
        samples keep the bits of the point-by-point evaluation; on other
        commensurate lattices (h = 0.3, 0.4) e^{2 phi} moves by a few ulps,
        which the dyadic weight quantization absorbs."""
        lattice = (k_lo, shape, self.h / 2)
        X = grid_points([np.arange(lo, lo + n) for lo, n in zip(k_lo, shape)])
        X = X * lattice[2]                      # the bits of (k / 2) h
        if not isinstance(self.field, MetricField):
            samples = self.field.values_batch(X)
        elif self._scalar_speed:
            samples = np.sqrt(self.field.conformal_factor_batch(X, lattice=lattice))
        else:
            samples = self.field.values_batch(X, lattice=lattice)
        return samples.reshape(tuple(shape) + samples.shape[1:])

    def _offset_weights(self, off, samples, ends):
        """Quantized Simpson lengths of the edges along stencil offset off.

        samples holds _samples on some array of points, with the metric's
        d x d axes last; ends = (i0, im, i1) index that array at each edge's
        start, midpoint and end.  The speed sqrt(e g e) is formed once per
        sample.
        """
        ell = np.linalg.norm(off * self.h)
        if self._scalar_speed:
            s = samples
        else:
            e = off * self.h / ell
            d = self.dim
            s = np.sqrt(np.einsum("i,bij,j->b", e, samples.reshape(-1, d, d), e))
            s = s.reshape(samples.shape[:-2])
        i0, im, i1 = ends
        raw = (ell / 6.0) * (s[i0] + 4.0 * s[im] + s[i1])
        return self._quantize(raw)

    def _quantize(self, raw):
        q = np.round(raw / self._unit) * self._unit
        if np.any(q <= 0):
            raise GraphError("non-positive edge weight after quantization")
        return q

    def edge_weight(self, u, v):
        """Weight of the edge between lattice points u and v (cached)."""
        u = tuple(int(c) for c in np.asarray(u))
        v = tuple(int(c) for c in np.asarray(v))
        if u > v:
            u, v = v, u
        key = (u, v)
        if key not in self._edge_cache:
            zu, zv = np.asarray(u), np.asarray(v)
            off = zv - zu
            if not any(np.array_equal(off, o) for o in self.offsets):
                raise GraphError(f"{u}->{v} is not a stencil edge")
            # its own box of the doubled lattice, spanning the Simpson
            # nodes 2 u, u + v and 2 v, not the matrix's samples
            ends = np.stack([2 * zu, zu + zv, 2 * zv])
            lo = ends.min(axis=0)
            samples = self._samples(lo, ends.max(axis=0) - lo + 1)
            w = self._offset_weights(off, samples, [tuple(k) for k in ends - lo])
            self._edge_cache[key] = float(w)
        return self._edge_cache[key]

    def _ensure_matrix(self):
        if self._matrix is not None:
            return
        shape, n_nodes = self.shape, self.n_nodes
        samples, self._box_samples = self._box_samples, None
        # slot j of each row holds the edge along offs[j].  Lexicographic
        # offset order is row-major target order, so a row's in-box slots
        # come in ascending column order, and -offs[j] is offs[-1 - j].
        offs = self.offsets[np.lexsort(self.offsets.T[::-1])]
        n_slots = len(offs)
        slots = np.zeros(shape + (n_slots,))
        valid = np.zeros(shape + (n_slots,), dtype=bool)
        for j in range(n_slots // 2, n_slots):      # the offsets o > -o
            off = offs[j]
            # the sources z of edges z -> z + off form a box slice; their
            # targets, and the Simpson nodes 2 z, 2 z + off and 2 z + 2 off
            # of the doubled lattice, are that slice shifted (and strided)
            src = tuple(slice(max(0, -c), n - max(0, c)) for c, n in zip(off, shape))
            if any(s.start >= s.stop for s in src):
                continue                # no edge along off fits in the box
            tgt = tuple(slice(s.start + c, s.stop + c) for s, c in zip(src, off))
            ends = [tuple(slice(2 * s.start + i * c, 2 * s.stop - 1 + i * c, 2)
                          for s, c in zip(src, off)) for i in range(3)]
            w = self._offset_weights(off, samples, ends)
            slots[src + (j,)] = w
            valid[src + (j,)] = True
            slots[tgt + (n_slots - 1 - j,)] = w
            valid[tgt + (n_slots - 1 - j,)] = True
        # the index dtype scipy would pick; building it directly saves a copy
        index = np.int32 if n_slots * n_nodes < 2 ** 31 else np.int64
        valid = valid.reshape(n_nodes, n_slots)
        indptr = np.zeros(n_nodes + 1, dtype=index)
        np.cumsum(valid.sum(axis=1, dtype=index), out=indptr[1:])
        data = slots.reshape(n_nodes, n_slots)[valid]
        del slots                       # before the column table is made
        strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
        cols = np.arange(n_nodes, dtype=index)[:, None] + (offs @ strides).astype(index)
        self._matrix = csr_matrix((data, cols[valid], indptr),
                                  shape=(n_nodes, n_nodes))

    # -- queries ---------------------------------------------------------------

    def sssp(self, source_z):
        """Single-source distances and predecessors from a lattice point."""
        src = int(self.node_index(np.asarray(source_z)))
        if src not in self._sssp_cache:
            self._ensure_matrix()
            self._sssp_cache[src] = _sp_dijkstra(
                self._matrix, directed=True, indices=src,
                return_predecessors=True)
        return self._sssp_cache[src]


def build_graph(field, region, h, stencil=16):
    """Grid passage graph over a region of a field (weights lazily built)."""
    return PassageGraph(field, region, h, stencil=stencil)


def distance(graph, a, b):
    """Graph distance and witness path between two points (snapped to nodes).

    Returns (d_hat, witness) where witness is the (M, d) array of node
    coordinates from a to b.
    """
    za = graph.snap(a)
    zb = graph.snap(b)
    dist, pred = graph.sssp(za)
    tgt = int(graph.node_index(zb))
    d_hat = float(dist[tgt])
    if not np.isfinite(d_hat):
        raise GraphError("target unreachable (should not happen on a full grid)")
    chain = [tgt]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    witness = graph.index_node(np.asarray(chain)) * graph.h
    return d_hat, witness


def ball(graph, t):
    """Raster of the graph metric ball of radius t around the origin node."""
    if t < 0:
        raise GraphError("ball radius must be >= 0")
    origin = np.zeros(graph.dim, dtype=np.int64)
    # the origin's full search, which distance() caches too: the nodes within
    # t, and their distances, are those a search stopped at t settles
    dist, _ = graph.sssp(origin)
    if t == 0:
        inside_idx = np.array([int(graph.node_index(origin))])
    else:
        inside_idx = np.where(dist <= t)[0]
    inside_z = graph.index_node(inside_idx)
    # a node is on the boundary if it lies on the box edge or one of its
    # stencil neighbours is not inside (a neighbour outside the box is not)
    shape = np.asarray(graph.shape)
    mask = np.zeros(graph.n_nodes, dtype=bool)
    mask[inside_idx] = True
    mask = mask.reshape(graph.shape)
    rel = inside_z - graph.z_lo
    on_edge = np.any((rel == 0) | (rel == shape - 1), axis=1)
    is_boundary = on_edge.copy()
    for off in graph.offsets:
        nb = rel + off
        in_box = np.all((nb >= 0) & (nb < shape), axis=1)
        is_boundary |= ~in_box
        is_boundary[in_box] |= ~mask[tuple(nb[in_box].T)]
    boundary = inside_z[is_boundary]
    clipped = bool(np.any(on_edge))
    return BallRaster(t=float(t), inside=inside_z * graph.h,
                      boundary=boundary.astype(float) * graph.h,
                      distances=dist[inside_idx], clipped=clipped)


def _unit_directions(k):
    angles = np.arange(k) * (2 * np.pi / k)
    return angles, np.stack([np.cos(angles), np.sin(angles)], axis=1)


def directional_mu(graph, t, k):
    """d_hat(0, x) / |x| for the node x nearest t v, for each of k equally
    spaced unit directions v of the plane."""
    _, dirs = _unit_directions(k)
    dist, _ = graph.sssp(np.zeros(2, dtype=np.int64))
    mus = np.empty(k)
    for j, v in enumerate(dirs):
        z = graph.snap(t * v)
        x = graph.node_position(z)
        mus[j] = dist[int(graph.node_index(z))] / np.linalg.norm(x)
    return mus


@dataclass
class ShapeEstimate:
    mu: np.ndarray              # per-direction mean of d_hat(0, t v) / |x|
    stderr: np.ndarray
    anisotropy_ratio: float
    t: float
    replicas: int

    @classmethod
    def from_samples(cls, samples, t):
        """Reduce a (replicas, k) array of directional_mu rows: exact
        per-direction means (math.fsum), so the result does not depend on
        the order replicas finished in."""
        samples = np.asarray(samples, dtype=float)
        replicas, k = samples.shape
        mu = np.array([math.fsum(samples[:, j]) / replicas for j in range(k)])
        se = (samples.std(axis=0, ddof=1) / np.sqrt(replicas)
              if replicas > 1 else np.zeros(k))
        return cls(mu=mu, stderr=se,
                   anisotropy_ratio=float(mu.max() / mu.min()), t=t,
                   replicas=replicas)

    def csv_text(self):
        angles, _ = _unit_directions(len(self.mu))
        return csv_table(["angle,mu,stderr"], [angles, self.mu, self.stderr])


@dataclass
class MinimalityVerdict:
    checkpoint_times: np.ndarray
    verdicts: np.ndarray            # bool per checkpoint
    first_failure_time: float       # nan if always minimizing
    tol: float

    @property
    def minimizing(self):
        return bool(np.all(self.verdicts))


def is_minimizing(field, path, graph, tol=None, checkpoint_every=None):
    """Compare path-segment Riemannian lengths against graph distances.

    A checkpoint passes while R(segment) <= d_hat * (1 + tol) + allowance,
    where the allowance covers snapping a checkpoint to its nearest node.
    tol defaults to (stencil factor - 1) + 0.01.
    """
    from .geometry import cumulative_lengths
    if tol is None:
        tol = graph.factor - 1.0 + 0.01
    if checkpoint_every is None:
        checkpoint_every = max(1, int(round(0.5 * graph.h / max(
            np.mean(np.diff(path.times)), 1e-12))))
    idx = np.arange(checkpoint_every, len(path.times), checkpoint_every)
    if len(idx) == 0:
        raise GraphError("path too short for any checkpoint")
    cum = cumulative_lengths(path, field)
    dist, _ = graph.sssp(graph.snap(path.positions[0]))

    times = path.times[idx]
    x = path.positions[idx]
    z = graph.snap(x)
    # per-row norms: a vectorised row norm differs in the last bit
    offset = np.array([np.linalg.norm(p - q)
                       for p, q in zip(graph.node_position(z), x)])
    lam = np.max(np.linalg.eigvalsh(field.values_batch(x)), axis=1)
    allowance = (offset + 0.5 * graph.h) * np.sqrt(lam)
    d_hat = dist[graph.node_index(z)]
    verdicts = cum[idx] <= d_hat * (1.0 + tol) + allowance
    failed = times[~verdicts]
    first_fail = float(failed[0]) if len(failed) else np.nan
    return MinimalityVerdict(checkpoint_times=times, verdicts=verdicts,
                             first_failure_time=first_fail, tol=float(tol))


def length_ratio(field, graph, x):
    """Euclidean length of the Dijkstra witness to x, divided by |x|."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx <= 0:
        raise GraphError("target must be away from the origin")
    _, witness = distance(graph, np.zeros(graph.dim), x)
    L = float(np.sum(np.linalg.norm(np.diff(witness, axis=0), axis=1)))
    return L / nx
