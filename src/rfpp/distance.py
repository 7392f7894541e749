"""Global Riemannian distance on a discretized passage graph.

The continuum distance d(x, y) = inf over curves of the Riemannian length is
approximated from above by Dijkstra on a grid graph with a wide stencil.
Edge weights are the Riemannian lengths of straight segments between nodes,
by 3-point Simpson quadrature; the remaining error is dominated by the
stencil's angular resolution, whose worst-case overestimation factor is
computed exactly from the stencil geometry (stencil_factor).

Every Simpson node of an edge from h z to h (z + o) is a point of the
doubled lattice (h/2) Z^d, namely (h/2) 2z, (h/2)(2z + o) and (h/2)(2z + 2o).
The full weight matrix therefore evaluates the field once on the doubled
lattice of the graph box, about 2^d times the node count, and assembles every
offset's weights by integer gathers.  The field is called in blocks of at
most one node count of points, so peak memory is that of a single field call
over the nodes plus the stored samples (one speed per point for conformal
fields, one d x d metric per point otherwise).

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


_QUANT_BITS = 24


class GraphError(ValueError):
    pass


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _coprime_ring(radius, dim):
    """Integer vectors with Chebyshev norm == radius and coprime entries."""
    axes = [np.arange(-radius, radius + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    vecs = np.stack([m.ravel() for m in mesh], axis=1)
    cheb = np.max(np.abs(vecs), axis=1)
    vecs = vecs[cheb == radius]
    g = np.gcd.reduce(np.abs(vecs), axis=1)
    return vecs[g == 1]


def stencil_offsets(stencil, dim=2):
    """Directions of the {8, 16, 32} stencil (d = 2) or its d = 3 analogue
    (coprime vectors of Chebyshev radius up to 1, 2 or 3)."""
    rings = {8: 1, 16: 2, 32: 3}
    if stencil not in rings:
        raise GraphError(f"stencil must be one of {sorted(rings)}")
    vecs = [_coprime_ring(r, dim) for r in range(1, rings[stencil] + 1)]
    return np.concatenate(vecs, axis=0)


def stencil_factor(stencil, dim=2):
    """Worst-case ratio of stencil-path length to straight-line distance.

    The cheapest stencil path along a vector u costs the gauge of
    P = conv{o / |o|} at u (writing u = sum a_o o / |o| with a >= 0 costs
    sum a_o), so the worst ratio over unit vectors is 1 / the inradius of P,
    the distance from the origin to its nearest facet.  Exact in any
    dimension.
    """
    offs = stencil_offsets(stencil, dim).astype(float)
    if dim == 2:
        # P's edges join angular neighbours on the unit circle; an edge
        # spanning the angle g lies at distance cos(g / 2) from the origin
        angles = np.sort(np.arctan2(offs[:, 1], offs[:, 0]))
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        return float(1 / np.cos(np.max(gaps) / 2))
    # imported here: scipy.spatial adds about 7.5 MiB of resident memory,
    # which 2-D graphs do not need
    from scipy.spatial import ConvexHull
    unit = offs / np.linalg.norm(offs, axis=1, keepdims=True)
    return float(1 / np.min(-ConvexHull(unit).equations[:, -1]))


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
        lines = [f"# ball radius: {float(self.t)!r}", f"# clipped: {self.clipped}",
                 ",".join([f"x{i + 1}" for i in range(d)] + ["distance"])]
        lines += [",".join(repr(float(v)) for v in (*row, dist))
                  for row, dist in zip(self.inside, self.distances)]
        return "\n".join(lines) + "\n"


@dataclass
class CubeTrace:
    """Euclidean length a path spends in each unit lattice cube."""
    per_cube_length: dict
    gamma_set: set              # cubes with in-cube length >= 1/4
    hat_gamma_set: set          # gamma_set plus *-adjacent neighbors


class PassageGraph:
    """Grid graph whose edge weights approximate Riemannian segment lengths.

    Nodes are lattice points h * z inside the region; edges follow the given
    stencil.  Weights are computed on demand (the full matrix on the first
    distance query, single edges via edge_weight) and cached.  Both paths
    sample the field at the same doubled-lattice points and share the speed,
    quadrature and quantization code, so they agree exactly.
    """

    def __init__(self, field, region, h, stencil=16):
        if h <= 0:
            raise GraphError("grid spacing must be > 0")
        self.field = field
        self.region = region
        self.h = float(h)
        self.dim = region.dim
        self.stencil = int(stencil)
        corners = np.array([region.lo, region.hi])
        if not np.all(field.contains(corners)):
            raise GraphError("graph region exceeds the field's valid region")
        self.z_lo = np.ceil(np.asarray(region.lo) / self.h - 1e-9).astype(np.int64)
        self.z_hi = np.floor(np.asarray(region.hi) / self.h + 1e-9).astype(np.int64)
        self.shape = tuple((self.z_hi - self.z_lo + 1).astype(int))
        self.n_nodes = int(np.prod(self.shape))
        self.offsets = stencil_offsets(self.stencil, self.dim)
        self.factor = stencil_factor(self.stencil, self.dim)
        self._conformal = (field.conformal
                           and hasattr(field, "conformal_factor_batch"))
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

    def all_node_positions(self):
        grids = [np.arange(self.z_lo[i], self.z_hi[i] + 1) for i in range(self.dim)]
        mesh = np.meshgrid(*grids, indexing="ij")
        z = np.stack([m.ravel() for m in mesh], axis=1)
        return z * self.h

    # -- weights ---------------------------------------------------------------

    def _weight_unit(self):
        """Dyadic quantization unit, equivariant under power-of-two scaling
        of the metric."""
        pts = self.all_node_positions()
        probe = pts[:: max(1, len(pts) // 512)]
        g = self.field.values_batch(probe)
        smax = float(np.sqrt(np.max(np.linalg.eigvalsh(g))))
        lmax = float(np.max(np.linalg.norm(self.offsets, axis=1))) * self.h
        scale = 2.0 ** np.floor(np.log2(smax * lmax))
        return scale * 2.0 ** (-_QUANT_BITS)

    def _samples(self, k):
        """Field data at the doubled-lattice points (k / 2) h, k (M, d)
        integer: the speed factor sqrt(e^{2 phi}) for conformal fields, the
        metric matrices otherwise."""
        X = (k / 2) * self.h
        if self._conformal:
            return np.sqrt(self.field.conformal_factor_batch(X))
        return self.field.values_batch(X)

    def _offset_weights(self, off, samples, ends):
        """Quantized Simpson lengths of the edges along stencil offset off.

        ends = (i0, im, i1) index the samples at each edge's start, midpoint
        and end; the speed sqrt(e g e) is formed once per sample.
        """
        ell = np.linalg.norm(off * self.h)
        if self._conformal:
            s = samples
        else:
            e = off * self.h / ell
            s = np.sqrt(np.einsum("i,bij,j->b", e, samples, e))
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
            samples = self._samples(np.stack([2 * zu, zu + zv, 2 * zv]))
            w = self._offset_weights(off, samples, ([0], [1], [2]))
            self._edge_cache[key] = float(w[0])
        return self._edge_cache[key]

    def _ensure_matrix(self):
        if self._matrix is not None:
            return
        # one field pass over the doubled lattice; blocks of n_nodes points
        # keep peak memory at that of one field call over the nodes
        shape2 = tuple(2 * s - 1 for s in self.shape)
        k = np.indices(shape2).reshape(self.dim, -1).T + 2 * self.z_lo
        samples = np.concatenate([self._samples(k[i:i + self.n_nodes])
                                  for i in range(0, len(k), self.n_nodes)])
        rows, cols, data = [], [], []
        rel = np.indices(self.shape).reshape(self.dim, -1).T
        canonical = [o for o in self.offsets if tuple(o) > tuple(-o)]
        for off in canonical:
            ok = np.all((rel + off >= 0) & (rel + off < self.shape), axis=1)
            src_rel = rel[ok]
            src_idx = np.ravel_multi_index(src_rel.T, self.shape)
            tgt_idx = np.ravel_multi_index((src_rel + off).T, self.shape)
            ends = [np.ravel_multi_index((2 * src_rel + j * off).T, shape2)
                    for j in range(3)]
            w = self._offset_weights(off, samples, ends)
            rows += [src_idx, tgt_idx]
            cols += [tgt_idx, src_idx]
            data += [w, w]
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        data = np.concatenate(data)
        self._matrix = csr_matrix((data, (rows, cols)),
                                  shape=(self.n_nodes, self.n_nodes))

    # -- queries ---------------------------------------------------------------

    def sssp(self, source_z, limit=np.inf):
        """Single-source distances and predecessors from a lattice point."""
        src = int(self.node_index(np.asarray(source_z)))
        key = (src, float(limit))
        if key not in self._sssp_cache:
            self._ensure_matrix()
            dist, pred = _sp_dijkstra(self._matrix, directed=True,
                                      indices=src, return_predecessors=True,
                                      limit=limit)
            self._sssp_cache[key] = (dist, pred)
        return self._sssp_cache[key]


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
    dist, _ = graph.sssp(origin, limit=t if t > 0 else np.inf)
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
    directions: np.ndarray      # (k, d) unit vectors
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
        return cls(directions=_unit_directions(k)[1], mu=mu, stderr=se,
                   anisotropy_ratio=float(mu.max() / mu.min()), t=t,
                   replicas=replicas)

    def csv_text(self):
        angles, _ = _unit_directions(len(self.mu))
        lines = ["angle,mu,stderr"]
        lines += [",".join(repr(float(v)) for v in row)
                  for row in zip(angles, self.mu, self.stderr)]
        return "\n".join(lines) + "\n"


def shape_estimate(field_factory, t, directions=16, replicas=8, h=0.3,
                   stencil=32, margin=2.0):
    """Per-direction estimates of d_hat(0, t v) / t over replica fields.

    field_factory(replica_index) must return a field containing the cube of
    half-width t + margin.  Reports the per-direction mean, standard error
    and the max/min anisotropy ratio.
    """
    if directions < 8:
        raise GraphError("need at least 8 directions")
    if replicas < 1:
        raise GraphError("need at least one replica")
    from .fields import Box
    samples = []
    for r in range(replicas):
        graph = build_graph(field_factory(r), Box.cube(t + margin, 2), h,
                            stencil=stencil)
        samples.append(directional_mu(graph, t, directions))
    return ShapeEstimate.from_samples(samples, float(t))


@dataclass
class MinimalityVerdict:
    checkpoint_times: np.ndarray
    verdicts: np.ndarray            # bool per checkpoint
    first_failure_time: float       # nan if always minimizing
    snapped: bool                   # any checkpoint off-grid and snapped
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
    cum = cumulative_lengths(path, field, "riemannian")
    start_z = graph.snap(path.positions[0])
    dist, _ = graph.sssp(start_z)

    times = path.times[idx]
    x = path.positions[idx]
    z = graph.snap(x)
    # per-row norms: a vectorised row norm differs in the last bit
    offset = np.array([np.linalg.norm(p - q)
                       for p, q in zip(graph.node_position(z), x)])
    snapped_any = bool(np.linalg.norm(path.positions[0]
                                      - graph.node_position(start_z)) > 1e-12
                       or np.any(offset > 1e-12))
    lam = np.max(np.linalg.eigvalsh(field.values_batch(x)), axis=1)
    allowance = (offset + 0.5 * graph.h) * np.sqrt(lam)
    d_hat = dist[graph.node_index(z)]
    verdicts = cum[idx] <= d_hat * (1.0 + tol) + allowance
    failed = times[~verdicts]
    first_fail = float(failed[0]) if len(failed) else np.nan
    return MinimalityVerdict(checkpoint_times=times, verdicts=verdicts,
                             first_failure_time=first_fail,
                             snapped=snapped_any, tol=float(tol))


def cube_trace(path):
    """Per-unit-cube Euclidean lengths of a path by exact segment clipping.

    Cubes are C_z = [z - 1/2, z + 1/2)^d.  gamma_set collects cubes holding
    at least Euclidean length 1/4; hat_gamma_set adds *-adjacent neighbors.
    """
    if path.parametrization != "euclidean":
        raise GraphError("cube_trace needs euclidean parametrization")
    pos = path.positions
    d = pos.shape[1]
    lengths_map = {}
    for p0, p1 in zip(pos[:-1], pos[1:]):
        seg = p1 - p0
        seg_len = float(np.linalg.norm(seg))
        if seg_len == 0:
            continue
        # parameter values where any coordinate crosses a half-integer plane
        ts = [0.0, 1.0]
        for i in range(d):
            lo, hi = (p0[i], p1[i]) if p0[i] <= p1[i] else (p1[i], p0[i])
            k0 = np.ceil(lo - 0.5)
            planes = np.arange(k0 + 0.5, hi, 1.0)
            for plane in planes:
                if seg[i] != 0:
                    ts.append(float((plane - p0[i]) / seg[i]))
        ts = sorted({t for t in ts if 0.0 <= t <= 1.0})
        for t0, t1 in zip(ts[:-1], ts[1:]):
            if t1 <= t0:
                continue
            mid = p0 + 0.5 * (t0 + t1) * seg
            z = tuple(int(v) for v in np.floor(mid + 0.5))
            lengths_map[z] = lengths_map.get(z, 0.0) + (t1 - t0) * seg_len
    gamma = {z for z, l in lengths_map.items() if l >= 0.25}
    hat = set(gamma)
    if d <= 3:
        from itertools import product
        for z in gamma:
            for off in product((-1, 0, 1), repeat=d):
                hat.add(tuple(np.asarray(z) + np.asarray(off)))
    return CubeTrace(per_cube_length=lengths_map, gamma_set=gamma,
                     hat_gamma_set=hat)


def length_ratio(field, graph, x):
    """Euclidean length of the Dijkstra witness to x, divided by |x|."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx <= 0:
        raise GraphError("target must be away from the origin")
    _, witness = distance(graph, np.zeros(graph.dim), x)
    L = float(np.sum(np.linalg.norm(np.diff(witness, axis=0), axis=1)))
    return L / nx
