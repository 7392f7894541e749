import hashlib

import numpy as np
import pytest

from rfpp import rng
from rfpp.fields import (Box, ConstantMetric, FlatMetric, KernelSpec, MetricField,
                         SpherePatchField)
from rfpp.geometry import geodesic_shoot
from rfpp.distance import (GraphError, ShapeEstimate, ball, build_graph,
                           directional_mu, distance, is_minimizing,
                           length_ratio, stencil_factor, stencil_offsets)

FLAT = FlatMetric()


def conformal(seed, half_width=12.0, amplitude=0.3):
    return MetricField("conformal", seed=seed, region=Box.cube(half_width, 2),
                       kernel=KernelSpec(range=1.0, amplitude=amplitude))


def small_flat_graph(h=0.25, hw=4.0, stencil=8):
    return build_graph(FLAT, Box.cube(hw, 2), h=h, stencil=stencil)


# --------------------------------------------------------------- stencils

def test_stencil_counts():
    assert len(stencil_offsets(8)) == 8
    assert len(stencil_offsets(16)) == 16
    assert len(stencil_offsets(32)) == 32


def test_stencil_factor_values():
    # exact sector analysis; brute-force directional check as oracle
    for stencil in (8, 16, 32):
        factor = stencil_factor(stencil)
        offs = stencil_offsets(stencil).astype(float)
        norms = np.linalg.norm(offs, axis=1)
        theta = np.linspace(0, np.pi / 2, 2000)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)        # (T, 2)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(len(offs)),
                                               np.arange(len(offs)),
                                               indexing="ij"))
        M = np.stack([offs[i], offs[j]], axis=2)                     # columns
        keep = np.abs(np.linalg.det(M)) >= 1e-9
        M, i, j = M[keep], i[keep], j[keep]
        ab = np.linalg.solve(M[:, None], u[None, :, :, None])[..., 0]  # (P, T, 2)
        cost = ab[..., 0] * norms[i, None] + ab[..., 1] * norms[j, None]
        cost = np.where(np.all(ab >= -1e-12, axis=2), cost, np.inf)
        worst = max(1.0, float(np.max(np.min(cost, axis=0))))
        assert abs(factor - worst) <= 1e-6
    assert stencil_factor(16) <= 1.03
    # the exact values, bit for bit
    assert stencil_factor(8) == 1.082392200292394
    assert stencil_factor(16) == 1.0274862967460157
    assert stencil_factor(32) == 1.01308145723319


# --------------------------------------------------------------- weights

def test_flat_edge_weights_exact_lengths():
    g = small_flat_graph()
    for off in ((1, 0), (1, 1), (0, 1)):
        w = g.edge_weight((0, 0), off)
        expected = 0.25 * np.hypot(*off)
        assert abs(w - expected) <= 2 * g._unit


def test_constant_metric_weight_scaling():
    g1 = small_flat_graph()
    g4 = build_graph(ConstantMetric(4.0 * np.eye(2)), Box.cube(4.0, 2), 0.25, 8)
    for off in ((1, 0), (1, 1)):
        assert g4.edge_weight((0, 0), off) == 2.0 * g1.edge_weight((0, 0), off)


def test_edge_weight_matches_bulk_matrix():
    field = conformal(5, half_width=5.0)
    g = build_graph(field, Box.cube(3.0, 2), 0.25, 16)
    w_single = g.edge_weight((2, 1), (3, 3))
    g._ensure_matrix()
    ia, ib = int(g.node_index((2, 1))), int(g.node_index((3, 3)))
    assert g._matrix[ia, ib] == w_single
    assert g._matrix[ib, ia] == w_single
    # every edge, both directions, of a small conformal and sym_exp graph
    for mode in ("conformal", "sym_exp"):
        field = MetricField(mode, seed=11, region=Box.cube(3.0, 2),
                            kernel=KernelSpec(range=1.0, amplitude=0.3))
        g = build_graph(field, Box.cube(1.5, 2), 0.25, 16)
        g._ensure_matrix()
        m = g._matrix.tocoo()
        assert m.nnz == sum(int(np.prod(np.asarray(g.shape) - np.abs(o)))
                            for o in g.offsets)
        nodes = g.index_node(np.arange(g.n_nodes))
        for i, j, w in zip(m.row, m.col, m.data):
            assert g.edge_weight(nodes[i], nodes[j]) == w


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
def test_edge_weight_matches_bulk_matrix_off_the_dyadic_lattice(mode):
    # at h = 0.3 the samples come from 25 phase rows whose displacements
    # differ from each sample's own in their last bits; edge_weight samples
    # through the same tables, so every fifth edge agrees with the matrix
    field = MetricField(mode, seed=13, region=Box.cube(3.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    g = build_graph(field, Box.cube(1.5, 2), 0.3, 16)
    g._ensure_matrix()
    m = g._matrix.tocoo()
    nodes = g.index_node(np.arange(g.n_nodes))
    for i, j, w in list(zip(m.row, m.col, m.data))[::5]:
        assert g.edge_weight(nodes[i], nodes[j]) == w


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
def test_edge_weight_matches_bulk_matrix_off_the_phase_tables(mode):
    # at h = 0.29 no phase table applies (h / 2 = 29/50 of the spacing), so
    # the samples are point-by-point sums, of the matrix's box and of each
    # edge's own small box; both must get the same bits, so every edge
    # agrees with the matrix
    field = MetricField(mode, seed=13, region=Box.cube(3.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    g = build_graph(field, Box.cube(1.5, 2), 0.29, 16)
    assert field._phase_table(g.h / 2) is None
    g._ensure_matrix()
    m = g._matrix.tocoo()
    nodes = g.index_node(np.arange(g.n_nodes))
    for i, j, w in zip(m.row, m.col, m.data):
        assert g.edge_weight(nodes[i], nodes[j]) == w


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
@pytest.mark.parametrize("h,q", [(0.25, 2), (0.3, 5), (0.4, 5)])
def test_graph_evaluates_the_kernel_once_per_phase(h, q, mode, monkeypatch):
    # building a graph and its matrix evaluates psi at q^2 phases times the
    # K = 64 support nodes, not at every sample: a fall back to the
    # point-by-point path fails here rather than only costing time
    field = MetricField(mode, seed=14, region=Box.cube(4.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    entries = []
    radial = KernelSpec.radial

    def counted(self, u, order=2):
        entries.append(np.size(u))
        return radial(self, u, order)

    monkeypatch.setattr(KernelSpec, "radial", counted)
    g = build_graph(field, Box.cube(3.0, 2), h, 16)
    g._ensure_matrix()
    g.edge_weight((0, 0), (1, 2))
    assert sum(entries) == q ** 2 * 64


def _matrix_digest(g):
    g._ensure_matrix()
    h = hashlib.sha256()
    for a in (g._matrix.data, g._matrix.indices, g._matrix.indptr):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# digests of the weight matrices assembled by per-offset Simpson quadrature
# (three field calls per edge; numpy 2.4.6, scipy 1.17.1, x86-64); the
# doubled-lattice assembly must reproduce them bit for bit
GOLDEN_MATRICES = {
    "conformal": (
        lambda: conformal(5, half_width=5.0), Box.cube(3.0, 2), 0.3, 32,
        "5675dd06e93d4d07b6ab4d2fcb69dfc18c425bfb37d588d8db5610b95c027346"),
    "sym_exp": (
        lambda: MetricField("sym_exp", seed=5, region=Box.cube(5.0, 2),
                            kernel=KernelSpec(range=1.0, amplitude=0.3)),
        Box.cube(3.0, 2), 0.3, 16,
        "a47941ed691d04293707640a5f46c0d0827778675b330b4afe2564af713694ed"),
    "sphere_patch": (
        lambda: SpherePatchField(radius=2.0), Box.cube(2.0, 2), 0.25, 16,
        "208d78c228853ec36a1a50ad617cc1a95ea600f3eadfd9a24508c26b5a9f077c"),
    "flat": (
        lambda: FlatMetric(), Box.cube(2.0, 2), 0.25, 32,
        "2b195ba2159ba0fcf79674cd3c74a0523dc865657c9d3e338b7bbce0d7c06652"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_weight_matrix_golden_digest(name):
    make, region, h, stencil, expected = GOLDEN_MATRICES[name]
    assert _matrix_digest(build_graph(make(), region, h, stencil)) == expected


def _coo_reference(g):
    """The weight matrix as COO triplets, every canonical offset's edges in
    both directions, converted by scipy (an index sort per row): the
    assembly that the direct CSR construction replaced."""
    from scipy.sparse import csr_matrix
    shape2 = tuple(2 * s - 1 for s in g.shape)
    samples = g._samples(2 * g.z_lo, shape2)
    samples = samples.reshape((-1,) + samples.shape[g.dim:])
    rel = np.indices(g.shape).reshape(g.dim, -1).T
    rows, cols, data = [], [], []
    for off in g.offsets:
        if tuple(off) <= tuple(-off):
            continue
        src_rel = rel[np.all((rel + off >= 0) & (rel + off < g.shape), axis=1)]
        src = np.ravel_multi_index(src_rel.T, g.shape)
        tgt = np.ravel_multi_index((src_rel + off).T, g.shape)
        ends = [np.ravel_multi_index((2 * src_rel + j * off).T, shape2)
                for j in range(3)]
        w = g._offset_weights(off, samples, ends)
        rows += [src, tgt]
        cols += [tgt, src]
        data += [w, w]
    return csr_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(g.n_nodes, g.n_nodes))


def _csr_field(kind, dim):
    if kind == "analytic":
        return SpherePatchField(radius=2.0)
    return MetricField(kind, seed=5, region=Box.cube(2.0, dim),
                       kernel=KernelSpec(range=1.0, amplitude=0.3))


# graph boxes at h = 0.25 in d = 2: 9 x 9 nodes, boxes narrower than the
# stencil's reach along the slow and the fast axis (2 x 9 and 9 x 2; on the
# latter the flat column offsets tie or reorder: (0, 1) and (1, -1) are both
# +1), one row (1 x 9), one column (9 x 1) and a single node
CSR_BOXES = {
    "square": ((-1.0, -1.0), (1.0, 1.0)),
    "narrow_first": ((0.0, -1.0), (0.25, 1.0)),
    "narrow_last": ((-1.0, 0.0), (1.0, 0.25)),
    "one_row": ((0.0, -1.0), (0.1, 1.0)),
    "one_column": ((-1.0, 0.0), (1.0, 0.1)),
    "single_node": ((0.0, 0.0), (0.1, 0.1)),
}


# every box on the sampled conformal field; the other fields, whose weights
# take the metric-matrix and the closed-form paths, on two of them; the
# dimension, always 2, stays in the case ids
CSR_CASES = [(box, 2, stencil, kind)
             for kind, boxes in (("conformal", sorted(CSR_BOXES)),
                                 ("sym_exp", ["square", "narrow_last"]),
                                 ("analytic", ["square", "narrow_last"]))
             for box in boxes for stencil in (8, 16, 32)]


@pytest.mark.parametrize("box,dim,stencil,kind", CSR_CASES,
                         ids=["-".join(map(str, case)) for case in CSR_CASES])
def test_direct_csr_equals_the_coo_assembly(box, dim, stencil, kind):
    lo, hi = CSR_BOXES[box]
    g = build_graph(_csr_field(kind, dim), Box(lo, hi), 0.25, stencil)
    g._ensure_matrix()
    ref = _coo_reference(g)
    assert g._matrix.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(g._matrix, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    # every in-box stencil neighbour is stored
    assert g._matrix.nnz == sum(int(np.prod(np.maximum(np.asarray(g.shape)
                                                       - np.abs(o), 0)))
                                for o in g.offsets)


def test_assembly_peak_memory_is_a_few_bytes_per_slot():
    # 81 x 81 nodes, 32 slots each: the slot table and its mask (9 bytes a
    # slot), the column table (4 bytes a slot), the stored weights
    # (8 bytes an entry) and the doubled-lattice speeds (8 bytes a point),
    # plus 1 MiB for the field's evaluation blocks.  The COO assembly
    # peaked at about 48 bytes a slot, 2.6 times this bound.
    import tracemalloc
    g = build_graph(conformal(3, half_width=11.0), Box.cube(10.0, 2), 0.25, 32)
    slots = g.n_nodes * len(g.offsets)
    points = int(np.prod([2 * n - 1 for n in g.shape]))
    tracemalloc.start()
    try:
        g._ensure_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * slots + 8 * g._matrix.nnz + 8 * points + 2 ** 20


@pytest.mark.parametrize("stencil", [16.5, 16.0, True, "16", None])
def test_stencil_that_is_not_an_integer_is_refused(stencil):
    with pytest.raises(GraphError, match="stencil must be an integer"):
        build_graph(FLAT, Box.cube(1.0, 2), 0.25, stencil)
    with pytest.raises(GraphError, match="stencil must be an integer"):
        stencil_offsets(stencil)
    assert build_graph(FLAT, Box.cube(1.0, 2), 0.25, np.int64(16)).factor \
        == stencil_factor(16)


def test_random_edge_weight_vs_fine_quadrature():
    field = conformal(5, half_width=5.0)
    g = build_graph(field, Box.cube(3.0, 2), 0.25, 16)
    a = np.array([0.25, 0.0])
    b = np.array([0.5, 0.25])
    w = g.edge_weight((1, 0), (2, 1))
    ts = np.linspace(0, 1, 101)[:, None]
    pts = a + ts * (b - a)
    e = (b - a) / np.linalg.norm(b - a)
    gv = field.values_batch(pts)
    s = np.sqrt(np.einsum("i,bij,j->b", e, gv, e))
    from scipy.integrate import simpson
    fine = np.linalg.norm(b - a) * simpson(s, x=ts[:, 0])
    assert abs(w - fine) / fine <= 1e-3


# --------------------------------------------------------------- distance

def test_flat_distance_axis_and_bound():
    g = build_graph(FLAT, Box.cube(10.4, 2), h=0.05, stencil=16)
    d_hat, witness = distance(g, (0, 0), (10, 0))
    assert 1.0 <= d_hat / 10.0 <= 1.03
    assert np.array_equal(witness[0], [0, 0])
    assert np.array_equal(witness[-1], [10, 0])
    # worst direction stays below the analytic stencil factor
    theta = np.arctan2(1, 2) / 2
    tgt = 9.0 * np.array([np.cos(theta), np.sin(theta)])
    d2, _ = distance(g, (0, 0), tgt)
    x = g.node_position(g.snap(tgt))
    assert d2 / np.linalg.norm(x) <= g.factor + 1e-9


def test_triangle_inequality_exact():
    field = conformal(7, half_width=6.0)
    g = build_graph(field, Box.cube(4.0, 2), 0.25, 16)
    pts = 7.0 * rng.uniform(70, np.arange(60)).reshape(30, 2) - 3.5
    for i in range(10):
        a, b, c = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        dab, _ = distance(g, a, b)
        dbc, _ = distance(g, b, c)
        dac, _ = distance(g, a, c)
        assert dac <= dab + dbc


def test_distance_symmetry_exact():
    field = conformal(8, half_width=5.0)
    g = build_graph(field, Box.cube(3.0, 2), 0.25, 16)
    for i in range(5):
        a = 5.0 * rng.uniform(81, 2 * i, np.arange(2)) - 2.5
        b = 5.0 * rng.uniform(81, 2 * i + 1, np.arange(2)) - 2.5
        assert distance(g, a, b)[0] == distance(g, b, a)[0]


class _FourTimes(MetricField):
    """The metric 4 g of a sampled conformal g: a power of two, so every
    value is exact and the graph keeps its scalar-speed path."""

    def values_batch(self, X, lattice=None):
        return 4.0 * super().values_batch(X, lattice=lattice)

    def conformal_factor_batch(self, X, lattice=None):
        return 4.0 * super().conformal_factor_batch(X, lattice=lattice)


def test_global_scaling_exact_witness_invariant():
    field = conformal(9, half_width=5.0)
    four = _FourTimes("conformal", seed=9, region=field.region,
                      kernel=field.kernel)
    g1 = build_graph(field, Box.cube(3.0, 2), 0.25, 16)
    g4 = build_graph(four, Box.cube(3.0, 2), 0.25, 16)
    d1, w1 = distance(g1, (0, 0), (2.5, 1.0))
    d4, w4 = distance(g4, (0, 0), (2.5, 1.0))
    assert d4 == 2.0 * d1
    assert np.array_equal(w1, w4)


def test_refinement_monotone_trend():
    field = conformal(10, half_width=6.0)
    target = (3.0, 1.0)
    ds = []
    for h in (0.4, 0.2, 0.1):
        g = build_graph(field, Box.cube(4.0, 2), h, 16)
        ds.append(distance(g, (0, 0), target)[0])
    assert ds[1] <= ds[0] * (1 + 1e-3)
    assert ds[2] <= ds[1] * (1 + 1e-3)
    assert ds[2] < ds[0]


def test_dijkstra_against_bruteforce_subgraph():
    # 6 x 6 nodes: exhaustive DFS over simple paths with pruning
    field = conformal(11, half_width=4.0)
    g = build_graph(field, Box((0.0, 0.0), (1.25, 1.25)), 0.25, 8)
    assert g.n_nodes == 36
    g._ensure_matrix()
    mat = g._matrix.toarray()
    src = int(g.node_index((0, 0)))
    tgt = int(g.node_index((5, 5)))

    best = [np.inf]

    def dfs(node, cost, seen):
        if cost >= best[0]:
            return
        if node == tgt:
            best[0] = cost
            return
        for nxt in np.nonzero(mat[node])[0]:
            if nxt not in seen:
                dfs(int(nxt), cost + mat[node, nxt], seen | {int(nxt)})

    dfs(src, 0.0, {src})
    d_hat, _ = distance(g, (0.0, 0.0), (1.25, 1.25))
    assert d_hat == best[0]


# --------------------------------------------------------------- balls

def test_ball_trivial_and_nested():
    g = small_flat_graph(h=0.25, hw=4.0, stencil=16)
    b0 = ball(g, 0.0)
    assert len(b0.inside) == 1 and np.allclose(b0.inside[0], 0.0)
    b1 = ball(g, 1.0)
    b2 = ball(g, 2.0)
    set1 = {tuple(p) for p in np.round(b1.inside / 0.25).astype(int)}
    set2 = {tuple(p) for p in np.round(b2.inside / 0.25).astype(int)}
    assert set1 <= set2


def test_ball_hausdorff_bound_flat():
    g = build_graph(FLAT, Box.cube(4.0, 2), 0.1, 16)
    t = 3.0
    b = ball(g, t)
    r = np.linalg.norm(b.inside, axis=1)
    bound = (g.factor - 1.0) * t + 0.1 * np.sqrt(2.0)
    # no inside node beyond the ball, no boundary gap deeper than the bound
    assert r.max() <= t + 1e-12
    angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    for a in angles:
        u = np.array([np.cos(a), np.sin(a)])
        along = b.inside @ u
        cross = np.abs(b.inside @ np.array([-u[1], u[0]]))
        cone = cross <= 0.15
        assert np.max(along[cone]) >= t - bound


def test_ball_clipped_report():
    g = small_flat_graph(h=0.5, hw=2.0, stencil=8)
    b = ball(g, 10.0)
    assert b.clipped


def _ball_boundary_loop(graph, b):
    """Boundary marking as a loop over inside nodes and stencil offsets: a
    node is on the boundary if it touches the box edge or a neighbour is not
    inside.  Returns (boundary nodes in inside order, clipped)."""
    inside_z = np.round(b.inside / graph.h).astype(np.int64)
    inside_set = set(map(tuple, inside_z))
    boundary = []
    clipped = False
    for z in inside_z:
        on_edge = np.any(z == graph.z_lo) or np.any(z == graph.z_hi)
        clipped = clipped or on_edge
        if on_edge or any(tuple(z + off) not in inside_set
                          for off in graph.offsets):
            boundary.append(z)
    return np.asarray(boundary, dtype=float) * graph.h, clipped


@pytest.mark.parametrize("case", ["conformal", "clipped", "origin_only"])
def test_ball_boundary_matches_loop(case):
    if case == "conformal":
        g, t = build_graph(conformal(9, half_width=4.0), Box.cube(2.5, 2),
                           0.25, 16), 1.5
    elif case == "clipped":
        g, t = build_graph(conformal(9, half_width=4.0), Box.cube(1.0, 2),
                           0.25, 32), 1.2
    else:
        g, t = small_flat_graph(h=0.25, hw=1.0, stencil=8), 0.0
    b = ball(g, t)
    boundary, clipped = _ball_boundary_loop(g, b)
    assert b.clipped == clipped == (case == "clipped")
    assert b.boundary.dtype == boundary.dtype
    assert np.array_equal(b.boundary, boundary)
    assert 0 < len(b.boundary) < len(b.inside) or case == "origin_only"


@pytest.mark.parametrize("mode", ["conformal", "sym_exp"])
def test_ball_matches_a_search_stopped_at_its_radius(mode):
    # ball reads the origin's unlimited search, which distance() has cached
    # first as the distance run does; a search stopped at t must settle the
    # same nodes at the same distances
    from scipy.sparse.csgraph import dijkstra
    field = MetricField(mode, seed=7, region=Box.cube(9.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    g = build_graph(field, Box.cube(8.0, 2), 0.25, 16)
    distance(g, (0.0, 0.0), (6.0, 0.0))
    origin = int(g.node_index((0, 0)))
    for t in (0.5, 3.0, 4.0):
        stopped = dijkstra(g._matrix, directed=True, indices=origin, limit=t)
        inside = np.where(stopped <= t)[0]
        b = ball(g, t)
        assert len(inside) > 1
        assert np.array_equal(b.inside, g.index_node(inside) * g.h)
        assert np.array_equal(b.distances, stopped[inside])


# --------------------------------------------------------------- shape

def shape_of(fields, t):
    """ShapeEstimate over 8 directions, one graph per replica field (h 0.25,
    stencil 16, half-width t + 1), reduced as the shape experiment does."""
    rows = [directional_mu(build_graph(f, Box.cube(t + 1.0, 2), 0.25, 16), t, 8)
            for f in fields]
    return ShapeEstimate.from_samples(rows, t)


def test_shape_flat_bounds():
    est = shape_of([FLAT], 6.0)
    # lower slack covers the dyadic weight quantization (~1e-7 relative)
    assert np.all(est.mu >= 1.0 - 1e-6)
    assert np.all(est.mu <= stencil_factor(16) + 1e-6)
    assert est.anisotropy_ratio <= stencil_factor(16) + 1e-6


def test_shape_constant_scaling():
    est1 = shape_of([FLAT], 5.0)
    est4 = shape_of([ConstantMetric(4.0 * np.eye(2))], 5.0)
    assert np.array_equal(est4.mu, 2.0 * est1.mu)


def test_shape_csv_export():
    est = shape_of([FLAT, FLAT], 4.0)
    lines = est.csv_text().splitlines()
    assert lines[0] == "angle,mu,stderr"
    assert len(lines) == 1 + 8


# --------------------------------------------------------------- minimality

def test_flat_straight_geodesic_minimizing():
    g = build_graph(FLAT, Box.cube(6.0, 2), 0.2, 16)
    path = geodesic_shoot(FLAT, (0, 0), np.array([1.0, 0.0]), T=5.0, step=1e-3)
    verdict = is_minimizing(FLAT, path, g)
    assert verdict.minimizing
    assert np.isnan(verdict.first_failure_time)


def test_sphere_cut_point_detected_near_pi():
    # the unit circle is a great circle of the stereographic sphere: past the
    # antipode at Riemannian time pi, the short way around wins
    from rfpp.fields import SpherePatchField
    sphere = SpherePatchField(radius=1.0)
    g = build_graph(sphere, Box.cube(1.8, 2), 0.025, 32)
    path = geodesic_shoot(sphere, (1.0, 0.0), np.array([0.0, 1.0]),
                          T=4.6, step=1e-3)
    verdict = is_minimizing(sphere, path, g, tol=0.01)
    assert not verdict.minimizing
    assert np.pi - 0.05 <= verdict.first_failure_time <= np.pi + 0.05


def _is_minimizing_loop(field, path, graph, tol, every):
    """Checkpoint-by-checkpoint oracle: one single-point field call each."""
    from rfpp.geometry import cumulative_lengths
    cum = cumulative_lengths(path, field)
    dist, _ = graph.sssp(graph.snap(path.positions[0]))
    verdicts = []
    for i in np.arange(every, len(path.times), every):
        x = path.positions[i]
        z = graph.snap(x)
        offset = np.linalg.norm(graph.node_position(z) - x)
        g = field.values_batch(x[None, :])[0]
        allowance = (offset + 0.5 * graph.h) * np.sqrt(
            float(np.max(np.linalg.eigvalsh(g))))
        d_hat = float(dist[int(graph.node_index(z))])
        verdicts.append(cum[i] <= d_hat * (1.0 + tol) + allowance)
    return np.array(verdicts)


def _minimality_case(name):
    if name == "sphere":
        # past the antipode at Riemannian time pi the checkpoints fail
        sphere = SpherePatchField(radius=1.0)
        return sphere, build_graph(sphere, Box.cube(1.8, 2), 0.05, 16), \
            geodesic_shoot(sphere, (1.0, 0.0), np.array([0.0, 1.0]), T=4.6,
                           step=2e-3)
    field = conformal(5, half_width=6.0)
    return field, build_graph(field, Box.cube(4.0, 2), 0.25, 16), \
        geodesic_shoot(field, (0.1, 0.0), np.array([0.6, 0.8]), T=3.5,
                       step=2e-3, parametrization="euclidean")


@pytest.mark.parametrize("name", ["conformal", "sphere"])
def test_is_minimizing_matches_checkpoint_loop(name):
    field, g, path = _minimality_case(name)
    verdict = is_minimizing(field, path, g, checkpoint_every=25)
    expected = _is_minimizing_loop(field, path, g, verdict.tol, 25)
    assert np.array_equal(verdict.verdicts, expected)
    failed = verdict.checkpoint_times[~expected]
    if len(failed):
        assert verdict.first_failure_time == failed[0]
    else:
        assert np.isnan(verdict.first_failure_time)


def test_witness_length_at_least_distance():
    field = conformal(12, half_width=6.0)
    g = build_graph(field, Box.cube(4.0, 2), 0.25, 16)
    d_hat, witness = distance(g, (0, 0), (3.0, -2.0))
    total = 0.0
    for a, b in zip(witness[:-1], witness[1:]):
        total += g.edge_weight(np.round(a / g.h).astype(int),
                               np.round(b / g.h).astype(int))
    assert total == d_hat


# --------------------------------------------------------------- length ratio

def test_length_ratio_flat_bounds():
    g = build_graph(FLAT, Box.cube(6.0, 2), 0.2, 16)
    r = length_ratio(FLAT, g, (5.0, 0.0))
    assert 1.0 - 0.2 * np.sqrt(2) / 5.0 <= r <= stencil_factor(16)


def test_length_ratio_constant_invariance():
    gf = build_graph(FLAT, Box.cube(6.0, 2), 0.2, 16)
    gc = build_graph(ConstantMetric(4.0 * np.eye(2)), Box.cube(6.0, 2), 0.2, 16)
    x = (4.0, 2.0)
    assert length_ratio(FLAT, gf, x) == length_ratio(ConstantMetric(4 * np.eye(2)), gc, x)


def test_length_ratio_random_stable():
    field = conformal(13, half_width=9.0)
    g = build_graph(field, Box.cube(7.0, 2), 0.25, 16)
    ratios = [length_ratio(field, g, 6.0 * np.array([np.cos(a), np.sin(a)]))
              for a in np.arange(8) * (np.pi / 4)]
    assert max(ratios) < 2.0
    assert min(ratios) >= 1.0 - 0.25 * np.sqrt(2) / 6.0
