import hashlib
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from rfpp import lattice, rng
from rfpp.lattice import (_SAMPLE_BLOCK, ExponentEstimate, LatticeConfig,
                          LatticeError, WeightLaw, _logaddexp, _logsumexp,
                          _witness_deviation, _witness_tie, bond_matrix,
                          exponent_chi, exponential_law, fpp_passage,
                          geometric_law, lpp_passage, polymer_free_energy,
                          untied_fpp_passage)


# --------------------------------------------------------------- weight laws

def test_law_validation():
    with pytest.raises(LatticeError):
        WeightLaw("exponential", (-1.0,))
    with pytest.raises(LatticeError):
        WeightLaw("power_alpha", (0.5,))
    with pytest.raises(LatticeError):
        WeightLaw("nonsense", ())
    for params, scale in ((("x",), 1.0), ((True,), 1.0), ((None,), 1.0),
                          ((1.0,), "2"), ((1.0,), True)):
        with pytest.raises(LatticeError):
            WeightLaw("exponential", params, scale)
    assert WeightLaw("uniform", (np.int64(0), np.float32(1.0))).random


def test_config_validation():
    law = exponential_law(1.0)
    for dimension, n in ((2.0, 5), (2, 2.5), (2, "5"), (True, 5), (2, True)):
        with pytest.raises(LatticeError):
            LatticeConfig(dimension, n, law, seed=1)
    assert LatticeConfig(np.int64(2), np.int32(5), law, seed=1).n == 5


def test_law_sampling_deterministic_and_quantized():
    law = exponential_law(1.0)
    a = law.sample(5, 0, np.arange(100))
    b = law.sample(5, 0, np.arange(100))
    assert np.array_equal(a, b)
    assert np.all(a * 2.0 ** 30 == np.round(a * 2.0 ** 30))


def test_geometric_law_support_and_mean():
    law = geometric_law(0.5)
    draws = law.sample(7, np.arange(10 ** 5))
    assert np.all(draws >= 0)
    assert np.all(draws == np.floor(draws))
    assert abs(draws.mean() - 1.0) < 0.02        # mean (1-p)/p = 1


# sha256 of WeightLaw.sample for every law over the keys below, computed when
# sample drew every key in one rng.uniform call and quantized through fresh
# temporaries (numpy 2.4.6, x86-64).  The keys cover a scalar key, 1-D keys
# longer than one sample block, an (m, 1) x (1, n) grid whose m is not a
# multiple of the rows per block, a 3-D grid, size-1 words and negative
# coordinates.
SAMPLE_LAWS = (WeightLaw("exponential", (1.5,)), WeightLaw("geometric", (0.3,)),
               WeightLaw("uniform", (0.25, 2.0)),
               WeightLaw("bernoulli", (0.3, 1.0, 2.0), scale=0.5),
               WeightLaw("deterministic", (1.7,), scale=2.0))
SAMPLE_KEYS = ((7, 3, -2),
               (2 ** 40 + 5, np.arange(-35000, 35000)),
               (11, 0, np.arange(300)[:, None], np.arange(-128, 129)[None, :]),
               (12, np.arange(5)[:, None, None], np.arange(-40, 40)[None, :, None],
                np.arange(100)[None, None, :]),
               (-9, np.array([4]), np.arange(-70, 0)[:, None], -np.arange(700)))
SAMPLE_GOLDEN = "c9a422ef1311da39fd0a3993eeb7b531a7b2213978d9c50a1c0e94f21c670ecf"


def test_sample_golden_digest():
    h = hashlib.sha256()
    for law in SAMPLE_LAWS:
        for key in SAMPLE_KEYS:
            h.update(np.ascontiguousarray(law.sample(*key)).tobytes())
    assert h.hexdigest() == SAMPLE_GOLDEN


# sha256 of WeightLaw.sample over SAMPLE_KEYS for a rate and a p other than
# the defaults and every law at two exact binary scales, computed when _fill
# ran each pass of round(w 2^30) 2^-30 scale on its own (numpy 2.4.6,
# x86-64): folding passes must change no bit
SCALED_GOLDEN = {
    ("exponential", (0.75,), 1.0):
        "27fe44f12618075726b3c4ec1c15b0592320968a41473bb3edac610980ac45bb",
    ("geometric", (0.3,), 1.0):
        "868fc4d4f983fb2f284a75bb34c41e5125df0f1b43b2b4235c1c51fe36354420",
    ("exponential", (1.0,), 3.0):
        "13850325607b1dd9ec8dea955a08df67599099ef36f72781f6364e2f47f26796",
    ("geometric", (0.5,), 3.0):
        "eda7d66f2519719daab901c7450b76d35676b4d1b00119d57c760d46d69d5cca",
    ("uniform", (0.0, 1.0), 3.0):
        "f11f304beb023c622f8c8be403ce0d76c8695dff656f8b9fd461d57138d820de",
    ("bernoulli", (0.5, 1.0, 2.0), 3.0):
        "f5bf0edec27c5c83f3b996bead45dc27c81631a7cc829b554d0949a6753c28eb",
    ("deterministic", (1.0,), 3.0):
        "1c38f329e1f925cf220534a4e30b7a74e80e3a5c67a0749bc257ba36b95cd4eb",
    ("exponential", (1.0,), 0.5):
        "edae6ccc31d5f0ab478481f7725602719a602d83ef45082b795dd9649642b054",
    ("geometric", (0.5,), 0.5):
        "7d6510d27041c201839db46fd246293c058a82352d0132f8f4dc961023c6b6a0",
    ("uniform", (0.0, 1.0), 0.5):
        "73dc77ca10f9eb7e9101ca337104fce87c06eff0f5aa2209b7793c294839a98e",
    ("bernoulli", (0.5, 1.0, 2.0), 0.5):
        "da1551f0a298af4424b263363221f23eba34c6dc07854f7d1029ba148c8e1590",
    ("deterministic", (1.0,), 0.5):
        "600929aef4ce5b66510f768666b556b814898b48724c81a26d7d8907d1aa4170",
}


@pytest.mark.parametrize("law", sorted(SCALED_GOLDEN),
                         ids=lambda law: "-".join(map(str, (law[0],) + law[1]))
                         + f"-scale{law[2]}")
def test_sample_golden_digest_per_law(law):
    h = hashlib.sha256()
    for key in SAMPLE_KEYS:
        h.update(np.ascontiguousarray(WeightLaw(*law).sample(*key)).tobytes())
    assert h.hexdigest() == SCALED_GOLDEN[law]


def test_sample_shapes_follow_the_words():
    law = exponential_law(1.0)
    assert np.shape(law.sample(7, 3, -2)) == ()
    grid = law.sample(11, 0, np.arange(300)[:, None], np.arange(257)[None, :])
    assert grid.shape == (300, 257)
    assert np.array_equal(grid[299], law.sample(11, 0, 299, np.arange(257)))
    assert law.sample(3, np.arange(0)[:, None], np.arange(5)).shape == (0, 5)


# --------------------------------------------------------------- FPP

def test_fpp_deterministic_weights_axis():
    cfg = LatticeConfig(2, 10, WeightLaw("deterministic", (2.5,)), seed=1)
    res = fpp_passage(cfg, (10, 0))
    assert res.tau == 25.0
    assert len(res.witness) == 11


def test_fpp_enumeration_oracle_small_box():
    # exhaustive simple-path minimum over the same node box as Dijkstra
    cfg = LatticeConfig(2, 4, exponential_law(1.0), seed=99)
    from rfpp.lattice import _bond_weights

    def weight(a, b):
        axis = 0 if a[0] != b[0] else 1
        lo = min(a, b)
        return float(_bond_weights(cfg, 0, axis,
                                   np.array([lo], dtype=np.int64))[0])

    for replica_target in [(1, 1), (2, 2)]:
        lo_c = (min(0, replica_target[0]) - 1, min(0, replica_target[1]) - 1)
        hi_c = (max(0, replica_target[0]) + 1, max(0, replica_target[1]) + 1)
        best = [np.inf]

        def dfs(node, cost, seen):
            if cost >= best[0]:
                return
            if node == replica_target:
                best[0] = cost
                return
            x, y = node
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if lo_c[0] <= nxt[0] <= hi_c[0] and lo_c[1] <= nxt[1] <= hi_c[1] \
                        and nxt not in seen:
                    dfs(nxt, cost + weight(node, nxt), seen | {nxt})

        dfs((0, 0), 0.0, {(0, 0)})
        got = fpp_passage(cfg, replica_target, margin=1, source=(0, 0)).tau
        assert got == best[0]


def test_fpp_subadditivity_exact():
    cfg = LatticeConfig(2, 20, exponential_law(1.0), seed=7)
    u = rng.uniform(1000, np.arange(300)).reshape(100, 3)
    for t in range(100):
        b = (int(u[t, 0] * 7) - 3, int(u[t, 1] * 7) - 3)
        c = (8, int(u[t, 2] * 5) - 2)
        tac = fpp_passage(cfg, c).tau
        tab = fpp_passage(cfg, b).tau
        tbc = fpp_passage(cfg, c, source=b).tau
        assert tac <= tab + tbc


def test_fpp_scaling_exact():
    base = LatticeConfig(2, 16, exponential_law(1.0), seed=3)
    for c in (2.0, 3.0, 0.5):
        scaled = LatticeConfig(2, 16, WeightLaw("exponential", (1.0,), scale=c),
                               seed=3)
        r1 = fpp_passage(base, (12, 0))
        rc = fpp_passage(scaled, (12, 0))
        assert rc.tau == c * r1.tau
        assert np.array_equal(r1.witness, rc.witness)


# digests of the bond matrices that fpp_passage assembled through COO
# (meshgrid coordinates, scipy coo -> csr; numpy 2.4.6, scipy 1.17.1, x86-64);
# the direct CSR build must reproduce indptr, indices and data bit for bit
GOLDEN_BOND_MATRICES = {
    # fpp_passage(cfg, (12, 0), replica=3): default margin 8
    "2d_default_box": (LatticeConfig(2, 12, exponential_law(1.0), seed=11), 3,
                       (-8, -8), (20, 8),
                       "692996398ee0466a61dfcdd1a8878fc7c5422f9f4a70f52472d5a5870a0cb27f"),
    # fpp_passage(cfg, (4, 0, 0), margin=2)
    "3d_small_box": (LatticeConfig(3, 4, exponential_law(1.0), seed=12), 0,
                     (-2, -2, -2), (6, 2, 2),
                     "04419f856f117b323577b7ec1df39be842b7682acd87f07f20b372637db1f506"),
    # fpp_passage(cfg, (5, 3), margin=0); geometric weights keep explicit zeros
    "margin_0": (LatticeConfig(2, 8, geometric_law(0.5), seed=13), 0,
                 (0, 0), (5, 3),
                 "6cc3a617cb85cb56d4929754be4731ce38b3f3e1eb49f03c6bdaac944f210524"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOND_MATRICES))
def test_bond_matrix_golden_digest(name):
    cfg, replica, lo, hi, expected = GOLDEN_BOND_MATRICES[name]
    mat = bond_matrix(cfg, replica, lo, hi)
    assert mat.has_canonical_format
    h = hashlib.sha256()
    for a in (mat.indptr, mat.indices, mat.data):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == expected


def _slot_table_bond_matrix(config, replica, lo, hi):
    """Reference: the bond matrix assembled from one full-box (nodes, 2d)
    slot table and its mask, compacted in one pass."""
    from scipy.sparse import csr_matrix
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = len(lo)
    shape = tuple(int(k) for k in hi - lo + 1)
    n_nodes = int(np.prod(shape))
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
    return csr_matrix((slots.reshape(n_nodes, 2 * d)[valid], cols[valid],
                       indptr), shape=(n_nodes, n_nodes))


# (law, lo, hi) of the boxes the blocked build must reproduce: 2-D and 3-D,
# one layer thick along axis 0 and along the last axis, a single node, and
# geometric weights, a quarter of them explicit zeros
BLOCKED_BOXES = {
    "2d": (exponential_law(1.0), (-3, -4), (6, 2)),
    "3d": (exponential_law(1.0), (-2, -1, -3), (4, 2, 1)),
    "2d_one_layer_axis0": (exponential_law(1.0), (5, -4), (5, 3)),
    "2d_one_layer_last": (exponential_law(1.0), (-4, 2), (5, 2)),
    "3d_one_layer_axis0": (exponential_law(1.0), (0, -2, -1), (0, 3, 2)),
    "3d_one_layer_last": (exponential_law(1.0), (-3, -2, 7), (4, 1, 7)),
    "single_node": (exponential_law(1.0), (2, -1), (2, -1)),
    "3d_single_node": (exponential_law(1.0), (0, 0, 0), (0, 0, 0)),
    "2d_geometric": (geometric_law(0.5), (-5, -3), (7, 4)),
    "3d_geometric": (geometric_law(0.5), (-2, -2, -2), (4, 1, 2)),
}


@pytest.mark.parametrize("block", [None, 1, 100, 300])
@pytest.mark.parametrize("name", sorted(BLOCKED_BOXES))
def test_blocked_bond_matrix_equals_slot_table(name, block, monkeypatch):
    # a block holds max(1, _SAMPLE_BLOCK // (2d layer)) axis-0 layers: 1 gives
    # one layer per block, 100 splits the 2-D boxes 3 + 3 + 3 + 1 and
    # 3 + 3 + 3 + 3 + 1, 300 the 3-D boxes 2 + 2 + 2 + 1 and the geometric
    # 2-D box 9 + 4, and the default takes each box in one block
    law, lo, hi = BLOCKED_BOXES[name]
    cfg = LatticeConfig(len(lo), 8, law, seed=21)
    if block is not None:
        monkeypatch.setattr(lattice, "_SAMPLE_BLOCK", block)
    mat = bond_matrix(cfg, 2, lo, hi)
    ref = _slot_table_bond_matrix(cfg, 2, lo, hi)
    assert mat.has_canonical_format
    assert mat.shape == ref.shape
    for got, want in ((mat.data, ref.data), (mat.indices, ref.indices),
                      (mat.indptr, ref.indptr)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    if law.kind == "geometric":
        assert np.count_nonzero(mat.data == 0) > 0


def test_bond_matrix_peak_memory_is_a_few_bytes_per_entry():
    # the CSR's 12 bytes per entry (float64 data, int32 indices), indptr and
    # a degree pass over it, and a few block-sized tables; a full-box slot
    # table and its masked copies took 20.0 MiB on this 601 x 301 box
    n = 300
    cfg = LatticeConfig(2, n, exponential_law(1.0), seed=5)
    lo, hi = (-n // 2, -n // 2), (n + n // 2, n // 2)
    tracemalloc.start()
    try:
        mat = bond_matrix(cfg, 0, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * mat.nnz + 8 * mat.shape[0] + 2 * 2 ** 20


def _fpp_unbounded(cfg, target, replica, margin):
    """Reference: tau, witness and tie of a Dijkstra with no bound over the
    bond matrix of the box fpp_passage draws."""
    source = np.zeros(cfg.dimension, dtype=np.int64)
    lo = np.minimum(source, target) - margin
    hi = np.maximum(source, target) + margin
    shape = tuple(hi - lo + 1)
    mat = bond_matrix(cfg, replica, lo, hi)
    src = int(np.ravel_multi_index(tuple(source - lo), shape))
    tgt = int(np.ravel_multi_index(tuple(np.asarray(target) - lo), shape))
    dist, pred = dijkstra(mat, directed=True, indices=src, return_predecessors=True)
    chain = [tgt]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    witness = np.stack(np.unravel_index(chain, shape), axis=1) + lo
    return float(dist[tgt]), witness, _witness_tie(mat, dist, chain)


FPP_BOUND_LAWS = (exponential_law(1.0), geometric_law(0.5),
                  WeightLaw("bernoulli", (0.5, 1.0, 2.0)),
                  WeightLaw("deterministic", (1.0,)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("law", FPP_BOUND_LAWS, ids=lambda law: law.kind)
def test_fpp_bounded_dijkstra_equals_unbounded(d, law, monkeypatch):
    # with a share of 1 every margin above 8 first bounds the Dijkstra by the
    # passage time in the box of margin 8, and margin 8 by that of its own box
    monkeypatch.setattr(lattice, "_NARROW_SHARE", 1)
    n = 20 if d == 2 else 18
    cfg = LatticeConfig(d, n, law, seed=41)
    for target in ((n,) + (0,) * (d - 1), (12, 9, 2)[:d]):
        for replica in range(2):
            bound = fpp_passage(cfg, target, replica=replica, margin=8).tau
            for margin in (4, 8, n // 2):
                got = fpp_passage(cfg, target, replica=replica, margin=margin)
                tau, witness, tie = _fpp_unbounded(cfg, target, replica, margin)
                assert got.tau == tau
                assert got.tie_detected == tie
                if not tie:
                    assert np.array_equal(got.witness, witness)
            assert tau <= bound
            if law.kind == "deterministic":
                # the straight witness lies inside the narrow box
                assert tau == bound == sum(target)


def test_fpp_bound_from_the_narrow_box_can_be_strict(monkeypatch):
    # zero geometric weights let the witness leave the box of margin 8
    monkeypatch.setattr(lattice, "_NARROW_SHARE", 1)
    cfg = LatticeConfig(2, 20, geometric_law(0.5), seed=1)
    full = fpp_passage(cfg, (12, 9), margin=10)
    assert full.tau < fpp_passage(cfg, (12, 9), margin=8).tau
    assert full.tau == _fpp_unbounded(cfg, (12, 9), 0, 10)[0]


def test_fpp_narrow_pass_runs_only_on_boxes_ten_times_larger(monkeypatch):
    boxes = []

    def recording(config, replica, lo, hi):
        boxes.append(int(np.prod(np.asarray(hi) - lo + 1)))
        return bond_matrix(config, replica, lo, hi)

    monkeypatch.setattr(lattice, "bond_matrix", recording)
    law = exponential_law(1.0)
    # default margin n // 2: the box of margin 8 holds 0.1006 of the full
    # box's nodes at n = 99 and 0.0980 at n = 100
    for n, passes in ((99, 1), (100, 2)):
        boxes.clear()
        cfg = LatticeConfig(2, n, law, seed=3)
        got = fpp_passage(cfg, (n, 0))
        assert len(boxes) == passes
        assert got.tau == _fpp_unbounded(cfg, (n, 0), 0, n // 2)[0]
    assert boxes == [(100 + 17) * 17, 201 * 101]
    boxes.clear()
    fpp_passage(LatticeConfig(3, 44, law, seed=3), (44, 0, 0))
    assert boxes == [(44 + 17) * 17 ** 2, 89 * 45 ** 2]


def test_lattice_points_are_validated_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("weights drawn before the points were checked")

    monkeypatch.setattr(rng, "uniform", no_draws)
    cfg2 = LatticeConfig(2, 10, exponential_law(1.0), seed=1)
    cfg3 = LatticeConfig(3, 10, exponential_law(1.0), seed=1)
    calls = [lambda: fpp_passage(cfg2, (3, 0), source=(0,)),
             lambda: fpp_passage(cfg2, (3, 0), source=(0, 0, 0)),
             lambda: fpp_passage(cfg2, (3, 0, 0)),
             lambda: fpp_passage(cfg3, (3, 0)),
             lambda: fpp_passage(cfg3, (3, 0, 0), source=[[0, 0, 0]]),
             lambda: lpp_passage(cfg2, (3, 4, 5)),
             lambda: lpp_passage(cfg2, (3,)),
             lambda: lpp_passage(cfg2, (3, 4), origin=(0,)),
             lambda: lpp_passage(cfg2, (3, 4), origin=(0, 0, 0))]
    for call in calls:
        with pytest.raises(LatticeError, match="must be a point of Z"):
            call()


def test_time_constant_deterministic():
    # every bond costs 1, so tau(0, n e1) = n exactly
    cfg = LatticeConfig(2, 64, WeightLaw("deterministic", (1.0,)), seed=1)
    for n in (8, 16, 32):
        assert fpp_passage(cfg, np.array([n, 0])).tau == n


def test_time_constant_bernoulli_subadditive_trend():
    cfg = LatticeConfig(2, 64, WeightLaw("bernoulli", (0.5, 1.0, 2.0)), seed=5)
    rows = np.array([[fpp_passage(cfg, np.array([n, 0]), replica=r).tau / n
                      for r in range(30)] for n in (8, 16, 32)])
    mu = rows.mean(axis=1)
    assert np.all(mu >= 1.0)
    assert mu[-1] <= mu[0] + 2.0 * rows[0].std(ddof=1) / np.sqrt(30)


def witness_deviation(cfg, n, replica=0):
    """Deviation of the untied witness to n e1 from the axis, in the box
    fpp_passage draws by default."""
    res = untied_fpp_passage(cfg, np.array([n, 0]), replica,
                             margin=max(8, cfg.n // 2))
    return _witness_deviation(res.witness, n)


def test_untied_passage_refuses_a_law_that_always_ties():
    # geometric(1/2) weights tie on every replica at n = 40: the search
    # resampled forever
    cfg = LatticeConfig(2, 40, geometric_law(0.5), seed=3)
    with pytest.raises(LatticeError, match="geometric law"):
        untied_fpp_passage(cfg, np.array([40, 0]), 0, margin=10)


def test_transversal_deviation_cases():
    # straight witness: deviation 0
    cfg = LatticeConfig(2, 10, WeightLaw("uniform", (0.999, 1.0)), seed=2)
    assert witness_deviation(cfg, 8) == 0.0
    # a hand-built witness through (k, 1) has deviation exactly 1
    witness = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [3, 0]])
    assert _witness_deviation(witness, 3) == 1.0


def test_superdiffusive_trend():
    cfg = LatticeConfig(2, 128, exponential_law(1.0), seed=11)
    means = []
    for n in (16, 32, 64):
        devs = [witness_deviation(cfg, n, replica=r) for r in range(30)]
        means.append(np.mean(devs))
    assert means[0] < means[1] < means[2]


# --------------------------------------------------------------- LPP

def test_lpp_two_path_example():
    # 1 x 1 square: tau = max(right@origin + up@(1,0), up@origin + right@(0,1))
    cfg = LatticeConfig(2, 4, geometric_law(0.5), seed=17)
    from rfpp.lattice import _bond_weights
    right0 = float(_bond_weights(cfg, 0, 0, np.array([[0, 0]]))[0])
    up10 = float(_bond_weights(cfg, 0, 1, np.array([[1, 0]]))[0])
    up00 = float(_bond_weights(cfg, 0, 1, np.array([[0, 0]]))[0])
    right01 = float(_bond_weights(cfg, 0, 0, np.array([[0, 1]]))[0])
    assert lpp_passage(cfg, (1, 1)) == max(right0 + up10, up00 + right01)


def test_lpp_deterministic():
    cfg = LatticeConfig(2, 10, WeightLaw("deterministic", (1.5,)), seed=1)
    assert lpp_passage(cfg, (4, 6)) == 1.5 * 10


def test_lpp_enumeration_4x4():
    cfg = LatticeConfig(2, 8, geometric_law(0.5), seed=23)
    for r in range(5):
        best = -np.inf
        for rights in combinations(range(8), 4):
            x = y = 0
            tot = 0.0
            for s in range(8):
                if s in rights:
                    tot += float(cfg.law.sample(cfg.seed, r, 0, x, y))
                    x += 1
                else:
                    tot += float(cfg.law.sample(cfg.seed, r, 1, x, y))
                    y += 1
            best = max(best, tot)
        assert lpp_passage(cfg, (4, 4), replica=r) == best


def _lpp_antidiagonal(config, target, origin=(0, 0), replica=0):
    """Reference: the recursion T(z) = max(T(z - e1) + wR, T(z - e2) + wU)
    evaluated one anti-diagonal at a time on the full table."""
    ox, oy = origin
    m, n = target[0] - ox, target[1] - oy
    ii, jj = np.arange(ox, ox + m), np.arange(oy, oy + n + 1)
    wR = (config.law.sample(config.seed, replica, 0, ii[:, None], jj[None, :])
          if m else np.zeros((0, n + 1)))
    ii, jj = np.arange(ox, ox + m + 1), np.arange(oy, oy + n)
    wU = (config.law.sample(config.seed, replica, 1, ii[:, None], jj[None, :])
          if n else np.zeros((m + 1, 0)))
    T = np.full((m + 1, n + 1), -np.inf)
    T[0, 0] = 0.0
    for k in range(1, m + n + 1):
        i = np.arange(max(0, k - n), min(m, k) + 1)
        j = k - i
        best = np.full(len(i), -np.inf)
        left = i >= 1
        best[left] = T[i[left] - 1, j[left]] + wR[i[left] - 1, j[left]]
        below = j >= 1
        best[below] = np.maximum(best[below],
                                 T[i[below], j[below] - 1] + wU[i[below], j[below] - 1])
        T[i, j] = best
    return float(T[m, n])


@pytest.mark.parametrize("law", [geometric_law(0.5), exponential_law(1.0),
                                 WeightLaw("uniform", (0.5, 2.0)),
                                 WeightLaw("bernoulli", (0.3, 1.0, 2.0))],
                         ids=lambda law: law.kind)
def test_lpp_row_scan_equals_antidiagonal_recursion(law):
    cfg = LatticeConfig(2, 60, law, seed=31)
    cases = [((0, 0), (37, 41)), ((3, -5), (40, 9)), ((-7, 2), (-7, 30)),
             ((4, 4), (25, 4)), ((2, -3), (2, -3)), ((0, 0), (60, 60))]
    for origin, target in cases:
        for r in range(2):
            assert (lpp_passage(cfg, target, origin=origin, replica=r)
                    == _lpp_antidiagonal(cfg, target, origin=origin, replica=r))


def _lpp_full_tables(config, target, origin=(0, 0), replica=0):
    """Reference: lpp_passage's row scan over both weight tables drawn in
    full, folded in place before the scan."""
    ox, oy = origin
    m, n = target[0] - ox, target[1] - oy
    ii, jj = np.arange(ox, ox + m), np.arange(oy, oy + n + 1)
    wR = config.law.sample(config.seed, replica, 0, ii[:, None], jj[None, :])
    ii, jj = np.arange(ox, ox + m + 1), np.arange(oy, oy + n)
    wU = config.law.sample(config.seed, replica, 1, ii[:, None], jj[None, :])
    np.cumsum(wU, axis=1, out=wU)
    wR[:, 1:] -= wU[1:]
    T = np.zeros(n + 1)
    T[1:] = wU[0]
    for i in range(1, m + 1):
        T += wR[i - 1]
        np.maximum.accumulate(T, out=T)
        T[1:] += wU[i]
    return float(T[n])


def _lpp_block_cases():
    """(origin, target) pairs around lpp_passage's row blocks: m on either
    side of the rows per block and of twice that, widths whose n + 1 does
    not divide the block, divides it exactly and exceeds it, m = 0 and 1,
    n = 0, and non-zero origins."""
    cases = []
    for n in (3000, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 5):
        rows = max(1, _SAMPLE_BLOCK // (n + 1))
        for m in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1}):
            cases.append(((0, 0), (m, n)))
    cases += [((0, 0), (70, 0)), ((5, -9), (5, 40)), ((-3, 11), (12, 3011)),
              ((4, -2), (4 + 2 * (_SAMPLE_BLOCK // 1001) + 1, 998))]
    return cases


@pytest.mark.parametrize("law", [geometric_law(0.5), exponential_law(1.0)],
                         ids=lambda law: law.kind)
def test_lpp_row_blocks_equal_full_tables(law):
    cfg = LatticeConfig(2, 100, law, seed=41)
    for origin, target in _lpp_block_cases():
        assert (lpp_passage(cfg, target, origin=origin, replica=3)
                == _lpp_full_tables(cfg, target, origin=origin, replica=3))


def test_lpp_memory_stays_within_a_few_blocks():
    # the peak is a few sample blocks of weights and their temporaries plus
    # the O(n) row, not the two (n + 1) x n weight tables (61.6 MiB at
    # n = 2000)
    n = 2000
    cfg = LatticeConfig(2, n, geometric_law(0.5), seed=5)
    tracemalloc.start()
    try:
        lpp_passage(cfg, (n, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (4 * (n + 1) + 8 * _SAMPLE_BLOCK)


def test_lpp_superadditivity_exact():
    cfg = LatticeConfig(2, 40, geometric_law(0.5), seed=29)
    u = rng.uniform(3000, np.arange(400)).reshape(100, 4)
    for t in range(100):
        z = (1 + int(u[t, 0] * 10), 1 + int(u[t, 1] * 10))
        zz = (z[0] + 1 + int(u[t, 2] * 10), z[1] + 1 + int(u[t, 3] * 10))
        assert lpp_passage(cfg, zz) >= lpp_passage(cfg, z) \
            + lpp_passage(cfg, zz, origin=z)


# --------------------------------------------------------------- exponents

def test_exponent_requires_fluctuations():
    cfg = LatticeConfig(2, 32, WeightLaw("deterministic", (1.0,)), seed=1)
    with pytest.raises(LatticeError):
        exponent_chi("fpp", cfg, sizes=(8, 12, 16, 24), replicas=100)


def test_exponent_estimate_validation():
    with pytest.raises(LatticeError):
        ExponentEstimate(name="chi", estimate=0.3, halfwidth=0.0, stderr=0.0,
                         sizes=(1, 2, 3, 4), statistics=(1, 2, 3, 4),
                         slope=0.6, r_squared=0.9)
    with pytest.raises(LatticeError):
        ExponentEstimate(name="chi", estimate=0.3, halfwidth=0.1, stderr=0.05,
                         sizes=(4, 2, 3, 1), statistics=(1, 2, 3, 4),
                         slope=0.6, r_squared=0.9)


def test_kesten_band_fpp_small():
    # quick sanity at small sizes: fitted chi below the 1/2 + 0.1 band
    cfg = LatticeConfig(2, 48, exponential_law(1.0), seed=31)
    est = exponent_chi("fpp", cfg, sizes=(12, 18, 27, 40), replicas=100)
    assert est.estimate <= 0.5 + 0.1


# --------------------------------------------------------------- polymer

def test_polymer_zero_environment():
    res = polymer_free_energy(1, 12, 2.0, eta=lambda j, xs: np.zeros(len(xs)))
    assert abs(res.log_z) <= 1e-12
    assert abs(res.free_energy) <= 1e-12


def test_polymer_brute_force_n2():
    seed, beta = 11, 1.3
    res = polymer_free_energy(seed, 2, beta)
    total = 0.0
    for steps in product((-1, 1), repeat=2):
        x = 0
        energy = 0.0
        for j, s in enumerate(steps, start=1):
            x += s
            energy += float(rng.normal(seed, j, x))
        total += 0.25 * np.exp(beta * energy)
    assert abs(res.log_z - np.log(total)) <= 1e-12


def test_polymer_zero_temperature_limit():
    # beta large: free energy approaches the ground-state energy; the residual
    # n log 2 / beta entropy of the walk measure dictates the tolerance
    seed, n, beta = 42, 10, 1e4
    best = -np.inf
    for steps in product((-1, 1), repeat=n):
        x = 0
        tot = 0.0
        for j, s in enumerate(steps, start=1):
            x += s
            tot += float(rng.normal(seed, j, x))
        best = max(best, tot)
    res = polymer_free_energy(seed, n, beta)
    assert abs(res.free_energy - (-best)) <= 1e-3


def test_polymer_monotone_in_environment():
    # raising a single eta value raises Z, hence lowers F
    seed, n, beta = 3, 6, 0.8
    bump_site = (3, 1)

    def eta_plus(delta):
        def eta(j, xs):
            base = rng.normal(seed, j, xs)
            if j == bump_site[0]:
                base = base + delta * (np.asarray(xs) == bump_site[1])
            return base
        return eta

    f0 = polymer_free_energy(seed, n, beta, eta=eta_plus(0.0)).free_energy
    f1 = polymer_free_energy(seed, n, beta, eta=eta_plus(0.5)).free_energy
    assert f1 < f0


def test_logaddexp_matches_numpy():
    # measured on 2^22 pairs per kind: at most 1 ulp of max(|result|, 1)
    # from np.logaddexp (the log1p term lies in [0, log 2], so its last-bit
    # difference is an absolute 2^-53 or less, which cancellation in M + it
    # can make many ulps of a result near 0)
    u = rng.uniform(61, np.arange(4 << 16)).reshape(4, -1)
    a = np.where(u[2] < 0.5, -1.0, 1.0) * 10.0 ** (-3 + 7 * u[0])
    for b in (np.where(u[3] < 0.5, -1.0, 1.0) * 10.0 ** (-3 + 7 * u[1]),
              a + (u[1] - 0.5) * 1e-2, -a + (u[1] - 0.5)):
        ref = np.logaddexp(a, b)
        got = _logaddexp(a, b, np.empty(len(a)), np.empty(len(a)))
        assert np.all(np.abs(got - ref) <= np.spacing(np.maximum(np.abs(ref), 1.0)))
    # exact: equal inputs (a + log 2), -inf on either side, infinite pairs
    x = np.concatenate([a, -a, [np.inf, -np.inf, np.inf, -np.inf, 1.0]])
    y = np.concatenate([a, np.full(len(a), -np.inf),
                        [np.inf, -np.inf, -np.inf, np.inf, np.inf]])
    with np.errstate(invalid="ignore"):
        for p, q in ((x, y), (y, x)):
            got = _logaddexp(p, q, np.empty(len(p)), np.empty(len(p)))
            assert np.array_equal(got, np.logaddexp(p, q))
    # the output may be one of the inputs
    b = a[::-1].copy()
    ref = _logaddexp(a, b, np.empty(len(a)), np.empty(len(a)))
    assert np.array_equal(_logaddexp(a, b, b, np.empty(len(a))), ref)


def _polymer_rowwise(seed, n, beta, eta=None):
    """Reference: the transfer recursion one time step at a time, with one
    environment call per row, through the same log-sum-exp as the library
    (test_logaddexp_matches_numpy pins it against np.logaddexp)."""
    from scipy.special import logsumexp
    if eta is None:
        def eta(j, xs):
            return rng.normal(seed, j, xs)
    L = np.array([0.0])
    for j in range(1, n + 1):
        xs = np.arange(-j, j + 1, 2)
        left = np.full(len(xs), -np.inf)
        right = np.full(len(xs), -np.inf)
        left[1:] = L
        right[:-1] = L
        L = (_logaddexp(left, right, np.empty(len(xs)), np.empty(len(xs)))
             + np.log(0.5) + beta * np.asarray(eta(j, xs), dtype=float))
    return float(logsumexp(L))


# blocks of at most 2^14 sites end at times 127, 206, 267, ..., 689, 711
@pytest.mark.parametrize("n", [1, 63, 64, 65, 126, 127, 128, 200, 206, 207,
                               208, 267, 268, 711, 712])
def test_polymer_blocked_equals_rowwise(n):
    for seed in (5, 901):
        assert polymer_free_energy(seed, n, 0.7).log_z == _polymer_rowwise(seed, n, 0.7)
    calls, oracle_calls = [], []

    def recording(log):
        def eta(j, xs):
            log.append((j, xs.tolist()))
            return np.sin(0.37 * j + 0.11 * xs)
        return eta

    got = polymer_free_energy(7, n, 1.3, eta=recording(calls)).log_z
    assert got == _polymer_rowwise(7, n, 1.3, eta=recording(oracle_calls))
    assert calls == oracle_calls


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp
    u = rng.uniform(77, np.arange(3 * 4000)).reshape(3, -1)
    z = rng.normal(78, np.arange(4000))
    inputs = []
    for k in range(300):
        n = 1 + int(u[0, k] * (2500 if k % 10 == 0 else 60))
        a = z[:n] * 10.0 ** (6 * u[1, k] - 3)
        if k % 4 == 1:                   # tied maxima
            a[::3] = a.max()
        elif k % 4 == 2:                 # -inf entries
            a[1::2] = -np.inf
        elif k % 4 == 3:                 # many ties
            a = np.round(a)
        inputs.append(a)
    inputs += [np.array(v) for v in (
        [-np.inf] * 3, [np.inf, 1.0], [np.inf, np.inf], [np.nan, 1.0],
        [1e308, 1e308], [-np.inf, np.inf], [1e308, -1e308], [0.0],
        [-800.0, -801.0], [710.0, 709.0])]
    # equal bits and equal warnings: SciPy silences log(0) where a NaN
    # maximum has no tied entry, and warns of the overflow of 1e308 - -1e308
    for a in inputs:
        got, want = (_with_warnings(f, a) for f in (_logsumexp, logsumexp))
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1] == want[1]


def _with_warnings(f, a):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(a)
    return value, [str(w.message) for w in caught]


def test_polymer_keeps_the_environments_warnings():
    # the log-sum-exp silences its own invalid-value flag, not the caller's
    with pytest.warns(RuntimeWarning, match="invalid value"):
        polymer_free_energy(1, 3, 1.0, eta=lambda j, xs: np.sqrt(xs - 0.5 * j))


def test_polymer_validation():
    with pytest.raises(LatticeError):
        polymer_free_energy(1, 5, 0.0)
    with pytest.raises(LatticeError):
        polymer_free_energy(1, 0, 1.0)
    for n, beta in ((2.5, 1.0), ("5", 1.0), (True, 1.0), (5, "x"), (5, True),
                    (5, float("nan"))):
        with pytest.raises(LatticeError):
            polymer_free_energy(1, n, beta)
    assert (polymer_free_energy(1, np.int64(5), np.float32(0.5)).log_z
            == polymer_free_energy(1, 5, float(np.float32(0.5))).log_z)
