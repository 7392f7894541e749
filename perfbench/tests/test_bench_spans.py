"""Self-time arithmetic and aggregation on synthetic span sets."""

import pytest

import spans
from spans import Span


def test_self_time_nested():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    s = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
         Span("a1", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0)]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # children overlapping in [3, 4] and one reaching past the parent's end
    s = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
         Span("b", 3.0, 6.0, 0), Span("c", 8.0, 12.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_parents_and_order():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert [(x.name, x.start, x.end, x.parent) for x in tracer.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


def test_layer_metrics_split_fields_from_consumers():
    # sssp [0, 10] with two field calls of 100 points each, [1, 3] and
    # [4, 5]; a nested evaluate -> evaluate_batch pair counts as one call
    s = [Span("distance.graph_init", -2.0, -1.0, -1, {"nodes": 9, "edges": 50}),
         Span("distance.sssp", 0.0, 10.0, -1),
         Span("fields.conformal_factor_batch", 1.0, 3.0, 1, {"points": 100}),
         Span("fields.conformal_factor_batch", 4.0, 5.0, 1, {"points": 100}),
         Span("fields.evaluate", 11.0, 12.0, -1, {"points": 1}),
         Span("fields.evaluate_batch", 11.2, 11.8, 4, {"points": 1})]
    m = spans.layer_metrics(s)
    assert m["distance.sssp_self_s"] == pytest.approx(7.0)
    assert m["fields.calls"] == 3
    assert m["fields.points"] == 201
    assert m["fields.self_s"] == pytest.approx(4.0)
    assert m["fields.us_per_point"] == pytest.approx(1e6 * 4.0 / 201)
    assert m["distance.field_points_per_edge"] == pytest.approx(200 / 50)
    assert m["distance.graph_init_s"] == pytest.approx(1.0)
    assert set(m) | {"harness.outputs_changed", "trace.overhead_frac"} == set(spans.LAYER_UNITS)


def test_lattice_rng_share_counts_rng_below_lattice_only():
    s = [Span("lattice.fpp_passage", 0.0, 4.0, -1, {"sites": 10}),
         Span("rng.uniform", 1.0, 2.0, 0),
         Span("rng.hash_words", 1.2, 1.7, 1, {"draws": 5}),
         Span("rng.derive_seed", 5.0, 6.0, -1)]
    m = spans.layer_metrics(s)
    assert m["lattice.rng_share"] == pytest.approx(1.0 / 4.0)
    assert m["rng.self_s"] == pytest.approx(2.0)
    assert m["rng.draws"] == 5


def test_installed_wraps_every_binding_and_restores_it():
    import rfpp.distance
    import rfpp.experiments
    import rfpp.fields
    import rfpp.geometry
    shoot = rfpp.geometry.geodesic_shoot_batch
    minimizing = rfpp.distance.is_minimizing
    evaluate = rfpp.fields.MetricField.__dict__["evaluate_batch"]
    assert rfpp.experiments.geodesic_shoot_batch is shoot
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for module in (rfpp.geometry, rfpp.experiments):
            assert module.geodesic_shoot_batch is not shoot
            assert module.geodesic_shoot_batch.__wrapped__ is shoot
        assert rfpp.experiments.is_minimizing.__wrapped__ is minimizing
        assert rfpp.fields.MetricField.__dict__["evaluate_batch"].__wrapped__ is evaluate
    assert rfpp.geometry.geodesic_shoot_batch is shoot
    assert rfpp.experiments.geodesic_shoot_batch is shoot
    assert rfpp.experiments.is_minimizing is minimizing
    assert rfpp.fields.MetricField.__dict__["evaluate_batch"] is evaluate


def test_fpp_sites_count_the_box_the_program_builds():
    from rfpp import lattice
    config = lattice.LatticeConfig(2, 20, lattice.WeightLaw("exponential", (1.0,)), 7)
    # default margin max(8, n // 2) = 10; the box is (6 + 2m + 1) x (2m + 1)
    for margin, box in ((None, 27 * 21), (3, 13 * 7)):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            lattice.fpp_passage(config, (6, 0), margin=margin)
        assert spans.layer_metrics(tracer.spans)["lattice.sites"] == box


def test_wrapper_cost_is_positive_and_small():
    assert 0 < spans.wrapper_cost() < 1e-3
