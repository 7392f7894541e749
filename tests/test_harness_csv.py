import ast
import os

import numpy as np
import pytest

from rfpp.distance import ShapeEstimate, ball, build_graph, directional_mu
from rfpp.experiments import frontier_scan
from rfpp.fields import Box, FlatMetric, KernelSpec, MetricField
from rfpp.geometry import geodesic_shoot
from rfpp import harness
from rfpp.harness import ConfigError, ExperimentConfig, run

TINY = {
    "distance": {"graph_half_width": 2.0, "h": 0.5, "target": (1.0, 0.0),
                 "ball_radius": 1.5},
    "shape": {"t": 2.0, "h": 0.5, "stencil": 16, "directions": 8},
    "geodesic": {"T": 0.1, "step": 1e-2},
    "frontier": {"T": 0.3, "step": 1e-2},
    # lpp and fpp draw their weights in several sample blocks at these sizes
    "fpp": {"n": 200},
    "lpp": {"n": 200},
    "polymer": {"n": 300},
    # the benchmark's tiny scan: 4 batched conformal geodesics per radius
    "scan": {"radii": (1.0, 2.0), "directions": 4, "h": 0.5},
}


# sha256 of every output file of the TINY runs at seed 3: a change to any
# output byte must update these on purpose
GOLDEN = {
    "distance": {
        "ball.csv": "adeb50b51e6b35bacb41cd12d5a7cffefd0d29bd6ccf6636c0c2561fe62bb0dd",
        "distance.json": "0f48844e0f1565d3df2ceba6c6679b84b5a69c44e23bb053183986bf35b4e447"},
    "frontier": {
        "frontier.csv": "380fe5de82c52f1a39c95f824e8111788297ddeb24ce698be6108493c20c1a5f",
        "frontier.json": "f37180601017e2ba75b90e63d86d4ff730788a22698be38e33353dff5f5ce769"},
    "fpp": {
        "fpp.csv": "05f97ea68d4c0970c942dc95053bae50a10a39b1045ce11c60c7fecdd68b6dc0"},
    "geodesic": {
        "geodesic.csv": "3a57eafaf6acb8cbf83abcf89f94e67e8430b615143f09c5b2c358f34486b122",
        "geodesic.json": "041335d9533f27867b876b513afda93263a7cb3db19c7bf15711e1223ec2960a"},
    "lpp": {
        "lpp.csv": "16c276f025c439fb7659e028646c860eca689b2ca867b7e37ee543703c4a0174"},
    "polymer": {
        "polymer.csv": "5ce28b19a281ad5148cfd6091acd216a7af7c6a86b706e9f5c05d984ff030872"},
    "scan": {
        "scan.json": "ea4ee8d236123698f916641cf864aa544b10968fb412d023200bd8407adc4db4"},
    "shape": {
        "shape.csv": "513806cb276dff1d38f5b12f2137fac47467f1329de226f97b78a3894e2b6fdc",
        "shape.json": "9bd1dc2443428efd71923cc6afe78e779c50cc77e6e1e36acb1dd15c792a5799"},
}


@pytest.mark.parametrize("experiment", sorted(
    e for e in TINY if any(name.endswith(".csv") for name in GOLDEN[e])))
def test_csv_cells_are_plain_numbers(experiment, tmp_path):
    out = str(tmp_path / experiment)
    manifest = run(ExperimentConfig(experiment, TINY[experiment], seed=3, out=out))
    csvs = [name for name in manifest.outputs if name.endswith(".csv")]
    assert csvs
    for name in csvs:
        with open(os.path.join(out, name)) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert rows
        width = len(header.split(","))
        for row in rows:
            cells = row.split(",")
            assert len(cells) == width
            for cell in cells:
                float(cell)


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_output_golden_digests(experiment, tmp_path):
    out = str(tmp_path / experiment)
    manifest = run(ExperimentConfig(experiment, TINY[experiment], seed=3, out=out))
    assert manifest.outputs == GOLDEN[experiment]


def test_run_writes_nothing_when_an_output_exists(tmp_path):
    # distance writes ball.csv and distance.json; the clash is on the second
    out = tmp_path / "distance"
    out.mkdir()
    (out / "distance.json").write_text("kept")
    with pytest.raises(ConfigError, match="distance.json exists"):
        run(ExperimentConfig("distance", TINY["distance"], seed=3, out=str(out)))
    assert os.listdir(out) == ["distance.json"]
    assert (out / "distance.json").read_text() == "kept"


def _writer_texts():
    """csv_text() of each result type, built directly (numpy scalars inside)."""
    field = MetricField("conformal", seed=3, region=Box.cube(4.0, 2),
                        kernel=KernelSpec(range=1.0, amplitude=0.3))
    graph = build_graph(field, Box.cube(2.0, 2), 0.5, stencil=16)
    path = geodesic_shoot(field, (1e-9, 0.0), np.array([1.0, 0.0]), T=0.3,
                          step=1e-2, parametrization="euclidean")
    flat = build_graph(FlatMetric(), Box.cube(3.0, 2), 0.5, stencil=16)
    shape = ShapeEstimate.from_samples([directional_mu(flat, 2.0, 8)] * 2, 2.0)
    return {"GeodesicPath": path.csv_text(),
            "BallRaster": ball(graph, 1.5).csv_text(),
            "FrontierScan": frontier_scan(path, field, beta=0.5, rho=1.0).csv_text(),
            "ShapeEstimate": shape.csv_text()}


def test_writer_cells_are_plain_numbers():
    for name, text in _writer_texts().items():
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        width = len(lines[0].split(","))
        assert len(lines) > 1, name
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells) == width, name
            for cell in cells:
                float(cell)


# cells whose text a writer must not change: signed zero, nan, both
# infinities, subnormals, extremes and values repr shortens
SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 1e300,
                    -1e300, 0.1, 1.0 / 3.0])


def _cell_by_cell(rows):
    """Rows formatted one numpy scalar at a time, repr(float(v)) per cell."""
    return [",".join(repr(float(v)) for v in row) for row in rows]


def test_writers_format_special_values_cell_for_cell():
    from rfpp.distance import BallRaster, _unit_directions
    from rfpp.experiments import FrontierRecord, FrontierScan
    from rfpp.geometry import GeodesicPath
    v = SPECIAL
    cols = [np.roll(v, k) for k in range(4)]
    times = np.array([-0.0, 5e-324, 2.5e-310, 0.1, 1.0 / 3.0, 1.0, 2.0, 3.0,
                      4.0, 1e300])
    path = GeodesicPath(times=times, positions=np.column_stack(cols[:2]),
                        velocities=np.column_stack(cols[2:]),
                        parametrization="euclidean", step=0.5)
    raster = BallRaster(t=1.0, inside=np.column_stack(cols[:2]),
                        boundary=np.zeros((0, 2)), distances=cols[2])
    shape = ShapeEstimate(mu=cols[0], stderr=cols[1], anisotropy_ratio=1.0,
                          t=1.0, replicas=2)
    records = [FrontierRecord(l=a, r=b, r_dot=c, cone_angle=d,
                              is_frontier=bool(i % 2), local_norm=a)
               for i, (a, b, c, d) in enumerate(zip(*cols))]
    scan = FrontierScan(records=records, intervals=[], beta=0.5, density=cols[3])
    expected = {
        "GeodesicPath": _cell_by_cell(np.column_stack([times, *cols])),
        "BallRaster": _cell_by_cell(zip(*cols[:3])),
        "ShapeEstimate": _cell_by_cell(zip(_unit_directions(len(v))[0], *cols[:2])),
        "FrontierScan": [
            ",".join(_cell_by_cell([rec[:4]]) + [str(i % 2)]
                     + _cell_by_cell([(rec[0], rec[3])]))
            for i, rec in enumerate(zip(*cols))]}
    for name, obj in (("GeodesicPath", path), ("BallRaster", raster),
                      ("ShapeEstimate", shape), ("FrontierScan", scan)):
        rows = [ln for ln in obj.csv_text().splitlines()
                if not ln.startswith("#")][1:]
        assert rows == expected[name], name
    text = path.csv_text()
    for cell in ("-0.0", "nan", "inf", "-inf", "5e-324", "2.5e-310", "1e+300"):
        assert cell in text.replace("\n", ",").split(",")


def test_fpp_in_three_dimensions(tmp_path):
    out = str(tmp_path / "fpp")
    manifest = run(ExperimentConfig("fpp", {"dimension": 3, "n": 3}, seed=3,
                                    replicas=2, out=out))
    assert "fpp.csv" in manifest.outputs
    with open(os.path.join(out, "fpp.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "replica,tau"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]
    assert all(float(ln.split(",")[1]) > 0 for ln in lines[1:])


def test_clash_is_refused_before_the_runner_computes(tmp_path, monkeypatch):
    # the distance runner samples its field through make_field first; a
    # clash must raise before it is reached
    out = tmp_path / "distance"
    out.mkdir()
    (out / "ball.csv").write_text("kept")

    def sample(*args):
        raise AssertionError("the runner computed before the clash check")

    monkeypatch.setattr(harness, "make_field", sample)
    with pytest.raises(ConfigError, match="ball.csv exists"):
        run(ExperimentConfig("distance", TINY["distance"], seed=3, out=str(out)))
    assert os.listdir(out) == ["ball.csv"]
    assert (out / "ball.csv").read_text() == "kept"


@pytest.mark.parametrize("experiment,params,names", [
    ("fpp", {"n": 4}, ["fpp.csv"]),
    ("fpp", {"n": 4, "exponents": True}, ["fpp-chi.json", "fpp.csv"]),
    ("lpp", {"exponents": True}, ["lpp-chi.json", "lpp.csv"]),
    ("accept", {}, ["acceptance.json"]),
])
def test_output_paths_follow_the_parameters(experiment, params, names,
                                            tmp_path):
    config = ExperimentConfig(experiment, params, out=str(tmp_path))
    paths = harness.output_paths(config)
    assert list(paths) == names
    assert paths == {n: os.path.join(str(tmp_path), n) for n in names}


def test_shape_digests_do_not_depend_on_the_worker_count(tmp_path):
    digests = []
    for workers in (1, 2):
        out = str(tmp_path / f"workers{workers}")
        manifest = run(ExperimentConfig("shape", TINY["shape"], seed=3,
                                        replicas=2, workers=workers, out=out))
        digests.append(manifest.outputs)
    assert sorted(digests[0]) == ["shape.csv", "shape.json"]
    assert digests[0] == digests[1]


def _parameter_reads():
    """For each module-level function of harness.py: the string keys it
    reads from its parameter dict ``p``, the harness functions it names, and
    whether it reads parameters any other way (``p.get``, ``config.params``)."""
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    keys, names, other = {}, {}, {}
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        keys[name] = {n.slice.value for n in nodes
                      if isinstance(n, ast.Subscript)
                      and isinstance(n.value, ast.Name) and n.value.id == "p"
                      and isinstance(n.slice, ast.Constant)}
        names[name] = {n.id for n in nodes
                       if isinstance(n, ast.Name) and n.id in funcs}
        other[name] = any(isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name)
                          and (n.value.id, n.attr) in (("p", "get"),
                                                       ("config", "params"))
                          for n in nodes)
    return keys, names, other


def test_table_declares_exactly_the_parameters_its_runners_read():
    # a runner, with its replica task and the helpers it reaches, reads its
    # parameters only as p["name"], and those names are its record's
    keys, names, other = _parameter_reads()
    for experiment, spec in harness.EXPERIMENTS.items():
        reached, todo = set(), [spec.runner.__name__]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += names[name]
        assert not [name for name in reached if other[name]], experiment
        read = set().union(*(keys[name] for name in reached))
        assert read == set(spec.params), experiment
