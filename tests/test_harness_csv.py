import os

import pytest

from rfpp.harness import ExperimentConfig, run

TINY = {
    "distance": {"graph_half_width": 2.0, "h": 0.5, "target": (1.0, 0.0),
                 "ball_radius": 1.5},
    "shape": {"t": 2.0, "h": 0.5, "stencil": 16, "directions": 8},
    "geodesic": {"T": 0.1, "step": 1e-2},
    "frontier": {"T": 0.3, "step": 1e-2},
}


@pytest.mark.parametrize("experiment", sorted(TINY))
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
