"""Smoke runs of every workload at tiny sizes, repeatable counts, and the
refusal to run without rfpp sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import spans
import workloads

COUNTS = ("rng.draws", "fields.points", "distance.edges", "geometry.rk_steps",
          "lattice.sites")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(workload):
    result, notes = bench.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"], notes["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload].tasks)
    metrics = result["metrics"]
    assert set(metrics) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(workload):
    first, _ = bench.measure(workload, seed=5, seconds=0, trace=True, tiny=True)
    second, _ = bench.measure(workload, seed=5, seconds=0, trace=True, tiny=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(spans.LAYER_UNITS)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["rng.draws"]["value"] > 0
    assert first["metrics"]["trace.overhead_frac"]["value"] > 0


def test_traced_counts_cover_each_layer():
    m = {}
    for workload in ("graph", "geodesic", "lattice"):
        result, _ = bench.measure(workload, seed=5, seconds=0, trace=True, tiny=True)
        m.update({k: v["value"] for k, v in result["metrics"].items() if v["value"]})
    for name in COUNTS + ("fields.calls", "distance.sssp_calls",
                          "geometry.jacobi_samples", "harness.bytes_written"):
        assert m.get(name, 0) > 0, name


def test_reference_mismatch_fails_the_task():
    task = workloads.tasks("lattice", workloads.DEFAULT_SEED)[0]
    summary = {"values": [1.0, 2.0], "replica_index": [0, 1]}
    entry = workloads.reference_entry(task, summary, {"fpp.csv": "abc"})
    assert workloads.reference_problems(task, summary, {"fpp.csv": "abc"}, entry) == ([], 0)
    moved = {"values": [1.0, 2.0 + 1e-9], "replica_index": [0, 1]}
    bad, changed = workloads.reference_problems(task, moved, {"fpp.csv": "xyz"}, entry)
    assert bad and changed == 1
    other = workloads.tasks("lattice", workloads.DEFAULT_SEED + 1)[0]
    assert workloads.reference_problems(other, moved, {}, entry) == ([], 0)


def test_stored_reference_matches_task_lists():
    with open(workloads.REFERENCE_PATH) as fh:
        stored = json.load(fh)
    assert stored["seed"] == workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        entries = stored["workloads"][name]
        task_list = workloads.tasks(name, workloads.DEFAULT_SEED)
        assert [e["seed"] for e in entries] == [t.seed for t in task_list]
        assert [e["params"] for e in entries] == [
            json.loads(json.dumps(t.params)) for t in task_list]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(workloads.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
