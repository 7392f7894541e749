"""Regenerate perfbench/reference.json: the checked output values and file
digests of every workload's task list at the reference seed.

    python3 perfbench/make_reference.py

Run it only when a change to rfpp is meant to change outputs, and say in
the change which values moved and why.  Each value is stored with the
tolerance listed in workloads.TOLERANCES.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench
    import workloads
    from rfpp import harness

    out = {"seed": workloads.DEFAULT_SEED, "fingerprint": bench.fingerprint(),
           "workloads": {}}
    os.makedirs(bench.SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=bench.SCRATCH)
    try:
        for name in workloads.WORKLOADS:
            entries = []
            for i, task in enumerate(workloads.tasks(name, workloads.DEFAULT_SEED)):
                target = os.path.join(scratch, f"{name}-{i}")
                manifest = harness.run(harness.ExperimentConfig(
                    experiment=task.experiment, params=task.params, seed=task.seed,
                    replicas=task.replicas, workers=1, out=target), force=True)
                summary = workloads.summarize(task.experiment, target)
                problems = workloads.invariant_problems(task, summary)
                if problems:
                    raise SystemExit(f"{name} task {i}: {problems}")
                entries.append(workloads.reference_entry(task, summary, manifest.outputs))
                print(f"{name} task {i} ({task.experiment}) recorded")
            out["workloads"][name] = entries
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(bench.SCRATCH)
        except OSError:
            pass
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
