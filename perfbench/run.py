"""Benchmark entry point for the rfpp laboratory.

    python3 perfbench/run.py --workload graph --seed 1 --seconds 28 --trace 0

Runs one workload (see perfbench/README.md) from the root of a checkout.
With ``--trace 0`` it reports the end-to-end metrics (wall_s, cpu_s,
setup_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics of a traced
repetition.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
machine and version fingerprint.  Exits with code 2, printing no result,
when the checkout holds no rfpp sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rfpp", "__init__.py")):
        print(f"error: no rfpp sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    result, notes = bench.measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for index, experiment, problems in notes.pop("problems"):
        for problem in problems:
            print(f"FAILED task {index} ({experiment}): {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print("notes " + json.dumps(notes))
    print("fingerprint " + json.dumps(bench.fingerprint()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
