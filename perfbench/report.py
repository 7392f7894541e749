"""Run every workload, print each metric with its unit, and optionally save
the result set as a BENCH file.

    python3 perfbench/report.py --runs 10 --out perfbench/results/BENCH_<label>.json

For each workload in BENCHMARK.json: ``--runs`` untraced runs of run.py with
seeds DEFAULT_SEED, DEFAULT_SEED + 1, ... and one traced run at DEFAULT_SEED,
the seed whose outputs are also checked against reference.json.  The
end-to-end table gives the median, quartiles and run count of every metric,
and the spread (q3 - q1) / median next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """(result, notes, fingerprint) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    return (json.loads(lines[-1]), json.loads(lines[-3].split(" ", 1)[1]),
            json.loads(lines[-2].split(" ", 1)[1]))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the result set to this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    raw = {w: [] for w in names}
    fingerprint = None
    for r in range(args.runs):
        for w in names:
            seed = DEFAULT_SEED + r
            result, notes, fingerprint = run_once(w, seed, spec["run_seconds"], 0)
            raw[w].append({"seed": seed, "result": result, "notes": notes})
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" failed={result['failed']}/{result['attempted']}", flush=True)

    report = {"fingerprint": fingerprint, "benchmark": spec, "workloads": {}}
    for w in names:
        runs = raw[w]
        failed = sum(x["result"]["failed"] for x in runs)
        attempted = sum(x["result"]["attempted"] for x in runs)
        table = {}
        print(f"\n== {w}: {len(runs)} runs, failed_frac {failed}/{attempted}")
        print(f"{'metric':16s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'n':>3s} {'spread':>7s} {'bound':>6s}")
        for name, m in bounds.items():
            s = summarize([x["result"]["metrics"][name]["value"] for x in runs])
            table[name] = dict(s, unit=m["unit"], bound=m["bound"])
            flag = "" if s["spread"] <= m["bound"] / 3 else "  > bound/3"
            print(f"{name:16s} {m['unit']:5s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {s['n']:3d} {s['spread']:7.3f} {m['bound']:6.3f}{flag}")
        entry = {"end_to_end": table, "failed": failed, "attempted": attempted,
                 "runs": runs}
        result, notes, _ = run_once(w, DEFAULT_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {"seed": DEFAULT_SEED, "result": result, "notes": notes}
        print(f"-- {w} per layer (traced, seed {DEFAULT_SEED}, "
              f"failed {result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            if m["value"]:
                print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
        report["workloads"][w] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
