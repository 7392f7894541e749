"""Command-line entry point: rfpp <experiment> [options].

Experiments: field-check geodesic distance shape frontier bump scan
fpp lpp polymer accept.

A JSON config file (--config) provides the experiment parameters; flags
override individual fields.  Outputs (CSV/JSON plus manifest.json) land in
--out.  The worker count is --workers, else the config's "workers", else
RFPP_WORKERS, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (EXPERIMENTS, ConfigError, ExperimentConfig,
                      output_paths, run)

# the experiments that evaluate make_field(--seed, params), the field that
# --save-field writes and --load-field replaces
FIELD_EXPERIMENTS = ("geodesic", "distance", "frontier")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rfpp",
        description="Simulation laboratory for first-passage percolation in "
                    "random Riemannian metrics and on lattices.")
    parser.add_argument("experiment", help="one of: " + ", ".join(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file with a params object")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the config's "
                             "workers, else RFPP_WORKERS, else 1)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    parser.add_argument("--save-field", metavar="PATH",
                        help="persist the sampled metric field")
    parser.add_argument("--load-field", metavar="PATH",
                        help="load a persisted metric field container")
    # common lattice conveniences
    parser.add_argument("--law", help="weight law kind (exponential, geometric, "
                                      "uniform, bernoulli, deterministic)")
    parser.add_argument("--n", type=int, help="principal lattice size")
    parser.add_argument("--suite", choices=("fast", "full"),
                        help="acceptance suite to run (accept experiment)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}; valid names: "
              + ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2
    for flag, path in (("--save-field", args.save_field),
                       ("--load-field", args.load_field)):
        if path and args.experiment not in FIELD_EXPERIMENTS:
            print(f"error: {flag} applies only to the experiments that use "
                  f"the field of --seed: {', '.join(FIELD_EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
    for flag, path in (("--config", args.config), ("--load-field", args.load_field)):
        if path and not os.path.isfile(path):
            print(f"error: {flag} file not found: {path}", file=sys.stderr)
            return 2
    params = {}
    seed, replicas, workers, out = 1, 1, None, None
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        params = dict(loaded.get("params", {}))
        seed = loaded.get("seed", seed)
        replicas = loaded.get("replicas", replicas)
        workers = loaded.get("workers", workers)
        out = loaded.get("out", out)
    if args.seed is not None:
        seed = args.seed
    if args.replicas is not None:
        replicas = args.replicas
    if args.workers is not None:
        workers = args.workers
    if workers is None:
        env = os.environ.get("RFPP_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            print(f"error: RFPP_WORKERS must be an integer, not {env!r}",
                  file=sys.stderr)
            return 2
    if args.out is not None:
        out = args.out
    if out is None:
        out = os.path.join("out", args.experiment)
    if args.law:
        params["law"] = args.law
    if args.n is not None:
        params["n"] = args.n
    if args.suite:
        params["suite"] = args.suite
    if args.load_field:
        params["load_field"] = args.load_field
    if args.save_field:
        params["save_field"] = args.save_field

    try:
        config = ExperimentConfig(experiment=args.experiment, params=params,
                                  seed=seed, replicas=replicas,
                                  workers=workers, out=out)
        if args.save_field:
            output_paths(config, args.force)
            from .fields import save_field
            from .harness import make_field
            os.makedirs(out, exist_ok=True)
            save_field(make_field(seed, params), args.save_field)
        manifest = run(config, force=args.force)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest.outputs)} output file(s) to {out} "
          f"({manifest.wall_time_s:.1f}s)")
    for name, digest in sorted(manifest.outputs.items()):
        print(f"  {name}  sha256:{digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
