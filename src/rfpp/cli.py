"""Command-line entry point: rfpp <experiment> [options].

The experiments, and the parameters each one reads, are the records of
harness.EXPERIMENTS.  A JSON config file (--config) provides the experiment
parameters; flags override individual fields.  A parameter the experiment
does not read, flag or config key, is refused before anything runs.
Outputs (CSV/JSON plus manifest.json) land in --out.  The worker count is
--workers, else the config's "workers", else RFPP_WORKERS, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run


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
                        help="acceptance suite to run")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
    # flags that set the parameter of their own name
    for key in ("law", "n", "suite", "load_field", "save_field"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)

    try:
        config = ExperimentConfig(experiment=args.experiment, params=params,
                                  seed=seed, replicas=replicas,
                                  workers=workers, out=out)
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
