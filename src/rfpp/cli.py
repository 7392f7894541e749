"""Command-line entry point: rfpp <experiment> [options].

The experiments, and the parameters each one reads, are the records of
harness.EXPERIMENTS.  A JSON config file (--config) holds one object with
any of the keys params (an object of experiment parameters), seed,
replicas, workers and out; flags override individual fields.  Each
parameter has the kind its record declares next to its default: a finite
real number with a bound, an integer >= 1, a bool, one of a set of values,
a point of the plane, a list of reals or integers, a path or an existing
file, or None where the default is None.  A config file of another shape, a
parameter the experiment does not read or a value not of its kind is
refused before anything runs, with one error line and exit code 2.
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


CONFIG_KEYS = ("params", "seed", "replicas", "workers", "out")


def _read_config(path):
    """The object of the config file at path: ConfigError unless it is JSON,
    an object of CONFIG_KEYS only, and its params an object."""
    if not os.path.isfile(path):
        raise ConfigError(f"--config file not found: {path}")
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"--config {path} is not JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"--config must hold a JSON object, not "
                          f"{type(loaded).__name__}")
    unknown = [key for key in loaded if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"--config has no key {', '.join(map(repr, unknown))}; "
                          f"its keys are: {', '.join(CONFIG_KEYS)}")
    if not isinstance(loaded.get("params", {}), dict):
        raise ConfigError(f"params must be a JSON object, not {loaded['params']!r}")
    return loaded


def _config(args):
    """The ExperimentConfig of the parsed command line: each field is its
    flag, else the config file's value, else its default."""
    loaded = _read_config(args.config) if args.config else {}
    params = dict(loaded.get("params", {}))
    # flags that set the parameter of their own name
    for key in ("law", "n", "suite", "load_field", "save_field"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    fields = {"seed": 1, "replicas": 1, "workers": None,
              "out": os.path.join("out", args.experiment)}
    for name, default in fields.items():
        flag = getattr(args, name)
        fields[name] = loaded.get(name, default) if flag is None else flag
    if fields["workers"] is None:
        env = os.environ.get("RFPP_WORKERS", "1")
        try:
            fields["workers"] = int(env)
        except ValueError:
            raise ConfigError(f"RFPP_WORKERS must be an integer, "
                              f"not {env!r}") from None
    return ExperimentConfig(args.experiment, params, **fields)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
        manifest = run(config, force=args.force)
    except ValueError as exc:       # a ConfigError, or a library's refusal
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest.outputs)} output file(s) to {config.out} "
          f"({manifest.wall_time_s:.1f}s)")
    for name, digest in sorted(manifest.outputs.items()):
        print(f"  {name}  sha256:{digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
