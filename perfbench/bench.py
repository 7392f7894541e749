"""Measurement core: set-up timing, repeated task lists, traced runs.

Each repetition runs a workload's task list in this process through
``rfpp.harness.run`` with one worker, as ``rfpp <experiment>`` does, writes
outputs into a scratch directory inside the checkout, checks them and
deletes them.  Timings cover only the ``harness.run`` calls.

The benchmark shares its machine with other tenants: in one five-minute
window the same task ran anywhere from 1x to 2x its fastest time, in spells
of seconds to minutes, and CPU time followed wall time.  Every measured
interval is therefore paired with a fixed probe computation timed just
before and just after it, and reported as

    seconds * Probe.REFERENCE_S / mean(probe before, probe after)

that is, in seconds at the probe speed of the reference machine.  The raw
seconds are kept in the notes of every run.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SETUP_REPEATS = 7

# a fresh interpreter times the imports a workload needs, scipy included
_SETUP_CODE = ("import importlib, sys, time\n"
               "t0 = time.perf_counter()\n"
               "for name in sys.argv[1:]:\n"
               "    importlib.import_module(name)\n"
               "print(repr(time.perf_counter() - t0))\n")


class Probe:
    """A fixed computation whose time tracks the machine's current speed.

    It mixes the three kinds of work the workloads do: small-batch gathers
    and kernel sums dominated by per-call overhead, large-batch array
    arithmetic, and 64-bit integer hashing.  It uses numpy only, so no
    change to rfpp can change it.
    """

    REFERENCE_S = 0.0400     # fast-mode probe time on the reference machine

    def __init__(self):
        rng = np.random.default_rng(20110801)
        self._grid = rng.standard_normal((200, 200))
        self._points = rng.uniform(-5.0, 5.0, (8, 2))
        axes = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij")
        self._offsets = np.stack(axes, axis=-1).reshape(-1, 2)
        self._big = rng.standard_normal((4000, 81, 2))
        self._words = rng.integers(0, 2 ** 62, 200000).astype(np.uint64)

    def time(self):
        t0 = time.perf_counter()
        for _ in range(240):
            cell = np.floor(self._points / 0.25).astype(np.int64)
            idx = cell[:, None, :] + self._offsets[None] + 100
            coeff = self._grid[idx[..., 0], idx[..., 1]]
            dx = self._points[:, None, :] - idx * 0.25
            u = np.einsum("bki,bki->bk", dx, dx)
            inside = u < 1.0
            psi = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - u, 1.0)), 0.0)
            np.einsum("bk,bk->b", psi, coeff)
        for _ in range(8):
            np.exp(-np.einsum("bki,bki->bk", self._big, self._big)).sum()
        z = self._words
        with np.errstate(over="ignore"):
            for _ in range(8):
                z = (z ^ (z >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        return time.perf_counter() - t0

    def scale(self, before, after):
        return self.REFERENCE_S / (0.5 * (before + after))


def child_env():
    """Environment of every process the benchmark starts: one BLAS thread,
    rfpp from this checkout's sources."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=SRC)


def measure_setup(modules, probe, repeats=SETUP_REPEATS):
    """Median probe-scaled import time of ``modules`` over fresh processes,
    and the raw samples."""
    scaled, raw = [], []
    before = probe.time()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, *modules],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        after = probe.time()
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.scale(before, after))
        before = after
    return statistics.median(scaled), raw


@dataclass
class Rep:
    wall_s: list = field(default_factory=list)      # per task, probe-scaled
    cpu_s: list = field(default_factory=list)
    raw_wall_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs_changed: int = 0
    problems: list = field(default_factory=list)
    elapsed_s: float = 0.0


def _cpu():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_rep(workload, task_list, out_root, label, probe):
    """Run the task list once; time, check and delete each task's outputs."""
    harness = importlib.import_module("rfpp.harness")
    references = workloads.load_reference(workload)
    rep = Rep()
    started = time.perf_counter()
    before = probe.time()
    for i, task in enumerate(task_list):
        out = os.path.join(out_root, f"{label}-{i}-{task.experiment}")
        config = harness.ExperimentConfig(
            experiment=task.experiment, params=task.params, seed=task.seed,
            replicas=task.replicas, workers=1, out=out)
        rep.attempted += 1
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            manifest = harness.run(config, force=True)
        except Exception:
            manifest = None
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        after = probe.time()
        scale = probe.scale(before, after)
        before = after
        rep.raw_wall_s.append(wall)
        rep.wall_s.append(wall * scale)
        rep.cpu_s.append(cpu * scale)
        if manifest is None:
            problems = [f"raised: {error}"]
        else:
            try:
                summary = workloads.summarize(task.experiment, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
            else:
                problems = workloads.invariant_problems(task, summary)
                entry = references[i] if i < len(references) else None
                ref_bad, changed = workloads.reference_problems(
                    task, summary, manifest.outputs, entry)
                problems += ref_bad
                rep.outputs_changed += changed
        if problems:
            rep.failed += 1
            rep.problems.append((i, task.experiment, problems))
        shutil.rmtree(out, ignore_errors=True)
    rep.elapsed_s = time.perf_counter() - started
    return rep


def _median_per_task(per_rep):
    """Sum over tasks of each task's median over repetitions: a slow spell
    then spoils one sample of one task, not a whole repetition."""
    return sum(statistics.median(times) for times in zip(*per_rep))


def import_workload(workload):
    for name in workloads.WORKLOADS[workload].modules:
        importlib.import_module(name)


def _rfpp_modules():
    return {name for name in sys.modules if name == "rfpp" or name.startswith("rfpp.")}


def _while_fits(start, seconds, step):
    """Call ``step`` (which returns how long it took) once, and again while
    another call of that length still ends within ``seconds`` of ``start``."""
    while True:
        took = step()
        if time.perf_counter() - start + took > seconds:
            return


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run of about ``seconds``; returns (result, notes).

    Untraced: time the set-up, then repeat the task list while another
    repetition fits, and report per-task medians, summed.  Traced: one
    untraced repetition, then traced ones while another fits; each
    per-layer metric is its median over the traced repetitions, and
    trace.overhead_frac is the tracer's own cost over the untraced wall
    time.  Every run does at least one repetition of each kind it needs.
    ``tiny`` (tests only) also takes a single set-up sample.
    """
    spec = workloads.WORKLOADS[workload]
    task_list = workloads.tasks(workload, seed, tiny=tiny)
    start = time.perf_counter()
    probe = Probe()
    notes = {"workload": workload, "seed": seed, "tasks": len(task_list)}
    if not trace:
        setup_s, notes["setup_raw_s"] = measure_setup(
            spec.modules, probe, 1 if tiny else SETUP_REPEATS)
    import_workload(workload)
    loaded = _rfpp_modules()
    os.makedirs(SCRATCH, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    reps, traced, layers, tracer_load = [], [], [], []

    def untraced_rep():
        reps.append(run_rep(workload, task_list, out_root, f"u{len(reps)}", probe))
        return reps[-1].elapsed_s

    def traced_rep():
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced.append(run_rep(workload, task_list, out_root, f"t{len(traced)}", probe))
        layers.append(spans.layer_metrics(tracer.spans))
        tracer_load.append((len(tracer.spans), tracer.count_s))
        return traced[-1].elapsed_s

    try:
        if not trace:
            _while_fits(start, seconds, untraced_rep)
        else:
            untraced_rep()
            _while_fits(start, seconds, traced_rep)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    extra = _rfpp_modules() - loaded
    if extra:
        raise RuntimeError(f"workload {workload} imported {sorted(extra)} "
                           "outside its set-up module list")

    attempted = sum(r.attempted for r in reps + traced)
    failed = sum(r.failed for r in reps + traced)
    notes["reps"] = len(reps + traced)
    notes["wall_raw_s"] = _median_per_task([r.raw_wall_s for r in reps])
    notes["wall_s_reps"] = [sum(r.wall_s) for r in reps]
    notes["problems"] = [p for r in reps + traced for p in r.problems]
    if not trace:
        metrics = {
            "wall_s": (_median_per_task([r.wall_s for r in reps]), "s"),
            "cpu_s": (_median_per_task([r.cpu_s for r in reps]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB"),
        }
    else:
        # counts agree across the traced repetitions; times take the median.
        # The tracer's cost is its span count times the calibrated cost of a
        # wrapped call, plus the measured time of its count extractors, all
        # in raw seconds like the untraced wall time it is compared with.
        values = {name: statistics.median(run[name] for run in layers)
                  for name in layers[0]}
        values["harness.outputs_changed"] = traced[0].outputs_changed
        per_call = spans.wrapper_cost()
        cost = statistics.median(n * per_call + count_s for n, count_s in tracer_load)
        values["trace.overhead_frac"] = cost / notes["wall_raw_s"]
        notes["spans"] = [n for n, _ in tracer_load]
        notes["wrapper_cost_us"] = 1e6 * per_call
        notes["tracer_cost_s"] = cost
        notes["traced_wall_raw_s_reps"] = [sum(r.raw_wall_s) for r in traced]
        metrics = {name: (values[name], unit) for name, unit in spans.LAYER_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, notes


def fingerprint():
    """Machine and version facts recorded with every result."""
    import scipy
    import rfpp
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rfpp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": commit, "rfpp_version": rfpp.__version__,
            "rfpp_source_sha256": digest.hexdigest(),
            "probe_reference_s": Probe.REFERENCE_S}
