"""Benchmark of qctrans: one workload per run, end to end or traced by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (``workloads.py`` says why each was chosen):
    osc_guidance  oscillator_2d guidance ensemble, n=200, t in [0, 35], starts at
                  fixed radii with angles drawn from the seed
    hyd_guidance  hydrogen (2,1,1) guidance ensemble, n=50, t in [0, 100],
                  rejection starts; its KS metrics (a fixed ~25 s) are
                  computed and timed once, in the traced run
    figures       ``qctrans simulate`` on fig1_quantum and fig4 (csv,json,svg),
                  then ``qctrans field`` on fig5

A run is one process with one caller in a closed loop: it starts a pass
when the previous one has ended and been checked.  Passes come in cycles:
one pass, or on hyd_guidance the 16 ensembles of ``wl.ensemble_seeds``.  A
run starts no cycle that would end after --seconds, so it always runs at
least one.  Every pass is checked against ``reference.json``; a failed
check counts in ``failed``.

--trace 0 first times the set-up in fresh processes, then reports the
end-to-end metrics: wall_s (median pass), traj_per_s (median pass),
setup_s (median probe) and peak_rss_mb.  --trace 1 runs the same untraced
passes, then one traced pass (on hyd_guidance followed by the ensemble's
KS metrics), and reports the per-layer metrics from its spans.  The lines before
the last give each metric with its unit, and fail_frac; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A results
file with the environment block (and the spans, when traced) goes to
``perfbench/results/``.

The seed, modulo 32 (the seeds that have a stored reference), draws the
start angles of osc_guidance; on hyd_guidance it draws the order of the
cycle's ensemble seeds.  The figure presets use fixed or quantile starts,
so ``figures`` records the seed but does not use it.  The benchmark leaves
QCTRANS_NO_NUMBA and QCTRANS_THREADS as the caller set them; without numba
it keeps itself on one CPU (see ``main``).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import workloads as wl
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9
TINY_N = 4


def load_qctrans():
    """Import qctrans from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qctrans", "__init__.py")):
        raise SystemExit(f"error: no qctrans package under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import qctrans

    return qctrans


@contextmanager
def scratch_dir():
    """A fresh directory under the benchmark's tree, removed afterwards."""
    base = os.path.join(HERE, "_out")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def load_references(workload, seeds):
    """The stored outputs of the workload, one per ensemble seed (figures: one)."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    entry = data[workload]
    if workload == "figures":
        return [{**entry, "tolerance": data["tolerance"]}]
    return [{**entry["seeds"][str(s)], "tolerance": data["tolerance"]} for s in seeds]


def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def environment(qt, work, seed):
    import scipy

    return {
        "NUMBA_ENABLED": qt.NUMBA_ENABLED,
        "ensemble.workers": work.workers,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "ensemble.seeds": work.seeds,
    }


def setup_times(docs):
    """Set-up seconds of SETUP_PROBES fresh processes, run one after another,
    after one more whose time is dropped: in a fresh checkout it reads the
    files from disk, and the ones after it from the page cache."""
    probe = os.path.join(HERE, "setup_probe.py")
    payload = json.dumps(docs)
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, probe, SRC, payload],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times[1:]


class Workload:
    """One workload's passes, their outcomes and checks, bound to the inputs.

    The passes run a cycle of inputs in turn, each with its own reference:
    the ensembles of ``wl.ensemble_seeds``, or the one figures pass."""

    def __init__(self, qt, name, seed, n):
        from qctrans.cli import main as cli_main

        self.qt = qt
        self.name = name
        self.cli_main = cli_main
        if name == "figures":
            self._check = wl.check_figures
            largest = max(qt.preset(p).ensemble.n
                          for c, p in wl.FIGURE_COMMANDS if c == "simulate")
            self.workers = qt.worker_count(largest)
            self.docs = [(p, qt.preset_doc(p)) for _, p in wl.FIGURE_COMMANDS]
            self.seeds = [seed % wl.REFERENCE_SEEDS]  # recorded, not used
            self.inputs = [None]
        else:
            self._check = wl.check_ensemble
            self.ks_in_pass = wl.ENSEMBLES[name]["ks_in_pass"]
            self.result = None  # of the latest pass
            self.seeds = wl.ensemble_seeds(name, seed)
            self.inputs = [wl.ensemble_doc(qt, name, s, n) for s in self.seeds]
            self.workers = qt.worker_count(n)
            self.docs = [(name, self.inputs[0])]
        self.references = load_references(name, self.seeds)
        self.passes = 0

    @property
    def cycle(self):
        return len(self.inputs)

    def check(self, outcome, tally):
        """Check the latest pass's outcome against its reference."""
        self._check(outcome, self.references[(self.passes - 1) % self.cycle], tally)

    def run(self, span):
        """Time the next pass of the cycle; returns (wall seconds, outcome)."""
        doc = self.inputs[self.passes % self.cycle]
        self.passes += 1
        if self.name == "figures":
            with scratch_dir() as out_dir:
                t0 = time.perf_counter()
                codes = wl.figures_pass(self.cli_main, out_dir, span)
                wall = time.perf_counter() - t0
                return wall, wl.figures_outcome(codes, out_dir)
        t0 = time.perf_counter()
        self.result, metrics = wl.ensemble_pass(self.qt, doc, span, self.ks_in_pass)
        wall = time.perf_counter() - t0
        return wall, wl.ensemble_outcome(self.result, metrics)


def measure(work, seconds, tally):
    """Untraced passes in a closed loop, in whole cycles, with no cycle
    started that would end after ``seconds``; returns per-pass wall and rate."""
    walls, rates = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(work.cycle):
            wall, outcome = work.run(nullcontext)
            work.check(outcome, tally)
            walls.append(wall)
            rates.append(wl.completed(outcome) / wall)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return walls, rates


def traced_pass(work, tally):
    """One pass with spans at every layer boundary the benchmark can reach."""
    qt = work.qt
    tracer = Tracer()
    seen = {"accept_ratio": None, "moved": 0, "cells": 0}

    def envelope(args, env):
        if seen["accept_ratio"] is None:  # later calls re-draw guarded starts
            volume = math.prod(hi - lo for lo, hi in args[1])
            seen["accept_ratio"] = 1.0 / (env * volume)

    def velocities(args, result):
        before = np.asarray(args[1], dtype=float).reshape(result[0].shape)
        seen["moved"] += int(np.any(result[0] != before, axis=1).sum())

    def field(args, grid):
        seen["cells"] += grid.values.size

    for module, attr, name, observe in (
        (qt.cli, "build_scenario", "scenario.build", None),
        (qt.cli, "run_ensemble", "ensemble.run", None),
        (qt.sampling, "sample_positions", "sampling.positions", None),
        (qt.sampling, "estimate_envelope", "sampling.envelope", envelope),
        (qt.sampling, "initial_velocities", "sampling.velocities", velocities),
        (qt.ensemble, "trajectory_monitors", "ensemble.monitors", None),
        (qt.ensemble, "distribution_metrics", "ensemble.ks", None),
        (qt.export, "write_trajectories_csv", "export.csv", None),
        (qt.export, "write_result_json", "export.json", None),
        (qt.export, "write_trajectories_svg", "export.svg", None),
        (qt.export, "compute_field", "export.field", field),
        (qt.export, "write_field_csv", "export.field_csv", None),
        (qt.export, "write_field_svg", "export.field_svg", None),
    ):
        tracer.patch(module, attr, name, observe)
    try:
        with tracer.span("pass"):
            wall, outcome = work.run(tracer.span)
        if work.name != "figures" and not work.ks_in_pass:
            outcome.update(wl.ks_outcome(wl.ensemble_ks(qt, work.result, tracer.span)))
    finally:
        tracer.unpatch()
    work.check(outcome, tally)
    return tracer, seen, wall, outcome


def layer_metrics(tracer, seen, outcome, workers, overhead_s):
    t = tracer.total
    # run_ensemble's self time is integration plus its bookkeeping: what is
    # left once sampling, monitors and (in the CLI) KS are taken out
    integrate_s = tracer.self_time("ensemble.run")
    steps = outcome["steps"]
    field_s = t("export.field")
    sizes = outcome.get("bytes", {"csv": 0, "json": 0, "svg": 0})
    return {
        "scenario.build_s": (t("scenario.build"), "s"),
        "sampling.positions_s": (t("sampling.positions"), "s"),
        "sampling.velocities_s": (t("sampling.velocities"), "s"),
        # quantile and fixed starts reject nothing
        "sampling.accept_ratio": (seen["accept_ratio"] or 1.0, "ratio"),
        "sampling.moved_starts": (seen["moved"], "count"),
        "ensemble.run_s": (t("ensemble.run") - t("ensemble.ks", parent="ensemble.run"), "s"),
        "ensemble.workers": (workers, "count"),
        "ensemble.monitors_s": (t("ensemble.monitors"), "s"),
        "ensemble.ks_s": (t("ensemble.ks"), "s"),
        "dynamics.integrate_s": (integrate_s, "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.us_per_step": (1e6 * integrate_s / steps if steps else 0.0, "us"),
        "dynamics.stopped": (len(outcome["statuses"]) - wl.completed(outcome), "count"),
        "export.csv_s": (t("export.csv"), "s"),
        "export.json_s": (t("export.json"), "s"),
        "export.svg_s": (t("export.svg"), "s"),
        "export.field_s": (field_s, "s"),
        "export.field_us_per_cell": (1e6 * field_s / seen["cells"] if seen["cells"] else 0.0, "us"),
        "export.field_csv_s": (t("export.field_csv"), "s"),
        "export.field_svg_s": (t("export.field_svg"), "s"),
        "export.bytes": (sum(sizes.values()), "B"),
        "export.csv_bytes": (sizes["csv"], "B"),
        "export.json_bytes": (sizes["json"], "B"),
        "export.svg_bytes": (sizes["svg"], "B"),
        "cli.simulate_s": (t("cli.simulate"), "s"),
        "cli.field_s": (t("cli.field"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"ensembles of {TINY_N} trajectories, for the harness smoke test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    qt = load_qctrans()
    if not qt.NUMBA_ENABLED:
        # Every kernel then holds the GIL, so the pool's threads never overlap.
        # Spread over two CPUs, each GIL handoff waited for the other CPU to
        # be scheduled: for minutes at a time a pass took 1.3-1.6x its CPU
        # time.  On one CPU the same threads run, at their CPU time.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    n = None
    if args.workload != "figures":
        n = TINY_N if args.tiny else wl.ENSEMBLES[args.workload]["n"]
    work = Workload(qt, args.workload, args.seed, n)
    tally = wl.Tally()
    record = {"workload": args.workload, "n": n, "seconds": args.seconds,
              "environment": environment(qt, work, args.seed)}

    if not args.trace:
        setup = setup_times(work.docs)
    walls, rates = measure(work, args.seconds, tally)
    wall_s = statistics.median(walls)
    record["passes"] = {"wall_s": walls, "traj_per_s": rates}
    notes = {"wall_s": f"median of {len(walls)} passes, min {min(walls):.4g}, max {max(walls):.4g}"}
    if args.trace:
        tracer, seen, traced_wall, outcome = traced_pass(work, tally)
        # the traced pass runs the cycle's first input, as did every cycle's first pass
        same_input_s = statistics.median(walls[::work.cycle])
        metrics = layer_metrics(tracer, seen, outcome, work.workers, traced_wall - same_input_s)
        record["spans"] = tracer.spans
        notes["dynamics.integrate_s"] = "derived: run_ensemble minus sampling, monitors and KS"
        notes["trace.overhead_s"] = (f"traced pass {traced_wall:.4g} s minus the untraced "
                                     f"passes of its input, {same_input_s:.4g} s")
    else:
        record["setup_s"] = setup
        metrics = {
            "wall_s": (wall_s, "s"),
            "traj_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        notes["setup_s"] = f"median of {len(setup)} fresh processes"

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  n {n if n is not None else 'presets'}  "
          f"passes {len(walls)}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<26} {shown} {unit:<6} {notes.get(name, '')}".rstrip())
    fail_frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':<26} {fail_frac:>14.6g} {'ratio':<6} "
          f"{tally.failed} of {tally.attempted} operations failed")
    for what in tally.failures[:20]:
        print(f"failed: {what}", file=sys.stderr)

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                  metrics=reported)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
