"""Workloads of the qctrans benchmark: inputs, one timed pass, output checks.

A pass is what the benchmark times.  The two ensemble workloads call the
library the way the acceptance gate does (criterion 7): build the scenario,
run the ensemble without metrics, then compute the KS metrics (on
hyd_guidance only in the traced run; see ``ENSEMBLES``).  ``figures``
calls the command-line entry point the way a user does (criterion 10),
writing into a scratch directory.

Every pass is reduced to an *outcome*, a plain dict of what it produced, and
the outcome is checked against the stored reference (``reference.json``).
The reference generator and the benchmark share this code, so both read the
outputs the same way.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os

import numpy as np

# Ensemble seeds with a stored reference.  The benchmark seed is reduced
# modulo this count, so every seed the benchmark is given has a reference.
REFERENCE_SEEDS = 32

ENSEMBLES = {
    # integration dominates: ~26 ms per trajectory against ~1.5 s of KS
    "osc_guidance": {"system": {"type": "oscillator_2d"}, "t_end": 35.0, "n": 200,
                     "ks_in_pass": True, "cycle": 1},
    # the only 3D envelope scan, with a low acceptance rate, and the only
    # Coulomb run.  Its KS marginals cost a fixed ~25 s, so a pass with them
    # would be one pass per run, as noisy as the host; they are timed in the
    # traced run instead (ensemble.ks_s), and a pass is sampling and
    # integration, ~1.3 s.  A guided start circles the z axis, in a number
    # of steps that grows as it nears the axis, so one ensemble costs 8k to
    # 28k steps by seed: a cycle of passes runs the first 16 reference
    # ensembles, in an order drawn from the seed
    "hyd_guidance": {"system": {"type": "hydrogen"}, "t_end": 100.0, "n": 50,
                     "ks_in_pass": False, "cycle": 16},
}
WORKLOADS = (*ENSEMBLES, "figures")

# (command, preset) in the order a pass runs them; the same shape as
# criterion 10 plus the trajectory JSON and the field command
FIGURE_COMMANDS = (("simulate", "fig1_quantum"), ("simulate", "fig4"), ("field", "fig5"))
FIGURE_FILES = {
    "fig1_quantum": ("fig1_quantum.csv", "fig1_quantum.json", "fig1_quantum.svg"),
    "fig4": ("fig4.csv", "fig4.json", "fig4.svg", "fig4_field.csv", "fig4_field.svg"),
    "fig5": ("fig5_field.csv", "fig5_field.svg"),
}


def oscillator_starts(qt, system, seed, n):
    """n starts distributed as |psi|^2 of the default oscillator state.

    That density is rotationally symmetric, and a guided trajectory circles
    the central node at its starting radius r, taking a number of steps that
    grows as 1/r^2.  With rejection starts the few that land near the node
    set the cost of the whole ensemble: over seeds 0-9 an n=200 ensemble
    took 59k to 88k steps, and one start of seed 13 alone took 14k.  So the
    radii sit at the quantile midpoints of the radial marginal, the same in
    every run, and only the angles and the order come from the seed.
    """
    fn, lo, hi = qt.marginal_density_1d(system, 0.0)
    radii = qt.GridCDF(fn, lo, hi).ppf((np.arange(n) + 0.5) / n)
    rng = np.random.Generator(np.random.Philox(seed % REFERENCE_SEEDS))
    radii = rng.permutation(radii)  # so that leading starts are a fair sample too
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def ensemble_seeds(workload, seed):
    """Reference seeds of the ensembles of one cycle of passes, in order."""
    cycle = ENSEMBLES[workload]["cycle"]
    if cycle == 1:
        return [seed % REFERENCE_SEEDS]
    rng = np.random.Generator(np.random.Philox(seed % 2**63))
    return [int(s) for s in rng.permutation(cycle)]


def ensemble_doc(qt, workload, seed, n):
    """Scenario document of an ensemble workload for a benchmark seed.

    A run with n below the workload's size (the smoke test) takes the first
    n starts of the full ensemble, so the reference still applies to them."""
    spec = ENSEMBLES[workload]
    doc = {
        "system": dict(spec["system"]),
        "mode": "guidance",
        "time": {"start": 0.0, "end": spec["t_end"], "n_outputs": 3},
    }
    if workload == "osc_guidance":
        system = qt.build_scenario(doc).system
        starts = oscillator_starts(qt, system, seed, spec["n"])[:n]
        doc["ensemble"] = {"mode": "fixed", "positions": starts.tolist()}
    else:
        doc["ensemble"] = {"mode": "rejection", "n": n, "seed": seed % REFERENCE_SEEDS}
    return doc


def first_call_doc(doc):
    """One trajectory over a short span: the smallest run that reaches the
    kernels a scenario uses, so a JIT pays its compile cost there."""
    doc = copy.deepcopy(doc)
    doc.pop("output", None)
    ens = doc.setdefault("ensemble", {})
    ens["n"] = 1
    for key in ("positions", "velocities"):
        if key in ens:
            ens[key] = ens[key][:1]
    start = doc.get("time", {}).get("start", 0.0)
    doc["time"] = {"start": start, "end": start + 1e-3, "n_outputs": 2}
    return doc


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def ensemble_pass(qt, doc, span, ks=True):
    """Build, integrate and (with ``ks``) diagnose one ensemble; returns the
    raw results, with None for the metrics when they were not computed."""
    with span("scenario.build"):
        sc = qt.build_scenario(doc)
    with span("ensemble.run"):
        res = qt.run_ensemble(sc, compute_metrics=False)
    return res, ensemble_ks(qt, res, span) if ks else None


def ensemble_ks(qt, res, span):
    """The KS metrics of an ensemble result, as the acceptance gate computes them."""
    with span("ensemble.ks"):
        return qt.distribution_metrics(res.scenario.system, res.trajectories, res.t)


def figures_pass(cli_main, out_dir, span):
    """Run the figure commands through the CLI; returns their exit codes.

    The commands' progress lines on standard error are kept in memory, so
    the benchmark's own output stays readable."""
    codes = []
    for command, preset in FIGURE_COMMANDS:
        argv = [command, "--preset", preset, "--out", out_dir]
        if command == "simulate":
            argv += ["--formats", "csv,json,svg"]
        with span(f"cli.{command}"), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli_main(argv))
    return codes


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

def ensemble_outcome(res, metrics):
    trajectories = res.trajectories
    return {
        "statuses": [tr.status for tr in trajectories],
        "steps": sum(tr.n_steps for tr in trajectories),
        "final": [tr.x[-1].tolist() for tr in trajectories],
        **ks_outcome(metrics),
    }


def ks_outcome(metrics):
    """The KS part of an ensemble outcome; empty when KS was not computed."""
    if metrics is None:
        return {"ks": {}, "ks_critical": None}
    return {"ks": {axis: list(vals) for axis, vals in metrics["ks"].items()},
            "ks_critical": metrics["ks_critical_1pct"]}


def _first_line(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def _field_summary(path):
    """Cell count, finite-cell count and sum of the finite values of a field CSV."""
    cells = finite = 0
    total = 0.0
    with open(path, encoding="utf-8") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        next(rows)  # header
        for row in rows:
            cells += 1
            v = float(row[2])
            if math.isfinite(v):
                finite += 1
                total += v
    return {"cells": cells, "finite": finite, "sum": total}


def figures_outcome(codes, out_dir):
    """Read back what the figure commands wrote."""
    out = {
        "codes": codes, "missing": [], "csv_heads": {}, "svg_heads": {},
        "statuses": [], "steps": 0, "final": {}, "ks": {}, "fields": {},
        "bytes": _artifact_bytes(out_dir),
    }
    for files in FIGURE_FILES.values():
        for name in files:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                out["missing"].append(name)
            elif name.endswith(".csv"):
                out["csv_heads"][name] = _first_line(path)
                if name.endswith("_field.csv"):
                    out["fields"][name] = _field_summary(path)
            elif name.endswith(".svg"):
                with open(path, encoding="utf-8") as fh:
                    out["svg_heads"][name] = fh.read(4096)
            else:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                preset = name[: -len(".json")]
                out["statuses"] += [tr["status"] for tr in doc["trajectories"]]
                out["steps"] += sum(tr["n_steps"] for tr in doc["trajectories"])
                out["final"][preset] = [tr["x"][-1] for tr in doc["trajectories"]]
                out["ks"][preset] = doc["distribution_metrics"]["ks"]
    return out


def completed(outcome):
    return sum(s == "completed" for s in outcome["statuses"])


def _artifact_bytes(out_dir):
    """Bytes written by a figures pass, by file format."""
    sizes = {"csv": 0, "json": 0, "svg": 0}
    for files in FIGURE_FILES.values():
        for name in files:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                sizes[name.rsplit(".", 1)[1]] += os.path.getsize(path)
    return sizes


# ---------------------------------------------------------------------------
# checks against the reference
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def _close(a, b, tol):
    return (len(a) == len(b)
            and all(abs(x - y) <= tol["pos_abs"] + tol["pos_rel"] * abs(y) for x, y in zip(a, b)))


def _check_statuses(statuses, tally):
    for i, s in enumerate(statuses):
        tally.check(s == "completed", f"trajectory {i} ended {s}")


def _check_ks(ks, ref_ks, tol, tally, label):
    for axis, ref_vals in ref_ks.items():
        vals = ks.get(axis, [])
        for j, ref in enumerate(ref_vals):
            ok = j < len(vals) and abs(vals[j] - ref) <= tol["ks_abs"]
            tally.check(ok, f"{label}KS[{axis}][{j}] {vals[j] if j < len(vals) else None} "
                            f"differs from reference {ref}")


def _check_final(final, ref_final, tol, tally, label):
    for i, ref in enumerate(ref_final[: len(final)]):
        tally.check(_close(final[i], ref, tol),
                    f"{label}final position {i} {final[i]} differs from reference {ref}")


def check_ensemble(outcome, reference, tally):
    """Statuses, KS at t_end against the 1% critical value, and the stored
    KS values and final positions.  A run smaller than the reference (the
    smoke test) compares the reference's leading trajectories, which come
    from the same sample stream, and cannot compare KS values.  An outcome
    without KS (a hyd_guidance pass outside the traced run) is checked by its statuses
    and final positions, which fix its KS values."""
    tol = reference["tolerance"]
    _check_statuses(outcome["statuses"], tally)
    crit = outcome["ks_critical"]
    for axis, vals in outcome["ks"].items():
        tally.check(crit is not None and vals[-1] < crit,
                    f"KS[{axis}] at t_end {vals[-1]} not below the 1% critical value {crit}")
    if outcome["ks"] and len(outcome["final"]) == len(reference["final"]):
        _check_ks(outcome["ks"], reference["ks"], tol, tally, "")
    _check_final(outcome["final"], reference["final"], tol, tally, "")


def check_figures(outcome, reference, tally):
    """Exit codes, artifacts, caption lines, statuses, and the stored KS
    values, final positions and field summaries."""
    tol = reference["tolerance"]
    for (command, preset), code in zip(FIGURE_COMMANDS, outcome["codes"]):
        tally.check(code == 0, f"qctrans {command} --preset {preset} exited {code}")
    for name in outcome["missing"]:
        tally.check(False, f"artifact {name} missing")
    for name, head in reference["csv_heads"].items():
        tally.check(outcome["csv_heads"].get(name) == head, f"{name} caption line differs")
    for name, caption in reference["svg_captions"].items():
        tally.check(caption in outcome["svg_heads"].get(name, ""), f"{name} lacks its caption")
    _check_statuses(outcome["statuses"], tally)
    for preset, ref_ks in reference["ks"].items():
        _check_ks(outcome["ks"].get(preset, {}), ref_ks, tol, tally, f"{preset} ")
    for preset, ref_final in reference["final"].items():
        final = outcome["final"].get(preset, [])
        tally.check(len(final) == len(ref_final),
                    f"{preset} has {len(final)} trajectories, reference {len(ref_final)}")
        _check_final(final, ref_final, tol, tally, f"{preset} ")
    for name, ref in reference["fields"].items():
        got = outcome["fields"].get(name)
        ok = (got is not None and got["cells"] == ref["cells"] and got["finite"] == ref["finite"]
              and abs(got["sum"] - ref["sum"]) <= tol["field_rel"] * abs(ref["sum"]))
        tally.check(ok, f"{name} summary {got} differs from reference {ref}")
