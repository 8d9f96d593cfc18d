"""Regenerate reference.json, the outputs the benchmark checks against.

Run it only at a commit whose outputs are known to be right, and only when
a change means to alter those outputs.  It runs one pass per reference seed
of each ensemble workload and one figures pass; the hydrogen passes take
most of the time, about 25 s each without numba.

Usage: python3 perfbench/make_reference.py [--workload NAME ...]
"""

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext

import workloads as wl
from run import HERE, load_qctrans, scratch_dir

REFERENCE = os.path.join(HERE, "reference.json")

TOLERANCE = {
    # far below the sampling noise of a KS value (~1/sqrt(n)), and above the
    # ~1e-5 by which an exact marginal CDF differs from the quadrature one
    "ks_abs": 1e-4,
    # above the integrators' own error (rtol 1e-7 over the run), far below
    # any visible change in a path
    "pos_abs": 1e-5,
    "pos_rel": 1e-5,
    "field_rel": 1e-6,
}


def _r(v):
    return float(f"{v:.10g}")


def _stored(outcome):
    return {
        "ks": {axis: [_r(v) for v in vals] for axis, vals in outcome["ks"].items()},
        "final": [[_r(v) for v in x] for x in outcome["final"]],
    }


def _dumps(data):
    """Indented JSON with each innermost list of numbers on one line."""
    text = json.dumps(data, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}\"]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
                  text)


def _self_check(name, outcome, check, reference):
    """Warn of bad statuses, KS exceedances or wrong artifacts; the stored
    values themselves match the outcome by construction."""
    tally = wl.Tally()
    check(outcome, dict(reference, tolerance=TOLERANCE), tally)
    for what in tally.failures:
        print(f"warning: {name}: {what}", file=sys.stderr)


def ensemble_reference(qt, workload):
    n = wl.ENSEMBLES[workload]["n"]
    seeds = {}
    for seed in range(wl.REFERENCE_SEEDS):
        res, metrics = wl.ensemble_pass(qt, wl.ensemble_doc(qt, workload, seed, n), nullcontext)
        outcome = wl.ensemble_outcome(res, metrics)
        seeds[str(seed)] = _stored(outcome)
        _self_check(f"{workload} seed {seed}", outcome, wl.check_ensemble, seeds[str(seed)])
        print(f"{workload} seed {seed}: ks {outcome['ks']}", file=sys.stderr)
    return {"n": n, "seeds": seeds}


def figures_reference(qt):
    from qctrans.cli import main as cli_main

    with scratch_dir() as out_dir:
        codes = wl.figures_pass(cli_main, out_dir, nullcontext)
        outcome = wl.figures_outcome(codes, out_dir)
    if any(codes) or outcome["missing"]:
        raise SystemExit(f"figure commands failed: codes {codes}, missing {outcome['missing']}")
    captions = {preset: qt.preset(preset).annotation() for preset in wl.FIGURE_FILES}
    ref = {
        "csv_heads": outcome["csv_heads"],
        "svg_captions": {
            name: captions[preset]
            for preset, files in wl.FIGURE_FILES.items()
            for name in files if name.endswith(".svg")
        },
        "ks": {p: {a: [_r(v) for v in vals] for a, vals in ks.items()}
               for p, ks in outcome["ks"].items()},
        "final": {p: [[_r(v) for v in x] for x in final] for p, final in outcome["final"].items()},
        "fields": outcome["fields"],
    }
    _self_check("figures", outcome, wl.check_figures, ref)
    return ref


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS,
                    help="regenerate only this workload's entry (repeatable)")
    args = ap.parse_args()
    qt = load_qctrans()
    for workload in args.workload or wl.WORKLOADS:
        if workload == "figures":
            entry = figures_reference(qt)
        else:
            entry = ensemble_reference(qt, workload)
        # read at write time: another run may have stored its entry meanwhile
        data = {}
        if os.path.isfile(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                data = json.load(fh)
        data[workload] = entry
        data["tolerance"] = TOLERANCE
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            fh.write(_dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
