"""Command-line front end.

Subcommands: ``simulate`` (run an ensemble and export artifacts), ``field``
(dump a rho/S/Q grid), ``sample`` (emit initial conditions only),
``validate`` (check a config without running), ``preset-list``.

Scenarios come from ``--config path.json`` or ``--preset name``; repeatable
``--set key.path=value`` assignments patch the raw document before
validation.  Exit codes: 0 success, 1 validation failure, 2 runtime/IO
failure.  Diagnostics go to standard error, data only to files or standard
output.
"""

import argparse
import os
import sys

from . import export as exp
from .ensemble import run_ensemble
from .errors import ConfigurationError, InvalidParameterError
from .presets import preset_doc, preset_names
from .sampling import sample_initial_conditions
from .scenario import _json_document, apply_overrides, build_scenario, default_field_grid


class _Parser(argparse.ArgumentParser):
    # bad usage is a validation failure: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qctrans", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--config", metavar="PATH", help="scenario document (JSON)")
        g.add_argument("--preset", metavar="NAME", help="named figure preset")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="patch the document before validation")

    sp = sub.add_parser("simulate", parents=[], help="run an ensemble and export artifacts")
    common(sp)
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.add_argument("--formats", metavar="LIST", help="comma list of csv,json,svg")

    sp = sub.add_parser("field", help="evaluate a rho/S/Q grid and export it")
    common(sp)
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.add_argument("--formats", metavar="LIST", help="comma list of csv,svg")
    sp.add_argument("--quantity", choices=("rho", "S", "Q"), help="field to evaluate")
    sp.add_argument("--grid", type=int, metavar="N", help="use an N x N grid")

    sp = sub.add_parser("sample", help="emit initial conditions only")
    common(sp)
    sp.add_argument("--out", metavar="DIR",
                    help="write <basename>_samples.csv there instead of stdout")

    sp = sub.add_parser("validate", help="check a scenario document without running")
    common(sp)

    sub.add_parser("preset-list", help="list the named presets")
    return p


def _load_scenario(args):
    if getattr(args, "preset", None):
        doc = preset_doc(args.preset)
        name = args.preset
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise RuntimeError(f"cannot read config: {e}") from e
        doc = _json_document(text)
        name = os.path.splitext(os.path.basename(args.config))[0]
    if args.overrides:
        doc = apply_overrides(doc, args.overrides)
    if getattr(args, "out", None):
        doc.setdefault("output", {})["directory"] = args.out
    if getattr(args, "formats", None):
        doc.setdefault("output", {})["formats"] = [
            f.strip() for f in args.formats.split(",") if f.strip()
        ]
    if getattr(args, "quantity", None) or getattr(args, "grid", None):
        fld = doc.setdefault("output", {}).setdefault("field", {})
        if getattr(args, "quantity", None):
            fld["quantity"] = args.quantity
        if getattr(args, "grid", None):
            fld["nx"] = args.grid
            fld["ny"] = args.grid
    return build_scenario(doc, name=name)


def _cmd_simulate(args) -> int:
    sc = _load_scenario(args)
    result = run_ensemble(sc)
    paths = exp.export_result(result)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.truncation_report.items()))
    print(f"{sc.name or 'scenario'}: {result.n} trajectories ({counts})", file=sys.stderr)
    ks = result.distribution_metrics.get("ks") or {}
    for axis, vals in ks.items():
        tail = ", ".join(f"{v:.4f}" for v in vals)
        print(f"  ks[{axis}] at {result.distribution_metrics['times']}: {tail}",
              file=sys.stderr)
    for path in paths:
        print(f"  wrote {path}", file=sys.stderr)
    return 0


def _cmd_field(args) -> int:
    sc = _load_scenario(args)
    cfg = sc.output.field or default_field_grid(sc.system)
    grid = exp.compute_field(sc.system, cfg)
    base = os.path.join(sc.output.directory, sc.output.basename or "run")
    formats = sc.output.formats
    if "csv" not in formats and "svg" not in formats:
        formats = ("csv",)  # json has no field representation; fall back to csv
    for path in exp._write_field(grid, sc, base, formats):
        print(f"  wrote {path}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    sc = _load_scenario(args)
    pos, vel = sample_initial_conditions(
        sc.system, sc.ensemble, t_start=sc.time.start, stencil=sc.numerics
    )
    coords = exp._COORDS[sc.system.dim]
    # one row template per start: "%.15g" % v is f"{v:.15g}" for every float
    row = "%d," + ",".join(["%.15g"] * 2 * len(coords)) + "\n"
    text = ",".join(["index", *coords, *["v" + c for c in coords]]) + "\n" + "".join(
        [row % (i, *p, *v) for i, (p, v) in enumerate(zip(pos.tolist(), vel.tolist()))])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, (sc.output.basename or "run") + "_samples.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"  wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    sc = _load_scenario(args)
    print(f"ok: {sc.annotation()}", file=sys.stderr)
    return 0


def _cmd_preset_list(_args) -> int:
    from .presets import preset  # late import keeps --help fast

    for name in preset_names():
        sys.stdout.write(f"{name}\t{preset(name).annotation()}\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "field": _cmd_field,
    "sample": _cmd_sample,
    "validate": _cmd_validate,
    "preset-list": _cmd_preset_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, InvalidParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError, ArithmeticError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
