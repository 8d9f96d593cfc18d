"""Artifact writers: trajectory CSV/JSON, field grids, static SVG plots.

CSV holds one row per (trajectory, output time) with 15-significant-digit
decimals; monitor columns are prefixed ``m_`` so coordinate names never
collide.  JSON is a schema-versioned dump of the full ensemble result and
round-trips exactly (floats serialize via repr).  SVG is emitted directly,
no plotting dependency: fixed 800x600 viewport, linear axes, one polyline
per trajectory, heatmaps as rect grids.

The trajectory CSV, JSON and SVG are written one trajectory at a time, so
memory holds one trajectory's text, not the file's.  Each trajectory's CSV
rows, each polyline's points and each grid row are formatted by one ``%``
on a template (``"%.15g" % v`` is ``f"{v:.15g}"`` for every float, and
``%.2f`` likewise), not one value per call.

Heatmap colors interpolate linearly between five stops; a sign-straddling
range uses the diverging ramp #313695 #74add1 #f7f7f7 #f46d43 #a50026
centred on zero, otherwise the sequential ramp #440154 #3b528b #21918c
#5ec962 #fde725.  Values are clipped to the 2nd-98th percentile of the
finite cells (singular blowups would otherwise own the whole scale) and the
clip range is printed in the annotation line.  Masked cells (node guard or
density underflow) render light gray.

Field maps follow the block rule of ``sampling``'s bulk |psi|^2
evaluations: ``compute_field`` evaluates the grid in blocks of whole rows,
as many as fit in ``sampling._BLOCK`` cells and at least one, into one
values array, and the heatmap colors one block of rows at a time in one
array pass, with each distinct color (through one table per grid), column
and row coordinate formatted once.  Heatmaps and field CSVs are written to
the file one grid row at a time.  Each block goes through the same
elementwise numpy operations as the whole grid would, so every byte is the
one a single pass gives, and peak memory is the values array and one
block's temporaries.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleResult, trajectory_monitors
from .errors import ConfigurationError, InvalidParameterError
from .fields import StencilConfig, _qpot
from .sampling import _BLOCK
from .systems import (
    WaveField,
    _hydrogen_singular_mask,
    hydrogen_qpot_closed,
    oscillator_qpot_closed,
)

JSON_SCHEMA = "qctrans.ensemble/1"

_COORDS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_trajectories_csv(result: EnsembleResult, path: str) -> None:
    """One row per (trajectory, output time); truncated runs emit fewer rows.

    The first line is a ``#`` comment carrying the parameter annotation, so
    the caption values travel with the data file.  A trajectory's rows are
    one row template applied to the column stack of its t, x, v and
    monitors, and are written before the next trajectory is formatted.
    """
    system = result.scenario.system
    coords = _COORDS[system.dim]
    with _open_for_write(path) as fh:
        fh.write("# " + result.scenario.annotation() + "\n")
        for i, tr in enumerate(result.trajectories):
            mons = trajectory_monitors(system, tr)
            if i == 0:
                head = ["traj", "status", "t", *coords, *["v" + c for c in coords]]
                fh.write(",".join(head + ["m_" + k for k in mons]) + "\n")
            cols = np.column_stack([tr.t, tr.x, tr.v, *mons.values()])
            row = f"{i},{tr.status},".replace("%", "%%") + ",".join(["%.15g"] * cols.shape[1])
            fh.write(((row + "\n") * len(cols)) % tuple(cols.ravel().tolist()))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _document_head(result: EnsembleResult) -> dict:
    """The result document with an empty trajectory list, its last key."""
    sc = result.scenario
    return {
        "schema": JSON_SCHEMA,
        "name": sc.name,
        "annotation": sc.annotation(),
        "mode": sc.mode,
        "t": result.t.tolist(),
        "positions0": result.positions0.tolist(),
        "velocities0": result.velocities0.tolist(),
        "truncation_report": dict(result.truncation_report),
        "distribution_metrics": result.distribution_metrics,
        "diagnostics": [dict(vars(d)) for d in result.diagnostics],
        "trajectories": [],
    }


def _trajectory_entry(i, tr) -> dict:
    return {
        "index": i,
        "status": tr.status,
        "n_steps": tr.n_steps,
        "stop_t": tr.stop_t,
        "t": tr.t.tolist(),
        "x": tr.x.tolist(),
        "v": tr.v.tolist(),
    }


def write_result_json(result: EnsembleResult, path: str) -> None:
    """Strict JSON: a NaN or an infinity raises instead of writing a token
    that is not JSON, before the file is opened.

    The bytes are ``json.dumps`` of the whole document (``_document_head``
    with every ``_trajectory_entry`` in its trajectory list) and a newline;
    the trajectories are encoded and written one at a time.
    """
    head = json.dumps(_document_head(result), allow_nan=False)
    trajs = result.trajectories
    for i, tr in enumerate(trajs):
        # the error must come before the file exists: json.dumps raises on
        # the first non-finite float (stop_t is None for a full run)
        if not all(np.isfinite(a).all() for a in (tr.t, tr.x, tr.v, tr.stop_t or 0.0)):
            json.dumps(_trajectory_entry(i, tr), allow_nan=False)
    with _open_for_write(path) as fh:
        fh.write(head[:-2])  # up to and including the '[' of "trajectories": []
        for i, tr in enumerate(trajs):
            fh.write((", " if i else "") + json.dumps(_trajectory_entry(i, tr), allow_nan=False))
        fh.write("]}\n")


def load_result(path: str) -> dict:
    """Load a result document; trajectory t/x/v come back as float arrays."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != JSON_SCHEMA:
        raise ConfigurationError(
            f"unsupported schema {doc.get('schema')!r}, expected {JSON_SCHEMA!r}", path="schema"
        )
    for tr in doc["trajectories"]:
        for key in ("t", "x", "v"):
            tr[key] = np.asarray(tr[key], dtype=float)
    doc["t"] = np.asarray(doc["t"], dtype=float)
    doc["positions0"] = np.asarray(doc["positions0"], dtype=float)
    doc["velocities0"] = np.asarray(doc["velocities0"], dtype=float)
    return doc


# ---------------------------------------------------------------------------
# field grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldGrid:
    quantity: str
    xlabel: str
    ylabel: str
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (ny, nx); NaN where masked
    note: str = ""


# field maps relax the node guard down to the underflow floor: the map
# should fill the window, and Q from smooth tails stays well conditioned
_FIELD_STENCIL = StencilConfig(min_rho=1e-250)


def compute_field(system: WaveField, cfg) -> FieldGrid:
    """Evaluate rho / S / Q on the configured window.

    1D systems span (x, t); 2D the plane; 3D the configured coordinate plane
    at the configured offset.  Singular and underflowed cells come back NaN.
    The grid is evaluated in blocks of whole rows, as many as fit in
    ``_BLOCK`` cells and at least one, into one values array.
    """
    xs = np.linspace(cfg.xlim[0], cfg.xlim[1], cfg.nx)
    ys = np.linspace(cfg.ylim[0], cfg.ylim[1], cfg.ny)
    rest = None  # 3D systems: the axis held at the offset
    if system.dim == 1:
        note, labels = "", ("x", "t")
    elif system.dim == 2:
        note, labels = f"t={cfg.t:.10g}", ("x", "y")
    else:
        labels = {"xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z")}[cfg.plane]
        rest = next(c for c in "xyz" if c not in labels)
        note = f"plane={cfg.plane} {rest}={cfg.offset:.10g} t={cfg.t:.10g}"
    vals = np.empty((cfg.ny, cfg.nx))
    rows = max(1, _BLOCK // cfg.nx)
    for r in range(0, cfg.ny, rows):
        gx, gy = np.meshgrid(xs, ys[r : r + rows])
        vals[r : r + rows] = _field_rows(system, cfg, gx, gy, labels, rest)
    return FieldGrid(cfg.quantity, *labels, xs, ys, vals, note)


def _field_rows(system, cfg, gx, gy, labels, rest):
    """The field on the grid rows whose coordinates are gx, gy; |psi|^2 is
    evaluated only where the quantity or its mask reads it."""
    if system.dim == 1:
        # the y axis is time: every row is evaluated at its own t
        pts, t = gx[..., None], gy
    elif system.dim == 2:
        pts, t = np.stack([gx, gy], axis=-1), cfg.t
    else:
        table = {labels[0]: gx, labels[1]: gy, rest: np.full_like(gx, cfg.offset)}
        x3, y3, z3 = table["x"], table["y"], table["z"]
        pts, t = np.stack([x3, y3, z3], axis=-1), cfg.t
    if cfg.quantity == "Q" and system.dim == 1:
        q, ok = _qpot(system, pts, t, _FIELD_STENCIL)
        return np.where(ok, q, np.nan)
    rho = system.rho(pts, t)
    if cfg.quantity == "rho":
        return rho
    dense = rho >= _FIELD_STENCIL.min_rho
    if cfg.quantity == "S":
        return np.where(dense, np.angle(system.psi(pts, t)), np.nan)
    vals = np.full(gx.shape, np.nan)
    p = system.params
    if system.kind == "oscillator_2d":
        c = math.cos(p.alpha)
        g = gx * gx + 2.0 * c * gx * gy + gy * gy
        good = (g >= 1e-250) & dense
        vals[good] = oscillator_qpot_closed(p, gx[good], gy[good])
    else:
        good = ~_hydrogen_singular_mask(p, x3, y3, z3) & dense
        vals[good] = hydrogen_qpot_closed(p, x3[good], y3[good], z3[good])
    return vals


def _check_grid(grid: FieldGrid) -> None:
    # the writers stream one grid row at a time; a mismatched grid must fail
    # before the file is opened, not leave a truncated file
    if grid.values.shape != (grid.ys.size, grid.xs.size):
        raise InvalidParameterError(
            f"field values have shape {grid.values.shape}, "
            f"axes need ({grid.ys.size}, {grid.xs.size})"
        )


def _row_pieces(cell: str, xs: list) -> list:
    """One grid row's template, cut at its row slots: ``cell`` holds one
    ``%`` for the column's x and a NUL for the row's own text, so
    ``text.join(pieces)`` leaves one ``%`` per cell for the row's values."""
    return "".join([cell % x for x in xs]).split("\0")


def write_field_csv(grid: FieldGrid, path: str, annotation: str = "") -> None:
    """One ``x,y,value`` row per cell, rows of the grid in turn.

    Each coordinate is formatted once; a row's values are formatted by one
    ``%`` on the grid's row template.  The file is written one grid row at
    a time.
    """
    _check_grid(grid)
    head = []
    if annotation:
        note = f" | {grid.note}" if grid.note else ""
        head.append(f"# {annotation}{note}\n")
    head.append(f"{grid.xlabel},{grid.ylabel},{grid.quantity}\n")
    pieces = _row_pieces("%.15g\0%%.15g\n", grid.xs.tolist())
    with _open_for_write(path) as fh:
        fh.write("".join(head))
        for y, row in zip(grid.ys.tolist(), grid.values):
            fh.write((",%.15g," % y).join(pieces) % tuple(row.tolist()))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 25, 48, 52
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

_SEQ = ("#440154", "#3b528b", "#21918c", "#5ec962", "#fde725")
_DIV = ("#313695", "#74add1", "#f7f7f7", "#f46d43", "#a50026")
_MASK_COLOR = "#dddddd"


def _nice_ticks(lo, hi, target=6):
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _escape(text):
    """&, > and < as SVG text entities, in the order of
    ``xml.sax.saxutils.escape`` (whose import pulls in urllib and http)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Canvas:
    """Minimal SVG plot surface with linear data-to-pixel mapping."""

    def __init__(self, xlim, ylim, xlabel, ylabel, title):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="10" y="20" font-family="monospace" font-size="12">{_escape(title)}</text>',
        ]
        self._axes(xlabel, ylabel)

    def px(self, x):
        return _ML + (x - self.x0) / (self.x1 - self.x0) * _PW

    def py(self, y):
        return _MT + _PH - (y - self.y0) / (self.y1 - self.y0) * _PH

    def _axes(self, xlabel, ylabel):
        p = self.parts
        p.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
            f'fill="none" stroke="black"/>'
        )
        for tx in _nice_ticks(self.x0, self.x1):
            px = self.px(tx)
            p.append(f'<line x1="{px:.2f}" y1="{_MT + _PH}" x2="{px:.2f}" '
                     f'y2="{_MT + _PH + 5}" stroke="black"/>')
            p.append(f'<text x="{px:.2f}" y="{_MT + _PH + 18}" font-size="11" '
                     f'text-anchor="middle">{tx:.6g}</text>')
        for ty in _nice_ticks(self.y0, self.y1):
            py = self.py(ty)
            p.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                     f'y2="{py:.2f}" stroke="black"/>')
            p.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{ty:.6g}</text>')
        p.append(f'<text x="{_ML + _PW / 2}" y="{_H - 12}" font-size="13" '
                 f'text-anchor="middle">{_escape(xlabel)}</text>')
        p.append(f'<text x="16" y="{_MT + _PH / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MT + _PH / 2})">{_escape(ylabel)}</text>')

    def polyline(self, xs, ys, color, width=1.0):
        xy = np.column_stack([self.px(xs), self.py(ys)]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'

    def circle(self, x, y, r, color):
        return f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" fill="{color}"/>'


def _projection(system, tr):
    """2D drawing coordinates: (x, t) for 1D systems, (x, y) otherwise."""
    if system.dim == 1:
        return tr.x[:, 0], tr.t
    return tr.x[:, 0], tr.x[:, 1]


def write_trajectories_svg(result: EnsembleResult, path: str) -> None:
    """One polyline per trajectory, from a black dot at its start to a dot
    of its color at its end, on axes that hold every sample.

    The axis ranges come from each trajectory's own extremes; the frame and
    then each trajectory's elements are written as they are formatted.
    """
    system = result.scenario.system
    title = result.scenario.annotation()
    proj = [_projection(system, tr) for tr in result.trajectories]
    ends = np.array([[px.min(), px.max(), py.min(), py.max()] for px, py in proj if px.size]
                    or [[0.0, 1.0, 0.0, 1.0]])
    xlim = _padded(float(ends[:, 0].min()), float(ends[:, 1].max()))
    ylim = _padded(float(ends[:, 2].min()), float(ends[:, 3].max()))
    labels = ("x", "t") if system.dim == 1 else ("x", "y")
    if system.dim == 3:
        title += " | projection=xy"
    cv = _Canvas(xlim, ylim, labels[0], labels[1], title)
    with _open_for_write(path) as fh:
        fh.write("\n".join(cv.parts))
        for i, (px, py) in enumerate(proj):
            color = _PALETTE[i % len(_PALETTE)]
            fh.write("\n" + cv.polyline(px, py, color))
            if px.shape[0]:
                fh.write("\n" + cv.circle(px[0], py[0], 2.5, "black")
                         + "\n" + cv.circle(px[-1], py[-1], 3.5, color))
        fh.write("\n</svg>\n")


def _padded(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return (0.0, 1.0)
    if hi <= lo:
        return (lo - 0.5, lo + 0.5)
    pad = 0.04 * (hi - lo)
    return (lo - pad, hi + pad)


def _ramp_codes(stops, vals, vmin, vmax):
    """24-bit RGB code of every cell of ``vals``, -1 where it is not finite.

    Each finite value maps to u = (v - vmin) / (vmax - vmin), clipped to
    [0, 1] and interpolated linearly between the stops; a channel is rounded
    half to even.
    """
    rgb = np.array([list(bytes.fromhex(s[1:])) for s in stops], dtype=np.int64)
    ok = np.isfinite(vals)
    u = np.clip((vals[ok] - vmin) / (vmax - vmin), 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(u.astype(np.int64), len(stops) - 2)
    f = (u - i)[:, None]
    chan = np.rint(rgb[i] + f * (rgb[i + 1] - rgb[i])).astype(np.int64)
    code = np.full(vals.shape, -1, dtype=np.int64)
    code[ok] = (chan[:, 0] << 16) | (chan[:, 1] << 8) | chan[:, 2]
    return code


def write_field_svg(grid: FieldGrid, title: str, path: str) -> None:
    """Heatmap of a field grid: one rect per cell, colored one block of rows
    at a time and written row by row.  Both clip percentiles come from one
    partition of the finite cells' copy.  A cell's size is the spacing of
    its axis, so each axis needs at least 2 points."""
    _check_grid(grid)
    if min(grid.xs.size, grid.ys.size) < 2:
        raise InvalidParameterError(
            f"a field map needs at least 2 points per axis, got {grid.xs.size} x "
            f"{grid.ys.size}")
    vals = grid.values
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        vmin, vmax = 0.0, 1.0
    else:
        vmin, vmax = np.percentile(finite, [2, 98], overwrite_input=True).tolist()
        if vmax <= vmin:
            vmin, vmax = float(finite.min()), float(finite.max() or 1.0)
        if vmax <= vmin:
            vmax = vmin + 1.0
    diverging = vmin < 0.0 < vmax
    if diverging:
        amp = max(-vmin, vmax)
        vmin, vmax = -amp, amp
    stops = _DIV if diverging else _SEQ
    full_title = f"{grid.quantity} | {title} | clip=[{vmin:.4g},{vmax:.4g}]"
    if grid.note:
        full_title += f" | {grid.note}"
    dx = grid.xs[1] - grid.xs[0]
    dy = grid.ys[1] - grid.ys[0]
    cv = _Canvas(
        (grid.xs[0] - 0.5 * dx, grid.xs[-1] + 0.5 * dx),
        (grid.ys[0] - 0.5 * dy, grid.ys[-1] + 0.5 * dy),
        grid.xlabel, grid.ylabel, full_title,
    )
    # a cell's rect spans [x - dx/2, x + dx/2] x [y - dy/2, y + dy/2]; its
    # top-left corner in pixels is px(x - dx/2), py(y - dy/2 + dy), summed
    # in that order because y + dy/2 can round differently
    size = (f'" width="{dx / (cv.x1 - cv.x0) * _PW + 0.5:.2f}" '
            f'height="{dy / (cv.y1 - cv.y0) * _PH + 0.5:.2f}" fill="')
    pieces = _row_pieces('\n<rect x="%.2f" y="\0%%s"/>', cv.px(grid.xs - 0.5 * dx).tolist())
    mids = [f"{py:.2f}" + size for py in cv.py(grid.ys - 0.5 * dy + dy).tolist()]
    names = {-1: _MASK_COLOR}  # each color's code to its text, formatted once per grid
    rows = max(1, _BLOCK // grid.xs.size)
    with _open_for_write(path) as fh:
        fh.write("\n".join(cv.parts))
        for r in range(0, len(mids), rows):
            code = _ramp_codes(stops, vals[r : r + rows], vmin, vmax)
            distinct, which = np.unique(code, return_inverse=True)
            for c in distinct.tolist():
                if c not in names:
                    names[c] = "#%06x" % c
            colors = np.array([names[c] for c in distinct.tolist()],
                              dtype=object)[which.reshape(code.shape)]
            for mid, row in zip(mids[r : r + rows], colors.tolist()):
                fh.write(mid.join(pieces) % tuple(row))
        fh.write("\n</svg>\n")


# ---------------------------------------------------------------------------
# top-level export
# ---------------------------------------------------------------------------

def export_result(result: EnsembleResult) -> list:
    """Write the artifacts the scenario's output section names into its
    directory; returns the paths written."""
    sc = result.scenario
    out = sc.output
    os.makedirs(out.directory, exist_ok=True)
    base = os.path.join(out.directory, out.basename or "run")
    paths = []
    if "csv" in out.formats:
        write_trajectories_csv(result, base + ".csv")
        paths.append(base + ".csv")
    if "json" in out.formats:
        write_result_json(result, base + ".json")
        paths.append(base + ".json")
    if "svg" in out.formats:
        write_trajectories_svg(result, base + ".svg")
        paths.append(base + ".svg")
    if out.field is not None:
        paths += _write_field(compute_field(sc.system, out.field), sc, base, out.formats)
    return paths


def _write_field(grid, scenario, base, formats) -> list:
    """Write ``grid`` as ``<base>_field.csv`` and ``<base>_field.svg``, each
    when ``formats`` names it, annotated with the scenario; returns the
    paths written."""
    paths = []
    if "csv" in formats:
        write_field_csv(grid, base + "_field.csv", annotation=scenario.annotation())
        paths.append(base + "_field.csv")
    if "svg" in formats:
        write_field_svg(grid, scenario.annotation(), base + "_field.svg")
        paths.append(base + "_field.svg")
    return paths


def _open_for_write(path):
    """Open ``path`` for writing text, creating missing parent directories."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    return open(path, "w", encoding="utf-8")
