"""Artifact writers: trajectory CSV/JSON, field grids, static SVG plots.

CSV holds one row per (trajectory, output time) with 15-significant-digit
decimals; monitor columns are prefixed ``m_`` so coordinate names never
collide.  JSON is a schema-versioned dump of the full ensemble result and
round-trips exactly (floats serialize via repr).  SVG is emitted directly,
no plotting dependency: fixed 800x600 viewport, linear axes, one polyline
per trajectory, heatmaps as rect grids.

Heatmap colors interpolate linearly between five stops; a sign-straddling
range uses the diverging ramp #313695 #74add1 #f7f7f7 #f46d43 #a50026
centred on zero, otherwise the sequential ramp #440154 #3b528b #21918c
#5ec962 #fde725.  Values are clipped to the 2nd-98th percentile of the
finite cells (singular blowups would otherwise own the whole scale) and the
clip range is printed in the annotation line.  Masked cells (node guard or
density underflow) render light gray.  Every cell's color comes from one
array pass over the grid, with each distinct color, column and row
coordinate formatted once; heatmaps and field CSVs are written to the file
one grid row at a time.
"""

import json
import math
import os
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .ensemble import EnsembleResult, trajectory_monitors
from .errors import ConfigurationError, InvalidParameterError
from .fields import StencilConfig, _qpot
from .systems import (
    WaveField,
    _hydrogen_singular_mask,
    hydrogen_qpot_closed,
    oscillator_qpot_closed,
)

JSON_SCHEMA = "qctrans.ensemble/1"

_COORDS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def _g(v: float) -> str:
    return f"{v:.15g}"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_trajectories_csv(result: EnsembleResult, path: str) -> None:
    """One row per (trajectory, output time); truncated runs emit fewer rows.

    The first line is a ``#`` comment carrying the parameter annotation, so
    the caption values travel with the data file.
    """
    system = result.scenario.system
    coords = _COORDS[system.dim]
    mon_names = None
    lines = ["# " + result.scenario.annotation()]
    for i, tr in enumerate(result.trajectories):
        mons = trajectory_monitors(system, tr)
        if mon_names is None:
            mon_names = list(mons)
            head = ["traj", "status", "t"]
            head += coords
            head += [f"v{c}" for c in coords]
            head += [f"m_{k}" for k in mon_names]
            lines.append(",".join(head))
        for j in range(tr.t.shape[0]):
            row = [str(i), tr.status, _g(tr.t[j])]
            row += [_g(v) for v in tr.x[j]]
            row += [_g(v) for v in tr.v[j]]
            row += [_g(mons[k][j]) for k in mon_names]
            lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def result_document(result: EnsembleResult) -> dict:
    """JSON-ready dict of the full ensemble result."""
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
        "diagnostics": [
            {
                "index": d.index,
                "status": d.status,
                "n_steps": d.n_steps,
                "stop_t": d.stop_t,
                "monitors": d.monitors,
            }
            for d in result.diagnostics
        ],
        "trajectories": [
            {
                "index": i,
                "status": tr.status,
                "n_steps": tr.n_steps,
                "stop_t": tr.stop_t,
                "t": tr.t.tolist(),
                "x": tr.x.tolist(),
                "v": tr.v.tolist(),
            }
            for i, tr in enumerate(result.trajectories)
        ],
    }


def write_result_json(result: EnsembleResult, path: str) -> None:
    """Strict JSON: a NaN or an infinity raises instead of writing a token
    that is not JSON."""
    _write_text(path, json.dumps(result_document(result), allow_nan=False) + "\n")


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
    """
    xs = np.linspace(cfg.xlim[0], cfg.xlim[1], cfg.nx)
    ys = np.linspace(cfg.ylim[0], cfg.ylim[1], cfg.ny)
    gx, gy = np.meshgrid(xs, ys)
    if system.dim == 1:
        # the y axis is time: every row is evaluated at its own t
        pts, t, note = gx[..., None], gy, ""
    elif system.dim == 2:
        pts = np.stack([gx, gy], axis=-1)
        t, note = cfg.t, f"t={cfg.t:.10g}"
        x3, y3, z3 = gx, gy, None
    else:
        axes = {"xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z")}[cfg.plane]
        off = np.full_like(gx, cfg.offset)
        table = {"x": None, "y": None, "z": None}
        table[axes[0]] = gx
        table[axes[1]] = gy
        rest = next(k for k, v in table.items() if v is None)
        table[rest] = off
        x3, y3, z3 = table["x"], table["y"], table["z"]
        pts = np.stack([x3, y3, z3], axis=-1)
        t, note = cfg.t, f"plane={cfg.plane} {rest}={cfg.offset:.10g} t={cfg.t:.10g}"
    rho = system.rho(pts, t)
    if cfg.quantity == "rho":
        return FieldGrid("rho", *_plane_labels(system, cfg), xs, ys, rho, note)
    if cfg.quantity == "S":
        s = np.angle(system.psi(pts, t))
        s = np.where(rho >= _FIELD_STENCIL.min_rho, s, np.nan)
        return FieldGrid("S", *_plane_labels(system, cfg), xs, ys, s, note)
    if system.dim == 1:
        vals, ok = _qpot(system, pts, t, _FIELD_STENCIL)
        return FieldGrid("Q", *_plane_labels(system, cfg), xs, ys, np.where(ok, vals, np.nan), note)
    vals = np.full(gx.shape, np.nan)
    if system.kind == "oscillator_2d":
        p = system.params
        c = math.cos(p.alpha)
        g = gx * gx + 2.0 * c * gx * gy + gy * gy
        good = (g >= 1e-250) & (rho >= _FIELD_STENCIL.min_rho)
        vals[good] = oscillator_qpot_closed(p, gx[good], gy[good])
    else:
        p = system.params
        good = ~_hydrogen_singular_mask(p, x3, y3, z3) & (rho >= _FIELD_STENCIL.min_rho)
        vals[good] = hydrogen_qpot_closed(p, x3[good], y3[good], z3[good])
    return FieldGrid("Q", *_plane_labels(system, cfg), xs, ys, vals, note)


def _plane_labels(system, cfg):
    if system.dim == 1:
        return "x", "t"
    if system.dim == 2:
        return "x", "y"
    return tuple({"xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z")}[cfg.plane])


def _check_grid(grid: FieldGrid) -> None:
    # the writers stream one grid row at a time; a mismatched grid must fail
    # before the file is opened, not leave a truncated file
    if grid.values.shape != (grid.ys.size, grid.xs.size):
        raise InvalidParameterError(
            f"field values have shape {grid.values.shape}, "
            f"axes need ({grid.ys.size}, {grid.xs.size})"
        )


def write_field_csv(grid: FieldGrid, path: str, annotation: str = "") -> None:
    """One ``x,y,value`` row per cell, rows of the grid in turn.

    Each coordinate is formatted once; only the value column is formatted
    per cell.  The file is written one grid row at a time.
    """
    _check_grid(grid)
    head = []
    if annotation:
        note = f" | {grid.note}" if grid.note else ""
        head.append(f"# {annotation}{note}\n")
    head.append(f"{grid.xlabel},{grid.ylabel},{grid.quantity}\n")
    xcols = [_g(x) for x in grid.xs.tolist()]
    ycols = ["," + _g(y) + "," for y in grid.ys.tolist()]
    with _open_for_write(path) as fh:
        fh.write("".join(head))
        for yc, row in zip(ycols, grid.values.tolist()):
            fh.write("".join([xc + yc + _g(v) + "\n" for xc, v in zip(xcols, row)]))


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


class _Canvas:
    """Minimal SVG plot surface with linear data-to-pixel mapping."""

    def __init__(self, xlim, ylim, xlabel, ylabel, title):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="10" y="20" font-family="monospace" font-size="12">{escape(title)}</text>',
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
                 f'text-anchor="middle">{escape(xlabel)}</text>')
        p.append(f'<text x="16" y="{_MT + _PH / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MT + _PH / 2})">{escape(ylabel)}</text>')

    def polyline(self, xs, ys, color, width=1.0):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" fill="{color}"/>'
        )

    def render(self):
        return "\n".join(self.parts) + "\n</svg>\n"


def _projection(system, tr):
    """2D drawing coordinates: (x, t) for 1D systems, (x, y) otherwise."""
    if system.dim == 1:
        return tr.x[:, 0], tr.t
    return tr.x[:, 0], tr.x[:, 1]


def write_trajectories_svg(result: EnsembleResult, path: str) -> None:
    system = result.scenario.system
    title = result.scenario.annotation()
    xs_all, ys_all = [], []
    proj = []
    for tr in result.trajectories:
        px, py = _projection(system, tr)
        proj.append((px, py))
        xs_all.append(px)
        ys_all.append(py)
    ax = np.concatenate(xs_all) if xs_all else np.array([0.0, 1.0])
    ay = np.concatenate(ys_all) if ys_all else np.array([0.0, 1.0])
    xlim = _padded(float(ax.min()), float(ax.max()))
    ylim = _padded(float(ay.min()), float(ay.max()))
    labels = ("x", "t") if system.dim == 1 else ("x", "y")
    if system.dim == 3:
        title += " | projection=xy"
    cv = _Canvas(xlim, ylim, labels[0], labels[1], title)
    for i, (px, py) in enumerate(proj):
        color = _PALETTE[i % len(_PALETTE)]
        cv.polyline(px, py, color)
        if px.shape[0]:
            cv.circle(px[0], py[0], 2.5, "black")
            cv.circle(px[-1], py[-1], 3.5, color)
    _write_text(path, cv.render())


def _padded(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return (0.0, 1.0)
    if hi <= lo:
        return (lo - 0.5, lo + 0.5)
    pad = 0.04 * (hi - lo)
    return (lo - pad, hi + pad)


def _ramp_colors(stops, vals, vmin, vmax):
    """Fill color of every cell of ``vals``, in one array pass.

    Each finite value maps to u = (v - vmin) / (vmax - vmin), clipped to
    [0, 1] and interpolated linearly between the stops; a channel is rounded
    half to even.  Returns an object array of color strings, each distinct
    color formatted once; non-finite cells get the mask color.
    """
    rgb = np.array([list(bytes.fromhex(s[1:])) for s in stops], dtype=np.int64)
    ok = np.isfinite(vals)
    u = np.clip((vals[ok] - vmin) / (vmax - vmin), 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(u.astype(np.int64), len(stops) - 2)
    f = (u - i)[:, None]
    chan = np.rint(rgb[i] + f * (rgb[i + 1] - rgb[i])).astype(np.int64)
    code = np.full(vals.shape, -1, dtype=np.int64)
    code[ok] = (chan[:, 0] << 16) | (chan[:, 1] << 8) | chan[:, 2]
    distinct, which = np.unique(code, return_inverse=True)
    names = np.array([_MASK_COLOR if c < 0 else "#%06x" % c for c in distinct.tolist()],
                     dtype=object)
    return names[which.reshape(vals.shape)]


def write_field_svg(grid: FieldGrid, title: str, path: str) -> None:
    """Heatmap of a field grid: one rect per cell, written row by row."""
    _check_grid(grid)
    vals = grid.values
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        vmin, vmax = 0.0, 1.0
    else:
        vmin, vmax = (float(np.percentile(finite, 2)), float(np.percentile(finite, 98)))
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
    heads = [f'\n<rect x="{px:.2f}" y="' for px in cv.px(grid.xs - 0.5 * dx).tolist()]
    mids = [f"{py:.2f}" + size for py in cv.py(grid.ys - 0.5 * dy + dy).tolist()]
    colors = _ramp_colors(stops, vals, vmin, vmax)
    with _open_for_write(path) as fh:
        fh.write("\n".join(cv.parts))
        for mid, row in zip(mids, colors.tolist()):
            fh.write("".join([h + mid + c + '"/>' for h, c in zip(heads, row)]))
        fh.write("\n</svg>\n")


# ---------------------------------------------------------------------------
# top-level export
# ---------------------------------------------------------------------------

def export_result(result: EnsembleResult, directory=None, formats=None) -> list:
    """Write all configured artifacts; returns the paths written."""
    sc = result.scenario
    out = sc.output
    directory = out.directory if directory is None else directory
    formats = out.formats if formats is None else tuple(formats)
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, out.basename or "run")
    paths = []
    if "csv" in formats:
        write_trajectories_csv(result, base + ".csv")
        paths.append(base + ".csv")
    if "json" in formats:
        write_result_json(result, base + ".json")
        paths.append(base + ".json")
    if "svg" in formats:
        write_trajectories_svg(result, base + ".svg")
        paths.append(base + ".svg")
    if out.field is not None:
        grid = compute_field(sc.system, out.field)
        if "csv" in formats:
            write_field_csv(grid, base + "_field.csv", annotation=sc.annotation())
            paths.append(base + "_field.csv")
        if "svg" in formats:
            write_field_svg(grid, sc.annotation(), base + "_field.svg")
            paths.append(base + "_field.svg")
    return paths


def _open_for_write(path):
    """Open ``path`` for writing text, creating missing parent directories."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _write_text(path, text) -> None:
    with _open_for_write(path) as fh:
        fh.write(text)
