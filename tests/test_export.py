"""Field writers against an independent per-cell oracle.

``_oracle_field_csv`` and ``_oracle_field_svg`` are the cell-by-cell
writers the array path in ``qctrans.export`` replaced, kept here verbatim in
behaviour and sharing no code with it: every cell's color is interpolated
in Python floats and rounded with ``round``, every coordinate formatted on
its own.  The array writers must reproduce their bytes exactly.
"""
import math
from xml.sax.saxutils import escape

import numpy as np
import pytest

import qctrans as qt
from qctrans.cli import main
from qctrans.export import (
    FieldGrid,
    _escape,
    compute_field,
    write_field_csv,
    write_field_svg,
)

# --- oracle ---------------------------------------------------------------------

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 25, 48, 52
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB
_SEQ = ("#440154", "#3b528b", "#21918c", "#5ec962", "#fde725")
_DIV = ("#313695", "#74add1", "#f7f7f7", "#f46d43", "#a50026")


def _g(v):
    return f"{v:.15g}"


def _oracle_field_csv(grid, annotation=""):
    lines = []
    if annotation:
        note = f" | {grid.note}" if grid.note else ""
        lines.append(f"# {annotation}{note}")
    lines.append(f"{grid.xlabel},{grid.ylabel},{grid.quantity}")
    for j, yv in enumerate(grid.ys):
        for i, xv in enumerate(grid.xs):
            lines.append(f"{_g(xv)},{_g(yv)},{_g(grid.values[j, i])}")
    return "\n".join(lines) + "\n"


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


def _hex_to_rgb(h):
    return tuple(int(h[i : i + 2], 16) for i in (1, 3, 5))


def _ramp(stops, u):
    u = min(max(u, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(u), len(stops) - 2)
    f = u - i
    a = _hex_to_rgb(stops[i])
    b = _hex_to_rgb(stops[i + 1])
    return "#%02x%02x%02x" % tuple(round(a[k] + f * (b[k] - a[k])) for k in range(3))


def _oracle_field_svg(grid, title):
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
    x0, x1 = grid.xs[0] - 0.5 * dx, grid.xs[-1] + 0.5 * dx
    y0, y1 = grid.ys[0] - 0.5 * dy, grid.ys[-1] + 0.5 * dy

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * _PW

    def py(y):
        return _MT + _PH - (y - y0) / (y1 - y0) * _PH

    p = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="10" y="20" font-family="monospace" font-size="12">{escape(full_title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" stroke="black"/>',
    ]
    for tx in _nice_ticks(x0, x1):
        X = px(tx)
        p.append(f'<line x1="{X:.2f}" y1="{_MT + _PH}" x2="{X:.2f}" '
                 f'y2="{_MT + _PH + 5}" stroke="black"/>')
        p.append(f'<text x="{X:.2f}" y="{_MT + _PH + 18}" font-size="11" '
                 f'text-anchor="middle">{tx:.6g}</text>')
    for ty in _nice_ticks(y0, y1):
        Y = py(ty)
        p.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                 f'y2="{Y:.2f}" stroke="black"/>')
        p.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" font-size="11" '
                 f'text-anchor="end">{ty:.6g}</text>')
    p.append(f'<text x="{_ML + _PW / 2}" y="{_H - 12}" font-size="13" '
             f'text-anchor="middle">{escape(grid.xlabel)}</text>')
    p.append(f'<text x="16" y="{_MT + _PH / 2}" font-size="13" text-anchor="middle" '
             f'transform="rotate(-90 16 {_MT + _PH / 2})">{escape(grid.ylabel)}</text>')
    for j, yv in enumerate(grid.ys):
        for i, xv in enumerate(grid.xs):
            v = vals[j, i]
            color = "#dddddd" if not math.isfinite(v) else _ramp(stops, (v - vmin) / (vmax - vmin))
            x, y = xv - 0.5 * dx, yv - 0.5 * dy
            p.append(
                f'<rect x="{px(x):.2f}" y="{py(y + dy):.2f}" '
                f'width="{dx / (x1 - x0) * _PW + 0.5:.2f}" '
                f'height="{dy / (y1 - y0) * _PH + 0.5:.2f}" fill="{color}"/>'
            )
    return "\n".join(p) + "\n</svg>\n"


def _assert_same_as_oracle(grid, tmp_path, title="t | a<b & c"):
    write_field_svg(grid, title, str(tmp_path / "g.svg"))
    write_field_csv(grid, str(tmp_path / "g.csv"), annotation=title)
    write_field_csv(grid, str(tmp_path / "bare.csv"))
    assert (tmp_path / "g.svg").read_bytes() == _oracle_field_svg(grid, title).encode()
    assert (tmp_path / "g.csv").read_bytes() == _oracle_field_csv(grid, title).encode()
    assert (tmp_path / "bare.csv").read_bytes() == _oracle_field_csv(grid).encode()


def _grid(values, xlim=(-3.3, 7.1), ylim=(0.25, 2.0), note="t=0.5"):
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    return FieldGrid("Q", "x", "y", np.linspace(*xlim, nx), np.linspace(*ylim, ny), values, note)


# --- small grids -------------------------------------------------------------

_RNG = np.random.default_rng(11)

_CASES = {
    "sequential": _RNG.uniform(0.2, 9.0, (7, 9)),
    "diverging": _RNG.normal(0.3, 2.0, (8, 6)),
    "masked": np.where(
        _RNG.uniform(size=(6, 7)) < 0.3,
        _RNG.choice([np.nan, np.inf, -np.inf], (6, 7)),
        _RNG.normal(size=(6, 7)),
    ),
    "constant": np.full((4, 5), 3.0),
    "constant_zero": np.zeros((3, 4)),
    "constant_negative": np.full((3, 3), -2.5),
    "all_masked": np.full((3, 4), np.nan),
}


def _sixteenths(lo, hi):
    """8x8 grid clipped to exactly [lo, hi], with u = k/16 for k = 0..16.

    u lands on every stop, at 1, and on channels exactly half-way between
    two integers (rounded half to even, e.g. 52.5 -> 52), plus one value
    beyond each end of the clip range.
    """
    span = hi - lo
    vals = [lo + span * k / 16 for k in range(17)] * 3
    vals += [lo] * 5 + [hi] * 6 + [lo - 0.5 * span, hi + 0.5 * span]
    return np.random.default_rng(3).permutation(vals).reshape(8, 8)


_CASES["stops_sequential"] = _sixteenths(0.0, 1.0)
_CASES["stops_diverging"] = _sixteenths(-1.0, 1.0)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_field_writers_match_per_cell_oracle(name, tmp_path):
    _assert_same_as_oracle(_grid(_CASES[name]), tmp_path)


def test_stop_grids_clip_where_intended():
    assert "clip=[0,1]" in _oracle_field_svg(_grid(_CASES["stops_sequential"]), "")
    assert "clip=[-1,1]" in _oracle_field_svg(_grid(_CASES["stops_diverging"]), "")


def test_field_writers_match_oracle_without_note(tmp_path):
    grid = _grid(_CASES["diverging"], xlim=(-1.0, 1.0), ylim=(-2.0, 3.0), note="")
    _assert_same_as_oracle(grid, tmp_path, title="")


@pytest.mark.parametrize("preset", ["fig4", "fig5", "fig7"])
def test_field_command_matches_per_cell_oracle(preset, tmp_path, capsys):
    out = tmp_path / "f"
    assert main(["field", "--preset", preset, "--out", str(out), "--grid", "51",
                 "--formats", "csv,svg"]) == 0
    doc = qt.preset_doc(preset)
    doc.setdefault("output", {}).setdefault("field", {}).update(nx=51, ny=51)
    sc = qt.build_scenario(doc, name=preset)
    grid = compute_field(sc.system, sc.output.field)
    svg = (out / f"{preset}_field.svg").read_bytes()
    assert svg == _oracle_field_svg(grid, sc.annotation()).encode()
    csv = (out / f"{preset}_field.csv").read_bytes()
    assert csv == _oracle_field_csv(grid, sc.annotation()).encode()


# --- file contract -----------------------------------------------------------

def test_field_writers_create_missing_directories(tmp_path):
    grid = _grid(_CASES["masked"])
    svg = tmp_path / "a" / "b" / "map.svg"
    csv = tmp_path / "c" / "d" / "e" / "map.csv"
    write_field_svg(grid, "t", str(svg))
    write_field_csv(grid, str(csv), annotation="t")
    assert svg.read_bytes() == _oracle_field_svg(grid, "t").encode()
    assert csv.read_bytes() == _oracle_field_csv(grid, "t").encode()


def test_mismatched_grid_fails_before_the_file_opens(tmp_path):
    grid = _grid(_CASES["sequential"])
    bad = FieldGrid("Q", "x", "y", grid.xs[:-1], grid.ys, grid.values)
    for write, path in ((lambda p: write_field_svg(bad, "t", p), "m.svg"),
                        (lambda p: write_field_csv(bad, p), "m.csv")):
        with pytest.raises(qt.InvalidParameterError):
            write(str(tmp_path / "new" / path))
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("text", [
    "", "plain", "a & b < c > d", "&amp; &lt;tag&gt;", "\"double\" and 'single'",
    "ψ(x, t) ≥ 0 & ρ < 1e-12", "<<&&>>", "guidance (2,1,1) <n=50>",
])
def test_svg_text_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)
