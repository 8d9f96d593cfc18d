"""Writers against independent per-value oracles.

``_oracle_field_csv`` and ``_oracle_field_svg`` are the cell-by-cell
writers the array path in ``qctrans.export`` replaced, kept here verbatim in
behaviour and sharing no code with it: every cell's color is interpolated
in Python floats and rounded with ``round``, every coordinate formatted on
its own.  ``_oracle_trajectories_csv``, ``_oracle_result_json`` and
``_oracle_trajectories_svg`` are, in the same way, the trajectory writers
that formatted one value per call and encoded the whole document at once.
The template writers must reproduce their bytes exactly.
"""
import dataclasses
import hashlib
import json
import math
import os
import tracemalloc
from xml.sax.saxutils import escape

import numpy as np
import pytest

import qctrans as qt
from qctrans.cli import main
from qctrans.ensemble import trajectory_monitors
from qctrans.export import (
    FieldGrid,
    _escape,
    _nice_ticks as _ticks,
    compute_field,
    load_result,
    write_field_csv,
    write_field_svg,
    write_result_json,
    write_trajectories_csv,
    write_trajectories_svg,
)
import oracles

# --- oracle ---------------------------------------------------------------------

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 25, 48, 52
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB
_SEQ = ("#440154", "#3b528b", "#21918c", "#5ec962", "#fde725")
_DIV = ("#313695", "#74add1", "#f7f7f7", "#f46d43", "#a50026")
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)
_COORDS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


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


def _oracle_frame(xlim, ylim, xlabel, ylabel, title):
    """Header, title and axes of a plot; returns the parts and the
    data-to-pixel maps."""
    x0, x1 = xlim
    y0, y1 = ylim

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * _PW

    def py(y):
        return _MT + _PH - (y - y0) / (y1 - y0) * _PH

    p = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="10" y="20" font-family="monospace" font-size="12">{escape(title)}</text>',
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
             f'text-anchor="middle">{escape(xlabel)}</text>')
    p.append(f'<text x="16" y="{_MT + _PH / 2}" font-size="13" text-anchor="middle" '
             f'transform="rotate(-90 16 {_MT + _PH / 2})">{escape(ylabel)}</text>')
    return p, px, py


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
    p, px, py = _oracle_frame((x0, x1), (y0, y1), grid.xlabel, grid.ylabel, full_title)
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


def _oracle_trajectories_csv(result):
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
    return "\n".join(lines) + "\n"


def _oracle_result_json(result):
    sc = result.scenario
    doc = {
        "schema": "qctrans.ensemble/1",
        "name": sc.name,
        "annotation": sc.annotation(),
        "mode": sc.mode,
        "t": result.t.tolist(),
        "positions0": result.positions0.tolist(),
        "velocities0": result.velocities0.tolist(),
        "truncation_report": dict(result.truncation_report),
        "distribution_metrics": result.distribution_metrics,
        "diagnostics": [
            {"index": d.index, "status": d.status, "n_steps": d.n_steps,
             "stop_t": d.stop_t, "monitors": d.monitors}
            for d in result.diagnostics
        ],
        "trajectories": [
            {"index": i, "status": tr.status, "n_steps": tr.n_steps, "stop_t": tr.stop_t,
             "t": tr.t.tolist(), "x": tr.x.tolist(), "v": tr.v.tolist()}
            for i, tr in enumerate(result.trajectories)
        ],
    }
    return json.dumps(doc, allow_nan=False) + "\n"


def _padded(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return (0.0, 1.0)
    if hi <= lo:
        return (lo - 0.5, lo + 0.5)
    pad = 0.04 * (hi - lo)
    return (lo - pad, hi + pad)


def _oracle_trajectories_svg(result):
    system = result.scenario.system
    proj = [(tr.x[:, 0], tr.t if system.dim == 1 else tr.x[:, 1])
            for tr in result.trajectories]
    ax = np.concatenate([a for a, _ in proj])
    ay = np.concatenate([b for _, b in proj])
    title = result.scenario.annotation() + (" | projection=xy" if system.dim == 3 else "")
    p, px, py = _oracle_frame(_padded(float(ax.min()), float(ax.max())),
                              _padded(float(ay.min()), float(ay.max())),
                              "x", "t" if system.dim == 1 else "y", title)
    for i, (xs, ys) in enumerate(proj):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        p.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.0"/>')
        if xs.shape[0]:
            p.append(f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" r="2.5" fill="black"/>')
            p.append(f'<circle cx="{px(xs[-1]):.2f}" cy="{py(ys[-1]):.2f}" r="3.5" '
                     f'fill="{color}"/>')
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


def test_phase_field_is_arg_psi_and_masks_the_underflow():
    # a window wide enough that the packet tails fall under the 1e-250 floor
    ds = qt.double_slit()
    window = {"xlim": (-30.0, 30.0), "ylim": (0.0, 1.0), "nx": 121, "ny": 41}
    grid = compute_field(ds, qt.FieldGridConfig(quantity="S", **window))
    rho = compute_field(ds, qt.FieldGridConfig(quantity="rho", **window)).values
    masked = np.isnan(grid.values)
    assert 0 < masked.sum() < masked.size
    assert np.array_equal(masked, rho < 1e-250)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    s = oracles.double_slit_s_closed(ds.params, gx[~masked], gy[~masked])
    assert np.abs(np.exp(1j * s) - np.exp(1j * grid.values[~masked])).max() < 1e-9


def _peak(f):
    """f() and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset", ["fig4", "fig5", "fig7"])
def test_field_maps_stay_in_bounded_memory(preset):
    # a 600 x 600 grid is a 2.9 MB values array; evaluated whole the map
    # peaked at 42-60 MB, the CSV writer at 12 MB and the SVG writer at 39 MB
    doc = qt.preset_doc(preset)
    doc["output"]["field"].update(nx=600, ny=600)
    sc = qt.build_scenario(doc, name=preset)
    grid, peak = _peak(lambda: compute_field(sc.system, sc.output.field))
    assert peak <= 8e6
    assert _peak(lambda: write_field_csv(grid, os.devnull, annotation="a"))[1] <= 5e6
    assert _peak(lambda: write_field_svg(grid, "a", os.devnull))[1] <= 12e6


# --- trajectory writers ------------------------------------------------------

# every status in each dimension: completed rows, rows cut at the step limit
# and starts inside the guard, which stop at once with one sample; the
# hydrogen start at the nucleus has the energy monitor -inf
_MIXED = {
    "double_slit": {
        "system": {"type": "double_slit"},
        "mode": "transition",
        "coupling": {"type": "logistic", "b": 2.0, "t0": 1.0},
        "ensemble": {"mode": "fixed", "positions": [[-3.0], [0.5], [3.1], [60.0], [-2.9]],
                     "velocities": [[0.0], [0.2], [-0.3], [0.0], [1.0]]},
        "time": {"start": 0.0, "end": 2.0, "n_outputs": 9},
        "integrator": {"max_steps": 40},
    },
    "oscillator_2d": {
        "system": {"type": "oscillator_2d"},
        "mode": "transition",
        "coupling": {"type": "constant", "value": 1.0},
        "ensemble": {"mode": "fixed",
                     "positions": [[1.0, 0.3], [-0.7, 1.2], [0.05, 0.0], [0.0, 0.0], [0.5, 0.0]],
                     "velocities": [[0.0, 1.0], [0.2, -0.4], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
        "time": {"start": 0.0, "end": 4.0, "n_outputs": 41},
        "integrator": {"max_steps": 60},
        "numerics": {"min_rho": 1e-6},
    },
    "hydrogen": {
        "system": {"type": "hydrogen"},
        "mode": "classical",
        "ensemble": {"mode": "fixed",
                     "positions": [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.3, 0.0, 0.1], [-2, 3, 1]],
                     "velocities": [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.1, 0.0],
                                    [0.1, 0.2, -0.3]]},
        "time": {"start": 0.0, "end": 10.0, "n_outputs": 9},
        "integrator": {"max_steps": 60},
    },
}


def _mixed(kind):
    return qt.run_ensemble(qt.build_scenario(_MIXED[kind], name=kind))


@pytest.mark.parametrize("kind", sorted(_MIXED))
def test_trajectory_writers_match_per_value_oracle(kind, tmp_path):
    res = _mixed(kind)
    assert set(res.truncation_report) == {"completed", "step_limit", "singular_stop"}
    once = [tr for tr in res.trajectories if tr.status == "singular_stop" and tr.t.size == 1]
    assert once
    if kind == "hydrogen":
        assert trajectory_monitors(res.scenario.system, once[0])["energy"][0] == -math.inf
    for write, oracle, name in ((write_trajectories_csv, _oracle_trajectories_csv, "r.csv"),
                                (write_result_json, _oracle_result_json, "r.json"),
                                (write_trajectories_svg, _oracle_trajectories_svg, "r.svg")):
        write(res, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == oracle(res).encode()


def _oracle_summary(series):
    """First and last finite sample, and the largest distance of a finite
    sample from the first; all None when no sample is finite."""
    finite = [v for v in series.tolist() if math.isfinite(v)]
    if not finite:
        return {"initial": None, "final": None, "max_drift": None}
    return {"initial": finite[0], "final": finite[-1],
            "max_drift": max(abs(v - finite[0]) for v in finite)}


@pytest.mark.parametrize("kind", sorted(_MIXED))
def test_monitor_summaries_match_per_trajectory_oracle(kind):
    # truncated rows: the samples after the stop are not theirs and must not
    # count; the hydrogen start at the nucleus has no finite energy at all
    res = _mixed(kind)
    system = res.scenario.system
    assert any(tr.t.size < res.t.size for tr in res.trajectories)
    for tr, d in zip(res.trajectories, res.diagnostics, strict=True):
        want = {k: _oracle_summary(s) for k, s in trajectory_monitors(system, tr).items()}
        assert d.monitors == want
    if kind == "hydrogen":
        assert {"initial": None, "final": None, "max_drift": None} in [
            d.monitors["energy"] for d in res.diagnostics]


# sha256 of every file ``qctrans simulate --formats csv,json,svg`` and
# ``qctrans sample --out`` write for the presets that are not hydrogen, as
# written by the per-value writers
_PRESET_DIGESTS = {
    "fig1.csv": "61b04aeba8db8550a4e2ef830b1cf365c49342e6534b3bb3d0238cd808a8ea4e",
    "fig1.json": "cc6aee03f15b8a55a63b62a27c711b34543213295d927f7eb9ec7ba400a82b02",
    "fig1.svg": "67a2d7ceb4943d01cefb8058e9dac2aacfe95c296e8906c4f1e06204ff7b0274",
    "fig1_classical.csv": "c337fafa929976cb821b2150659e90c22c05b480219f678a29e2265f5665ea7e",
    "fig1_classical.json": "0eafdc9dac6edaeba12773df5bd3be7fe18f77841e22e1c5a54f7480b9558df6",
    "fig1_classical.svg": "13ee0493d5f23547c49ad884c91c923f0b8ebf4ddfeb8b6363062beaf04b9b8c",
    "fig1_classical_samples.csv": "5c3601410679c51e3add855d51e8197b87ce62d5a9f4ccfb2c8c333dd6d9d8e0",
    "fig1_meso_a.csv": "9d2cb87e817f608a997e003972120906b40e8a9b3b4cac8dca049e043d182dcc",
    "fig1_meso_a.json": "0fba6bc30150fad556122b67ffd60c0e24ed041e473868fe7fac79cc31699bba",
    "fig1_meso_a.svg": "ddd4d526901bd69aa8c081625fd14eacc9c3f36a1a62c001ae3cea0b2f9cdd4c",
    "fig1_meso_a_samples.csv": "5c3601410679c51e3add855d51e8197b87ce62d5a9f4ccfb2c8c333dd6d9d8e0",
    "fig1_quantum.csv": "61b04aeba8db8550a4e2ef830b1cf365c49342e6534b3bb3d0238cd808a8ea4e",
    "fig1_quantum.json": "1ac932c9f1185b47964a79fce87a562116b99bea96df6377ce0762468615af7e",
    "fig1_quantum.svg": "67a2d7ceb4943d01cefb8058e9dac2aacfe95c296e8906c4f1e06204ff7b0274",
    "fig1_quantum_samples.csv": "5c3601410679c51e3add855d51e8197b87ce62d5a9f4ccfb2c8c333dd6d9d8e0",
    "fig1_samples.csv": "5c3601410679c51e3add855d51e8197b87ce62d5a9f4ccfb2c8c333dd6d9d8e0",
    "fig3.csv": "453c121a91cccda269a2074a099095d60f1c0b1c5da6cfdf81987a93a302b180",
    "fig3.json": "68147065a73f9494bbf6159813c6c4911e4de94f165fb7668aa1c958955ba08d",
    "fig3.svg": "6b6e44d9b1c6a0c17276914c5df800654ef79cfb44dacc97b1dd92c3e2244bf7",
    "fig3_classical.csv": "9bc6a8020807a24b5d90b4c712748e775a01fefa1f2b3a10d8ecc2e2c12157d8",
    "fig3_classical.json": "78c956a6c2147c1c9a919d672bbe03f92032ed1e8ce920335c442a374204a349",
    "fig3_classical.svg": "d73a0a34e1224dc1f50191d5c9a41d42833fb5336698b3cba7c9125a291c7277",
    "fig3_classical_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
    "fig3_meso_a.csv": "ac5bce63e2c22c4bfc9e91c2d75156afac437f036f22077bf6b078d0a834bbb2",
    "fig3_meso_a.json": "49541fce936e372b14ec590c1c1d3fa953e70a99a3d7c2adf34336fcc3864f07",
    "fig3_meso_a.svg": "5f878550f31f4a2f4a3907f84958ce88bc8d697d8d84307eb802664010beac83",
    "fig3_meso_a_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
    "fig3_meso_b.csv": "c898eb815ae77908c613a071367f451937af953dbc8c5c1fc5625d8b89e356f3",
    "fig3_meso_b.json": "bdb804150cb206bbba0369ab6957cd6f8c603f8e3a7ca7113b07cd0b1a13019d",
    "fig3_meso_b.svg": "be4a56d6ab280d65f17b473941a4adcea6182816c1a81ca5439b0ed5b52bf3ae",
    "fig3_meso_b_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
    "fig3_quantum.csv": "453c121a91cccda269a2074a099095d60f1c0b1c5da6cfdf81987a93a302b180",
    "fig3_quantum.json": "59864f2d48007936a128b402a03426411795badb3097b774116b00e3eb4bba90",
    "fig3_quantum.svg": "6b6e44d9b1c6a0c17276914c5df800654ef79cfb44dacc97b1dd92c3e2244bf7",
    "fig3_quantum_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
    "fig3_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
    "fig4.csv": "566b37925ed8d4c70b5d681b382a48a0c89824da9d01d97e3aae6d86f823e292",
    "fig4.json": "9a3d41510d5ca454b092d97477a6acb0606a6fb88970d8c1fd689179d5d2303c",
    "fig4.svg": "02f6494e32a2145fa18120206491da26fcbc47079864fd6753ad82e9b769a47e",
    "fig4_field.csv": "2903de27262b46cf6b6c5e167e75269d2fb5d7453a8978e94811c4b7ade8a157",
    "fig4_field.svg": "a6e8de672ecc056230b6a348ccfa380d51c1fd9ec22ce75d91cf027319a0f12e",
    "fig4_samples.csv": "ab5385a3b7e85ebc44f6d514b610899bd136042bc87e01738ced77735afcd2a0",
    "fig5.csv": "f61b910e4f30953ddb8bfc20c1f2e0fc58446581694c8dc18df9393f8defb560",
    "fig5.json": "d9b7b2a1579c70670dde16574b6e6e39e4b8b7066feff3e34fb39e89e8dc367a",
    "fig5.svg": "5a99ef49f948af8a678f72921682365d61c33579780cc531c7821bf444d979b2",
    "fig5_field.csv": "d5dc778dfb81574b3bce8783de25921d576c2dcac5716759f9272d7d5d6abd83",
    "fig5_field.svg": "2e1110dd5398dac04d2db64087eccfd9e0d6a148cd2bba403f71322e36538269",
    "fig5_samples.csv": "43833a2b1b4e8205f0d69ee703f4a15c1e54ec493f3a6759bd470ff610e3cc95",
}


def test_simulate_preset_files_keep_their_bytes(tmp_path, capsys):
    presets = sorted({name.split(".")[0].removesuffix("_field").removesuffix("_samples")
                      for name in _PRESET_DIGESTS})
    assert len(presets) == 11
    for preset in presets:
        assert main(["simulate", "--preset", preset, "--out", str(tmp_path),
                     "--formats", "csv,json,svg"]) == 0
        assert main(["sample", "--preset", preset, "--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in os.listdir(tmp_path)}
    assert got == _PRESET_DIGESTS


def test_trajectory_writers_hold_one_trajectory_at_a_time():
    # 800 trajectories of 141 samples: 16 MB of CSV, 11 MB of JSON and 1.7 MB
    # of SVG, which the writers must not hold whole (holding them peaks at
    # ~55 MB each for CSV and JSON, and at 7.4 MB for the SVG).
    # The cost is tracemalloc's, about six times the writers' own
    doc = {"system": {"type": "oscillator_2d"}, "mode": "guidance",
           "ensemble": {"mode": "rejection", "n": 800, "seed": 5},
           "time": {"start": 0.0, "end": 1.4, "n_outputs": 141}}
    res = qt.run_ensemble(qt.build_scenario(doc, name="big"), compute_metrics=False)
    for write, bound in ((write_trajectories_csv, 16e6), (write_result_json, 16e6),
                         (write_trajectories_svg, 3e6)):
        tracemalloc.start()
        try:
            write(res, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (write.__name__, peak)


def _poison(res, where):
    first, last = res.trajectories[0], res.trajectories[-1]
    if where == "first x":
        first.x[-1, 0] = np.nan
    elif where == "last v":
        last.v[0, -1] = -np.inf
    elif where == "last t":
        last.t[-1] = np.inf
    elif where == "stop_t":
        last.stop_t = np.nan
    else:
        res.positions0[1, 0] = np.nan


@pytest.mark.parametrize("where", ["first x", "last v", "last t", "stop_t", "positions0"])
def test_strict_json_writes_no_file(where, tmp_path):
    # a NaN or an infinity anywhere raises json's ValueError before the
    # file (or its directory) is created
    res = _mixed("oscillator_2d")
    _poison(res, where)
    path = tmp_path / "new" / "r.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_result_json(res, str(path))
    assert not (tmp_path / "new").exists()


# a hydrogen m = 0 state does not move under guidance: two starts one above
# the other draw one point in the xy projection
_STILL = {
    "system": {"type": "hydrogen", "n": 2, "l": 1, "m": 0},
    "mode": "guidance",
    "ensemble": {"mode": "fixed", "positions": [[1.0, 0.5, 2.0], [1.0, 0.5, -1.0]]},
    "time": {"start": 0.0, "end": 1.0, "n_outputs": 3},
}


def test_trajectory_svg_pads_degenerate_and_non_finite_ranges(tmp_path):
    res = qt.run_ensemble(qt.build_scenario(_STILL, name="still"), compute_metrics=False)
    for tr in res.trajectories:
        assert tr.completed and np.array_equal(tr.x[:, :2], np.tile([1.0, 0.5], (3, 1)))
    path = tmp_path / "r.svg"
    write_trajectories_svg(res, str(path))
    # zero-width ranges open to one unit around the value: the point is the
    # centre of the plot
    assert path.read_bytes() == _oracle_trajectories_svg(res).encode()
    assert '<circle cx="422.50" cy="298.00" r="2.5" fill="black"/>' in path.read_text()
    res.trajectories[1].x[1, 1] = np.nan
    write_trajectories_svg(res, str(path))
    # a non-finite sample makes its axis the unit range
    assert path.read_bytes() == _oracle_trajectories_svg(res).encode()
    write_trajectories_svg(dataclasses.replace(res, trajectories=[]), str(path))
    frame = _oracle_frame(_padded(0.0, 1.0), _padded(0.0, 1.0), "x", "y",
                          res.scenario.annotation() + " | projection=xy")[0]
    assert path.read_text() == "\n".join(frame) + "\n</svg>\n"


def test_nice_ticks_of_an_empty_span_is_its_start():
    for lo, hi in ((2.0, 2.0), (3.0, 1.0), (0.0, math.inf)):
        assert _ticks(lo, hi) == _nice_ticks(lo, hi) == [lo]


def test_load_result_refuses_another_schema(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema": "qctrans.ensemble/0", "trajectories": []}))
    with pytest.raises(qt.ConfigurationError, match=(
            "^schema: unsupported schema 'qctrans.ensemble/0', expected 'qctrans.ensemble/1'$")):
        load_result(str(path))


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


@pytest.mark.parametrize("xs,ys", [([0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0]), ([0.0], [0.0])])
def test_field_svg_refuses_an_axis_of_one_point_before_the_file_opens(tmp_path, xs, ys):
    # a cell's size is its axis spacing; the CSV writer takes such a grid
    grid = FieldGrid("Q", "x", "y", np.array(xs), np.array(ys), np.ones((len(ys), len(xs))))
    with pytest.raises(qt.InvalidParameterError,
                       match=f"^a field map needs at least 2 points per axis, "
                             f"got {len(xs)} x {len(ys)}$"):
        write_field_svg(grid, "t", str(tmp_path / "new" / "m.svg"))
    assert not (tmp_path / "new").exists()
    write_field_csv(grid, str(tmp_path / "m.csv"))
    assert (tmp_path / "m.csv").read_text().count("\n") == 1 + len(xs) * len(ys)


@pytest.mark.parametrize("text", [
    "", "plain", "a & b < c > d", "&amp; &lt;tag&gt;", "\"double\" and 'single'",
    "ψ(x, t) ≥ 0 & ρ < 1e-12", "<<&&>>", "guidance (2,1,1) <n=50>",
])
def test_svg_text_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)
