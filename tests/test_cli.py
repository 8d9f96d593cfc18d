"""CLI subcommands, exit codes, artifact formats, fallback parity."""
import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qctrans as qt
from qctrans.cli import main
from qctrans.export import load_result
import oracles

_OSC_SMALL = {
    "system": {"type": "oscillator_2d"},
    "mode": "transition",
    "coupling": {"type": "constant", "value": 1.0},
    "ensemble": {"mode": "fixed", "positions": [[1.0, 0.0]], "velocities": [[0.0, 1.0]]},
    "time": {"start": 0.0, "end": 2.0, "n_outputs": 3},
    "output": {"formats": ["csv", "json", "svg"]},
}

_OSC_GUIDANCE = {
    "system": {"type": "oscillator_2d"},
    "mode": "guidance",
    "ensemble": {"mode": "rejection", "n": 3, "seed": 3},
    "time": {"start": 0.0, "end": 2.0, "n_outputs": 11},
    "output": {"formats": ["csv"]},
}

_DS_GUIDANCE = {
    "system": {"type": "double_slit"},
    "mode": "guidance",
    "ensemble": {"mode": "quantile_1d", "n": 4},
    "time": {"start": 0.0, "end": 0.5, "n_outputs": 6},
    "output": {"formats": ["csv"]},
}


def _cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _src_env():
    """The environment of a subprocess that imports this qctrans."""
    src = os.path.dirname(os.path.dirname(qt.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return header, [ln.split(",") for ln in lines[2:]]


# --- exit codes -------------------------------------------------------------

def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "fig1_quantum"]) == 0
    err = capsys.readouterr().err
    assert "ok: double_slit rho0=0.625" in err


def test_validate_bad_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"system": {')
    assert main(["validate", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_long_integers_exit_1(tmp_path, capsys):
    # more digits than int() converts: in the file, json.loads fails; in an
    # override, the value is read as a bare string
    path = tmp_path / "long.json"
    path.write_text('{"system": {"type": "double_slit", "rho0": 1' + "0" * 4300 + '}, '
                    '"mode": "guidance"}')
    assert main(["validate", "--config", str(path)]) == 1
    assert "error: $: invalid JSON: Exceeds the limit" in capsys.readouterr().err
    assert main(["validate", "--preset", "fig1", "--set", "system.rho0=1" + "0" * 4300]) == 1
    assert "error: system.rho0: expected a finite number" in capsys.readouterr().err


def test_validate_rejects_a_hydrogen_n_beyond_the_float_range(tmp_path, capsys):
    doc = {"system": {"type": "hydrogen", "n": 10**400, "l": 0, "m": 0}, "mode": "guidance"}
    assert main(["validate", "--config", _cfg(tmp_path, doc)]) == 1
    assert "error: system.n: expected an integer, got 1000" in capsys.readouterr().err


# hydrogen states whose normalisation is not a positive float: the first
# took 2l + 1 multiplications to build, the next two passed validate and
# failed in sample, and the last overflowed converting 2l + 1 to a float
_NO_NORMALISATION = {"l_1e19": (10**20, 10**19, 0), "n_1e200": (10**200, 0, 0),
                     "n_90": (90, 89, 89), "l_1e308": (10**308, 10**308 - 1, 0)}


@pytest.mark.parametrize("n,l,m", _NO_NORMALISATION.values(), ids=_NO_NORMALISATION)
def test_validate_rejects_a_hydrogen_state_without_a_normalisation(tmp_path, n, l, m):
    # in a subprocess with a timeout, so a state that hangs fails the test
    doc = {"system": {"type": "hydrogen", "n": n, "l": l, "m": m}, "mode": "guidance",
           "ensemble": {"n": 2}}
    proc = subprocess.run([sys.executable, "-m", "qctrans.cli", "validate", "--config",
                           _cfg(tmp_path, doc)], capture_output=True, text=True,
                          env=_src_env(), timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: system: (n, l, m) = ({n}, {l}, {m}) has a normalisation "
                           "of 0.0, not a positive float\n")


def test_validate_bad_value_exits_1(tmp_path, capsys):
    doc = {"system": {"type": "double_slit", "rho0": -1}, "mode": "guidance"}
    assert main(["validate", "--config", _cfg(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "system" in err


def test_missing_source_exits_1(capsys):
    assert main(["validate"]) == 1


def test_unknown_preset_exits_1(capsys):
    assert main(["validate", "--preset", "fig99"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = _cfg(tmp_path, _OSC_SMALL)
    code = main(["simulate", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    names = [ln.split("\t")[0] for ln in out.splitlines()]
    for expect in ("fig1_quantum", "fig3_classical", "fig4", "fig8"):
        assert expect in names
    assert all("\t" in ln for ln in out.splitlines())


def test_set_overrides_reach_validation(capsys):
    assert main(["validate", "--preset", "fig1_quantum", "--set", "coupling.b=40"]) == 0
    assert "logistic b=40 t0=2" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", ["time.start=-1", "output.field.ylim=[-1,2]"])
def test_validate_rejects_double_slit_times_before_zero(assignment, capsys):
    # simulate, sample and field would fail only when they evaluate the wave
    assert main(["validate", "--preset", "fig1", "--set", assignment]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "double slit is defined for t >= 0 only" in err


@pytest.mark.parametrize("ensemble,message", [
    ({"mode": "fixed", "positions": [[1, 0], [0, 2]], "n": 5},
     "ensemble.positions: fixed positions count 2 != n 5"),
    ({"mode": "fixed", "positions": [[1, 0], [0, 2]], "velocities": [[1, 0]]},
     "ensemble.velocities: velocities shape (1, 2) != positions shape (2, 2)"),
], ids=["count", "velocity_shape"])
def test_validate_rejects_fixed_starts_that_simulate_rejects(tmp_path, ensemble, message, capsys):
    doc = {"system": {"type": "oscillator_2d"}, "mode": "guidance", "ensemble": ensemble}
    assert main(["validate", "--config", _cfg(tmp_path, doc)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


# --- simulate artifacts -------------------------------------------------------

def test_simulate_preset_writes_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig1_classical", "--out", str(out)]) == 0
    assert (out / "fig1_classical.csv").is_file()
    assert (out / "fig1_classical.svg").is_file()
    err = capsys.readouterr().err
    assert "50 trajectories" in err and "wrote" in err


def test_simulate_csv_layout(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--config", _cfg(tmp_path, _OSC_SMALL), "--out", str(out)]) == 0
    header, rows = _read_csv_rows(out / "cfg.csv")
    assert header == ["traj", "status", "t", "x", "y", "vx", "vy",
                      "m_energy", "m_radius", "m_Lz"]
    assert len(rows) == 3
    assert [r[1] for r in rows] == ["completed"] * 3
    assert [float(r[2]) for r in rows] == [0.0, 1.0, 2.0]
    # values are full-precision decimals that round-trip through float
    for r in rows:
        for cell in r[2:]:
            v = float(cell)
            assert f"{v:.15g}" == cell


def test_simulate_json_round_trip(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--config", _cfg(tmp_path, _OSC_SMALL), "--out", str(out)]) == 0
    doc = load_result(str(out / "cfg.json"))
    assert doc["schema"] == "qctrans.ensemble/1"
    assert doc["truncation_report"] == {"completed": 1}
    tr = doc["trajectories"][0]
    assert tr["x"].shape == (3, 2) and tr["v"].shape == (3, 2)
    # JSON floats are exact (repr); the CSV renders the same values at 15
    # significant digits
    _, rows = _read_csv_rows(out / "cfg.csv")
    assert f"{tr['x'][1][0]:.15g}" == rows[1][3]
    assert doc["diagnostics"][0]["monitors"]["radius"]["max_drift"] < 1e-5


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_simulate_json_is_strict_for_a_start_at_the_nucleus(tmp_path, capsys):
    # a start at r = 0 stops at once; its energy -1/r is -inf at every sample
    doc = {
        "system": {"type": "hydrogen"},
        "mode": "classical",
        "ensemble": {"mode": "fixed", "positions": [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]],
                     "velocities": [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]},
        "time": {"start": 0.0, "end": 1.0, "n_outputs": 5},
    }
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", _cfg(tmp_path, doc), "--out", str(out),
                     "--formats", "json"]) == 0
    strict = json.loads((out / "cfg.json").read_text(), parse_constant=_refuse)
    at_nucleus, orbit = (d["monitors"] for d in strict["diagnostics"])
    assert strict["trajectories"][0]["status"] == "singular_stop"
    assert at_nucleus["energy"] == {"initial": None, "final": None, "max_drift": None}
    assert at_nucleus["Lz"] == {"initial": 0.0, "final": 0.0, "max_drift": 0.0}
    assert orbit["energy"]["initial"] == pytest.approx(0.5 * 0.25 - 0.25, rel=1e-14)
    assert orbit["energy"]["max_drift"] < 1e-6
    assert load_result(str(out / "cfg.json"))["diagnostics"] == strict["diagnostics"]


@pytest.mark.parametrize("mode,coupling", [
    ("guidance", None), ("transition", {"type": "logistic", "b": 0.5, "t0": 4.0})])
def test_a_start_the_guard_refuses_is_a_counted_stop(tmp_path, capsys, mode, coupling):
    # (40, 0) sits so far in the oscillator's tail that ten shifts of the
    # stencil step leave it under the node guard: it keeps its position,
    # stops at t0 as singular_stop, and the other two starts run
    doc = {
        "system": {"type": "oscillator_2d"},
        "mode": mode,
        "ensemble": {"mode": "fixed", "positions": [[1.0, 0.0], [40.0, 0.0], [0.5, 0.5]]},
        "time": {"start": 0.0, "end": 1.0, "n_outputs": 3},
    }
    if coupling:
        doc["coupling"] = coupling
    cfg = _cfg(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["validate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out), "--formats", "csv,json"]) == 0
    strict = json.loads((out / "cfg.json").read_text(), parse_constant=_refuse)
    assert strict["truncation_report"] == {"completed": 2, "singular_stop": 1}
    assert strict["positions0"][1] == [40.0, 0.0] and strict["velocities0"][1] == [0.0, 0.0]
    stopped = strict["trajectories"][1]
    assert stopped["status"] == "singular_stop" and stopped["stop_t"] == 0.0
    assert stopped["x"] == [[40.0, 0.0]]
    _, rows = _read_csv_rows(out / "cfg.csv")
    assert len(rows) == 3 + 1 + 3
    assert np.isfinite([float(c) for r in rows for c in r[2:]]).all()


def test_simulate_svg_one_polyline_per_trajectory(tmp_path, capsys):
    out = tmp_path / "o"
    doc = dict(_OSC_GUIDANCE, output={"formats": ["svg"]})
    assert main(["simulate", "--config", _cfg(tmp_path, doc), "--out", str(out)]) == 0
    svg = (out / "cfg.svg").read_text()
    assert svg.count("<polyline") == 3
    assert "oscillator_2d k0=1" in svg


def test_simulate_formats_flag_limits_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _cfg(tmp_path, _OSC_SMALL)
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--formats", "json"]) == 0
    assert (out / "cfg.json").is_file()
    assert not (out / "cfg.csv").exists()
    assert not (out / "cfg.svg").exists()


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    cfg = _cfg(tmp_path, _OSC_SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("cfg.csv", "cfg.json", "cfg.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --- sample -----------------------------------------------------------------

def test_sample_stdout_csv(tmp_path, capsys):
    assert main(["sample", "--config", _cfg(tmp_path, _DS_GUIDANCE)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "index,x,vx"
    assert len(lines) == 5
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        assert cells[0] == str(i)
        float(cells[1]), float(cells[2])


def test_sample_to_directory(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sample", "--config", _cfg(tmp_path, _OSC_GUIDANCE),
                 "--out", str(out)]) == 0
    path = out / "cfg_samples.csv"
    assert path.is_file()
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,vx,vy"
    assert len(lines) == 4


# --- field --------------------------------------------------------------------

def test_field_masks_singular_cells(tmp_path, capsys):
    out = tmp_path / "f"
    assert main(["field", "--preset", "fig5", "--out", str(out), "--grid", "51"]) == 0
    csv_path = out / "fig5_field.csv"
    svg_path = out / "fig5_field.svg"
    assert csv_path.is_file() and svg_path.is_file()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# oscillator_2d")
    assert lines[1] == "x,y,Q"
    assert len(lines) == 2 + 51 * 51
    # the node at the origin is masked, not extrapolated
    center = [ln for ln in lines[2:] if ln.startswith("0,0,")]
    assert center == ["0,0,nan"]
    assert "#dddddd" in svg_path.read_text()


def test_field_quantity_rho_has_no_mask(tmp_path, capsys):
    out = tmp_path / "f"
    assert main(["field", "--preset", "fig5", "--out", str(out),
                 "--grid", "21", "--quantity", "rho"]) == 0
    vals = []
    for ln in (out / "fig5_field.csv").read_text().splitlines()[2:]:
        vals.append(float(ln.split(",")[2]))
    arr = np.asarray(vals)
    assert np.all(np.isfinite(arr)) and arr.min() >= 0.0
    assert arr.max() == pytest.approx(np.exp(-1.0) / np.pi, rel=1e-2)


def test_field_formats_json_falls_back_to_csv(tmp_path, capsys):
    # a field grid has no JSON form: the command writes its CSV instead
    for formats, out in (("json", tmp_path / "j"), ("csv", tmp_path / "c")):
        assert main(["field", "--preset", "fig4", "--out", str(out), "--grid", "11",
                     "--formats", formats]) == 0
    assert os.listdir(tmp_path / "j") == ["fig4_field.csv"]
    assert (tmp_path / "j" / "fig4_field.csv").read_bytes() == \
        (tmp_path / "c" / "fig4_field.csv").read_bytes()


def test_import_loads_neither_urllib_nor_concurrent_futures():
    # xml.sax.saxutils would pull in urllib.request, http.client and email;
    # concurrent.futures serves nothing in the package, so no import may
    # bring it in
    code = ("import sys, qctrans, qctrans.cli; "
            "print([m for m in ('urllib.request', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_run_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with every import of it failing, a
    # small rejection-sampled ensemble runs and writes all three formats
    doc = dict(_OSC_GUIDANCE, output={"formats": ["csv", "json", "svg"]})
    code = ("import sys; sys.modules['scipy'] = None; from qctrans.cli import main; "
            "sys.exit(main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))")
    proc = subprocess.run([sys.executable, "-c", code, _cfg(tmp_path, doc), str(tmp_path / "o")],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "o")) == ["cfg.csv", "cfg.json", "cfg.svg"]


# --- pure-python fallback parity ------------------------------------------
# With numba the in-process run is compiled and the QCTRANS_NO_NUMBA run is
# the fallback.  Without numba both runs would be the same fallback, so the
# tests check the run against a route that shares no code with the kernels
# instead: the numpy closed forms in systems.py and the array stencil in
# fields.py, at the start rows, where the sampled velocity is the kernel's
# field value.

def _run_nonumba(cfg, out):
    env = dict(os.environ, QCTRANS_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qctrans.cli", "simulate", "--config", cfg,
         "--out", out],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _start_rows(path, dim):
    _, rows = _read_csv_rows(path)
    rows = [[float(c) for c in r[3 : 3 + 2 * dim]] for r in rows if float(r[2]) == 0.0]
    rows = np.array(rows)
    return rows[:, :dim], rows[:, dim:]


def test_fallback_matches_compiled_closed_path(tmp_path, capsys):
    # the oscillator guidance flow uses closed-form fields: the pure-python
    # path must reproduce the compiled run bit for bit
    cfg = _cfg(tmp_path, _OSC_GUIDANCE)
    a, b = tmp_path / "jit", tmp_path / "plain"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    if not qt.NUMBA_ENABLED:
        x, v = _start_rows(a / "cfg.csv", 2)
        ref = oracles.oscillator_velocity_closed(qt.oscillator_2d().params, x[:, 0], x[:, 1])
        assert len(x) == 3
        assert np.allclose(v, ref, rtol=1e-12, atol=0.0)
        return
    _run_nonumba(cfg, str(b))
    assert (a / "cfg.csv").read_bytes() == (b / "cfg.csv").read_bytes()


def test_fallback_matches_compiled_stencil_path(tmp_path, capsys):
    # the free-packet flow differentiates S numerically; libm rounding enters
    # through the 1/h^2 stencil scale, so parity here is close, not bitwise
    cfg = _cfg(tmp_path, _DS_GUIDANCE)
    a, b = tmp_path / "jit", tmp_path / "plain"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    if not qt.NUMBA_ENABLED:
        x, v = _start_rows(a / "cfg.csv", 1)
        ref = np.array([qt.velocity_grad_s(qt.double_slit(), p, 0.0) for p in x])
        assert len(x) == 4
        assert np.allclose(v, ref, atol=1e-9, rtol=0.0)
        return
    _run_nonumba(cfg, str(b))

    def grab(path):
        _, rows = _read_csv_rows(path)
        return np.array([[float(c) for c in r[2:]] for r in rows])

    va, vb = grab(a / "cfg.csv"), grab(b / "cfg.csv")
    assert va.shape == vb.shape
    assert np.allclose(va, vb, atol=1e-6, rtol=0.0)
