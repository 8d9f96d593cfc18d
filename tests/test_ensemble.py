"""Ensemble runs: KS metric, worker pool, monitors, truncation reporting."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

import qctrans as qt
from qctrans.ensemble import run_ensemble, trajectory_monitors, worker_count
from qctrans.scenario import build_scenario


def _circle_doc(n_outputs=21):
    ang = [2 * math.pi * k / 8 for k in range(8)]
    return {
        "system": {"type": "oscillator_2d"},
        "mode": "transition",
        "coupling": {"type": "constant", "value": 1.0},
        "ensemble": {
            "mode": "fixed",
            "positions": [[math.cos(a), math.sin(a)] for a in ang],
            "velocities": [[-math.sin(a), math.cos(a)] for a in ang],
        },
        "integrator": {"rtol": 1e-9, "atol": 1e-11},
        "time": {"start": 0.0, "end": 2 * math.pi, "n_outputs": n_outputs},
    }


_OSC_GUIDANCE = {
    "system": {"type": "oscillator_2d"},
    "mode": "guidance",
    "ensemble": {"mode": "rejection", "n": 64, "seed": 2},
    "time": {"start": 0.0, "end": 2.0, "n_outputs": 5},
}


# --- KS statistic ---------------------------------------------------------

def test_ks_distance_midpoint_lattice():
    # samples at the (k-1/2)/n levels of U(0,1) sit exactly 1/(2n) off the CDF
    n = 100
    samples = (np.arange(n) + 0.5) / n
    d = qt.ks_distance(samples, lambda x: x)
    assert abs(d - 0.005) < 1e-15


def test_ks_distance_point_mass():
    d = qt.ks_distance(np.full(50, 0.5), lambda x: np.asarray(x))
    assert d == 0.5


def test_ks_distance_rejects_empty():
    with pytest.raises(qt.InvalidParameterError):
        qt.ks_distance([], lambda x: x)


def test_stationary_ks_references_are_built_once(monkeypatch):
    # the oscillator and hydrogen |psi|^2 do not move, so one CDF per axis
    # serves every KS time; the double slit needs one per time
    built = []

    class CountedCDF:
        def __init__(self, fn, lo, hi, n_cells):
            built.append((lo, hi))

        def cdf(self, x):
            return np.full(np.shape(x), 0.5)

    monkeypatch.setattr("qctrans.ensemble.GridCDF", CountedCDF)
    t_grid = np.linspace(0.0, 1.0, 5)
    for system, n_built in ((qt.oscillator_2d(), 1), (qt.hydrogen(), 2), (qt.double_slit(), 3)):
        built.clear()
        done = [SimpleNamespace(status="completed", x=np.ones((5, system.dim)))]
        ks = qt.distribution_metrics(system, done, t_grid)["ks"]
        assert len(built) == n_built
        assert all(len(vals) == 3 for vals in ks.values())


# --- worker pool ------------------------------------------------------------

def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setattr("qctrans.ensemble.os.cpu_count", lambda: 8)
    monkeypatch.delenv("QCTRANS_THREADS", raising=False)
    monkeypatch.setattr("qctrans.ensemble.NUMBA_ENABLED", True)
    assert worker_count(4) == 4
    assert worker_count(100) == 8
    monkeypatch.setenv("QCTRANS_THREADS", "3")
    assert worker_count(100) == 3
    assert worker_count(2) == 2
    monkeypatch.setenv("QCTRANS_THREADS", "")
    assert worker_count(100) == 8
    # without numba the kernels hold the GIL: ensembles run serially
    monkeypatch.setattr("qctrans.ensemble.NUMBA_ENABLED", False)
    assert worker_count(100) == 1


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
def test_worker_count_invalid_env(monkeypatch, raw):
    monkeypatch.setenv("QCTRANS_THREADS", raw)
    with pytest.raises(qt.ConfigurationError):
        worker_count(4)


def test_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.setenv("QCTRANS_THREADS", "1")
    serial = run_ensemble(build_scenario(_OSC_GUIDANCE), compute_metrics=False)
    # a real 4-thread pool, with or without numba
    monkeypatch.setattr("qctrans.ensemble.NUMBA_ENABLED", True)
    monkeypatch.setattr("qctrans.ensemble.os.cpu_count", lambda: 4)
    monkeypatch.setenv("QCTRANS_THREADS", "4")
    assert worker_count(serial.n) == 4
    pooled = run_ensemble(build_scenario(_OSC_GUIDANCE), compute_metrics=False)
    assert np.array_equal(serial.positions0, pooled.positions0)
    for a, b in zip(serial.trajectories, pooled.trajectories):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)


# --- conservation monitors ----------------------------------------------------

def test_circle_ensemble_stays_on_circle():
    res = run_ensemble(build_scenario(_circle_doc()), compute_metrics=False)
    assert res.truncation_report == {"completed": 8}
    x = np.stack([tr.x for tr in res.trajectories])
    r = np.hypot(x[..., 0], x[..., 1])
    assert np.abs(r - 1.0).max() < 1e-6
    assert max(d.monitors["radius"]["max_drift"] for d in res.diagnostics) < 1e-6


def test_classical_kepler_monitors():
    doc = {
        "system": {"type": "hydrogen"},
        "mode": "classical",
        "ensemble": {"mode": "fixed", "positions": [[4.0, 0.0, 0.0]],
                     "velocities": [[0.0, 0.25, 0.0]]},
        "time": {"start": 0.0, "end": 2500.0, "n_outputs": 501},
    }
    res = run_ensemble(build_scenario(doc), compute_metrics=False)
    mon = res.diagnostics[0].monitors
    assert sorted(mon) == ["Lz", "energy", "s", "z"]
    assert mon["energy"]["initial"] == pytest.approx(-7 / 32, rel=1e-12)
    assert mon["energy"]["max_drift"] < 1e-6
    assert mon["Lz"]["max_drift"] < 1e-6


def test_monitor_keys_per_system():
    ds = qt.double_slit()
    osc = qt.oscillator_2d()
    hyd = qt.hydrogen()
    tg = np.linspace(0.0, 0.5, 5)
    tr = qt.integrate_guidance(ds, [0.5], tg)
    assert sorted(trajectory_monitors(ds, tr)) == ["kinetic"]
    tr = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    assert sorted(trajectory_monitors(osc, tr)) == ["Lz", "energy", "radius"]
    tr = qt.integrate_guidance(hyd, [4.0, 0.0, 0.0], tg)
    assert sorted(trajectory_monitors(hyd, tr)) == ["Lz", "energy", "s", "z"]


# --- truncation reporting -------------------------------------------------

def test_truncation_report_counts_stopped_runs():
    doc = {
        "system": {"type": "oscillator_2d"},
        "mode": "transition",
        "coupling": {"type": "constant", "value": 1.0},
        "ensemble": {"mode": "fixed",
                     "positions": [[0.5, 0.0], [1.0, 0.0]],
                     "velocities": [[-1.0, 0.0], [0.0, 1.0]]},
        "time": {"start": 0.0, "end": 2.0, "n_outputs": 41},
        "numerics": {"min_rho": 1e-6},
    }
    res = run_ensemble(build_scenario(doc), compute_metrics=False)
    assert res.truncation_report == {"singular_stop": 1, "completed": 1}
    assert [d.status for d in res.diagnostics] == ["singular_stop", "completed"]
    assert res.diagnostics[0].index == 0
    assert res.diagnostics[0].stop_t is not None
    assert len(res.completed) == 1
    assert res.n == 2


# --- distribution metrics -------------------------------------------------

def test_distribution_metrics_structure_and_equivariance():
    res = run_ensemble(build_scenario(_OSC_GUIDANCE))
    m = res.distribution_metrics
    assert m["times"] == [0.0, 1.0, 2.0]
    assert m["n_completed"] == 64
    assert m["ks_critical_1pct"] == pytest.approx(1.6276 / 8.0)
    ks = np.asarray(m["ks"]["radius"])
    assert ks.shape == (3,)
    assert ks.max() < m["ks_critical_1pct"]
    # guidance transports samples with the density, so the KS distance of the
    # evolved ensemble stays frozen at its t=0 sampling noise
    assert np.ptp(ks) < 1e-4


def test_metrics_can_be_skipped():
    res = run_ensemble(build_scenario(_OSC_GUIDANCE), compute_metrics=False)
    assert res.distribution_metrics["ks"] == {}
    assert res.distribution_metrics["n_completed"] == 64


def test_result_arrays_shape():
    res = run_ensemble(build_scenario(_OSC_GUIDANCE), compute_metrics=False)
    assert res.positions0.shape == (64, 2)
    assert res.velocities0.shape == (64, 2)
    assert res.t.shape == (5,)
    assert all(tr.x.shape == (5, 2) for tr in res.trajectories)
