"""Acceptance gate: one test per shipped criterion, one [PASS]/[FAIL] line each.

Run ``pytest tests/test_acceptance.py -v -rA`` to see every line (pytest hides
stdout of passing tests otherwise).

Criterion 6's classical-limit bound is expected red: a logistic schedule
centred at the start time opens at half coupling, so the run begins with a
half-strength quantum push that the pure-classical reference never receives.
The test states the bound as published and fails honestly; see the comment
in that test for the measured numbers.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

import qctrans as qt
from qctrans import systems as qs
import oracles

TIGHT = qt.IntegratorConfig(rtol=1e-9, atol=1e-11)


def _line(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:>2}: {desc}{tail}")
    return ok


def _halton(dim, n, lims, seed=5):
    pts = qmc.Halton(d=dim, seed=seed).random(n)
    lo, hi = np.asarray(lims, dtype=float).T
    return lo + pts * (hi - lo)


@pytest.fixture(scope="module")
def point_sets():
    """1000 quasi-random valid points per system, shared by criteria 1-2."""
    osc = qt.oscillator_2d()
    hyd = qt.hydrogen()
    ds = qt.double_slit()
    p2 = _halton(2, 1000, [(-3, 3), (-3, 3)])
    p2 = p2[np.array([osc.rho(p, 0.0) for p in p2]) >= 1e-9]
    p3 = _halton(3, 1000, [(-12, 12), (-12, 12), (-12, 12)])
    rho3 = np.array([hyd.rho(p, 0.0) for p in p3])
    # the numeric stencil spans 2e-3, so points hugging the polar axis are
    # excluded: the axis itself is a zero of this state
    p3 = p3[(rho3 >= 1e-9) & (np.hypot(p3[:, 0], p3[:, 1]) > 0.2)]
    p1 = _halton(1, 1000, [(-8, 8)])
    t1 = _halton(1, 1000, [(0, 2.5)], seed=9)[:, 0]
    keep = np.array([ds.rho(p, t) >= 1e-9 for p, t in zip(p1, t1)])
    return {"osc": (osc, p2), "hyd": (hyd, p3), "ds": (ds, p1[keep], t1[keep])}


def test_criterion_01_closed_form_cross_checks(point_sets):
    start = time.perf_counter()
    osc, p2 = point_sets["osc"]
    dr = dv = dq = 0.0
    for p in p2:
        dr = max(dr, abs(oracles.oscillator_rho_closed(osc.params, p[0], p[1]) - osc.rho(p, 0.0)))
        vc = np.asarray(oracles.oscillator_velocity_closed(osc.params, p[0], p[1]))
        dv = max(dv, np.abs(vc - qt.velocity_grad_s(osc, p, 0.0)).max())
        dq = max(dq, abs(qs.oscillator_qpot_closed(osc.params, p[0], p[1])
                         - qt.quantum_potential(osc, p, 0.0)))
    osc_ok = max(dr, dv, dq) < 1e-5

    hyd, p3 = point_sets["hyd"]
    hv = hq = 0.0
    for p in p3:
        vc = np.asarray(oracles.hydrogen_velocity_closed(hyd.params, *p))
        hv = max(hv, np.abs(vc - qt.velocity_grad_s(hyd, p, 0.0)).max())
        hq = max(hq, abs(qs.hydrogen_qpot_closed(hyd.params, *p)
                         - qt.quantum_potential(hyd, p, 0.0)))
    hyd_ok = max(hv, hq) < 1e-5

    # double slit: report transcription discrepancies, do not gate on them
    ds, p1, t1 = point_sets["ds"]
    disc = 0
    worst = 0.0
    for p, t in zip(p1, t1):
        d_rho = abs(oracles.double_slit_rho_closed(ds.params, p[0], t) - ds.rho(p, t))
        s_c = oracles.double_slit_s_closed(ds.params, p[0], t)
        d_phase = abs(np.exp(1j * s_c) - np.exp(1j * np.angle(ds.psi(p, t))))
        worst = max(worst, d_rho, float(d_phase))
        disc += (d_rho > 1e-5) or (d_phase > 1e-5)
    elapsed = time.perf_counter() - start
    ok = osc_ok and hyd_ok and elapsed < 10.0
    _line(1, "closed-form cross-checks at 1000 quasi-random points/system", ok,
          f"osc max dev {max(dr, dv, dq):.2e}, hyd {max(hv, hq):.2e}, "
          f"slit discrepancies {disc}/{len(p1)} worst {worst:.2e} [report only], "
          f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_velocity_route_equivalence(point_sets):
    osc, p2 = point_sets["osc"]
    hyd, p3 = point_sets["hyd"]
    ds, p1, t1 = point_sets["ds"]
    dev = 0.0
    for p in p2:
        dev = max(dev, np.abs(qt.velocity_grad_s(osc, p, 0.0)
                              - qt.velocity_current(osc, p, 0.0)).max())
    for p in p3:
        dev = max(dev, np.abs(qt.velocity_grad_s(hyd, p, 0.0)
                              - qt.velocity_current(hyd, p, 0.0)).max())
    for p, t in zip(p1, t1):
        dev = max(dev, np.abs(qt.velocity_grad_s(ds, p, t)
                              - qt.velocity_current(ds, p, t)).max())
    ok = dev < 1e-7
    _line(2, "phase-gradient and current velocity routes agree", ok,
          f"max deviation {dev:.2e}")
    assert ok


def test_criterion_03_quantum_limit_geometry():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    tr = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    closure = np.abs(tr.x[-1] - tr.x[0]).max()

    hyd = qt.hydrogen()
    tg3 = np.linspace(0.0, 2500.0, 2501)
    h = qt.integrate_guidance(hyd, [4.0, 0.0, 0.0], tg3, integrator=TIGHT)
    z_drift = np.abs(h.x[:, 2]).max()
    s_drift = np.abs(np.hypot(h.x[:, 0], h.x[:, 1]) - 4.0).max()
    phi = np.unwrap(np.arctan2(h.x[:, 1], h.x[:, 0]))
    period = 2 * math.pi * (h.t[-1] - h.t[0]) / (phi[-1] - phi[0])
    period_rel = abs(period - 32 * math.pi) / (32 * math.pi)

    ok = closure < 1e-6 and z_drift < 1e-6 and s_drift < 1e-6 and period_rel < 1e-4
    _line(3, "guidance orbits: circle closure, Coulomb cylinder, 32 pi period", ok,
          f"closure {closure:.2e}, z {z_drift:.2e}, s {s_drift:.2e}, "
          f"period rel {period_rel:.2e}")
    assert ok


def test_criterion_04_classical_limit_analytics():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, math.pi, 33)
    o = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                integrator=TIGHT)
    cos_err = np.abs(o.x[:, 0] - np.cos(tg)).max()

    hyd = qt.hydrogen()
    tg3 = np.linspace(0.0, 2500.0, 2501)
    k = qt.integrate_transition(hyd, qt.Constant(0.0), ([4.0, 0.0, 0.0], [0.0, 0.25, 0.0]),
                                tg3, integrator=TIGHT)
    energy = 0.5 * (k.v ** 2).sum(axis=1) - 1.0 / np.sqrt((k.x ** 2).sum(axis=1))
    angmom = np.cross(k.x, k.v)
    de = np.abs(energy - energy[0]).max()
    dl = np.abs(angmom - angmom[0]).max()

    # a converging pair (u > 0) is the configuration whose straight classical
    # paths cross the symmetry axis
    dsp = qt.make_system("double_slit", u=2.0)
    pos, vel = qt.sample_initial_conditions(dsp, qt.SamplerConfig(mode="quantile_1d", n=11))
    tg5 = np.linspace(0.0, 2.0, 41)
    lin_err = 0.0
    crossers = 0
    for i in range(11):
        tr = qt.integrate_transition(dsp, qt.Constant(0.0), (pos[i], vel[i]), tg5,
                                     integrator=TIGHT)
        lin_err = max(lin_err, np.abs(tr.x[:, 0] - (pos[i, 0] + vel[i, 0] * tg5)).max())
        crossers += np.sign(tr.x[-1, 0]) != np.sign(pos[i, 0])

    ok = cos_err < 1e-6 and de < 1e-6 and dl < 1e-6 and lin_err < 1e-9 and crossers >= 1
    _line(4, "classical limit: cos t, Kepler conservation, straight crossings", ok,
          f"cos err {cos_err:.2e}, dE {de:.2e}, dL {dl:.2e}, "
          f"line err {lin_err:.2e}, {crossers} crossers")
    assert ok


def test_criterion_05_double_slit_quantum_regime():
    start = time.perf_counter()
    res = qt.run_ensemble(qt.preset("fig1_quantum"), compute_metrics=False)
    X = np.stack([tr.x[:, 0] for tr in res.trajectories])
    sign0 = np.sign(X[:, 0])
    crossings = int(np.sum(np.any(np.sign(X) * sign0[:, None] < 0, axis=1)))

    ds = res.scenario.system
    xs = np.linspace(-12.0, 12.0, 4801)
    rho2 = ds.rho(xs[:, None], 2.0)
    mins = [xs[i] for i in range(1, 4800) if rho2[i] < rho2[i - 1] and rho2[i] <= rho2[i + 1]]
    maxima = [xs[i] for i in range(1, 4800) if rho2[i] > rho2[i - 1] and rho2[i] >= rho2[i + 1]]
    edges = np.array([-np.inf] + mins + [np.inf])
    hits = 0
    for f in X[:, -1]:
        j = np.searchsorted(edges, f) - 1
        hits += any(edges[j] < mx < edges[j + 1] for mx in maxima)
    frac = hits / X.shape[0]
    elapsed = time.perf_counter() - start

    ok = crossings == 0 and frac >= 0.8 and elapsed < 60.0
    _line(5, "interference regime: no axis crossings, finals inside density basins", ok,
          f"crossings {crossings}, basin fraction {frac:.2f}, {elapsed:.1f}s")
    assert ok


def _slit_ensemble(b=None, t0=None, mode="transition"):
    doc = {
        "system": {"type": "double_slit"},
        "mode": mode,
        "ensemble": {"mode": "quantile_1d", "n": 50},
        "time": {"start": 0.0, "end": 2.0, "n_outputs": 41},
    }
    if mode == "transition":
        doc["coupling"] = {"type": "logistic", "b": b, "t0": t0}
    res = qt.run_ensemble(qt.build_scenario(doc), compute_metrics=False)
    return np.stack([tr.x[:, 0] for tr in res.trajectories])


def _rms(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def test_criterion_06_transition_continuity():
    Xg = _slit_ensemble(mode="guidance")
    Xc = _slit_ensemble(mode="classical")

    rms_quantum = _rms(_slit_ensemble(15.0, 50.0), Xg)
    quantum_ok = rms_quantum < 1e-3

    # Logistic(40, 0) opens at P(0) = 1/2: the ensemble takes a half-strength
    # quantum kick before the schedule saturates (P < 1e-9 by t ~ 0.52), and
    # that early impulse displaces the finals by ~5e-2 RMS from the reference
    # that never felt it.  Shifting the midpoint a single unit earlier
    # (t0 = -1) makes the same schedule agree with the classical run exactly,
    # so the gap is the schedule's opening value, not integration error.  The
    # bound is kept as published and this sub-check is expected to fail.
    rms_classical = _rms(_slit_ensemble(40.0, 0.0), Xc)
    rms_saturated = _rms(_slit_ensemble(40.0, -1.0), Xc)
    classical_ok = rms_classical < 1e-4

    meso_guid = []
    meso_clas = []
    for t0 in (1.5, 1.0, 0.5):
        Xm = _slit_ensemble(15.0, t0)
        meso_guid.append(_rms(Xm, Xg))
        meso_clas.append(_rms(Xm, Xc))
    meso_ok = (meso_guid[0] < meso_guid[1] < meso_guid[2]
               and meso_clas[0] > meso_clas[1] > meso_clas[2])

    ok = quantum_ok and classical_ok and meso_ok
    _line(6, "transition continuity between the two limits", ok,
          f"vs guidance {rms_quantum:.2e} (<1e-3 {'ok' if quantum_ok else 'FAIL'}); "
          f"vs classical {rms_classical:.2e} (<1e-4 {'ok' if classical_ok else 'FAIL'}, "
          f"saturated t0=-1 gives {rms_saturated:.1e}); "
          f"meso RMS {['%.4f' % v for v in meso_guid]} monotone "
          f"{'ok' if meso_ok else 'FAIL'}")
    assert ok


def test_criterion_07_equivariance():
    docs = {
        "double_slit": {"system": {"type": "double_slit"}, "mode": "guidance",
                        "ensemble": {"mode": "rejection", "n": 10000, "seed": 11},
                        "time": {"start": 0.0, "end": 2.0, "n_outputs": 3}},
        "oscillator_2d": {"system": {"type": "oscillator_2d"}, "mode": "guidance",
                          "ensemble": {"mode": "rejection", "n": 10000, "seed": 11},
                          "time": {"start": 0.0, "end": 35.0, "n_outputs": 3}},
        "hydrogen": {"system": {"type": "hydrogen"}, "mode": "guidance",
                     "ensemble": {"mode": "rejection", "n": 10000, "seed": 11},
                     "time": {"start": 0.0, "end": 100.0, "n_outputs": 3}},
    }
    details = []
    ok = True
    for name, doc in docs.items():
        res = qt.run_ensemble(qt.build_scenario(doc))
        m = res.distribution_metrics
        crit = m["ks_critical_1pct"]
        for axis, vals in m["ks"].items():
            details.append(f"{name}.{axis} {vals[-1]:.4f}")
            ok = ok and vals[-1] < crit and m["n_completed"] == 10000
    _line(7, "evolved guidance ensembles stay |psi|^2-distributed (KS, n=1e4)", ok,
          f"KS at t_end: {', '.join(details)}; critical {crit:.4f}")
    assert ok


def test_criterion_08_sampling_moments():
    checks = []
    ok = True
    ds = qt.double_slit()
    osc = qt.oscillator_2d()
    hyd = qt.hydrogen()
    jobs = [
        ("slit x", ds, "auto", lambda p: p[:, 0]),
        ("osc r", osc, "auto", lambda p: np.hypot(p[:, 0], p[:, 1])),
        ("hyd s", hyd, "auto", lambda p: np.hypot(p[:, 0], p[:, 1])),
        ("hyd z", hyd, "z", lambda p: p[:, 2]),
    ]
    cache = {}
    for label, system, axis, proj in jobs:
        if system.kind not in cache:
            cache[system.kind] = qt.sample_positions(
                system, qt.SamplerConfig(mode="rejection", n=100000, seed=3))
        vals = proj(cache[system.kind])
        fn, lo, hi = qt.marginal_density_1d(system, 0.0, axis=axis)
        cdf = qt.GridCDF(fn, lo, hi, n_cells=2048)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        pull = abs(vals.mean() - cdf.mean()) / se
        checks.append(f"{label} {pull:.2f}")
        ok = ok and pull < 3.0
    _line(8, "rejection moments match quadrature within 3 SE at n=1e5", ok,
          "pulls: " + ", ".join(checks))
    assert ok


def test_criterion_09_rk4_convergence_order():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 9)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        cfg = qt.IntegratorConfig(method="rk4_fixed", dt=dt)
        tr = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                     integrator=cfg)
        errs.append(np.abs(tr.x[:, 0] - np.cos(tg)).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(abs(o - 4.0) < 0.2 for o in orders)
    _line(9, "fixed-step integrator order on x'' = -x", ok,
          "orders " + ", ".join(f"{o:.3f}" for o in orders))
    assert ok


_CAPTIONS = {
    1: "double_slit rho0=0.625 u=-2 X=2.5 | logistic b=15 t0=2 | "
       "mode=transition n=50 t=[0,2]",
    3: "oscillator_2d k0=1 alpha=1.570796327 | logistic b=1 t0=200 | "
       "mode=transition n=4 t=[0,35]",
    4: "double_slit rho0=0.625 u=-2 X=2.5 | constant P=1 | mode=guidance n=9 t=[0,2.5]",
    5: "oscillator_2d k0=1 alpha=1.570796327 | constant P=1 | "
       "mode=guidance n=4 t=[0,6.283185307]",
    6: "hydrogen n=2 l=1 m=1 | constant P=0 | mode=classical n=3 t=[0,2500]",
    7: "hydrogen n=2 l=1 m=1 | constant P=1 | mode=guidance n=3 t=[0,2500]",
    8: "hydrogen n=2 l=1 m=1 | logistic b=0.014 t0=1250 | mode=transition n=3 t=[0,2500]",
}


def test_criterion_10_figure_reproduction(tmp_path):
    from qctrans.cli import main

    ok = True
    notes = []
    for k, caption in _CAPTIONS.items():
        out = tmp_path / f"fig{k}"
        code = main(["simulate", "--preset", f"fig{k}", "--out", str(out)])
        csv_path = out / f"fig{k}.csv"
        svg_path = out / f"fig{k}.svg"
        good = (code == 0 and csv_path.is_file() and svg_path.is_file()
                and csv_path.read_text().splitlines()[0] == f"# {caption}"
                and caption in svg_path.read_text())
        ok = ok and good
        notes.append(f"fig{k} {'ok' if good else 'FAIL'}")
    _line(10, "figure presets run and carry the caption parameters", ok,
          ", ".join(notes))
    assert ok
