"""The ensemble engine against the scalar kernel.

``run_ensemble`` integrates an ensemble as arrays and hands its last few
trajectories to the scalar kernel; ``integrate_guidance`` and
``integrate_transition`` run a one-row ensemble, which goes over to the
scalar kernel whole, its start guard and first sample included.  On the
closed-form routes (oscillator and hydrogen) the two must agree bit for bit
in every output, whatever the ensemble around a trajectory; the double
slit's array and scalar stencils round differently, so there they agree
within a bound.
Every ensemble here has more trajectories than the hand-off size, so both
the batch and the scalar tail run.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qctrans as qt
from qctrans import dynamics
from qctrans.scenario import build_scenario

_RNG = np.random.default_rng(20)


def _osc_starts():
    r = np.sqrt(_RNG.gamma(2.0, 1.0, 14))
    a = _RNG.uniform(0.0, 2.0 * math.pi, 14)
    far = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    near = [[0.05, 0.0], [0.0, -0.08], [0.06, 0.06], [-0.1, 0.05]]  # circle the node fast
    inside = [[1e-8, 0.0], [0.0, 0.0]]  # |psi|^2 < min_rho
    return np.concatenate([far, near, inside])


def _hyd_starts():
    far = _RNG.normal(size=(14, 3)) * 4.0
    near = [[0.15, 0.0, 1.0], [0.0, -0.2, -2.0], [0.12, 0.12, 0.5]]  # near the z axis
    inside = [[0.0, 0.0, 2.0], [1e-9, 0.0, -1.0]]
    return np.concatenate([far, near, inside])


_STARTS = {"oscillator_2d": _osc_starts(), "hydrogen": _hyd_starts()}
_T_END = {"oscillator_2d": 4.0, "hydrogen": 20.0}
_MODES = {
    "guidance": {"mode": "guidance"},
    "classical": {"mode": "classical"},
    "quantum_transition": {"mode": "transition", "coupling": {"type": "constant", "value": 1.0}},
    "mixed_transition": {"mode": "transition", "coupling": {"type": "constant", "value": 0.4}},
    "logistic_transition": {"mode": "transition",
                            "coupling": {"type": "logistic", "b": 2.0, "t0": 2.0}},
}


def _doc(kind, mode, starts, integrator=None, numerics=None, n_outputs=9):
    starts = np.asarray(starts, dtype=float)
    # explicit velocities keep fixed starts where they are, even inside the
    # guard; elsewhere they are grad S, the quantum-limit start
    vel, ok = qt.fields._grad_s(qt.make_system(kind), starts, 0.0, qt.DEFAULT_STENCIL)
    vel[~ok] = 0.0
    doc = {
        "system": {"type": kind},
        **_MODES[mode],
        "ensemble": {"mode": "fixed", "positions": starts.tolist(), "velocities": vel.tolist()},
        "time": {"start": 0.0, "end": _T_END[kind], "n_outputs": n_outputs},
    }
    if integrator:
        doc["integrator"] = integrator
    if numerics:
        doc["numerics"] = numerics
    return doc


def _scalar(res, i):
    sc = res.scenario
    if sc.mode == "guidance":
        return qt.integrate_guidance(sc.system, res.positions0[i], res.t,
                                     integrator=sc.integrator, stencil=sc.numerics)
    coupling = qt.Constant(0.0) if sc.mode == "classical" else sc.coupling
    return qt.integrate_transition(sc.system, coupling,
                                   (res.positions0[i], res.velocities0[i]), res.t,
                                   integrator=sc.integrator, stencil=sc.numerics)


def _same(a, b):
    """Every output of two trajectories, bit for bit."""
    assert a.status == b.status
    assert a.n_steps == b.n_steps
    assert a.stop_t == b.stop_t
    if b.stop_x is None:
        assert a.stop_x is None
    else:
        assert np.array_equal(a.stop_x, b.stop_x)
    for got, ref in ((a.t, b.t), (a.x, b.x), (a.v, b.v)):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def _check_bitwise(doc):
    res = qt.run_ensemble(build_scenario(doc), compute_metrics=False)
    assert res.n > dynamics._HANDOFF
    for i, tr in enumerate(res.trajectories):
        _same(tr, _scalar(res, i))
    return res


@pytest.mark.parametrize("mode", list(_MODES))
@pytest.mark.parametrize("kind", list(_STARTS))
def test_ensemble_equals_scalar_kernel_bitwise(kind, mode):
    res = _check_bitwise(_doc(kind, mode, _STARTS[kind]))
    if mode in ("guidance", "quantum_transition"):
        # the starts inside the guard stop at once
        assert res.truncation_report.get("singular_stop", 0) >= 2
    assert res.truncation_report["completed"] > dynamics._HANDOFF


@pytest.mark.parametrize("kind", list(_STARTS))
def test_ensemble_without_the_hand_off_equals_scalar_kernel(kind, monkeypatch):
    # the batch alone, to the last trajectory, gives the same bits (the
    # starts near the node, thousands of batch steps, are left out).  The
    # references are taken with the hand-off in place, so they run on the
    # scalar kernel
    starts = _STARTS[kind]
    for doc in (_doc(kind, "classical", starts),
                _doc(kind, "guidance", np.concatenate([starts[:14], starts[-2:]]))):
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_HANDOFF", 0)
            res = qt.run_ensemble(build_scenario(doc), compute_metrics=False)
        for i, tr in enumerate(res.trajectories):
            _same(tr, _scalar(res, i))


@pytest.mark.parametrize("kind", list(_STARTS))
def test_ensemble_equals_scalar_kernel_at_the_step_limit(kind):
    res = _check_bitwise(_doc(kind, "guidance", _STARTS[kind],
                              integrator={"max_steps": 60}))
    assert res.truncation_report["step_limit"] >= 2
    assert res.truncation_report["completed"] >= 2


@pytest.mark.parametrize("mode", ["guidance", "quantum_transition", "classical"])
@pytest.mark.parametrize("kind", list(_STARTS))
def test_ensemble_equals_scalar_kernel_with_rk4(kind, mode):
    dt = 0.01 if kind == "oscillator_2d" else 0.05
    _check_bitwise(_doc(kind, mode, _STARTS[kind],
                        integrator={"method": "rk4_fixed", "dt": dt}))


def test_ensemble_equals_scalar_kernel_with_a_coarse_guard():
    # min_rho 1e-6 makes starts that dive at the node stop mid-run, after
    # the halvings of the adaptive step
    a = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    radial = np.stack([np.cos(a), np.sin(a)], axis=1)
    starts = np.concatenate([_STARTS["oscillator_2d"], 0.5 * radial])
    doc = _doc("oscillator_2d", "quantum_transition", starts, numerics={"min_rho": 1e-6})
    vel = np.asarray(doc["ensemble"]["velocities"])
    vel[-12:] = -(1.0 + a[:, None] / 10.0) * radial  # straight at the node
    doc["ensemble"]["velocities"] = vel.tolist()
    res = _check_bitwise(doc)
    stopped = [tr for tr in res.trajectories[-12:] if tr.status == "singular_stop"]
    assert len(stopped) == 12
    assert all(0.0 < tr.stop_t < 1.0 for tr in stopped)


@pytest.mark.parametrize("kind", list(_STARTS))
def test_a_trajectory_does_not_depend_on_its_ensemble(kind):
    starts = _STARTS[kind]
    doc = _doc(kind, "guidance", starts)
    full = qt.run_ensemble(build_scenario(doc), compute_metrics=False).trajectories
    perm = np.random.default_rng(3).permutation(len(starts))
    for rows in (perm, perm[:11], perm[:1]):
        sub = _doc(kind, "guidance", starts[rows])
        got = qt.run_ensemble(build_scenario(sub), compute_metrics=False).trajectories
        for tr, i in zip(got, rows):
            _same(tr, full[i])


# --- the double slit's stencil routes ------------------------------------

# the array stencil rounds differently from the scalar one, and a roundoff
# difference in grad Q grows along a run.  Measured largest deviation over
# all rows: fig1_quantum 6.1e-6, fig1_meso_a 4.1e-6, fig1_classical 5.3e-7,
# fig4 (guidance) 3.4e-11
_STENCIL_BOUND = 5e-5


@pytest.mark.parametrize("preset", ["fig1_quantum", "fig1_meso_a", "fig1_classical", "fig4"])
def test_double_slit_stencil_routes_agree_with_the_scalar_kernel(preset):
    res = qt.run_ensemble(qt.preset(preset), compute_metrics=False)
    assert res.n > dynamics._HANDOFF
    for i, tr in enumerate(res.trajectories):
        ref = _scalar(res, i)
        assert tr.status == ref.status == "completed"
        assert np.abs(tr.x - ref.x).max() < _STENCIL_BOUND


# --- node guards, through whole ensembles ---------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _polar(p):
    return [p[0] * math.cos(p[1]), p[0] * math.sin(p[1]), *p[2:]]


# where |psi|^2 < min_rho = 1e-12, per system
_INSIDE = {
    "double_slit": st.tuples(st.sampled_from([-1.0, 1.0]), _floats(12.0, 13.75))
    .map(lambda p: [p[0] * p[1]]),
    "oscillator_2d": st.lists(_floats(-1e-7, 1e-7), min_size=2, max_size=2),
    "hydrogen": st.tuples(_floats(-7e-7, 7e-7), _floats(-7e-7, 7e-7), _floats(-20.0, 20.0))
    .map(list),
}
# just outside the guard, where the guided flow circles the node fastest
_NEAR = {
    "oscillator_2d": st.tuples(_floats(1e-5, 1e-3), _floats(0.0, 2 * math.pi)).map(_polar),
    "hydrogen": st.tuples(_floats(1e-4, 1e-2), _floats(0.0, 2 * math.pi), _floats(-20.0, 20.0))
    .map(_polar),
}
_SIZE = {"min_size": dynamics._HANDOFF + 1, "max_size": dynamics._HANDOFF + 4}


def _ensemble_of(kind, starts, mode):
    doc = {
        "system": {"type": kind},
        **_MODES["guidance" if mode == "guidance" else "quantum_transition"],
        "ensemble": {"mode": "fixed", "positions": starts,
                     "velocities": np.zeros_like(starts).tolist()},
        "time": {"start": 0.0, "end": 1.0, "n_outputs": 3},
        "integrator": {"max_steps": 300},
    }
    return qt.run_ensemble(build_scenario(doc), compute_metrics=False)


@settings(max_examples=25, deadline=None)
@given(ens=st.sampled_from(sorted(_INSIDE)).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(_INSIDE[k], **_SIZE))),
    mode=st.sampled_from(["guidance", "transition"]))
def test_ensemble_starts_inside_node_guard_stop_at_once(ens, mode):
    kind, starts = ens
    res = _ensemble_of(kind, starts, mode)
    for tr, x in zip(res.trajectories, starts):
        assert tr.status == "singular_stop"
        assert tr.stop_t == res.t[0]
        assert np.array_equal(tr.stop_x, x)
        assert tr.n_steps == 0 and len(tr.t) == 1


@settings(max_examples=25, deadline=None)
@given(ens=st.sampled_from(sorted(_NEAR)).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(_NEAR[k], **_SIZE))),
    mode=st.sampled_from(["guidance", "transition"]))
def test_ensemble_starts_near_node_guard_leave_no_nan(ens, mode):
    kind, starts = ens
    res = _ensemble_of(kind, starts, mode)
    for tr in res.trajectories:
        assert tr.status in ("completed", "singular_stop", "step_limit")
        for rows in (tr.t, tr.x, tr.v):
            assert not np.isnan(rows).any()


def test_completed_rows_stop_at_zero_on_both_engines():
    # 12 oscillator rows: the batch finishes some and hands the last
    # _HANDOFF to the scalar kernel; a completed row has stop time and
    # position zero on either engine, a row stopped at the start its start
    starts = np.concatenate([_STARTS["oscillator_2d"][:11], [[0.0, 0.0]]])
    osc = qt.oscillator_2d()
    t, xs, vs, status, filled, steps, stop_t, stop_x = dynamics._run_batch(
        qt.kernels.GUIDANCE, osc, qt.Constant(1.0), starts, None, np.linspace(0.0, 5.0, 6),
        None, None)
    done = status == qt.kernels.COMPLETED
    assert done.sum() == 11 and status[-1] == qt.kernels.SINGULAR_STOP
    assert np.all(stop_t[done] == 0.0) and np.all(stop_x[done] == 0.0)
    assert stop_t[-1] == 0.0 and np.array_equal(stop_x[-1], starts[-1])
