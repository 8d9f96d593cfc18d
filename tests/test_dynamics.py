"""Trajectory integration: guidance flow, transition dynamics, limits."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qctrans as qt
from qctrans import dynamics, kernels
from qctrans._jit import _array

TIGHT = qt.IntegratorConfig(rtol=1e-9, atol=1e-11)
VTIGHT = qt.IntegratorConfig(rtol=1e-10, atol=1e-12)


# --- guidance (quantum limit) -------------------------------------------------

def test_oscillator_guidance_circle_closes():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    tr = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    assert tr.status == "completed"
    assert np.abs(tr.x[-1] - tr.x[0]).max() < 1e-6
    r = np.hypot(tr.x[:, 0], tr.x[:, 1])
    assert np.abs(r - 1.0).max() < 1e-6


def test_oscillator_guidance_matches_exact_rotation():
    # on the unit circle the flow is rotation at angular speed sin(alpha) = 1
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    tr = qt.integrate_guidance(osc, [1.0, 0.0], tg, integrator=TIGHT)
    exact = np.stack([np.cos(tg), np.sin(tg)], axis=1)
    assert np.abs(tr.x - exact).max() < 1e-7


def test_hydrogen_guidance_conserves_cylinder():
    hyd = qt.hydrogen()
    tg = np.linspace(0.0, 2500.0, 501)
    tr = qt.integrate_guidance(hyd, [4.0, 0.0, 0.0], tg, integrator=TIGHT)
    s = np.hypot(tr.x[:, 0], tr.x[:, 1])
    assert np.abs(tr.x[:, 2]).max() < 1e-6
    assert np.abs(s - 4.0).max() < 1e-6


def test_hydrogen_guidance_angular_period():
    # phi' = m / s^2 = 1/16 on s = 4, so the period is 32 pi
    hyd = qt.hydrogen()
    tg = np.linspace(0.0, 2500.0, 501)
    tr = qt.integrate_guidance(hyd, [4.0, 0.0, 0.0], tg, integrator=TIGHT)
    phi = np.unwrap(np.arctan2(tr.x[:, 1], tr.x[:, 0]))
    period = 2 * math.pi * (tr.t[-1] - tr.t[0]) / (phi[-1] - phi[0])
    assert period == pytest.approx(32 * math.pi, rel=1e-6)


def test_guidance_velocity_routes_agree_along_orbit():
    # the stencil's velocity against the closed form's at every sample of
    # the orbit the closed form integrates
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    a = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    _, ux, uy = _array(kernels.oscillator_velocity)(osc.params.alpha, a.x[:, 0], a.x[:, 1])
    fd = np.array([qt.velocity_grad_s(osc, x, t) for x, t in zip(a.x, a.t)])
    assert np.abs(np.stack([ux, uy], axis=1) - fd).max() < 1e-8


def test_only_the_kernels_routes_reach_the_scalar_kernel(monkeypatch):
    # a single trajectory is a one-row ensemble: it goes over to the scalar
    # kernel whole, from the first grid time and before the array right-hand
    # side is built, on every system's route (the oscillator and hydrogen
    # closed forms, the double slit's stencil)
    calls = []
    integrate, batch_rhs = kernels.integrate, dynamics._batch_rhs

    def counting(*args):
        assert list(args[9]) == tg.tolist()
        calls.append(args[:2])
        return integrate(*args)

    def array_rhs(mode, system, *args):
        calls.append(("array", mode))
        return batch_rhs(mode, system, *args)

    monkeypatch.setattr(kernels, "integrate", counting)
    monkeypatch.setattr(dynamics, "_batch_rhs", array_rhs)
    tg = np.linspace(0.0, 0.5, 6)
    for sys, x0 in ((qt.oscillator_2d(), [1.0, 0.2]), (qt.hydrogen(), [4.0, 0.5, 0.3]),
                    (qt.double_slit(), [0.5])):
        state0 = (x0, np.zeros(sys.dim))
        calls.clear()
        g = qt.integrate_guidance(sys, x0, tg)
        t = qt.integrate_transition(sys, qt.Logistic(4.0, 0.25), state0, tg)
        assert g.completed and t.completed
        assert calls == [(kernels.GUIDANCE, sys.sys_id), (kernels.TRANSITION, sys.sys_id)]


# --- transition dynamics ------------------------------------------------------

def test_transition_p1_matches_guidance():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 35.0, 141)
    g = qt.integrate_guidance(osc, [1.0, 0.0], tg, integrator=VTIGHT)
    tr = qt.integrate_transition(osc, qt.Constant(1.0), ([1.0, 0.0], [0.0, 1.0]), tg,
                                 integrator=VTIGHT)
    assert np.abs(tr.x - g.x).max() < 1e-5


def test_transition_p1_radius_stays_on_circle():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 35.0, 141)
    tr = qt.integrate_transition(osc, qt.Constant(1.0), ([1.0, 0.0], [0.0, 1.0]), tg,
                                 integrator=TIGHT)
    r = np.hypot(tr.x[:, 0], tr.x[:, 1])
    assert np.abs(r - 1.0).max() < 1e-5


def test_classical_oscillator_is_cosine():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, math.pi, 33)
    tr = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                 integrator=TIGHT)
    assert np.abs(tr.x[:, 0] - np.cos(tg)).max() < 1e-6
    assert np.abs(tr.x[:, 1]).max() == 0.0
    assert tr.x[-1] == pytest.approx([-1.0, 0.0], abs=1e-6)


def test_classical_double_slit_straight_lines():
    ds = qt.double_slit()
    tg = np.linspace(0.0, 2.0, 41)
    for x0, v0 in [(-1.2, 0.7), (2.0, -2.0)]:
        tr = qt.integrate_transition(ds, qt.Constant(0.0), ([x0], [v0]), tg)
        assert np.abs(tr.x[:, 0] - (x0 + v0 * tg)).max() < 1e-12


def test_classical_kepler_conserves_energy_and_momentum():
    hyd = qt.hydrogen()
    tg = np.linspace(0.0, 2500.0, 501)
    tr = qt.integrate_transition(hyd, qt.Constant(0.0), ([4.0, 0.0, 0.0], [0.0, 0.25, 0.0]),
                                 tg, integrator=TIGHT)
    energy = 0.5 * (tr.v ** 2).sum(axis=1) - 1.0 / np.sqrt((tr.x ** 2).sum(axis=1))
    assert energy[0] == pytest.approx(-7 / 32, rel=1e-12)
    assert np.abs(energy - energy[0]).max() < 1e-6
    angmom = np.cross(tr.x, tr.v)
    assert angmom[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
    assert np.abs(angmom - angmom[0]).max() < 1e-6


def test_transition_sandwich():
    # with Logistic(30, 1) the run must coincide with the quantum-limit run
    # while P > 1 - 1e-9 and continue ballistically after P < 1e-9
    ds = qt.double_slit()
    tg = np.linspace(0.0, 2.0, 81)
    x0 = np.array([1.2])
    v0 = qt.velocity_grad_s(ds, x0, 0.0)
    sched = qt.Logistic(30.0, 1.0)
    trans = qt.integrate_transition(ds, sched, (x0, v0), tg, integrator=TIGHT)
    quant = qt.integrate_transition(ds, qt.Constant(1.0), (x0, v0), tg, integrator=TIGHT)
    assert trans.status == "completed"
    assert quant.status == "completed"
    t_pre = 1.0 - math.log(1e9) / 30.0
    pre = tg <= t_pre
    assert pre.sum() >= 10
    assert np.abs(trans.x[pre] - quant.x[pre]).max() < 1e-6
    post = tg >= 1.0 + math.log(1e9) / 30.0
    i0 = int(np.argmax(post))
    handoff = trans.x[i0, 0] + trans.v[i0, 0] * (tg[post] - tg[i0])
    assert np.abs(trans.x[post, 0] - handoff).max() < 1e-9


def test_tiny_coupling_is_exactly_classical():
    # below the coupling floor the quantum term is dropped entirely
    ds = qt.double_slit()
    tg = np.linspace(0.0, 2.0, 41)
    late = qt.integrate_transition(ds, qt.Logistic(40.0, -2.0), ([1.2], [0.5]), tg)
    free = qt.integrate_transition(ds, qt.Constant(0.0), ([1.2], [0.5]), tg)
    assert np.array_equal(late.x, free.x)


# --- stop conditions ----------------------------------------------------------

def test_singular_stop_near_node():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2.0, 41)
    tr = qt.integrate_transition(osc, qt.Constant(1.0), ([0.5, 0.0], [-1.0, 0.0]), tg,
                                 stencil=qt.StencilConfig(min_rho=1e-6))
    assert tr.status == "singular_stop"
    assert len(tr.t) < len(tg)
    assert tr.stop_t is not None and 0.0 < tr.stop_t < 2.0
    assert np.hypot(*tr.stop_x) < 0.01


def test_step_limit():
    osc = qt.oscillator_2d()
    tr = qt.integrate_guidance(osc, [1.0, 0.0], np.linspace(0.0, 35.0, 141),
                               integrator=qt.IntegratorConfig(max_steps=5))
    assert tr.status == "step_limit"
    assert tr.n_steps == 5
    assert len(tr.t) < 141


def test_completed_run_covers_grid():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 1.0, 11)
    tr = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    assert np.array_equal(tr.t, tg)
    assert tr.x.shape == (11, 2)
    assert tr.stop_t is None and tr.stop_x is None


_GUARD_T = np.array([0.0, 0.5, 1.0])
_GUARD_CFG = qt.IntegratorConfig(max_steps=300)


def _run_from(kind, x, mode):
    system = qt.make_system(kind)
    if mode == "guidance":
        return qt.integrate_guidance(system, x, _GUARD_T, integrator=_GUARD_CFG)
    return qt.integrate_transition(system, qt.Constant(1.0), (x, np.zeros(len(x))),
                                   _GUARD_T, integrator=_GUARD_CFG)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _polar(p):
    """(radius, angle, *z) -> Cartesian start point."""
    return [p[0] * math.cos(p[1]), p[0] * math.sin(p[1]), *p[2:]]


# start points where |psi|^2 < min_rho = 1e-12: the double slit's far
# tails, the oscillator's central node, the hydrogen (2,1,1) z axis
_INSIDE_GUARD = st.one_of(
    st.tuples(st.just("double_slit"),
              st.tuples(st.sampled_from([-1.0, 1.0]), _floats(12.0, 13.75))
              .map(lambda p: [p[0] * p[1]])),
    st.tuples(st.just("oscillator_2d"),
              st.lists(_floats(-1e-7, 1e-7), min_size=2, max_size=2)),
    st.tuples(st.just("hydrogen"),
              st.tuples(_floats(-7e-7, 7e-7), _floats(-7e-7, 7e-7), _floats(-20.0, 20.0))
              .map(list)),
)

# just outside the guard, where the guided flow circles the node fastest
_NEAR_GUARD = st.one_of(
    st.tuples(st.just("oscillator_2d"),
              st.tuples(_floats(1e-5, 1e-3), _floats(0.0, 2 * math.pi)).map(_polar)),
    st.tuples(st.just("hydrogen"),
              st.tuples(_floats(1e-4, 1e-2), _floats(0.0, 2 * math.pi), _floats(-20.0, 20.0))
              .map(_polar)),
)
_MODES = st.sampled_from(["guidance", "transition"])


@settings(max_examples=100, deadline=None)
@given(start=_INSIDE_GUARD, mode=_MODES)
# r^3 underflows to 0 here: the Coulomb force must stop, not divide by it
@example(start=("hydrogen", [0.0, 0.0, 7e-133]), mode="transition")
def test_start_inside_node_guard_stops_at_once(start, mode):
    kind, x = start
    tr = _run_from(kind, x, mode)
    assert tr.status == "singular_stop"
    assert tr.stop_t == _GUARD_T[0]
    assert np.all(np.isfinite(tr.stop_x))
    assert np.array_equal(tr.stop_x, x)


@settings(max_examples=100, deadline=None)
@given(start=_NEAR_GUARD, mode=_MODES)
def test_start_near_node_guard_leaves_no_nan(start, mode):
    kind, x = start
    tr = _run_from(kind, x, mode)
    assert tr.status in ("completed", "singular_stop", "step_limit")
    for rows in (tr.t, tr.x, tr.v):
        assert not np.isnan(rows).any()


# --- integrator quality -------------------------------------------------------

def test_dense_output_accuracy():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    a = qt.integrate_guidance(osc, [1.0, 0.0], tg)
    b = qt.integrate_guidance(osc, [1.0, 0.0], tg, integrator=VTIGHT)
    assert np.abs(a.x - b.x).max() < 1e-5


def test_tighter_tolerance_reduces_error():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 63)
    closure = []
    for cfg in (None, TIGHT):
        tr = qt.integrate_guidance(osc, [1.0, 0.0], tg, integrator=cfg)
        closure.append(np.abs(tr.x[-1] - tr.x[0]).max())
    assert closure[1] < closure[0]


def test_rk4_fixed_step_order():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 2 * math.pi, 9)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        cfg = qt.IntegratorConfig(method="rk4_fixed", dt=dt)
        tr = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                     integrator=cfg)
        errs.append(np.abs(tr.x[:, 0] - np.cos(tg)).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 4.0) < 0.2 for o in orders)


def test_rk4_matches_rk45():
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, math.pi, 17)
    a = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                integrator=qt.IntegratorConfig(method="rk4_fixed", dt=0.01))
    b = qt.integrate_transition(osc, qt.Constant(0.0), ([1.0, 0.0], [0.0, 0.0]), tg,
                                integrator=TIGHT)
    assert np.abs(a.x - b.x).max() < 1e-6


# --- validation ---------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: qt.IntegratorConfig(rtol=0.0),
    lambda: qt.IntegratorConfig(atol=-1.0),
    lambda: qt.IntegratorConfig(dt=-1.0),
    lambda: qt.IntegratorConfig(max_steps=0),
    lambda: qt.IntegratorConfig(method="euler"),
    lambda: qt.IntegratorConfig(max_steps=True),
    lambda: qt.IntegratorConfig(dt=True),
    lambda: qt.IntegratorConfig(rtol=True),
    lambda: qt.IntegratorConfig(atol=True),
])
def test_integrator_config_validation(make):
    with pytest.raises(qt.InvalidParameterError):
        make()


def test_configs_take_numpy_numbers_and_refuse_numpy_bools():
    # np.float64 is a float, but np.int64 is no int: each is a number here,
    # and a run with them is the run with the Python numbers
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 1.0, 5)
    ref = qt.integrate_guidance(osc, [1.0, 0.2], tg, integrator=qt.IntegratorConfig(max_steps=5))
    for cfg in (qt.IntegratorConfig(max_steps=np.int64(5)),
                qt.IntegratorConfig(max_steps=np.uint8(5), dt=np.float64(0.01),
                                    rtol=np.float64(1e-7), atol=np.float64(1e-9))):
        got = qt.integrate_guidance(osc, [1.0, 0.2], tg, integrator=cfg)
        assert got.status == ref.status == "step_limit"
        assert got.n_steps == 5 and np.array_equal(got.x, ref.x)
    assert qt.StencilConfig(h=np.float32(1e-4), min_rho=np.int64(0)).min_rho == 0
    assert qt.FieldGridConfig(nx=np.int32(3), ny=np.int64(4)).nx == 3
    for make, text in ((lambda: qt.IntegratorConfig(max_steps=np.True_), "max_steps must be"),
                       (lambda: qt.IntegratorConfig(dt=np.True_), "dt must be"),
                       (lambda: qt.StencilConfig(h=np.True_), "stencil h must be"),
                       (lambda: qt.FieldGridConfig(nx=np.True_), "nx must be"),
                       (lambda: qt.IntegratorConfig(max_steps=np.int64(0)), "max_steps must be"),
                       (lambda: qt.IntegratorConfig(max_steps=np.float64(5.0)), "max_steps must be")):
        with pytest.raises(qt.InvalidParameterError, match=text):
            make()


def test_time_grid_validation():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.InvalidParameterError):
        qt.integrate_guidance(osc, [1.0, 0.0], np.array([0.0, 0.5, 0.3]))
    with pytest.raises(qt.InvalidParameterError):
        qt.integrate_guidance(osc, [1.0, 0.0], np.array([0.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(qt.InvalidParameterError, match="^t_grid must be finite$"):
            qt.integrate_guidance(osc, [1.0, 0.0], np.array([0.0, bad]))


def test_state_dimension_validation():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.InvalidParameterError):
        qt.integrate_guidance(osc, [1.0, 0.0, 0.0], np.linspace(0.0, 1.0, 5))
    with pytest.raises(qt.InvalidParameterError, match="^v0 must have 2 components, got 3$"):
        qt.integrate_transition(osc, qt.Constant(1.0), ([1.0, 0.0], [0.0, 1.0, 0.0]),
                                np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
def test_a_first_step_longer_than_the_span_is_the_span(method):
    # the first dt is clamped to the span: in the scalar kernel, which takes
    # a single trajectory whole, and in the batch, which takes an ensemble
    # of more than _HANDOFF rows; either gives the bits of dt = span
    osc = qt.oscillator_2d()
    tg = np.linspace(0.0, 0.5, 6)
    long, span = (qt.IntegratorConfig(method=method, dt=dt) for dt in (100.0, 0.5))
    a = qt.integrate_guidance(osc, [1.0, 0.2], tg, integrator=long)
    b = qt.integrate_guidance(osc, [1.0, 0.2], tg, integrator=span)
    assert a.completed and a.n_steps == b.n_steps
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    ang = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    starts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * np.linspace(0.5, 1.5, 12)[:, None]
    assert len(starts) > dynamics._HANDOFF
    runs = [dynamics._run_batch(kernels.GUIDANCE, osc, qt.Constant(1.0), starts, None, tg,
                                cfg, None) for cfg in (long, span)]
    assert np.all(runs[0][3] == kernels.COMPLETED)
    for got, ref in zip(*runs):
        assert np.array_equal(got, ref)


def test_double_slit_start_whose_q_probes_leave_the_guard_stops_at_once():
    # 5h inside the point where |psi|^2 falls to min_rho, the grad Q probes
    # at +10h are under the guard: the scalar kernel's stencil stops the
    # trajectory at its start, and ``force`` refuses the point
    ds = qt.double_slit()
    st = qt.DEFAULT_STENCIL
    lo, hi = 2.5, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ds.rho(np.array([mid]), 0.0) >= st.min_rho else (lo, mid)
    x0 = lo - 5.0 * st.h
    assert qt.density(ds, [x0], 0.0) >= st.min_rho
    tr = qt.integrate_transition(ds, qt.Constant(1.0), ([x0], [0.0]), np.linspace(0.0, 1.0, 3))
    assert tr.status == "singular_stop" and tr.stop_t == 0.0 and tr.n_steps == 0
    assert tr.x.tolist() == [[x0]] and tr.v.tolist() == [[0.0]]
    with pytest.raises(qt.NodeProximityError,
                       match=r"^field evaluation guarded near a node/singular set \(min_rho"):
        qt.force(ds, qt.Constant(1.0), [x0], 0.0)
