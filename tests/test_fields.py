"""Derived fields: density, velocity routes, quantum potential, force."""
import math

import numpy as np
import pytest

import qctrans as qt
from qctrans import dynamics, kernels
from qctrans import systems as qs


def test_density_values():
    osc = qt.oscillator_2d()
    assert qt.density(osc, np.array([1.0, 0.0]), 0.0) == pytest.approx(
        math.exp(-1) / math.pi, rel=1e-13)
    ds = qt.double_slit()
    assert qt.density(ds, np.array([2.5]), 0.0) == pytest.approx(
        abs(ds.psi(np.array([2.5]), 0.0)) ** 2, rel=1e-13)


def test_velocity_grad_s_examples():
    osc = qt.oscillator_2d()
    assert qt.velocity_grad_s(osc, np.array([1.0, 0.0]), 0.0) == pytest.approx(
        [0.0, 1.0], abs=1e-8)
    assert qt.velocity_grad_s(osc, np.array([0.0, 1.0]), 0.0) == pytest.approx(
        [-1.0, 0.0], abs=1e-8)
    hyd = qt.hydrogen()
    assert qt.velocity_grad_s(hyd, np.array([4.0, 0.0, 0.0]), 0.0) == pytest.approx(
        [0.0, 0.25, 0.0], abs=1e-8)


def test_velocity_routes_agree():
    # grad-S route vs current route, spot points per system
    cases = [
        (qt.double_slit(), np.array([1.1]), 0.8),
        (qt.oscillator_2d(), np.array([0.7, -0.4]), 0.0),
        (qt.hydrogen(), np.array([2.0, 1.0, -0.5]), 0.0),
    ]
    for sys, p, t in cases:
        a = qt.velocity_grad_s(sys, p, t)
        b = qt.velocity_current(sys, p, t)
        assert np.abs(a - b).max() < 1e-7


def test_real_wavefunction_has_zero_velocity():
    h210 = qt.make_system("hydrogen", n=2, l=1, m=0)
    p = np.array([1.0, 1.0, 1.0])
    assert np.all(qt.velocity_grad_s(h210, p, 0.0) == 0.0)
    assert np.all(qt.velocity_current(h210, p, 0.0) == 0.0)


def test_quantum_potential_examples():
    osc = qt.oscillator_2d()
    assert qt.quantum_potential(osc, np.array([1.0, 0.0]), 0.0) == pytest.approx(
        1.0, abs=1e-5)
    hyd = qt.hydrogen()
    assert qt.quantum_potential(hyd, np.array([4.0, 0.0, 0.0]), 0.0) == pytest.approx(
        3 / 32, abs=1e-5)


def test_gaussian_inverse_parabola():
    # a single packet's Q is an inverse parabola with curvature -1/(2 rho0^4)
    g = qt.make_system("double_slit", rho0=0.625, u=0.0, X=1e-12)
    xs = np.linspace(-0.5, 0.5, 21)
    q = np.array([qt.quantum_potential(g, np.array([x]), 0.0) for x in xs])
    coef = np.polyfit(xs, q, 2)
    assert coef[0] == pytest.approx(-1 / (2 * 0.625 ** 4), rel=1e-4)
    assert abs(coef[1]) < 1e-6


def test_stencil_second_order_convergence():
    osc = qt.oscillator_2d()
    p = np.array([0.9, 0.4])
    ref = qs.oscillator_qpot_closed(osc.params, 0.9, 0.4)
    errs = [abs(qt.quantum_potential(osc, p, 0.0, qt.StencilConfig(h=h, richardson=False))
                - ref)
            for h in (2e-3, 1e-3, 5e-4)]
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_richardson_beats_plain_stencil():
    osc = qt.oscillator_2d()
    p = np.array([0.9, 0.4])
    ref = qs.oscillator_qpot_closed(osc.params, 0.9, 0.4)
    plain = abs(qt.quantum_potential(osc, p, 0.0, qt.StencilConfig(h=1e-3, richardson=False))
                - ref)
    rich = abs(qt.quantum_potential(osc, p, 0.0, qt.StencilConfig(h=1e-3, richardson=True))
               - ref)
    assert rich < plain / 100


def test_fields_accept_bare_callables_and_scale_invariance():
    f = lambda x, t: (x[0] + 1j * x[1]) * np.exp(-0.5 * (x[0] ** 2 + x[1] ** 2))
    g = lambda x, t: 7.0 * f(x, t)
    p = np.array([0.9, 0.4])
    q1 = qt.quantum_potential(f, p, 0.0)
    q2 = qt.quantum_potential(g, p, 0.0)
    assert q1 == pytest.approx(q2, abs=1e-6)
    osc = qt.oscillator_2d()
    assert q1 == pytest.approx(qt.quantum_potential(osc, p, 0.0), abs=1e-6)


def test_node_guard_raises():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.NodeProximityError):
        qt.quantum_potential(osc, np.array([1e-9, 0.0]), 0.0)
    with pytest.raises(qt.NodeProximityError):
        qt.velocity_grad_s(osc, np.array([1e-9, 0.0]), 0.0)
    # the closed grad Q is still finite there; the node guard refuses it
    with pytest.raises(qt.NodeProximityError, match=r"near a node/singular set \(min_rho"):
        qt.force(osc, qt.Constant(1.0), np.array([1e-9, 0.0]), 0.0)


def test_a_bare_callable_takes_one_to_three_components():
    f = lambda x, t: complex(x.sum(), 1.0)
    assert qt.density(f, np.zeros(3), 0.0) == 1.0
    with pytest.raises(qt.InvalidParameterError,
                       match=r"^position must have 1\.\.3 components, got shape \(2, 2\)$"):
        qt.velocity_grad_s(f, np.zeros((2, 2)), 0.0)


def test_node_guard_threshold_configurable():
    osc = qt.oscillator_2d()
    p = np.array([0.05, 0.0])
    # default floor passes here; a raised floor guards the same point
    qt.quantum_potential(osc, p, 0.0)
    with pytest.raises(qt.NodeProximityError):
        qt.quantum_potential(osc, p, 0.0, qt.StencilConfig(min_rho=1e-2))


def test_stencil_validation():
    # a bool is an int to isinstance, and any truthy value would switch
    # Richardson on
    for kwargs in ({"h": 0.0}, {"min_rho": -1.0}, {"h": True}, {"min_rho": True},
                   {"richardson": "no"}, {"richardson": 1}, {"min_rho": math.inf}):
        with pytest.raises(qt.InvalidParameterError):
            qt.StencilConfig(**kwargs)


_POINT_OPERATORS = {
    "density": qt.density,
    "velocity_grad_s": qt.velocity_grad_s,
    "quantum_potential": qt.quantum_potential,
    "qpot_gradient": qt.qpot_gradient,
    "force": lambda sys, x, t: qt.force(sys, qt.Constant(1.0), x, t),
}


@pytest.mark.parametrize("name", list(_POINT_OPERATORS))
@pytest.mark.parametrize("kind,x", [
    ("double_slit", [1.0, 2.0, 3.0]),
    ("hydrogen", np.array([1.0, 2.0])),
    ("oscillator_2d", [[1.0, 2.0, 3.0]]),
])
def test_point_operators_reject_a_position_of_the_wrong_size(name, kind, x):
    # neither padded nor truncated to the system's dimension, and the error
    # names the shape the caller passed, not the stencil stack built from it
    with pytest.raises(qt.InvalidParameterError) as exc:
        _POINT_OPERATORS[name](qt.make_system(kind), x, 0.5)
    assert f"got shape {np.shape(x)}" in str(exc.value)


def test_force_classical_limits():
    ds = qt.double_slit()
    assert qt.force(ds, qt.Constant(0.0), np.array([1.0]), 0.5) == pytest.approx([0.0])
    osc = qt.oscillator_2d()
    assert qt.force(osc, qt.Constant(0.0), np.array([1.0, 0.0]), 0.0) == pytest.approx(
        [-1.0, 0.0], rel=1e-14)
    assert qt.force(osc, qt.Constant(0.0), np.array([0.9, 0.4]), 0.0) == pytest.approx(
        [-0.9, -0.4], rel=1e-14)


def test_force_quantum_routes_agree():
    # dQ/dr = -r + 1/r^3 vanishes at r = 1, so the P=1 force there is (-1, 0);
    # force's closed grad Q against the stencil's, -grad V - qpot_gradient
    osc = qt.oscillator_2d()
    p = np.array([1.0, 0.0])
    closed = qt.force(osc, qt.Constant(1.0), p, 0.0)
    fd = -osc.params.k0 * p - qt.qpot_gradient(osc, p, 0.0)
    assert closed == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert np.abs(closed - fd).max() < 1e-5
    hyd = qt.hydrogen()
    p3 = np.array([4.0, 1.0, -0.5])
    closed3 = qt.force(hyd, qt.Constant(1.0), p3, 0.0)
    fd3 = -p3 / np.linalg.norm(p3) ** 3 - qt.qpot_gradient(hyd, p3, 0.0)
    assert np.abs(closed3 - fd3).max() < 1e-5


def test_force_closed_gradient_value():
    # at (2, 0): -dV/dx - dQ/dx = -2 + 15/8
    osc = qt.oscillator_2d()
    f = qt.force(osc, qt.Constant(1.0), np.array([2.0, 0.0]), 0.0)
    assert f == pytest.approx([-2.0 + 15.0 / 8.0, 0.0], abs=1e-12)


def test_force_scales_with_coupling():
    osc = qt.oscillator_2d()
    p = np.array([0.6, 0.5])
    f0 = qt.force(osc, qt.Constant(0.0), p, 0.0)
    f1 = qt.force(osc, qt.Constant(1.0), p, 0.0)
    fh = qt.force(osc, qt.Constant(0.5), p, 0.0)
    assert fh == pytest.approx(0.5 * (f0 + f1), rel=1e-12)


def test_qpot_gradient_matches_closed_derivative():
    # one stencil contract for systems and bare callables of the same state
    osc = qt.oscillator_2d()
    bare = lambda x, t: qs.oscillator_psi(osc.params, x[0], x[1], t)
    for psi in (osc, bare):
        for x, y in [(0.6, 0.5), (1.4, -0.3)]:
            r = math.hypot(x, y)
            dqdr = -r + 1 / r ** 3
            ref = np.array([dqdr * x / r, dqdr * y / r])
            g = qt.qpot_gradient(psi, np.array([x, y]), 0.0)
            assert np.abs(g - ref).max() < 1e-5


def test_array_stencil_matches_integrator_stencil():
    # the double slit has no closed forms, so the field queries (array
    # stencil over systems.psi) and the scalar kernel (its own psi and
    # one-dimensional stencil) share no code below the stencil contract
    ds = qt.double_slit()
    par = dynamics._scalars(ds._par)  # as the kernel receives it
    st = qt.DEFAULT_STENCIL
    kind, (c0, c1) = qt.Constant(1.0)._kind, qt.Constant(1.0)._packed()
    for x, t in [(1.1, 0.8), (-0.3, 0.2), (2.4, 1.5), (-3.0, 0.0)]:
        v = qt.velocity_grad_s(ds, np.array([x]), t)
        u, status = kernels.velocity_grad_s(par, x, t, st.h, st.richardson, st.min_rho)
        assert status == 0
        assert abs(v[0] - u) < 1e-9
        g = qt.qpot_gradient(ds, np.array([x]), t)
        f = np.zeros(3)
        assert kernels.force(kernels.DOUBLE_SLIT, par, kind, c0, c1, x, 0.0, 0.0, t,
                             st.h, st.richardson, st.min_rho, f) == 0
        assert abs(g[0] + f[0]) < 1e-5


def test_field_map_masks_exactly_the_guarded_cells():
    # a window wide enough that the packet tails fall under the 1e-250
    # floor of field maps: the masked cells of the array Q map are the
    # cells where the point query raises
    ds = qt.double_slit()
    cfg = qt.FieldGridConfig(quantity="Q", xlim=(-30.0, 30.0), ylim=(0.0, 1.0), nx=121, ny=5)
    grid = qt.compute_field(ds, cfg)
    guarded = np.zeros(grid.values.shape, dtype=bool)
    point = np.full(grid.values.shape, np.nan)
    for j, t in enumerate(grid.ys):
        for i, x in enumerate(grid.xs):
            try:
                point[j, i] = qt.quantum_potential(ds, np.array([x]), t, qt.StencilConfig(min_rho=1e-250))
            except qt.NodeProximityError:
                guarded[j, i] = True
    assert 0 < guarded.sum() < guarded.size
    assert np.array_equal(np.isnan(grid.values), guarded)
    assert np.array_equal(grid.values[~guarded], point[~guarded])
