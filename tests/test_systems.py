"""Analytic wavefunctions and their closed-form fields.

Reference values are computed independently from the printed formulas; the
reduced figure-parameter forms are typed out here as a second route.
"""
import cmath
import hashlib
import math

import numpy as np
import pytest

import qctrans as qt
from qctrans import fields, kernels
from qctrans import systems as qs
from qctrans._jit import _array
import oracles

RNG = np.random.default_rng(42)


# --- double slit -------------------------------------------------------------

def ds_psi_reference(x, t, rho=0.625, u=-2.0, X=2.5):
    """Two-packet superposition exactly as printed."""
    w = rho * rho * (1 + 1j * t / rho ** 2)
    a = cmath.exp(-((u * t + x - X) ** 2) / (2 * w) - 1j * u * (u * t / 2 + x - X))
    b = cmath.exp(-((-u * t + x + X) ** 2) / (2 * w) + 1j * u * (-u * t / 2 + x + X))
    return (a + b) / cmath.sqrt(rho * (1 + 1j * t / rho ** 2))


def test_double_slit_psi_matches_reference():
    ds = qt.double_slit()
    for x, t in [(0.0, 0.0), (2.5, 0.0), (1.3, 0.7), (-3.1, 1.9), (0.4, 2.0)]:
        assert ds.psi(np.array([x]), t) == pytest.approx(ds_psi_reference(x, t), rel=1e-13)


def test_double_slit_psi_center_value():
    # 2 exp(-X^2 / 2 rho0^2) e^{i u X} / sqrt(rho0)
    ds = qt.double_slit()
    got = ds.psi(np.array([0.0]), 0.0)
    assert got == pytest.approx(0.00024073297135330428 + 0.0008138014221581746j, rel=1e-13)
    assert abs(got) == pytest.approx(2 * math.exp(-2.5 ** 2 / (2 * 0.625 ** 2))
                                     / math.sqrt(0.625), rel=1e-13)


def test_double_slit_psi_slit_value():
    ds = qt.double_slit()
    ref = (1 + cmath.exp(-2 * 2.5 ** 2 / 0.625 ** 2 + 2j * (-2.0) * 2.5)) / math.sqrt(0.625)
    assert ds.psi(np.array([2.5]), 0.0) == pytest.approx(ref, rel=1e-13)


def test_double_slit_mirror_symmetry():
    ds = qt.double_slit()
    for x, t in [(1.3, 0.7), (0.4, 1.9), (3.3, 0.2), (2.5, 1.25)]:
        assert ds.psi(np.array([-x]), t) == ds.psi(np.array([x]), t)


def test_double_slit_rho_closed_matches_psi():
    ds = qt.double_slit()
    for _ in range(50):
        x = float(RNG.uniform(-6, 6))
        t = float(RNG.uniform(0, 2.5))
        rho = ds.rho(np.array([x]), t)
        if rho < 1e-12:
            continue
        assert oracles.double_slit_rho_closed(ds.params, x, t) == pytest.approx(rho, rel=1e-9)


def test_double_slit_s_closed_matches_arg_psi():
    # compare on the unit circle; S is defined mod 2 pi
    ds = qt.double_slit()
    for _ in range(50):
        x = float(RNG.uniform(-6, 6))
        t = float(RNG.uniform(0, 2.5))
        if ds.rho(np.array([x]), t) < 1e-12:
            continue
        s = oracles.double_slit_s_closed(ds.params, x, t)
        phase = np.angle(ds.psi(np.array([x]), t))
        assert abs(cmath.exp(1j * s) - cmath.exp(1j * phase)) < 1e-9


def test_double_slit_initial_velocity_asymptotes():
    # u_x(x, 0) -> u for x < 0 and -u for x > 0
    ds = qt.double_slit()
    assert qt.velocity_grad_s(ds, np.array([-4.0]), 0.0) == pytest.approx([-2.0], abs=1e-9)
    assert qt.velocity_grad_s(ds, np.array([4.0]), 0.0) == pytest.approx([2.0], abs=1e-9)


def test_double_slit_converging_packets_reach_center():
    # with u = +2 the packets meet near the axis and interfere constructively
    dsp = qt.make_system("double_slit", u=2.0)
    rho0 = dsp.rho(np.array([0.0]), 0.0)
    rho_meet = dsp.rho(np.array([0.0]), 1.25)
    assert rho_meet > 1e5 * rho0


def test_double_slit_rejects_negative_time():
    ds = qt.double_slit()
    with pytest.raises(qt.InvalidParameterError):
        ds.psi(np.array([0.5]), -0.1)


# --- 2D oscillator -----------------------------------------------------------

def osc_psi_reference(x, y, t):
    """(x + i y) e^{-(4 i t + x^2 + y^2)/2} / sqrt(pi), the figure-3 state."""
    return (x + 1j * y) * cmath.exp(-0.5 * (4j * t + x * x + y * y)) / math.sqrt(math.pi)


def test_oscillator_psi_matches_reduced_form():
    osc = qt.oscillator_2d()
    for x, y, t in [(1.0, 0.0, 0.0), (0.3, -0.8, 0.6), (-1.5, 0.2, 3.1)]:
        assert osc.psi(np.array([x, y]), t) == pytest.approx(
            osc_psi_reference(x, y, t), rel=1e-13, abs=1e-15)
    assert osc.psi(np.array([1.0, 0.0]), 0.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(math.pi), rel=1e-14)


def test_oscillator_density_is_stationary():
    osc = qt.oscillator_2d()
    p = np.array([0.7, -0.4])
    vals = [osc.rho(p, t) for t in (0.0, 1.0, 17.3)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-13)
    assert vals[0] == pytest.approx(vals[2], rel=1e-13)


def test_oscillator_node_at_origin():
    osc = qt.oscillator_2d()
    assert osc.rho(np.zeros(2), 0.0) == 0.0


def test_oscillator_rho_closed():
    # omega^2 (x^2 + y^2 + 2 x y cos alpha) e^{-omega r^2} / pi
    osc = qt.oscillator_2d()
    assert osc.rho(np.array([1.0, 0.0]), 0.0) == pytest.approx(math.exp(-1) / math.pi,
                                                               rel=1e-14)
    gen = qt.make_system("oscillator_2d", k0=2.25, alpha=0.8)
    w = 1.5
    for x, y in [(0.6, 0.2), (-0.9, 0.5)]:
        ref = w ** 2 * (x * x + y * y + 2 * x * y * math.cos(0.8)) \
            * math.exp(-w * (x * x + y * y)) / math.pi
        assert gen.rho(np.array([x, y]), 0.0) == pytest.approx(ref, rel=1e-12)
        assert oracles.oscillator_rho_closed(gen.params, x, y) == pytest.approx(ref, rel=1e-12)


def test_oscillator_velocity_closed():
    osc = qt.oscillator_2d()
    assert oracles.oscillator_velocity_closed(osc.params, 1.0, 0.0) == pytest.approx((0.0, 1.0))
    assert oracles.oscillator_velocity_closed(osc.params, 0.0, 2.0) == pytest.approx((-0.5, 0.0))
    gen = qt.make_system("oscillator_2d", alpha=0.8)
    for x, y in [(0.6, 0.2), (-0.9, 0.5)]:
        g = x * x + y * y + 2 * x * y * math.cos(0.8)
        ref = (-y * math.sin(0.8) / g, x * math.sin(0.8) / g)
        assert oracles.oscillator_velocity_closed(gen.params, x, y) == pytest.approx(
            ref, rel=1e-12)


def test_oscillator_qpot_closed():
    # figure-3 reduction: -(r^4 - 4 r^2 + 1) / (2 r^2)
    osc = qt.oscillator_2d()
    assert qs.oscillator_qpot_closed(osc.params, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert qs.oscillator_qpot_closed(osc.params, 2.0, 0.0) == pytest.approx(-1 / 8, rel=1e-12)
    for x, y in [(0.5, 1.1), (-0.7, 0.9)]:
        r2 = x * x + y * y
        ref = -(r2 * r2 - 4 * r2 + 1) / (2 * r2)
        assert qs.oscillator_qpot_closed(osc.params, x, y) == pytest.approx(ref, rel=1e-12)


def test_oscillator_closed_fields_singular_at_node():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.SingularityError):
        oracles.oscillator_velocity_closed(osc.params, 0.0, 0.0)
    with pytest.raises(qt.SingularityError):
        qs.oscillator_qpot_closed(osc.params, 0.0, 0.0)


# --- hydrogen ----------------------------------------------------------------

def hyd211_psi_reference(x, y, z, t):
    """-(x + i y) e^{-r/2 + i t/8} / (8 sqrt(pi))."""
    r = math.sqrt(x * x + y * y + z * z)
    return -(x + 1j * y) * cmath.exp(-r / 2 + 1j * t / 8) / (8 * math.sqrt(math.pi))


def test_hydrogen_psi_matches_reduced_form():
    hyd = qt.hydrogen()
    for x, y, z, t in [(4.0, 0.0, 0.0, 0.0), (1.0, -2.0, 0.5, 3.0), (-3.0, 2.0, -1.0, 100.0)]:
        assert hyd.psi(np.array([x, y, z]), t) == pytest.approx(
            hyd211_psi_reference(x, y, z, t), rel=1e-12)
    assert hyd.psi(np.array([4.0, 0.0, 0.0]), 0.0) == pytest.approx(
        -4 * math.exp(-2) / (8 * math.sqrt(math.pi)), rel=1e-13)


def test_hydrogen_ground_state_finite_at_origin():
    g = qt.make_system("hydrogen", n=1, l=0, m=0)
    assert g.psi(np.zeros(3), 0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)


def test_hydrogen_density_is_stationary():
    hyd = qt.hydrogen()
    p = np.array([2.0, 1.0, -0.5])
    assert hyd.rho(p, 0.0) == pytest.approx(hyd.rho(p, 1234.5), rel=1e-12)


def test_hydrogen_velocity_closed():
    hyd = qt.hydrogen()
    assert oracles.hydrogen_velocity_closed(hyd.params, 4.0, 0.0, 0.0) == pytest.approx(
        (0.0, 0.25, 0.0))
    assert oracles.hydrogen_velocity_closed(hyd.params, 0.0, 4.0, 1.0) == pytest.approx(
        (-0.25, 0.0, 0.0))
    for x, y, z in [(2.0, 1.0, 3.0), (-1.0, -5.0, 0.2)]:
        s2 = x * x + y * y
        assert oracles.hydrogen_velocity_closed(hyd.params, x, y, z) == pytest.approx(
            (-y / s2, x / s2, 0.0), rel=1e-12)


def test_hydrogen_qpot_closed():
    hyd = qt.hydrogen()
    assert qs.hydrogen_qpot_closed(hyd.params, 4.0, 0.0, 0.0) == pytest.approx(3 / 32,
                                                                               rel=1e-12)
    for x, y, z in [(2.0, 1.0, 3.0), (-1.0, -5.0, 0.2)]:
        r = math.sqrt(x * x + y * y + z * z)
        s2 = x * x + y * y
        ref = -(s2 * (1 - 8 / r) + 4) / (8 * s2)
        assert qs.hydrogen_qpot_closed(hyd.params, x, y, z) == pytest.approx(ref, rel=1e-12)


def test_hydrogen_qpot_closed_other_eigenstates():
    # E_n + 1/r - m^2/(2 s^2) holds for any eigenstate; cross-check against
    # the stencil route on a state with different (n, l, m)
    h321 = qt.make_system("hydrogen", n=3, l=2, m=1)
    for p in ([6.0, 2.0, 3.0], [10.0, -4.0, 1.0]):
        closed = qs.hydrogen_qpot_closed(h321.params, *p)
        fd = qt.quantum_potential(h321, np.array(p), 0.0)
        assert closed == pytest.approx(fd, abs=2e-7)


def test_hydrogen_potential_and_axis_singularity():
    hyd = qt.hydrogen()
    with pytest.raises(qt.SingularityError):
        oracles.hydrogen_velocity_closed(hyd.params, 0.0, 0.0, 2.0)
    with pytest.raises(qt.SingularityError):
        qs.hydrogen_qpot_closed(hyd.params, 0.0, 0.0, 2.0)


# --- shared properties -------------------------------------------------------

@pytest.mark.parametrize("kind,point", [
    ("double_slit", [1.1]),
    ("oscillator_2d", [0.7, -0.4]),
    ("hydrogen", [2.0, 1.0, -0.5]),
])
def test_rho_equals_psi_squared(kind, point):
    sys = qt.make_system(kind)
    p = np.asarray(point)
    for t in (0.0, 0.8):
        assert sys.rho(p, t) == pytest.approx(abs(sys.psi(p, t)) ** 2, rel=1e-13)


# points at the edges of the real-amplitude density: r -> 0, the z axis,
# the oscillator's node, and a generic spread
_DENSITY_POINTS = np.concatenate([
    np.random.default_rng(7).normal(size=(200, 3)) * 4.0,
    np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0], [0.0, 0.0, 1e-12], [0.0, 0.0, 3.0],
              [0.0, 0.0, -7.5], [1e-8, -1e-8, 2.0], [1e-150, 0.0, 1e-150], [2.0, 0.0, 0.0]]),
])


def _rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    scale = np.maximum(np.abs(ref), np.finfo(float).tiny)
    return np.where(got == ref, 0.0, np.abs(got - ref) / scale)


@pytest.mark.parametrize("nlm", [(2, 1, 1), (1, 0, 0), (3, 2, -2), (3, 1, 0), (4, 3, -1),
                                 (4, 2, 1)])
def test_hydrogen_real_density_matches_psi_squared(nlm):
    # the real amplitude R_nl N_lm P_l^|m| squared is |psi|^2: the phase
    # factors e^{i m phi} e^{-i E t} have modulus 1
    hyd = qt.hydrogen(*nlm)
    par = hyd._par.tolist()
    for t in (0.0, 3.7):
        ref = np.abs(hyd.psi(_DENSITY_POINTS, t)) ** 2
        assert _rel_err(hyd.rho(_DENSITY_POINTS, t), ref).max() < 1e-14
        for p, r in zip(_DENSITY_POINTS, ref):
            assert _rel_err(kernels.density(kernels.HYDROGEN, par, *p.tolist(), t), r) < 1e-14


# sha256 (first 16 hex digits) of the float64 densities at _DENSITY_POINTS,
# t = 0: (scalar kernels.density, array WaveField.rho).  They pin the node
# guard's bits: any change of operation order in either density shows here.
# Both run the one form ``kernels._hydrogen_density``, but the two differ
# from each other in the last bits where numpy's exp is not libm's, so each
# has its own digest.
_HYDROGEN_DENSITY_DIGESTS = {
    (2, 1, 1): ("85b6fe10d2d7e7b2", "5888aaeef80ff7f6"),
    (1, 0, 0): ("da12c49dc4f1fe85", "287c6b751a324f0f"),
    (3, 2, -2): ("277313e5169cf530", "bf2b54d4bc2428e8"),
    (3, 1, 0): ("5b7f777b58eac33a", "a3ece0fc03f86696"),
    (4, 3, -1): ("18c569f6ae8b84d5", "5e5bb0966d3fe59a"),  # rho^3 a product, not pow
    (4, 2, 1): ("78ab8d5657554ece", "716e61a2189c6943"),
    (5, 2, 1): ("5505d238dc941cf1", "57308fdb7cc4658f"),  # radial nodes
}


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("nlm", list(_HYDROGEN_DENSITY_DIGESTS))
def test_hydrogen_density_bits_are_pinned(nlm):
    hyd = qt.hydrogen(*nlm)
    par = hyd._par.tolist()
    scalar = [kernels.density(kernels.HYDROGEN, par, *p, 0.0) for p in _DENSITY_POINTS.tolist()]
    assert (_digest(scalar), _digest(hyd.rho(_DENSITY_POINTS, 0.0))) == \
        _HYDROGEN_DENSITY_DIGESTS[nlm]


# the same for the oscillator, per (k0, alpha): (scalar kernels.density,
# the array node guard's density, i.e. kernels._oscillator_density with
# np.exp).  The scalar digests are those of the density the kernel wrote
# out inline before the form was shared.
_OSCILLATOR_DENSITY_DIGESTS = {
    (1.0, math.pi / 2): ("9b09f8532102efcb", "004f0a9327316572"),
    (2.3, 0.4): ("fa0568cf76b3e920", "1570fb1db2f36963"),
    (0.5, -2.0): ("ba0e859b8b36cbe6", "8c1e67f570340ca8"),
    (1.0, 0.0): ("0635975d866992fb", "9f193a602cd03320"),
}


def _guard_density(system):
    """The density that the ensemble engine's node guard
    (``fields._dense_enough``) compares with min_rho, at _DENSITY_POINTS."""
    return system._rho(_DENSITY_POINTS[:, :system.dim].T, 0.0)


@pytest.mark.parametrize("k0,alpha", list(_OSCILLATOR_DENSITY_DIGESTS))
def test_oscillator_density_bits_are_pinned(k0, alpha):
    osc = qt.oscillator_2d(k0, alpha)
    par = osc._par.tolist()
    scalar = [kernels.density(kernels.OSCILLATOR, par, *p, 0.0) for p in _DENSITY_POINTS.tolist()]
    assert (_digest(scalar), _digest(_guard_density(osc))) == \
        _OSCILLATOR_DENSITY_DIGESTS[k0, alpha]


@pytest.mark.parametrize("kind,params", [
    *(("oscillator_2d", {"k0": k0, "alpha": alpha}) for k0, alpha in _OSCILLATOR_DENSITY_DIGESTS),
    *(("hydrogen", dict(zip("nlm", nlm))) for nlm in _HYDROGEN_DENSITY_DIGESTS),
])
def test_guard_density_agrees_with_the_kernel_density(kind, params):
    # one real form on arrays and on floats: numpy's exp against libm's; the
    # largest gap at these points is 6 ulp, for (2,1,1) and (4,3,-1)
    system = qt.make_system(kind, **params)
    par = system._par.tolist()
    rho = _guard_density(system)
    scalar = np.array([kernels.density(system.sys_id, par, *p, 0.0)
                       for p in _DENSITY_POINTS.tolist()])
    ulps = np.abs(rho - scalar) / np.spacing(np.maximum(np.abs(rho), np.abs(scalar)))
    assert np.where(rho == scalar, 0.0, ulps).max() <= 8.0
    # and the guard compares exactly these values: at min_rho = rho_i, a
    # point passes if and only if its density is at least rho_i
    t = np.zeros(len(rho))
    for m in np.unique(rho).tolist():
        ok = fields._dense_enough(system, _DENSITY_POINTS[:, :system.dim], t,
                                  qt.StencilConfig(min_rho=m))
        assert (ok == (rho >= m)).all(), m


_libm_exp = np.frompyfunc(math.exp, 1, 1)


@pytest.mark.parametrize("kind,params", [
    *(("oscillator_2d", {"k0": k0, "alpha": alpha}) for k0, alpha in _OSCILLATOR_DENSITY_DIGESTS),
    *(("hydrogen", dict(zip("nlm", nlm))) for nlm in _HYDROGEN_DENSITY_DIGESTS),
])
def test_array_density_with_libm_exp_is_the_kernel_density(kind, params):
    # the one form, on arrays and on floats: given libm's exp on arrays as
    # well, every bit agrees, so the gap above is numpy's exp alone
    system = qt.make_system(kind, **params)
    par = system._par.tolist()
    cols = _DENSITY_POINTS[:, :system.dim].T

    def exp(a):
        return _libm_exp(a).astype(float)

    if kind == "hydrogen":
        rho = _array(kernels._hydrogen_density)(system._par, *cols, np.sqrt, exp)[0]
    else:
        rho = _array(kernels._oscillator_density)(par[2], par[1], *cols, exp)
    scalar = [kernels.density(system.sys_id, par, *p, 0.0) for p in _DENSITY_POINTS.tolist()]
    assert _digest(rho) == _digest(scalar)


@pytest.mark.parametrize("k0,alpha", [(1.0, math.pi / 2), (2.3, 0.4), (0.5, -2.0), (1.0, 0.0)])
def test_oscillator_real_density_matches_psi_squared(k0, alpha):
    osc = qt.oscillator_2d(k0, alpha)
    par = [k0, alpha, math.sqrt(k0)]
    pts = np.concatenate([_DENSITY_POINTS[:, :2], [[1e-9, 0.0], [0.0, 0.0], [-1.0, 1.0]]])
    for t in (0.0, 1.3):
        ref = np.abs(osc.psi(pts, t)) ** 2
        for p, r in zip(pts.tolist(), ref):
            assert _rel_err(kernels.density(kernels.OSCILLATOR, par, *p, 0.0, t), r) < 1e-14
    # at the node both are exactly zero
    assert kernels.density(kernels.OSCILLATOR, par, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_continuity_equation_double_slit():
    # d rho/dt + d(rho u)/dx = 0 along the evolving packet
    ds = qt.double_slit()
    h = 1e-5
    for x, t in [(0.8, 0.5), (-2.0, 1.2), (3.0, 0.9)]:
        xa = np.array([x])
        drho_dt = (ds.rho(xa, t + h) - ds.rho(xa, t - h)) / (2 * h)

        def flux(xx):
            p = np.array([xx])
            return ds.rho(p, t) * qt.velocity_grad_s(ds, p, t)[0]

        dflux = (flux(x + h) - flux(x - h)) / (2 * h)
        assert abs(drho_dt + dflux) < 1e-6


@pytest.mark.parametrize("kind,point", [
    ("oscillator_2d", [0.7, 0.3]),
    ("hydrogen", [3.0, 1.0, -2.0]),
])
def test_stationary_flow_divergence_free(kind, point):
    sys = qt.make_system(kind)
    h = 1e-5
    p0 = np.asarray(point, dtype=float)

    def flux(p):
        return sys.rho(p, 0.0) * qt.velocity_grad_s(sys, p, 0.0)

    div = 0.0
    for i in range(sys.dim):
        e = np.zeros(sys.dim)
        e[i] = h
        div += (flux(p0 + e)[i] - flux(p0 - e)[i]) / (2 * h)
    assert abs(div) < 1e-6


def test_vortex_velocity_shared_form():
    # both vortex states carry u = m_eff (-y, x)/s^2 in the plane
    osc = qt.oscillator_2d()
    hyd = qt.hydrogen()
    for x, y in [(0.8, 0.3), (-1.2, 0.6)]:
        vo = oracles.oscillator_velocity_closed(osc.params, x, y)
        vh = oracles.hydrogen_velocity_closed(hyd.params, x, y, 0.7)
        assert vo == pytest.approx(vh[:2], rel=1e-12)
        assert vh[2] == 0.0


@pytest.mark.parametrize("call", [
    lambda: qt.make_system("nope"),
    lambda: qt.make_system("hydrogen", n=0),
    lambda: qt.make_system("hydrogen", n=2, l=2),
    lambda: qt.make_system("hydrogen", n=2, l=1, m=2),
    lambda: qt.make_system("oscillator_2d", k0=0.0),
    lambda: qt.make_system("double_slit", rho0=-1.0),
    lambda: qt.make_system("double_slit", bogus=1.0),
    lambda: qt.hydrogen(90, 89, 89),  # both normalisations underflow to 0.0
    lambda: qt.hydrogen(10**308, 10**308 - 1, 0),  # 2l + 1 is no float
])
def test_invalid_system_parameters(call):
    with pytest.raises(qt.InvalidParameterError):
        call()


@pytest.mark.parametrize("n,l,m", [(1, 0, 0), (2, 1, 1), (3, 2, -1), (85, 84, 84), (10**6, 0, 0)])
def test_hydrogen_norms_keep_the_bits_of_the_full_products(n, l, m):
    # 169! is the largest factorial product below the float range
    fr = fa = 1.0
    for i in range(n - l, n + l + 1):
        fr *= i
    for i in range(l - abs(m) + 1, l + abs(m) + 1):
        fa *= i
    assert qs._hydrogen_norms(n, l, m) == (
        (2 / n**2) / math.sqrt(fr), math.sqrt((2 * l + 1) / (4.0 * math.pi) / fa))


def test_wavefield_checks_its_inputs_and_names_itself():
    with pytest.raises(qt.InvalidParameterError, match="^X must be >= 0, got -1.0$"):
        qt.double_slit(X=-1.0)
    with pytest.raises(qt.InvalidParameterError, match="^unknown system kind 'nope'$"):
        qs.WaveField("nope", None)
    osc = qt.oscillator_2d()
    assert repr(osc) == f"WaveField(oscillator_2d, {osc.params!r})"
    with pytest.raises(qt.InvalidParameterError, match="^t must be finite$"):
        osc.psi(np.array([1.0, 0.0]), math.nan)
    with pytest.raises(qt.InvalidParameterError,
                       match=r"^position must have trailing dimension 2, got shape \(3,\)$"):
        osc.psi(np.zeros(3), 0.0)


def test_hydrogen_rho_broadcasts_over_an_array_of_times():
    # the stationary density is copied out to the times' shape, writable
    hyd = qt.hydrogen()
    x = np.array([[4.0, 1.0, -0.5], [1.0, 2.0, 3.0]])
    rho = hyd.rho(x, np.array([[0.0], [1.0], [2.5]]))
    assert rho.shape == (3, 2) and rho.flags.writeable
    assert np.array_equal(rho, np.broadcast_to(hyd.rho(x, 0.0), (3, 2)))


def test_oscillator_rho_broadcasts_over_an_array_of_times():
    # its real density is stationary too, and copied out the same way
    osc = qt.oscillator_2d(2.3, 0.4)
    x = np.array([[0.7, -0.2], [1.0, 2.0]])
    rho = osc.rho(x, np.array([[0.0], [1.0], [2.5]]))
    assert rho.shape == (3, 2) and rho.flags.writeable
    assert np.array_equal(rho, np.broadcast_to(osc.rho(x, 0.0), (3, 2)))


def test_hydrogen_velocity_closed_is_zero_for_m_0():
    h210 = qt.hydrogen(2, 1, 0)
    x = np.array([0.0, 1.0, -2.0])
    v = oracles.hydrogen_velocity_closed(h210.params, x, 0.5 * x, 1.0 + x)
    assert v.shape == (3, 3) and not v.any()
    assert qt.velocity_grad_s(h210, np.array([1.0, 0.5, 2.0]), 0.0) == pytest.approx(
        [0.0, 0.0, 0.0], abs=1e-12)
