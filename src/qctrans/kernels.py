"""Scalar integrator kernel: the right-hand side and DP5(4)/RK4 for one
trajectory.

This module holds only what ``integrate`` calls: the closed-form fields of
the oscillator and hydrogen, the double slit's psi with a one-dimensional
stencil over it, and the real densities of the node guard.  Every other
route (field queries, ``fields.force``, the batch engine's double-slit
stencil) runs on the array layer of :mod:`qctrans.fields`.  Everything
here is compiled with numba (see ``_jit``); the same source runs as plain
Python when the JIT is disabled.
The closed forms (guidance velocities, grad Q, the Coulomb grad V) and the
densities of the two stationary states are written once, as plain
arithmetic: the kernel calls them on floats, and the array layer on arrays
(the engine's right-hand side in :mod:`qctrans.fields`, and
``WaveField.rho`` in :mod:`qctrans.systems`, the one density that the
engine's node guard, the samplers and the field maps read).  The closed
forms give the same bits either way; a density differs in its last bits
only where numpy's exp is not libm's.
Systems and coupling schedules are passed as integer codes plus flat
float64 parameter arrays so a single compiled integrator serves every
configuration:

* double slit   params = (rho0, u, X)              dim 1
* oscillator    params = (k0, alpha, omega)        dim 2
* hydrogen      params = (n, l, m, c_rad, N_lm)    dim 3

The hydrogen normalisations c_rad = (2/n^2) / sqrt((n-l)...(n+l)) and
N_lm = sqrt((2l+1) / (4 pi) / ((l-|m|+1)...(l+|m|))) are computed once per
state by ``systems.WaveField`` and read by ``_hydrogen_density``.

Positions are always carried as three scalars; unused trailing coordinates
are zero.  Status codes returned by field kernels: 0 ok, 1 singular/guarded.
Units are hbar = m = 1 throughout.
"""

import cmath
import math

import numpy as np

from ._jit import NUMBA_ENABLED, njit

# system codes
DOUBLE_SLIT = 0
OSCILLATOR = 1
HYDROGEN = 2

# coupling codes
LOGISTIC = 0
GAUSSIAN_CDF = 1
CONSTANT = 2

# integration modes
GUIDANCE = 0
TRANSITION = 1

# integrator method codes
RK4_FIXED = 0
RK45_ADAPTIVE = 1

# trajectory status codes
COMPLETED = 0
SINGULAR_STOP = 1
STEP_LIMIT = 2

_SQRT2 = math.sqrt(2.0)
_TINY = 1e-280

# Below this coupling weight the P grad(Q) term cannot move the state at double
# precision, so the force is evaluated classically.  Without the floor a
# late-phase trajectory that has left the wave's support would trip the node
# guard even though the quantum term it guards is itself negligible.
_P_FLOOR = 1e-18


@njit
def coupling_p(kind, c0, c1, t):
    """Quantum weight P(t) in [0, 1]; overflow-safe for any argument.

    Parameter packing: logistic (b, t0), gaussian_cdf (mu, sigma),
    constant (value, unused).
    """
    if kind == LOGISTIC:
        z = c0 * (t - c1)
        if z >= 0.0:
            e = math.exp(-z) if z < 700.0 else 0.0
            return e / (1.0 + e)
        e = math.exp(z) if z > -700.0 else 0.0
        return 1.0 / (1.0 + e)
    if kind == GAUSSIAN_CDF:
        return 0.5 * math.erfc((t - c0) / (c1 * _SQRT2))
    return c0


@njit
def psi_double_slit(rho0, u, x_off, x, t):
    """Superposition of two spreading Gaussian packets launched at -/+X."""
    dn = 2.0 * (rho0 * rho0 + 1j * t)  # 2 rho0^2 (1 + i t / rho0^2)
    a1 = u * t + x - x_off
    a2 = -u * t + x + x_off
    g1 = cmath.exp(-a1 * a1 / dn - 1j * u * (0.5 * u * t + x - x_off))
    g2 = cmath.exp(-a2 * a2 / dn + 1j * u * (-0.5 * u * t + x + x_off))
    return (g1 + g2) / cmath.sqrt(rho0 + 1j * t / rho0)


# ---------------------------------------------------------------------------
# the stationary densities, shared with the array layer
# ---------------------------------------------------------------------------
#
# The stationary states drop their modulus-1 phase factors from |psi|^2.
# The oscillator's density and hydrogen's are plain arithmetic, so the same
# source takes floats (``density`` below, the scalar kernel's node guard)
# or numpy arrays (``WaveField._rho``, behind ``WaveField.rho`` and the
# engine's node guard, ``fields._dense_enough``).  Each step is written in
# operations that mean the same on both, in one order, so the bits differ
# only in the primitives, which are the caller's: sqrt and exp (math's on
# floats, numpy's on arrays; under numba the jitted wrappers below).  Both
# sqrts round correctly; numpy's exp is not always libm's.

if NUMBA_ENABLED:

    @njit
    def _sqrt(a):
        return math.sqrt(a)

    @njit
    def _exp(a):
        return math.exp(a)

else:
    _sqrt = math.sqrt
    _exp = math.exp


@njit
def _oscillator_density(w, alpha, x0, x1, exp):
    """|psi|^2 = (w/pi) w ((x + cos(a) y)^2 + (sin(a) y)^2) e^{-w r^2} of the
    entangled oscillator state, w = omega, with the caller's ``exp``."""
    a = x0 + math.cos(alpha) * x1
    b = math.sin(alpha) * x1
    return (w / math.pi) * w * (a * a + b * b) * exp(-w * (x0 * x0 + x1 * x1))


@njit
def _hydrogen_density(par, x0, x1, x2, sqrt, exp):
    """(|psi|^2, R_nl, N_lm P_l^|m|(cos theta)) of the eigenstate, with
    par = (n, l, m, c_rad, N_lm) and the caller's ``sqrt`` and ``exp``.

    R_nl = c_rad rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho), rho = 2r/n, with
    rho^l a repeated product and L by its stable three-term recurrence
    (L_0 is exactly 1); P_l^|m| by its recurrence from P_|m|^|m|, with the
    Condon-Shortley phase.  The recurrences are written out here rather
    than called: under numba an array caller runs this function's Python
    source, which must not reach a jitted function with arrays.  Where
    r < _TINY and l > 0 the density underflows to 0.0."""
    n = int(par[0])
    l = int(par[1])
    ma = abs(int(par[2]))
    r = sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    rho = 2.0 * r / n
    rp = 1.0
    for _ in range(l):
        rp = rp * rho
    rad = par[3] * rp * exp(-0.5 * rho)
    if n - l - 1 > 0:
        a = 2 * l + 1
        prev = 1.0
        cur = 1.0 + a - rho
        for i in range(1, n - l - 1):
            prev, cur = cur, ((2.0 * i + 1.0 + a - rho) * cur - (i + a) * prev) / (i + 1.0)
        rad = rad * cur
    # cos(theta) is 1 at r = 0: subtracting 0.0 - (r == 0) adds 1 there and
    # elsewhere subtracts +0.0, which keeps the sign of a zero z / r
    at0 = r == 0.0
    c = x2 / (r + at0) - (0.0 - at0)
    leg = 1.0
    if ma > 0:
        u = 1.0 - c * c
        s = sqrt(0.5 * (u + abs(u)))  # sin(theta), u clipped at 0 where r underflows
        for i in range(ma):
            leg = leg * (-(2.0 * i + 1.0) * s)
    if l > ma:
        prev, leg = leg, c * (2.0 * ma + 1.0) * leg
        for ll in range(ma + 2, l + 1):
            prev, leg = leg, ((2.0 * ll - 1.0) * c * leg - (ll + ma - 1.0) * prev) / (ll - ma)
    ang = par[4] * leg
    amp = rad * ang
    return amp * amp, rad, ang


@njit
def density(sys_id, par, x0, x1, x2, t):
    """|psi|^2: the oscillator's real form, hydrogen the square of its real
    amplitude R_nl N_lm P_l^|m|, with the normalisations c_rad and N_lm read
    from ``par``."""
    if sys_id == HYDROGEN:
        return _hydrogen_density(par, x0, x1, x2, _sqrt, _exp)[0]
    if sys_id == OSCILLATOR:
        return _oscillator_density(par[2], par[1], x0, x1, _exp)
    w = psi_double_slit(par[0], par[1], par[2], x0, t)
    return w.real * w.real + w.imag * w.imag


# ---------------------------------------------------------------------------
# the double slit's stencil
# ---------------------------------------------------------------------------
#
# The double slit has no closed forms, so its guidance velocity and grad Q
# come from centred differences of psi_double_slit (par = (rho0, u, X)).
# Each returns (value, status), status 1 where |psi|^2 < min_rho.


@njit
def velocity_grad_s(par, x0, t, h, rich, min_rho):
    """Phase-gradient velocity by centred differences.

    Phase increments are referenced to the centre point so each half-stencil
    difference stays on the principal branch (valid while |u| h < pi).
    Richardson extrapolation is applied when ``rich`` is true.
    """
    rho0, u, x_off = par[0], par[1], par[2]
    pc = psi_double_slit(rho0, u, x_off, x0, t)
    rho = pc.real * pc.real + pc.imag * pc.imag
    if not (rho >= min_rho and math.isfinite(rho)):
        return 0.0, 1
    cc = pc.conjugate()
    pp = psi_double_slit(rho0, u, x_off, x0 + h, t)
    pm = psi_double_slit(rho0, u, x_off, x0 - h, t)
    d1 = (cmath.phase(pp * cc) - cmath.phase(pm * cc)) / (2.0 * h)
    if not rich:
        return d1, 0
    pp2 = psi_double_slit(rho0, u, x_off, x0 + 2.0 * h, t)
    pm2 = psi_double_slit(rho0, u, x_off, x0 - 2.0 * h, t)
    d2 = (cmath.phase(pp2 * cc) - cmath.phase(pm2 * cc)) / (4.0 * h)
    return (4.0 * d1 - d2) / 3.0, 0


@njit
def quantum_potential(par, x0, t, h, rich, min_rho):
    """Q = -lap(R) / (2 R) with R = |psi|."""
    rho0, u, x_off = par[0], par[1], par[2]
    r0 = abs(psi_double_slit(rho0, u, x_off, x0, t))
    if not (r0 * r0 >= min_rho and math.isfinite(r0)):
        return 0.0, 1
    l1 = (abs(psi_double_slit(rho0, u, x_off, x0 + h, t))
          + abs(psi_double_slit(rho0, u, x_off, x0 - h, t)) - 2.0 * r0)
    q1 = -0.5 * l1 / (h * h * r0)
    if not rich:
        return q1, 0
    l2 = (abs(psi_double_slit(rho0, u, x_off, x0 + 2.0 * h, t))
          + abs(psi_double_slit(rho0, u, x_off, x0 - 2.0 * h, t)) - 2.0 * r0)
    q2 = -0.5 * l2 / (4.0 * h * h * r0)
    return (4.0 * q1 - q2) / 3.0, 0


@njit
def grad_quantum_potential(par, x0, t, h, rich, min_rho):
    """Numeric dQ/dx: centred differences of Q with outer step 10h.

    The probe values carry a 1/h^2 roundoff floor from the inner Laplacian, so
    the probes run at 5h and the outer step is widened to 10h; both scales are
    needed to keep the assembled gradient below ~1e-5 of truth.
    """
    d = 10.0 * h
    qp, sp = quantum_potential(par, x0 + d, t, 5.0 * h, rich, min_rho)
    qm, sm = quantum_potential(par, x0 - d, t, 5.0 * h, rich, min_rho)
    if sp != 0 or sm != 0:
        return 0.0, 1
    return (qp - qm) / (2.0 * d), 0


# ---------------------------------------------------------------------------
# closed forms, shared with the ensemble engine
# ---------------------------------------------------------------------------
#
# Each form is plain arithmetic, so the same source takes floats (the
# kernel below) or numpy arrays (``fields._batch_rhs``) and gives the same
# bits either way.  Each returns first whether the point is guarded, i.e.
# its singular-set quantity q (g, g^3, s^2, r^3 or s^4) is below _TINY: the
# kernel returns status 1 there, the engine masks the row.  The forms divide
# by d = q + guarded, which is q wherever q passes the guard and 1 where it
# does not, so a float call never divides by zero and the guarded values,
# never used, stay finite.

@njit
def oscillator_velocity(alpha, x0, x1):
    """(guarded, u_x, u_y): guidance velocity sin(a) (-y, x) / g of the
    entangled state, g = x^2 + 2 x y cos(a) + y^2 (zero on the node)."""
    sa = math.sin(alpha)
    g = x0 * x0 + 2.0 * math.cos(alpha) * x0 * x1 + x1 * x1
    guarded = g < _TINY
    d = g + guarded
    return guarded, -sa * x1 / d, sa * x0 / d


@njit
def oscillator_grad_qpot(w, alpha, x0, x1):
    """(guarded, dQ/dx, dQ/dy) of the compact form of the entangled-state Q,
    Q = -(w^2 r^2 - 4 w + 2/g - N/g^2) / 2 with w = omega, g as in
    ``oscillator_velocity`` and N = r^2 (1 + cos^2) + 4 x y cos; the
    published shape is ``systems.oscillator_qpot_closed``.  Guarded where
    g^3 < _TINY."""
    c = math.cos(alpha)
    r2 = x0 * x0 + x1 * x1
    g = r2 + 2.0 * c * x0 * x1
    guarded = g * g * g < _TINY
    d = g + guarded
    d2 = d * d
    d3 = d2 * d
    n = r2 * (1.0 + c * c) + 4.0 * c * x0 * x1
    gx = 2.0 * (x0 + c * x1)
    gy = 2.0 * (x1 + c * x0)
    nx = 2.0 * x0 * (1.0 + c * c) + 4.0 * c * x1
    ny = 2.0 * x1 * (1.0 + c * c) + 4.0 * c * x0
    return (
        guarded,
        -0.5 * (2.0 * w * w * x0 - 2.0 * gx / d2 - nx / d2 + 2.0 * n * gx / d3),
        -0.5 * (2.0 * w * w * x1 - 2.0 * gy / d2 - ny / d2 + 2.0 * n * gy / d3),
    )


@njit
def hydrogen_velocity(m, x0, x1):
    """(guarded, u_x, u_y): guidance velocity m (-y, x) / s^2, s^2 = x^2 + y^2,
    guarded on the z axis; u_z = 0.  An m = 0 state does not move and is
    guarded nowhere."""
    if m == 0.0:
        return False, 0.0, 0.0
    s2 = x0 * x0 + x1 * x1
    guarded = s2 < _TINY
    d = s2 + guarded
    return guarded, -m * x1 / d, m * x0 / d


@njit
def coulomb_grad(x0, x1, x2, sqrt):
    """(guarded, grad V) of V = -1/r: x / r^3, guarded where r^3 < _TINY.
    ``sqrt`` is the caller's own, math.sqrt on floats and np.sqrt on arrays;
    both round correctly, so the bits agree (pow does not promise that)."""
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    r3 = r2 * sqrt(r2)
    guarded = r3 < _TINY
    d = r3 + guarded
    return guarded, x0 / d, x1 / d, x2 / d


@njit
def hydrogen_m2_term(m, x0, x1):
    """(guarded, m^2 x / s^4, m^2 y / s^4): the term that -m^2 / (2 s^2)
    adds to grad Q = -grad V + m^2 (x, y, 0) / s^4, from the stationary-state
    identity Q = E_n - V - m^2 / (2 s^2); guarded where s^4 < _TINY.  For
    m = 0 the term is -0.0, which adds nothing to any value, signed zeros
    included."""
    if m == 0.0:
        return False, -0.0, -0.0
    s2 = x0 * x0 + x1 * x1
    s4 = s2 * s2
    guarded = s4 < _TINY
    d = s4 + guarded
    return guarded, m * m * x0 / d, m * m * x1 / d


@njit
def force(sys_id, par, ckind, c0, c1, x0, x1, x2, t, h, rich, min_rho, out):
    """out <- -grad(V) - P(t) grad(Q).  Status 1 on singular/guarded points.

    grad Q is the closed form for the oscillator and hydrogen, and the
    stencil for the double slit."""
    v1 = 0.0
    v2 = 0.0
    if sys_id == HYDROGEN:
        guarded, v0, v1, v2 = coulomb_grad(x0, x1, x2, _sqrt)
        if guarded:
            return 1
    elif sys_id == OSCILLATOR:
        v0 = par[0] * x0
        v1 = par[0] * x1
    else:
        v0 = 0.0
    p = coupling_p(ckind, c0, c1, t)
    if not p > _P_FLOOR:
        out[0] = -v0
        out[1] = -v1
        out[2] = -v2
        return 0
    # the oscillator's form directly: a call through ``density`` costs ~4%
    # of an oscillator evaluation without numba
    rho = (_oscillator_density(par[2], par[1], x0, x1, _exp) if sys_id == OSCILLATOR
           else density(sys_id, par, x0, x1, x2, t))
    if not (rho >= min_rho and math.isfinite(rho)):
        return 1
    if sys_id == OSCILLATOR:
        guarded, q0, q1 = oscillator_grad_qpot(par[2], par[1], x0, x1)
        if guarded:
            return 1
        q2 = 0.0
    elif sys_id == HYDROGEN:
        guarded, q0, q1 = hydrogen_m2_term(par[2], x0, x1)
        if guarded:
            return 1
        q0 = -v0 + q0
        q1 = -v1 + q1
        q2 = -v2
    else:
        q0, st = grad_quantum_potential(par, x0, t, h, rich, min_rho)
        if st != 0:
            return 1
        q1 = 0.0
        q2 = 0.0
    out[0] = -v0 - p * q0
    out[1] = -v1 - p * q1
    out[2] = -v2 - p * q2
    return 0


@njit
def rhs(mode, sys_id, par, dim, ckind, c0, c1, y, t, h, rich, min_rho, dy, s3a):
    """ODE right-hand side on the compact state vector.

    Guidance: y = x[0:dim], dy = u(x, t).
    Transition: y = (x[0:dim], v[0:dim]), dy = (v, -grad(V + P Q)).
    The oscillator and hydrogen take their closed forms, the double slit its
    stencil.  s3a is scratch.
    """
    x0 = y[0]
    x1 = y[1] if dim > 1 else 0.0
    x2 = y[2] if dim > 2 else 0.0
    if mode == GUIDANCE:
        if sys_id == DOUBLE_SLIT:
            dy[0], st = velocity_grad_s(par, x0, t, h, rich, min_rho)
            return st
        # one branch picks both forms; without numba each Python call or
        # test costs ~1-4% of an evaluation.  dy is written before the guard
        # is read, which no caller sees: status 1 discards it
        if sys_id == OSCILLATOR:
            rho = _oscillator_density(par[2], par[1], x0, x1, _exp)
            guarded, dy[0], dy[1] = oscillator_velocity(par[1], x0, x1)
        else:
            rho = density(sys_id, par, x0, x1, x2, t)
            guarded, dy[0], dy[1] = hydrogen_velocity(par[2], x0, x1)
            dy[2] = 0.0
        if guarded or not (rho >= min_rho and math.isfinite(rho)):
            return 1
        return 0
    st = force(sys_id, par, ckind, c0, c1, x0, x1, x2, t, h, rich, min_rho, s3a)
    if st != 0:
        return st
    for i in range(dim):
        dy[i] = y[dim + i]
        dy[dim + i] = s3a[i]
    return 0


# Dormand-Prince 5(4) tableau
_C2 = 1.0 / 5.0
_C3 = 3.0 / 10.0
_C4 = 4.0 / 5.0
_C5 = 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31 = 3.0 / 40.0
_A32 = 9.0 / 40.0
_A41 = 44.0 / 45.0
_A42 = -56.0 / 15.0
_A43 = 32.0 / 9.0
_A51 = 19372.0 / 6561.0
_A52 = -25360.0 / 2187.0
_A53 = 64448.0 / 6561.0
_A54 = -212.0 / 729.0
_A61 = 9017.0 / 3168.0
_A62 = -355.0 / 33.0
_A63 = 46732.0 / 5247.0
_A64 = 49.0 / 176.0
_A65 = -5103.0 / 18656.0
_A71 = 35.0 / 384.0
_A73 = 500.0 / 1113.0
_A74 = 125.0 / 192.0
_A75 = -2187.0 / 6784.0
_A76 = 11.0 / 84.0
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0

_MAX_HALVINGS = 40

if NUMBA_ENABLED:

    @njit
    def _buf(n):
        return np.zeros(n)

else:

    def _buf(n):
        # plain Python computes several times faster on floats than on the
        # numpy scalars an array hands out
        return [0.0] * n


@njit
def integrate(mode, sys_id, par, dim, ckind, c0, c1, x0v, v0v, t_grid,
              method, dt0, dt_min, rtol, atol, max_steps,
              h, rich, min_rho, xs, vs):
    """Integrate one trajectory, sampling at t_grid via cubic Hermite.

    Output samples land in xs, vs (shape (len(t_grid), 3)); for guidance the
    velocity rows hold the interpolant derivative, i.e. the guidance field
    along the path.  Returns (status, n_filled, n_steps, stop_t, sx, sy, sz)
    where the stop fields locate the failure for status == SINGULAR_STOP.
    ``dt_min`` is the smallest step, 1e-14 max(1, span) of the whole run
    (``dynamics._dt_min``), so a run resumed mid-way keeps it.  Only the
    first ``dim`` entries of ``x0v`` and ``v0v`` are read, and ``v0v`` only
    in transition mode.  Without numba, ``par``, ``x0v``, ``v0v`` and
    ``t_grid`` arrive as lists of Python floats (see ``dynamics._kernel``).
    """
    nt = len(t_grid)
    nvar = dim if mode == GUIDANCE else 2 * dim
    y = _buf(6)
    yn = _buf(6)
    ytmp = _buf(6)
    f0 = _buf(6)
    k2 = _buf(6)
    k3 = _buf(6)
    k4 = _buf(6)
    k5 = _buf(6)
    k6 = _buf(6)
    k7 = _buf(6)
    s3a = _buf(3)
    for i in range(dim):
        y[i] = x0v[i]
        if mode == TRANSITION:
            y[dim + i] = v0v[i]
    t = t_grid[0]
    t_end = t_grid[nt - 1]

    st = rhs(mode, sys_id, par, dim, ckind, c0, c1, y, t, h, rich, min_rho, f0, s3a)
    if st != 0:
        # initial state is already on a singular set; report it with the
        # starting sample so the caller still sees where it began
        for i in range(dim):
            xs[0, i] = y[i]
            vs[0, i] = y[dim + i] if mode == TRANSITION else 0.0
        return SINGULAR_STOP, 1, 0, t, y[0], y[1], y[2]
    for i in range(dim):
        xs[0, i] = y[i]
        vs[0, i] = y[dim + i] if mode == TRANSITION else f0[i]
    gi = 1

    dt = dt0
    if dt > t_end - t:
        dt = t_end - t
    n_steps = 0
    halvings = 0

    while gi < nt:
        if n_steps >= max_steps or dt < dt_min:
            return STEP_LIMIT, gi, n_steps, t, y[0], y[1], y[2]
        n_steps += 1
        fail = 0
        if method == RK45_ADAPTIVE:
            for i in range(nvar):
                ytmp[i] = y[i] + dt * _A21 * f0[i]
            fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + _C2 * dt, h, rich, min_rho, k2, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + dt * (_A31 * f0[i] + _A32 * k2[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + _C3 * dt, h, rich, min_rho, k3, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + dt * (_A41 * f0[i] + _A42 * k2[i] + _A43 * k3[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + _C4 * dt, h, rich, min_rho, k4, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + dt * (_A51 * f0[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + _C5 * dt, h, rich, min_rho, k5, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + dt * (_A61 * f0[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + dt, h, rich, min_rho, k6, s3a)
            if fail == 0:
                for i in range(nvar):
                    yn[i] = y[i] + dt * (_A71 * f0[i] + _A73 * k3[i] + _A74 * k4[i] + _A75 * k5[i] + _A76 * k6[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, yn, t + dt, h, rich, min_rho, k7, s3a)
            if fail != 0:
                halvings += 1
                if halvings > _MAX_HALVINGS or 0.5 * dt < dt_min:
                    return SINGULAR_STOP, gi, n_steps, t, y[0], y[1], y[2]
                dt *= 0.5
                continue
            # embedded error estimate
            errn = 0.0
            for i in range(nvar):
                e = dt * (_E1 * f0[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
                sc = atol + rtol * max(abs(y[i]), abs(yn[i]))
                errn += (e / sc) * (e / sc)
            errn = math.sqrt(errn / nvar)
            if errn > 1.0:
                fac = 0.9 * errn ** -0.2
                if fac < 0.2:
                    fac = 0.2
                dt *= fac
                continue
        else:
            # classic RK4, fixed step; f0 = f(t, y) is carried from the
            # previous step, any stage failure is terminal
            for i in range(nvar):
                ytmp[i] = y[i] + 0.5 * dt * f0[i]
            fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + 0.5 * dt, h, rich, min_rho, k2, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + 0.5 * dt * k2[i]
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + 0.5 * dt, h, rich, min_rho, k3, s3a)
            if fail == 0:
                for i in range(nvar):
                    ytmp[i] = y[i] + dt * k3[i]
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, ytmp, t + dt, h, rich, min_rho, k4, s3a)
            if fail == 0:
                for i in range(nvar):
                    yn[i] = y[i] + dt / 6.0 * (f0[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                fail = rhs(mode, sys_id, par, dim, ckind, c0, c1, yn, t + dt, h, rich, min_rho, k7, s3a)
            if fail != 0:
                return SINGULAR_STOP, gi, n_steps, t, y[0], y[1], y[2]
            errn = 0.0

        # accept the step; fill all grid times in (t, t + dt]
        t_new = t + dt
        while gi < nt and t_grid[gi] <= t_new + 1e-12 * max(1.0, abs(t_new)):
            s = (t_grid[gi] - t) / dt
            s2 = s * s
            s3 = s2 * s
            h00 = 2.0 * s3 - 3.0 * s2 + 1.0
            h10 = s3 - 2.0 * s2 + s
            h01 = -2.0 * s3 + 3.0 * s2
            h11 = s3 - s2
            d00 = (6.0 * s2 - 6.0 * s) / dt
            d10 = 3.0 * s2 - 4.0 * s + 1.0
            d01 = (6.0 * s - 6.0 * s2) / dt
            d11 = 3.0 * s2 - 2.0 * s
            for i in range(dim):
                xi = h00 * y[i] + h10 * dt * f0[i] + h01 * yn[i] + h11 * dt * k7[i]
                xs[gi, i] = xi
                if mode == TRANSITION:
                    j = dim + i
                    vs[gi, i] = h00 * y[j] + h10 * dt * f0[j] + h01 * yn[j] + h11 * dt * k7[j]
                else:
                    vs[gi, i] = d00 * y[i] + d10 * f0[i] + d01 * yn[i] + d11 * k7[i]
            gi += 1
        t = t_new
        for i in range(nvar):
            y[i] = yn[i]
            f0[i] = k7[i]
        halvings = 0
        if method == RK45_ADAPTIVE:
            if errn > 0.0:
                # errn <= 1 on an accepted step, so fac >= 0.9
                fac = 0.9 * errn ** -0.2
                if fac > 5.0:
                    fac = 5.0
                dt *= fac
            else:
                dt *= 5.0
        if dt > t_end - t:
            dt = t_end - t
    # no step passes t_end, and the one that reaches it emits every grid
    # time left, so the loop ends with all nt samples filled
    return COMPLETED, nt, n_steps, t, y[0], y[1], y[2]
