"""Trajectory integration: guidance flow and second-order transition motion.

Guidance: dx/dt = u(x, t), the quantum limit.
Transition: d2x/dt2 = -grad(V + P(t) Q), which interpolates between the
quantum (P = 1) and classical (P = 0) limits as the coupling schedule decays.

Both use a Dormand-Prince 5(4) adaptive integrator (or fixed-step RK4) with
cubic Hermite sampling at the requested output times.  Stage times, including
inside P(t), use the sub-step time t + c_i dt.  On a guarded stage failure
the adaptive integrator halves the step up to 40 times before declaring
``singular_stop``.

Two engines run that method:

* the scalar kernel ``kernels.integrate`` takes one trajectory.  It serves
  ``integrate_guidance`` and ``integrate_transition``, finishes the last
  trajectories of an ensemble, and is the oracle the ensemble engine is
  tested against;
* the ensemble engine ``_run_batch`` steps a whole ensemble as arrays, one
  row per trajectory with its own t, dt, output index, step count and
  halving count, through accept/reject/halve masks.  Finished rows leave
  the active arrays.  Once at most ``_HANDOFF`` rows are active, each is
  handed to the scalar kernel at its last accepted state with its dt, its
  remaining step budget and the whole run's ``dt_min``: a few trajectories
  that circle a node for thousands of steps would otherwise pay numpy's
  per-call cost on every one of them.

The arithmetic contract of the ensemble engine: it repeats the kernel's step
control check for check and its arithmetic operation for operation,
element-wise.  Stage sums and the error norm run in the kernel's order (a
matmul or an axis sum rounds differently), and the step factor
errn ** -0.2 is Python's float pow per element (numpy's SIMD pow differs
from libm in the last bit).  The closed-form fields of the oscillator and
hydrogen are the kernel's own functions, called on arrays, and P(t) is the
kernel's own ``coupling_p`` per trajectory, so on those routes every
trajectory of an ensemble is bitwise identical to a scalar run of it, in
any ensemble order or subset.  The double slit's stencil routes use the
array stencil, which rounds differently from the scalar one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fields, kernels
from ._jit import NUMBA_ENABLED
from .coupling import Constant
from .errors import InvalidParameterError
from .fields import DEFAULT_STENCIL, StencilConfig
from .kernels import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64,
    _A65, _A71, _A73, _A74, _A75, _A76, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    _MAX_HALVINGS,
)
from .systems import WaveField, hydrogen_rho, oscillator_rho_closed

STATUS_NAMES = {
    kernels.COMPLETED: "completed",
    kernels.SINGULAR_STOP: "singular_stop",
    kernels.STEP_LIMIT: "step_limit",
}

_METHODS = {"rk45_adaptive": kernels.RK45_ADAPTIVE, "rk4_fixed": kernels.RK4_FIXED}


@dataclass(frozen=True)
class TrajectoryState:
    x: np.ndarray
    v: np.ndarray
    t: float


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45_adaptive"
    dt: float = 0.01
    rtol: float = 1e-7
    atol: float = 1e-9
    max_steps: int = 50000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidParameterError(
                f"method must be one of {sorted(_METHODS)}, got {self.method!r}"
            )
        for name in ("dt", "rtol", "atol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be > 0, got {v!r}")
        if not (isinstance(self.max_steps, int) and self.max_steps > 0):
            raise InvalidParameterError(f"max_steps must be a positive int, got {self.max_steps!r}")


@dataclass
class Trajectory:
    """Sampled trajectory.  ``t``, ``x``, ``v`` are aligned arrays of the
    output samples actually produced (truncated on early stop)."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    status: str
    stop_t: float | None = None
    stop_x: np.ndarray | None = None
    n_steps: int = 0

    @property
    def samples(self) -> list[TrajectoryState]:
        return [
            TrajectoryState(self.x[i].copy(), self.v[i].copy(), float(self.t[i]))
            for i in range(len(self.t))
        ]

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _check_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidParameterError("t_grid must be a 1D array with at least 2 times")
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("t_grid must be finite")
    if not np.all(np.diff(t) > 0):
        raise InvalidParameterError("t_grid must be strictly increasing")
    return t


def _dt_min(t_first, t_last):
    """The smallest step of a run over [t_first, t_last]."""
    return 1e-14 * max(1.0, abs(t_last - t_first))


def _kernel(mode, system, coupling, x0, v0, t, cfg, st, use_closed, dt0, dt_min, max_steps):
    """One trajectory through ``kernels.integrate`` from (x0, v0) over the grid
    t; returns the kernel's result tuple and its (xs, vs) sample rows."""
    c0, c1 = coupling._packed()
    xs = np.zeros((len(t), 3))
    vs = np.zeros((len(t), 3))
    result = kernels.integrate(
        mode, system.sys_id, _scalars(system._par), system.dim, coupling._kind, c0, c1,
        _scalars(fields._pad3(x0)), _scalars(fields._pad3(v0)), _scalars(t),
        _METHODS[cfg.method], float(dt0), float(dt_min), float(cfg.rtol), float(cfg.atol),
        int(max_steps), st.h, st.richardson, st.min_rho, use_closed and system.has_closed,
        xs, vs,
    )
    return result, xs, vs


def _run(mode, system: WaveField, coupling, x0, v0, t_grid, integrator, stencil,
         use_closed) -> Trajectory:
    t = _check_grid(t_grid)
    system._check_t(t)
    cfg = integrator or IntegratorConfig()
    st = stencil or DEFAULT_STENCIL
    dim = system.dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != dim:
        raise InvalidParameterError(f"x0 must have {dim} components, got {x0.size}")
    v0 = np.zeros(dim) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    if v0.size != dim:
        raise InvalidParameterError(f"v0 must have {dim} components, got {v0.size}")
    (status, n_filled, n_steps, stop_t, sx, sy, sz), xs, vs = _kernel(
        mode, system, coupling, x0, v0, t, cfg, st, use_closed,
        cfg.dt, _dt_min(float(t[0]), float(t[-1])), cfg.max_steps,
    )
    name = STATUS_NAMES[status]
    traj = Trajectory(
        t=t[:n_filled].copy(),
        x=xs[:n_filled, :dim].copy(),
        v=vs[:n_filled, :dim].copy(),
        status=name,
        n_steps=int(n_steps),
    )
    if name != "completed":
        traj.stop_t = float(stop_t)
        traj.stop_x = np.array([sx, sy, sz])[:dim]
    return traj


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------

# active trajectories at which an ensemble goes over to the scalar kernel.
# Step counts are heavy-tailed (oscillator guidance: median 218, maximum
# 4696); a model of the measured counts has a flat optimum at 6-10
_HANDOFF = 8


def _dense_enough(system, x, t, st):
    """The node guard rho >= min_rho of the kernel's ``density``; the
    stationary states' |psi|^2 in real arithmetic (the guard only compares)."""
    if system.kind == "oscillator_2d":
        rho = oscillator_rho_closed(system.params, x[:, 0], x[:, 1])
    elif system.kind == "hydrogen":
        rho = hydrogen_rho(system.params, x[:, 0], x[:, 1], x[:, 2])
    else:
        rho = system.rho(x, t)
    return (rho >= st.min_rho) & np.isfinite(rho)


def _array(form):
    """A closed form of :mod:`qctrans.kernels` for arrays: its Python source
    even when numba compiles it for the scalar kernel."""
    return getattr(form, "py_func", form)


def _batch_rhs(mode, system, coupling, st):
    """rhs(y, t) -> (dy, ok) over an (m, nvar) stack of states with a time
    for each; ``ok`` is False where the kernel's ``rhs`` returns status 1.
    The closed forms are the kernel's own, called on columns; their guard
    flag is negated with np.logical_not, because an m = 0 hydrogen form
    returns the bool False, and ~False is -1."""
    dim = system.dim
    par = system._par.tolist()
    closed = system.has_closed
    osc = system.kind == "oscillator_2d"
    if mode == kernels.GUIDANCE:
        if not closed:
            return lambda y, t: fields._grad_s(system, y, t, st)
        form, arg = ((_array(kernels.oscillator_velocity), par[1]) if osc
                     else (_array(kernels.hydrogen_velocity), par[2]))

        def guidance(y, t):
            u = np.zeros_like(y)
            guarded, u[:, 0], u[:, 1] = form(arg, y[:, 0], y[:, 1])
            return u, np.logical_not(guarded) & _dense_enough(system, y, t, st)

        return guidance

    kind = coupling._kind
    c0, c1 = coupling._packed()

    def transition(y, t):
        x = y[:, :dim]
        if system.kind == "hydrogen":
            gv = np.empty_like(x)
            guarded, gv[:, 0], gv[:, 1], gv[:, 2] = _array(kernels.coulomb_grad)(
                x[:, 0], x[:, 1], x[:, 2], np.sqrt)
            ok = ~guarded
        else:
            gv = par[0] * x if osc else np.zeros_like(x)
            ok = np.ones(t.size, dtype=bool)
        acc = -gv
        if kind == kernels.CONSTANT:
            p = np.full(t.size, c0)
        else:
            p = np.array([kernels.coupling_p(kind, c0, c1, s) for s in t.tolist()])
        q = np.flatnonzero(p > kernels._P_FLOOR)
        if q.size:
            if q.size == t.size:
                q = slice(None)
            xq = x[q]
            if not closed:
                gq, ok_q = fields._grad_qpot(system, xq, t[q], st)
            elif osc:
                gq = np.empty_like(xq)
                guarded, gq[:, 0], gq[:, 1] = _array(kernels.oscillator_grad_qpot)(
                    par[2], par[1], xq[:, 0], xq[:, 1])
                ok_q = ~guarded
            else:
                gq = -gv[q]
                guarded, m0, m1 = _array(kernels.hydrogen_m2_term)(par[2], xq[:, 0], xq[:, 1])
                gq[:, 0] += m0
                gq[:, 1] += m1
                ok_q = np.logical_not(guarded)
            acc[q] = -gv[q] - p[q, None] * gq
            ok[q] &= ok_q & _dense_enough(system, xq, t[q], st)
        return np.concatenate([y[:, dim:], acc], axis=1), ok

    return transition


def _run_batch(mode, system: WaveField, coupling, x0, v0, t_grid, integrator,
               stencil) -> list:
    """Integrate an ensemble of starts x0 (and v0 in transition mode), each
    of shape (n, dim), over t_grid; one Trajectory per start, as ``_run``
    would return it."""
    t = _check_grid(t_grid)
    system._check_t(t)
    cfg = integrator or IntegratorConfig()
    st = stencil or DEFAULT_STENCIL
    rhs = _batch_rhs(mode, system, coupling, st)
    guidance = mode == kernels.GUIDANCE
    adaptive = cfg.method == "rk45_adaptive"
    x0 = np.asarray(x0, dtype=float)
    n, dim = x0.shape
    nt = t.size
    t_list = t.tolist()
    t_end = t_list[-1]
    t_out = np.append(t, np.inf)  # an output index past the grid emits nothing
    dt_min = _dt_min(t_list[0], t_end)
    rtol, atol = float(cfg.rtol), float(cfg.atol)

    xs = np.zeros((n, nt, dim))
    vs = np.zeros((n, nt, dim))
    status = np.full(n, kernels.COMPLETED)
    filled = np.full(n, nt)
    steps = np.zeros(n, dtype=int)
    stop_t = np.zeros(n)
    stop_x = np.zeros((n, dim))

    y = x0.copy() if guidance else np.concatenate([x0, np.asarray(v0, dtype=float)], axis=1)
    tt = np.full(n, t_list[0])
    with np.errstate(all="ignore"):
        f0, ok = rhs(y, tt)
    xs[:, 0] = x0
    vs[:, 0] = np.where(ok[:, None], f0, 0.0) if guidance else y[:, dim:]
    status[~ok] = kernels.SINGULAR_STOP
    filled[~ok] = 1
    stop_t[~ok] = t_list[0]
    stop_x[~ok] = x0[~ok]
    dt0 = float(cfg.dt)
    if dt0 > t_end - t_list[0]:
        dt0 = t_end - t_list[0]

    # the active rows; idx maps a row to its trajectory
    idx = np.flatnonzero(ok)
    y, f0, tt = y[idx], f0[idx], tt[idx]
    dt = np.full(idx.size, dt0)
    gi = np.ones(idx.size, dtype=int)
    ns = np.zeros(idx.size, dtype=int)
    hv = np.zeros(idx.size, dtype=int)

    def finish(rows, code):
        i = idx[rows]
        status[i] = code
        filled[i] = gi[rows]
        steps[i] = ns[rows]
        stop_t[i] = tt[rows]
        stop_x[i] = y[rows, :dim]

    def hand_off(r):
        i, g = idx[r], gi[r]
        sub = np.array([tt[r], *t_list[g:]])
        v = np.zeros(dim) if guidance else y[r, dim:]
        (code, nf, n_more, s_t, *s_x), kx, kv = _kernel(
            mode, system, coupling, y[r, :dim], v, sub, cfg, st, True,
            dt[r], dt_min, cfg.max_steps - ns[r],
        )
        xs[i, g : g + nf - 1] = kx[1:nf, :dim]
        vs[i, g : g + nf - 1] = kv[1:nf, :dim]
        status[i] = code
        filled[i] = g + nf - 1
        steps[i] = ns[r] + n_more
        stop_t[i] = s_t
        stop_x[i] = s_x[:dim]

    with np.errstate(all="ignore"):
        while idx.size:
            keep = np.ones(idx.size, dtype=bool)
            if idx.size <= _HANDOFF:
                # the scalar kernel restarts its halving count, so a row
                # goes over only when it has none
                for r in np.flatnonzero(hv == 0):
                    hand_off(r)
                    keep[r] = False
            limit = keep & ((ns >= cfg.max_steps) | (dt < dt_min))
            if limit.any():
                finish(limit, kernels.STEP_LIMIT)
                keep &= ~limit
            if not keep.all():
                idx, y, f0, tt, dt, gi, ns, hv = (
                    arr[keep] for arr in (idx, y, f0, tt, dt, gi, ns, hv))
                if not idx.size:
                    break
            ns += 1
            d = dt[:, None]
            if adaptive:
                k2, ok = rhs(y + d * _A21 * f0, tt + _C2 * dt)
                k3, ok_k = rhs(y + d * (_A31 * f0 + _A32 * k2), tt + _C3 * dt)
                ok &= ok_k
                k4, ok_k = rhs(y + d * (_A41 * f0 + _A42 * k2 + _A43 * k3), tt + _C4 * dt)
                ok &= ok_k
                k5, ok_k = rhs(y + d * (_A51 * f0 + _A52 * k2 + _A53 * k3 + _A54 * k4),
                               tt + _C5 * dt)
                ok &= ok_k
                k6, ok_k = rhs(y + d * (_A61 * f0 + _A62 * k2 + _A63 * k3 + _A64 * k4
                                        + _A65 * k5), tt + dt)
                ok &= ok_k
                yn = y + d * (_A71 * f0 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
                k7, ok_k = rhs(yn, tt + dt)
                ok &= ok_k
                fail = ~ok
                stop = np.zeros(idx.size, dtype=bool)
                if fail.any():
                    hv[fail] += 1
                    stop = fail & ((hv > _MAX_HALVINGS) | (0.5 * dt < dt_min))
                    dt[fail & ~stop] *= 0.5
                # embedded error estimate, summed over components in order
                e = d * (_E1 * f0 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
                sc = atol + rtol * np.maximum(np.abs(y), np.abs(yn))
                q = (e / sc) * (e / sc)
                errn = np.zeros(idx.size)
                for i in range(q.shape[1]):
                    errn += q[:, i]
                errn = np.sqrt(errn / q.shape[1])
                reject = ok & (errn > 1.0)
                if reject.any():
                    dt[reject] *= np.maximum(_factors(errn[reject]), 0.2)
                accept = ok & ~reject
            else:
                k2, ok = rhs(y + 0.5 * d * f0, tt + 0.5 * dt)
                k3, ok_k = rhs(y + 0.5 * d * k2, tt + 0.5 * dt)
                ok &= ok_k
                k4, ok_k = rhs(y + d * k3, tt + dt)
                ok &= ok_k
                yn = y + d / 6.0 * (f0 + 2.0 * k2 + 2.0 * k3 + k4)
                k7, ok_k = rhs(yn, tt + dt)
                ok &= ok_k
                stop = ~ok
                accept = ok
            if stop.any():
                finish(stop, kernels.SINGULAR_STOP)
                keep = ~stop
            else:
                keep = np.ones(idx.size, dtype=bool)

            a = np.flatnonzero(accept)
            if a.size:
                # fill all grid times in (t, t + dt]
                t_new = tt[a] + dt[a]
                reach = t_new + 1e-12 * np.maximum(1.0, np.abs(t_new))
                g = gi[a]
                emit = np.flatnonzero(t_out[g] <= reach)
                while emit.size:
                    r = a[emit]
                    k = g[emit]
                    h = dt[r]
                    s = (t_out[k] - tt[r]) / h
                    s2 = s * s
                    s3 = s2 * s
                    h00 = (2.0 * s3 - 3.0 * s2 + 1.0)[:, None]
                    h10 = ((s3 - 2.0 * s2 + s) * h)[:, None]
                    h01 = (-2.0 * s3 + 3.0 * s2)[:, None]
                    h11 = ((s3 - s2) * h)[:, None]
                    herm = h00 * y[r] + h10 * f0[r] + h01 * yn[r] + h11 * k7[r]
                    xs[idx[r], k] = herm[:, :dim]
                    if guidance:
                        d00 = ((6.0 * s2 - 6.0 * s) / h)[:, None]
                        d10 = (3.0 * s2 - 4.0 * s + 1.0)[:, None]
                        d01 = ((6.0 * s - 6.0 * s2) / h)[:, None]
                        d11 = (3.0 * s2 - 2.0 * s)[:, None]
                        vs[idx[r], k] = d00 * y[r] + d10 * f0[r] + d01 * yn[r] + d11 * k7[r]
                    else:
                        vs[idx[r], k] = herm[:, dim:]
                    g[emit] += 1
                    emit = emit[t_out[g[emit]] <= reach[emit]]
                gi[a] = g
                tt[a] = t_new
                y[a] = yn[a]
                f0[a] = k7[a]
                hv[a] = 0
                if adaptive:
                    fac = np.full(a.size, 5.0)
                    grow = errn[a] > 0.0
                    fac[grow] = np.clip(_factors(errn[a][grow]), 0.2, 5.0)
                    dt[a] *= fac
                dt[a] = np.minimum(dt[a], t_end - tt[a])
                done = a[(gi[a] >= nt) | (tt[a] >= t_end)]
                for r in done:
                    # roundoff left the last grid times unemitted: the final state
                    i = idx[r]
                    xs[i, gi[r]:] = y[r, :dim]
                    vs[i, gi[r]:] = f0[r, :dim] if guidance else y[r, dim:]
                    steps[i] = ns[r]
                keep[done] = False
            if not keep.all():
                idx, y, f0, tt, dt, gi, ns, hv = (
                    arr[keep] for arr in (idx, y, f0, tt, dt, gi, ns, hv))

    out = []
    for i in range(n):
        nf = filled[i]
        traj = Trajectory(t=t[:nf].copy(), x=xs[i, :nf].copy(), v=vs[i, :nf].copy(),
                          status=STATUS_NAMES[status[i]], n_steps=int(steps[i]))
        if status[i] != kernels.COMPLETED:
            traj.stop_t = float(stop_t[i])
            traj.stop_x = stop_x[i].copy()
        out.append(traj)
    return out


def _factors(errn):
    """0.9 errn^-0.2 with Python's float pow, element by element, as the
    kernel computes it; numpy's vectorised pow rounds differently."""
    return np.array([0.9 * e ** -0.2 for e in errn.tolist()])


def _scalars(a):
    """Kernel input: the array under numba, else a list of Python floats,
    which the plain-Python integrator computes with several times faster."""
    return a if NUMBA_ENABLED else a.tolist()


def integrate_guidance(system: WaveField, x0, t_grid,
                       integrator: IntegratorConfig | None = None,
                       stencil: StencilConfig | None = None,
                       use_closed: bool = True) -> Trajectory:
    """Integrate dx/dt = u(x, t) from x0 over t_grid.

    Sample velocities are the guidance field along the path (to interpolant
    accuracy).  ``use_closed`` selects the analytic velocity for the
    stationary systems; the finite-difference phase gradient is used
    otherwise.
    """
    return _run(kernels.GUIDANCE, system, Constant(1.0), x0, None, t_grid,
                integrator, stencil, use_closed)


def integrate_transition(system: WaveField, coupling, state0, t_grid,
                         integrator: IntegratorConfig | None = None,
                         stencil: StencilConfig | None = None,
                         use_closed: bool = True) -> Trajectory:
    """Integrate d2x/dt2 = -grad(V + P(t) Q) from (x0, v0) over t_grid.

    ``state0`` is a TrajectoryState or an (x0, v0) pair; state0.t, when
    given, must equal t_grid[0].
    """
    if isinstance(state0, TrajectoryState):
        x0, v0 = state0.x, state0.v
        if not math.isclose(state0.t, float(np.asarray(t_grid).reshape(-1)[0]),
                            rel_tol=0.0, abs_tol=1e-12):
            raise InvalidParameterError("state0.t must equal t_grid[0]")
    else:
        x0, v0 = state0
    return _run(kernels.TRANSITION, system, coupling, x0, v0, t_grid,
                integrator, stencil, use_closed)
