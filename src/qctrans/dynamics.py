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

* the ensemble engine ``_run_batch`` steps a whole ensemble as arrays, one
  row per trajectory with its own t, dt, output index, step count and
  halving count, through accept/reject/halve masks, on the array
  right-hand side of :mod:`qctrans.fields`.  Every end of a trajectory
  (completed, stopped at the guard or the step limit, or handed off) is
  written by one helper, and the rows that ended leave the active arrays
  once per step, at its top.  A single trajectory (``integrate_guidance``,
  ``integrate_transition``) is a one-row ensemble;
* the scalar kernel ``kernels.integrate`` takes one trajectory.  Once at
  most ``_HANDOFF`` rows are active, each is handed to it at its last
  accepted state with its dt, its remaining step budget and the whole run's
  ``dt_min``: a few trajectories that circle a node for thousands of steps
  would otherwise pay numpy's per-call cost on every one of them.  A run of
  at most ``_HANDOFF`` rows, a single trajectory among them, goes over
  whole before the array right-hand side runs, so the kernel takes its
  start guard and sample 0 as well, and stays the oracle the ensemble
  engine is tested against.  The kernel runs the oscillator and
  hydrogen closed forms and the double slit's stencil, the routes of the
  batch engine.

The arithmetic contract of the ensemble engine: it repeats the kernel's step
control check for check and its arithmetic operation for operation,
element-wise.  Stage sums and the error norm run in the kernel's order (a
matmul or an axis sum rounds differently), and the step factor
errn ** -0.2 is Python's float pow per element (numpy's SIMD pow differs
from libm in the last bit).  The closed-form fields of the oscillator and
hydrogen are the kernel's own functions, called on arrays, and P(t) is the
kernel's own ``coupling_p`` per trajectory, so on those routes every
trajectory of an ensemble is bitwise identical to a scalar run of it, in
any ensemble order or subset.  The double slit's batch steps use the array
stencil, which rounds differently from the kernel's.

The node guard |psi|^2 >= min_rho holds at every stage point, as in the
kernel, which checks it in each right-hand-side call and stops at the first
failure.  On the closed routes the ensemble engine evaluates it once per
step instead, on the stage points of all rows stacked (six per row, four
with RK4; once more for the starts).  A guarded row's remaining stages are
computed anyway, and their values discarded when the step halves or stops,
so no output bit depends on where the guard runs.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jit import NUMBA_ENABLED
from .coupling import Constant
from .errors import InvalidParameterError
from .fields import DEFAULT_STENCIL, StencilConfig, _batch_rhs, _dense_enough
from .kernels import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64,
    _A65, _A71, _A73, _A74, _A75, _A76, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    _MAX_HALVINGS,
)
from .systems import WaveField, _integer, _number, _shown

STATUS_NAMES = {
    kernels.COMPLETED: "completed",
    kernels.SINGULAR_STOP: "singular_stop",
    kernels.STEP_LIMIT: "step_limit",
}

_METHODS = {"rk45_adaptive": kernels.RK45_ADAPTIVE, "rk4_fixed": kernels.RK4_FIXED}


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
                f"method must be one of {sorted(_METHODS)}, got {_shown(self.method)}"
            )
        for name in ("dt", "rtol", "atol"):
            v = getattr(self, name)
            if not (_number(v) and v > 0):
                raise InvalidParameterError(f"{name} must be > 0, got {_shown(v)}")
        if not (_integer(self.max_steps) and self.max_steps > 0):
            raise InvalidParameterError(
                f"max_steps must be a positive int, got {_shown(self.max_steps)}")


@dataclass
class Trajectory:
    """Sampled trajectory.  ``t``, ``x``, ``v`` are aligned arrays of the
    output samples actually produced (truncated on early stop).  ``x``, ``v``
    and ``stop_x`` are views of the arrays of the ensemble it ran in, so
    writing to them writes to that ensemble's samples; ``t`` is its own."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    status: str
    stop_t: float | None = None
    stop_x: np.ndarray | None = None
    n_steps: int = 0

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


def _kernel(mode, system, coupling, x0, v0, t, cfg, st, dt0, dt_min, max_steps):
    """One trajectory through ``kernels.integrate`` from (x0, v0) over the grid
    t; returns the kernel's result tuple and its (xs, vs) sample rows."""
    c0, c1 = coupling._packed()
    xs = np.zeros((len(t), 3))
    vs = np.zeros((len(t), 3))
    result = kernels.integrate(
        mode, system.sys_id, _scalars(system._par), system.dim, coupling._kind, c0, c1,
        _scalars(x0), _scalars(v0), _scalars(t),
        _METHODS[cfg.method], float(dt0), float(dt_min), float(cfg.rtol), float(cfg.atol),
        int(max_steps), st.h, st.richardson, st.min_rho, xs, vs,
    )
    return result, xs, vs


def _run(mode, system: WaveField, coupling, x0, v0, t_grid, integrator, stencil) -> Trajectory:
    """One trajectory: a one-row ensemble."""
    dim = system.dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != dim:
        raise InvalidParameterError(f"x0 must have {dim} components, got {x0.size}")
    v0 = np.zeros(dim) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    if v0.size != dim:
        raise InvalidParameterError(f"v0 must have {dim} components, got {v0.size}")
    return _trajectories(*_run_batch(mode, system, coupling, x0[None], v0[None], t_grid,
                                     integrator, stencil))[0]


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------

# active trajectories at which an ensemble goes over to the scalar kernel.
# Step counts are heavy-tailed (oscillator guidance: median 218, maximum
# 4696); a model of the measured counts has a flat optimum at 6-10.  With
# one node-guard call per step, guidance at n = 2000 (CPU s, one CPU,
# median of 3, every size bitwise equal) took, at 8 / 16 / 32 / 64:
# oscillator 1.38 / 1.27 / 1.53 / 1.56, hydrogen 0.95 / 1.07 / 1.06 / 1.30.
# 8 is best for hydrogen and within 8% of the best for the oscillator, and
# the double slit's rows, whose stencils round differently in the kernel,
# keep their bytes only at 8
_HANDOFF = 8


def _run_batch(mode, system: WaveField, coupling, x0, v0, t_grid, integrator,
               stencil) -> tuple:
    """Integrate an ensemble of starts x0 (and v0 in transition mode), each
    of shape (n, dim), over t_grid.

    Returns the arrays (t, xs, vs, status, filled, steps, stop_t, stop_x):
    the grid, the (n, nt, dim) samples, and per start its status code, its
    number of samples produced (the rest of its row is zero), its step
    count and its stop time and position (zero for a completed run).

    ``record`` writes the per-start arrays for every way a trajectory ends.
    A row that ends at the start or in a step stays in the active arrays,
    marked off in ``keep``, until the top of the next step, where one
    statement drops it together with the rows handed to the scalar kernel
    and the rows at the step limit."""
    t = _check_grid(t_grid)
    system._check_t(t)
    cfg = integrator or IntegratorConfig()
    st = stencil or DEFAULT_STENCIL
    guidance = mode == kernels.GUIDANCE
    x0 = np.asarray(x0, dtype=float)
    n, dim = x0.shape
    nt = t.size
    t_list = t.tolist()
    t_end = t_list[-1]
    dt_min = _dt_min(t_list[0], t_end)

    xs = np.zeros((n, nt, dim))
    vs = np.zeros((n, nt, dim))
    status = np.full(n, kernels.COMPLETED)
    filled = np.full(n, nt)
    steps = np.zeros(n, dtype=int)
    stop_t = np.zeros(n)
    stop_x = np.zeros((n, dim))

    def record(i, code, nf, n_steps, s_t=None, s_x=None):
        """The end of trajectory (or trajectories) i: its status, samples
        filled and step count, and where a run that did not complete stopped."""
        status[i] = code
        filled[i] = nf
        steps[i] = n_steps
        if code != kernels.COMPLETED:
            stop_t[i] = s_t
            stop_x[i] = s_x

    def hand_off(i, state, sub, dt0, done, first):
        """Trajectory i on the scalar kernel from its state (x, or x and v)
        over the times sub, which end with the grid's; its samples from
        ``first`` on are kept (sample 0 of a resumed run is its last state,
        not a grid time).  The kernel reads no v in guidance."""
        (code, nf, n_more, s_t, *s_x), kx, kv = _kernel(
            mode, system, coupling, state[:dim], state[dim:], sub, cfg, st, dt0, dt_min,
            cfg.max_steps - done,
        )
        off = nt - len(sub)
        xs[i, off + first : off + nf] = kx[first:nf, :dim]
        vs[i, off + first : off + nf] = kv[first:nf, :dim]
        record(i, code, off + nf, done + n_more, s_t, s_x[:dim])

    y = x0.copy() if guidance else np.concatenate([x0, np.asarray(v0, dtype=float)], axis=1)
    if n <= _HANDOFF:
        # so few rows go to the kernel whole, start guard and sample 0 included
        for i in range(n):
            hand_off(i, y[i], t, cfg.dt, 0, 0)
        return t, xs, vs, status, filled, steps, stop_t, stop_x

    rhs, timed = _batch_rhs(mode, system, coupling, st)
    adaptive = cfg.method == "rk45_adaptive"
    t_out = np.append(t, np.inf)  # an output index past the grid emits nothing
    rtol, atol = float(cfg.rtol), float(cfg.atol)
    oks, needs, pts = [], [], []  # the guards of the stages since the last check

    def stage(ys, c=None):
        """The right-hand side at the stage points ys and time tt + c dt
        (tt for c None); their guards wait for ``passed``."""
        k, ok, need = rhs(ys, (tt if c is None else tt + c * dt) if timed else None)
        oks.append(ok)
        if need is not None:
            needs.append(need)
            pts.append(ys[need, :dim])
        return k

    def passed():
        """The rows that pass every guard of the pending stages: the forms'
        own and, in one call on all their points, the node guard (only the
        closed routes defer it, and their densities do not read t)."""
        ok = np.logical_and.reduce(oks)
        if pts:
            dense = _dense_enough(system, np.concatenate(pts), None, st)
            if not dense.all():
                rows = np.concatenate([np.arange(len(ok))[need] for need in needs])
                ok[rows[~dense]] = False
        oks.clear()
        needs.clear()
        pts.clear()
        return ok

    def finish(rows, code):
        record(idx[rows], code, gi[rows], ns[rows], tt[rows], y[rows, :dim])

    # the active rows; idx maps a row to its trajectory
    idx = np.arange(n)
    tt = np.full(n, t_list[0])
    dt = np.full(n, min(float(cfg.dt), t_end - t_list[0]))
    gi = np.ones(n, dtype=int)
    ns = np.zeros(n, dtype=int)
    hv = np.zeros(n, dtype=int)

    with np.errstate(all="ignore"):
        f0 = stage(y)
        keep = passed()
        xs[:, 0] = x0
        vs[:, 0] = np.where(keep[:, None], f0, 0.0) if guidance else y[:, dim:]
        finish(~keep, kernels.SINGULAR_STOP)
        while True:
            if np.count_nonzero(keep) <= _HANDOFF:
                # the scalar kernel restarts its halving count, so a row
                # goes over only when it has none
                for r in np.flatnonzero(keep & (hv == 0)):
                    hand_off(idx[r], y[r], np.array([tt[r], *t_list[gi[r]:]]), dt[r], ns[r], 1)
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
                k2 = stage(y + d * _A21 * f0, _C2)
                k3 = stage(y + d * (_A31 * f0 + _A32 * k2), _C3)
                k4 = stage(y + d * (_A41 * f0 + _A42 * k2 + _A43 * k3), _C4)
                k5 = stage(y + d * (_A51 * f0 + _A52 * k2 + _A53 * k3 + _A54 * k4), _C5)
                k6 = stage(y + d * (_A61 * f0 + _A62 * k2 + _A63 * k3 + _A64 * k4
                                    + _A65 * k5), 1.0)
                yn = y + d * (_A71 * f0 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
                k7 = stage(yn, 1.0)
                ok = passed()
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
                k2 = stage(y + 0.5 * d * f0, 0.5)
                k3 = stage(y + 0.5 * d * k2, 0.5)
                k4 = stage(y + d * k3, 1.0)
                yn = y + d / 6.0 * (f0 + 2.0 * k2 + 2.0 * k3 + k4)
                k7 = stage(yn, 1.0)
                ok = passed()
                stop = ~ok
                accept = ok
            if stop.any():
                finish(stop, kernels.SINGULAR_STOP)
            keep = ~stop

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
                    # errn <= 1 on accepted rows, so the factor is >= 0.9
                    fac[grow] = np.minimum(_factors(errn[a][grow]), 5.0)
                    dt[a] *= fac
                dt[a] = np.minimum(dt[a], t_end - tt[a])
                done = a[gi[a] >= nt]
                record(idx[done], kernels.COMPLETED, nt, ns[done])
                keep[done] = False

    return t, xs, vs, status, filled, steps, stop_t, stop_x


def _trajectories(t, xs, vs, status, filled, steps, stop_t, stop_x):
    """One Trajectory per row of the engine's arrays: its x, v and stop_x
    are views of the row, its t a copy of its part of the grid."""
    out = []
    for i in range(len(xs)):
        nf = filled[i]
        traj = Trajectory(t=t[:nf].copy(), x=xs[i, :nf], v=vs[i, :nf],
                          status=STATUS_NAMES[status[i]], n_steps=int(steps[i]))
        if status[i] != kernels.COMPLETED:
            traj.stop_t = float(stop_t[i])
            traj.stop_x = stop_x[i]
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
                       stencil: StencilConfig | None = None) -> Trajectory:
    """Integrate dx/dt = u(x, t) from x0 over t_grid.

    Sample velocities are the guidance field along the path (to interpolant
    accuracy): the closed form for the oscillator and hydrogen, the
    finite-difference phase gradient for the double slit.
    """
    return _run(kernels.GUIDANCE, system, Constant(1.0), x0, None, t_grid,
                integrator, stencil)


def integrate_transition(system: WaveField, coupling, state0, t_grid,
                         integrator: IntegratorConfig | None = None,
                         stencil: StencilConfig | None = None) -> Trajectory:
    """Integrate d2x/dt2 = -grad(V + P(t) Q) from ``state0``, the pair
    (x0, v0) at t_grid[0], over t_grid.
    """
    x0, v0 = state0
    return _run(kernels.TRANSITION, system, coupling, x0, v0, t_grid,
                integrator, stencil)
