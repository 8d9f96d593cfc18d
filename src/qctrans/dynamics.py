"""Trajectory integration: guidance flow and second-order transition motion.

Guidance: dx/dt = u(x, t), the quantum limit.
Transition: d2x/dt2 = -grad(V + P(t) Q), which interpolates between the
quantum (P = 1) and classical (P = 0) limits as the coupling schedule decays.

Both use a Dormand-Prince 5(4) adaptive integrator (or fixed-step RK4) with
cubic Hermite sampling at the requested output times.  Stage times, including
inside P(t), use the sub-step time t + c_i dt.  On a guarded stage failure
the adaptive integrator halves the step up to 40 times before declaring
``singular_stop``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jit import NUMBA_ENABLED
from .coupling import Constant
from .errors import InvalidParameterError
from .fields import DEFAULT_STENCIL, StencilConfig
from .systems import WaveField

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
    c0, c1 = coupling._packed()
    xs = np.zeros((t.size, 3))
    vs = np.zeros((t.size, 3))
    use_cv = use_closed and system.has_closed_velocity
    use_cq = use_closed and system.has_closed_qpot
    status, n_filled, n_steps, stop_t, sx, sy, sz = kernels.integrate(
        mode, system.sys_id, _scalars(system._par), dim, coupling._kind, c0, c1,
        _scalars(_pad3(x0)), _scalars(_pad3(v0)), _scalars(t),
        _METHODS[cfg.method], float(cfg.dt), float(cfg.rtol), float(cfg.atol),
        int(cfg.max_steps), st.h, st.richardson, st.min_rho,
        use_cv, use_cq, xs, vs,
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


def _pad3(x):
    out = np.zeros(3)
    out[: x.size] = x
    return out


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
