"""Ensemble runs: batched integration, conservation monitors, KS checks.

Initial conditions are drawn once, up front, from a single seeded stream;
each trajectory then integrates independently and results are stored by
index.  Without numba the whole ensemble integrates as arrays in the
ensemble engine of :mod:`qctrans.dynamics`, which hands its last few
trajectories to the scalar kernel; on the closed-form routes (oscillator
and hydrogen) every trajectory is bitwise identical to a scalar run of it.
With numba the compiled scalar kernels release the GIL, so they run on a
thread pool whose size the ``QCTRANS_THREADS`` environment variable caps.
Output does not depend on the number of workers.

Per-trajectory monitors track the quantities each system is supposed to
conserve (or visibly fail to conserve, which in transition runs is the
signal): kinetic energy for the free 1D packet, mechanical energy / radius /
angular momentum for the planar oscillator, energy / L_z / cylindrical
radius / height for the Coulomb system.  Ensemble-level metrics compare the
evolved positions against quadrature CDFs of |psi|^2 marginals with a
Kolmogorov-Smirnov statistic; under pure guidance that distance stays at the
sampling-noise floor (equivariance), under transition dynamics its growth
measures the departure from the quantum distribution.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jit import NUMBA_ENABLED
from .coupling import Constant
from .dynamics import Trajectory, _run_batch, integrate_guidance, integrate_transition
from .errors import ConfigurationError, InvalidParameterError
from .sampling import GridCDF, marginal_density_1d, sample_initial_conditions
from .systems import WaveField


def worker_count(n_tasks: int) -> int:
    """min(tasks, cpus, QCTRANS_THREADS) with numba, else 1.

    The env var caps the pool and is validated either way.  Without numba
    the kernels hold the GIL, so threads could never overlap and would only
    add hand-off cost.
    """
    cpu = os.cpu_count() or 1
    cap = cpu
    raw = os.environ.get("QCTRANS_THREADS")
    if raw is not None and raw.strip():
        try:
            cap = int(raw)
        except ValueError as e:
            raise ConfigurationError(
                f"QCTRANS_THREADS must be an integer, got {raw!r}", path="QCTRANS_THREADS"
            ) from e
        if cap < 1:
            raise ConfigurationError(
                f"QCTRANS_THREADS must be >= 1, got {cap}", path="QCTRANS_THREADS"
            )
    if not NUMBA_ENABLED:
        return 1
    return max(1, min(n_tasks, cpu, cap))


def ks_distance(samples, cdf) -> float:
    """sup_x |ECDF(x) - CDF(x)| for a callable reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise InvalidParameterError("ks_distance needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - f), np.max(f - (k - 1) / n)))


def trajectory_monitors(system: WaveField, traj: Trajectory) -> dict:
    """Time series of the conserved-quantity candidates for one trajectory.

    A hydrogen sample at r = 0 (a start at the nucleus stops there at once)
    has the energy -inf."""
    x = traj.x
    v = traj.v
    if system.kind == "double_slit":
        return {"kinetic": 0.5 * v[:, 0] ** 2}
    if system.kind == "oscillator_2d":
        k0 = system.params.k0
        r = np.hypot(x[:, 0], x[:, 1])
        return {
            "energy": 0.5 * (v[:, 0] ** 2 + v[:, 1] ** 2) + 0.5 * k0 * r**2,
            "radius": r,
            "Lz": x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0],
        }
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2)
    with np.errstate(divide="ignore"):
        energy = 0.5 * (v**2).sum(axis=1) - 1.0 / r
    return {
        "energy": energy,
        "Lz": x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0],
        "s": np.hypot(x[:, 0], x[:, 1]),
        "z": x[:, 2],
    }


def _summarize(series: np.ndarray) -> dict:
    """First and last finite sample, and the largest distance of a finite
    sample from the first; all None when no sample is finite."""
    finite = series[np.isfinite(series)]
    if not finite.size:
        return {"initial": None, "final": None, "max_drift": None}
    v0 = float(finite[0])
    return {
        "initial": v0,
        "final": float(finite[-1]),
        "max_drift": float(np.max(np.abs(finite - v0))),
    }


@dataclass(frozen=True)
class TrajectoryDiagnostics:
    index: int
    status: str
    n_steps: int
    stop_t: float
    monitors: dict  # name -> {"initial", "final", "max_drift"}, None if never finite


# marginal axes compared against quadrature CDFs, per system
_KS_AXES = {
    "double_slit": ("x",),
    "oscillator_2d": ("radius",),
    "hydrogen": ("s", "z"),
}

# inner quadrature of the Coulomb marginals is itself a 1D integral per
# query point, so the cell count stays moderate there
_KS_CELLS = {"double_slit": 4096, "oscillator_2d": 4096, "hydrogen": 1024}


def _axis_samples(system, axis, x):
    if axis == "x":
        return x[:, 0]
    if axis in ("radius", "s"):
        return np.hypot(x[:, 0], x[:, 1])
    return x[:, 2]


def distribution_metrics(system: WaveField, trajectories, t_grid) -> dict:
    """KS distance to the |psi|^2 marginals at the first, middle, last time."""
    nt = len(t_grid)
    idxs = sorted({0, (nt - 1) // 2, nt - 1})
    done = [tr for tr in trajectories if tr.status == "completed"]
    out = {
        "times": [float(t_grid[i]) for i in idxs],
        "n_completed": len(done),
        "ks": {},
        "ks_critical_1pct": None,
    }
    if not done:
        return out
    out["ks_critical_1pct"] = 1.6276 / math.sqrt(len(done))
    # only the double slit's |psi|^2 moves; the other states are stationary
    stationary = system.kind != "double_slit"
    for axis in _KS_AXES[system.kind]:
        vals = []
        cdf = None
        for i in idxs:
            if cdf is None or not stationary:
                fn, lo, hi = marginal_density_1d(
                    system, float(t_grid[i]), axis="z" if axis == "z" else "auto"
                )
                cdf = GridCDF(fn, lo, hi, n_cells=_KS_CELLS[system.kind])
            samples = _axis_samples(system, axis, np.stack([tr.x[i] for tr in done]))
            vals.append(ks_distance(samples, cdf.cdf))
        out["ks"][axis] = vals
    return out


@dataclass(frozen=True)
class EnsembleResult:
    scenario: object
    t: np.ndarray
    positions0: np.ndarray
    velocities0: np.ndarray
    trajectories: list
    diagnostics: list
    distribution_metrics: dict
    truncation_report: dict  # status -> count

    @property
    def n(self) -> int:
        return len(self.trajectories)

    @property
    def completed(self) -> list:
        return [tr for tr in self.trajectories if tr.status == "completed"]


def run_ensemble(scenario, compute_metrics: bool = True) -> EnsembleResult:
    """Integrate a full scenario: sample, run every trajectory, diagnose."""
    system = scenario.system
    mode = scenario.mode
    coupling = Constant(0.0) if mode == "classical" else scenario.coupling
    t_grid = scenario.time.grid()
    pos, vel = sample_initial_conditions(
        system, scenario.ensemble, t_start=float(t_grid[0]), stencil=scenario.numerics
    )

    def run_one(i: int) -> Trajectory:
        if mode == "guidance":
            return integrate_guidance(
                system, pos[i], t_grid,
                integrator=scenario.integrator, stencil=scenario.numerics,
            )
        return integrate_transition(
            system, coupling, (pos[i], vel[i]), t_grid,
            integrator=scenario.integrator, stencil=scenario.numerics,
        )

    n = pos.shape[0]
    workers = worker_count(n)
    if not NUMBA_ENABLED:
        guided = mode == "guidance"
        trajectories = _run_batch(
            kernels.GUIDANCE if guided else kernels.TRANSITION, system,
            Constant(1.0) if guided else coupling, pos, vel, t_grid,
            scenario.integrator, scenario.numerics,
        )
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(pool.map(run_one, range(n)))
    else:
        trajectories = [run_one(i) for i in range(n)]

    diagnostics = []
    report = {}
    for i, tr in enumerate(trajectories):
        report[tr.status] = report.get(tr.status, 0) + 1
        mons = {k: _summarize(s) for k, s in trajectory_monitors(system, tr).items()}
        diagnostics.append(
            TrajectoryDiagnostics(
                index=i, status=tr.status, n_steps=tr.n_steps,
                stop_t=tr.stop_t, monitors=mons,
            )
        )
    metrics = (
        distribution_metrics(system, trajectories, t_grid)
        if compute_metrics
        else {"times": [], "n_completed": len(trajectories), "ks": {},
              "ks_critical_1pct": None}
    )
    return EnsembleResult(
        scenario=scenario, t=t_grid, positions0=pos, velocities0=vel,
        trajectories=trajectories, diagnostics=diagnostics,
        distribution_metrics=metrics, truncation_report=report,
    )
