"""Ensemble runs: batched integration, conservation monitors, KS checks.

Initial conditions are drawn once, up front, from a single seeded stream.
In every runtime the whole ensemble then integrates as arrays in the
ensemble engine of :mod:`qctrans.dynamics`, which hands its last few
trajectories to the scalar kernel (compiled when numba is installed); on
the closed-form routes (oscillator and hydrogen) every trajectory is
bitwise identical to a scalar run of it.  The engine's (n, nt, dim)
position and velocity arrays are the one copy of the samples: each
trajectory's ``x`` and ``v`` are views of its row.

Per-trajectory monitors track the quantities each system is supposed to
conserve (or visibly fail to conserve, which in transition runs is the
signal): kinetic energy for the free 1D packet, mechanical energy / radius /
angular momentum for the planar oscillator, energy / L_z / cylindrical
radius / height for the Coulomb system.  They are computed for the whole
ensemble in one call on the engine's arrays, and each trajectory's are
summarised over the samples it produced.  Ensemble-level metrics compare the
evolved positions against quadrature CDFs of |psi|^2 marginals with a
Kolmogorov-Smirnov statistic; under pure guidance that distance stays at the
sampling-noise floor (equivariance), under transition dynamics its growth
measures the departure from the quantum distribution.
"""

import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import kernels
from .coupling import Constant
from .dynamics import Trajectory, _run_batch, _trajectories
from .errors import InvalidParameterError
from .sampling import GridCDF, marginal_density_1d, sample_initial_conditions
from .systems import WaveField


def worker_count(n_tasks: int) -> int:
    """Workers an ensemble of ``n_tasks`` trajectories runs on: always 1,
    since every ensemble runs in the one batch engine.

    It stays because perfbench records it as ``ensemble.workers``."""
    return 1


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

    Only ``traj.x`` and ``traj.v`` are read, indexed ``[..., k]`` for
    component k, so any leading axes carry through: a whole ensemble's
    (n, nt, dim) samples give (n, nt) series.  A hydrogen sample at r = 0
    (a start at the nucleus stops there at once) has the energy -inf."""
    x = traj.x
    v = traj.v
    if system.kind == "double_slit":
        return {"kinetic": 0.5 * v[..., 0] ** 2}
    if system.kind == "oscillator_2d":
        k0 = system.params.k0
        r = np.hypot(x[..., 0], x[..., 1])
        return {
            "energy": 0.5 * (v[..., 0] ** 2 + v[..., 1] ** 2) + 0.5 * k0 * r**2,
            "radius": r,
            "Lz": x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0],
        }
    r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)
    with np.errstate(divide="ignore"):
        energy = 0.5 * (v**2).sum(axis=-1) - 1.0 / r
    return {
        "energy": energy,
        "Lz": x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0],
        "s": np.hypot(x[..., 0], x[..., 1]),
        "z": x[..., 2],
    }


def _summaries(series: dict, filled) -> list:
    """Each row's summary of the (n, nt) monitor series over its first
    ``filled`` samples: per name, the first and last finite sample and the
    largest distance of a finite sample from the first, all None when no
    sample is finite."""
    out = [{} for _ in filled]
    for name, s in series.items():
        n, nt = s.shape
        ok = np.isfinite(s) & (np.arange(nt) < filled[:, None])
        rows = np.arange(n)
        first = s[rows, ok.argmax(axis=1)]
        last = s[rows, nt - 1 - ok[:, ::-1].argmax(axis=1)]
        with np.errstate(invalid="ignore"):
            drift = np.where(ok, np.abs(s - first[:, None]), 0.0).max(axis=1)
        for row, seen, *vals in zip(out, ok.any(axis=1).tolist(), first.tolist(),
                                    last.tolist(), drift.tolist()):
            row[name] = dict(zip(("initial", "final", "max_drift"), vals if seen else (None,) * 3))
    return out


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


def _axis_samples(axis, x):
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
    x = np.stack([tr.x[idxs] for tr in done])  # (n_completed, len(idxs), dim)
    for axis in _KS_AXES[system.kind]:
        vals = []
        cdf = None
        for j, i in enumerate(idxs):
            if cdf is None or not stationary:
                fn, lo, hi = marginal_density_1d(
                    system, float(t_grid[i]), axis="z" if axis == "z" else "auto"
                )
                cdf = GridCDF(fn, lo, hi, n_cells=_KS_CELLS[system.kind])
            vals.append(ks_distance(_axis_samples(axis, x[:, j]), cdf.cdf))
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

    guided = mode == "guidance"
    arrays = _run_batch(
        kernels.GUIDANCE if guided else kernels.TRANSITION, system,
        Constant(1.0) if guided else coupling, pos, vel, t_grid,
        scenario.integrator, scenario.numerics,
    )
    trajectories = _trajectories(*arrays)
    _, xs, vs, _, filled, *_ = arrays
    summaries = _summaries(trajectory_monitors(system, SimpleNamespace(x=xs, v=vs)), filled)

    diagnostics = [TrajectoryDiagnostics(i, tr.status, tr.n_steps, tr.stop_t, mons)
                   for i, (tr, mons) in enumerate(zip(trajectories, summaries))]
    report = Counter(tr.status for tr in trajectories)  # keys in first-appearance order
    metrics = (
        distribution_metrics(system, trajectories, t_grid)
        if compute_metrics
        else {"times": [], "n_completed": report["completed"], "ks": {},
              "ks_critical_1pct": None}
    )
    return EnsembleResult(
        scenario=scenario, t=t_grid, positions0=pos, velocities0=vel,
        trajectories=trajectories, diagnostics=diagnostics,
        distribution_metrics=metrics, truncation_report=dict(report),
    )
