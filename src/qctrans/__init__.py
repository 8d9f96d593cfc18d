"""Continuous quantum-to-classical trajectory transitions.

Trajectories follow d2x/dt2 = -grad(V + P(t) Q) where Q is the quantum
potential of an analytic wave function and P(t) walks from 1 (pure guidance,
trajectories ride grad S) to 0 (pure Newtonian motion).  Three systems ship:
a 1D two-packet superposition, a planar harmonic oscillator eigenstate pair,
and a hydrogen-like eigenstate.  Ensembles integrate as numpy arrays in one
batch engine, in every runtime.  The scalar kernel that finishes their last
rows and runs single trajectories is compiled with numba when available;
set QCTRANS_NO_NUMBA=1 to force the pure-Python path.
"""

from ._jit import NUMBA_ENABLED
from .coupling import Constant, GaussianCDF, Logistic, eval_P, eval_lambda
from .dynamics import IntegratorConfig, Trajectory, integrate_guidance, integrate_transition
from .ensemble import (
    EnsembleResult,
    TrajectoryDiagnostics,
    distribution_metrics,
    ks_distance,
    run_ensemble,
    trajectory_monitors,
    worker_count,
)
from .errors import (
    ConfigurationError,
    EnvelopeError,
    InvalidParameterError,
    NodeProximityError,
    SingularityError,
)
from .export import (
    FieldGrid,
    compute_field,
    export_result,
    load_result,
    write_field_csv,
    write_field_svg,
    write_result_json,
    write_trajectories_csv,
    write_trajectories_svg,
)
from .fields import (
    DEFAULT_STENCIL,
    StencilConfig,
    density,
    force,
    qpot_gradient,
    quantum_potential,
    velocity_current,
    velocity_grad_s,
)
from .presets import preset, preset_doc, preset_names
from .sampling import (
    GridCDF,
    SamplerConfig,
    default_domain,
    estimate_envelope,
    initial_velocities,
    marginal_density_1d,
    sample_initial_conditions,
    sample_positions,
)
from .scenario import (
    FieldGridConfig,
    OutputConfig,
    ScenarioConfig,
    TimeGrid,
    apply_overrides,
    build_scenario,
    default_field_grid,
    parse_scenario,
)
from .systems import (
    DoubleSlitParams,
    HydrogenParams,
    Oscillator2DParams,
    WaveField,
    double_slit,
    hydrogen,
    make_system,
    oscillator_2d,
)

__version__ = "0.1.0"

__all__ = [
    "NUMBA_ENABLED",
    "Constant", "GaussianCDF", "Logistic", "eval_P", "eval_lambda",
    "IntegratorConfig", "Trajectory",
    "integrate_guidance", "integrate_transition",
    "EnsembleResult", "TrajectoryDiagnostics", "distribution_metrics",
    "ks_distance", "run_ensemble", "trajectory_monitors", "worker_count",
    "ConfigurationError", "EnvelopeError", "InvalidParameterError",
    "NodeProximityError", "SingularityError",
    "FieldGrid", "compute_field", "export_result", "load_result",
    "write_field_csv", "write_field_svg", "write_result_json",
    "write_trajectories_csv", "write_trajectories_svg",
    "DEFAULT_STENCIL", "StencilConfig", "density", "force", "qpot_gradient",
    "quantum_potential", "velocity_current", "velocity_grad_s",
    "preset", "preset_doc", "preset_names",
    "GridCDF", "SamplerConfig", "default_domain", "estimate_envelope",
    "initial_velocities", "marginal_density_1d", "sample_initial_conditions",
    "sample_positions",
    "FieldGridConfig", "OutputConfig", "ScenarioConfig", "TimeGrid",
    "apply_overrides", "build_scenario", "default_field_grid", "parse_scenario",
    "DoubleSlitParams", "HydrogenParams", "Oscillator2DParams", "WaveField",
    "double_slit", "hydrogen", "make_system", "oscillator_2d",
    "__version__",
]
