"""Environment coupling schedules.

The schedule lambda(t) in [0, 1] dials the dynamics from quantum to
classical; its complement P(t) = 1 - lambda(t) scales the quantum force.
P = 1 is the pure guidance limit, P = 0 the classical limit.
"""

from dataclasses import dataclass

from . import kernels
from .errors import InvalidParameterError
from .systems import _finite


@dataclass(frozen=True)
class Logistic:
    """P(t) = 1 / (1 + exp(b (t - t0))); b > 0 decays quantum -> classical."""

    b: float
    t0: float

    def __post_init__(self):
        _finite("b", self.b)
        _finite("t0", self.t0)

    _kind = kernels.LOGISTIC

    def _packed(self):
        return float(self.b), float(self.t0)


@dataclass(frozen=True)
class GaussianCDF:
    """lambda(t) = Phi((t - mu) / sigma), the normal CDF ramp."""

    mu: float
    sigma: float

    def __post_init__(self):
        _finite("mu", self.mu)
        _finite("sigma", self.sigma)
        if self.sigma <= 0:
            raise InvalidParameterError(f"sigma must be > 0, got {self.sigma}")

    _kind = kernels.GAUSSIAN_CDF

    def _packed(self):
        return float(self.mu), float(self.sigma)


@dataclass(frozen=True)
class Constant:
    """Time-independent P(t) = value; 1 is quantum, 0 is classical."""

    value: float

    def __post_init__(self):
        _finite("value", self.value)
        if not 0.0 <= self.value <= 1.0:
            raise InvalidParameterError(f"constant P must lie in [0, 1], got {self.value}")

    _kind = kernels.CONSTANT

    def _packed(self):
        return float(self.value), 0.0


CouplingSchedule = Logistic | GaussianCDF | Constant


def eval_P(schedule, t) -> float:
    """Quantum weight P(t) = 1 - lambda(t)."""
    _finite("t", t)
    c0, c1 = schedule._packed()
    return kernels.coupling_p(schedule._kind, c0, c1, float(t))


def eval_lambda(schedule, t) -> float:
    """Environment coupling lambda(t) = 1 - P(t)."""
    return 1.0 - eval_P(schedule, t)
