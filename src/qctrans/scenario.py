"""Scenario documents: parsing, validation, defaults.

A scenario is a JSON object selecting a system, a coupling schedule, a
dynamics mode, and the ensemble/integrator/time/numerics/output settings.
Parsing is total: any malformed document raises
:class:`~qctrans.errors.ConfigurationError` carrying the dotted path of the
offending field; nothing else escapes.

Minimal example::

    {"system": {"type": "double_slit"}, "mode": "guidance"}

Unspecified sections fall back to per-system defaults (the published figure
parameters).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .coupling import Constant, GaussianCDF, Logistic
from .dynamics import IntegratorConfig
from .errors import ConfigurationError, InvalidParameterError
from .fields import StencilConfig, _real
from .fields import _int as _is_int
from .sampling import SamplerConfig
from .systems import WaveField, _finite, make_system

MODES = ("guidance", "transition", "classical")
QUANTITIES = ("rho", "S", "Q")
PLANES = ("xy", "xz", "yz")
FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class TimeGrid:
    start: float = 0.0
    end: float = 1.0
    n_outputs: int = 101

    def __post_init__(self):
        _finite("start", self.start)
        _finite("end", self.end)
        if not self.end > self.start:
            raise InvalidParameterError(f"need end > start, got [{self.start}, {self.end}]")
        if not (isinstance(self.n_outputs, int) and self.n_outputs >= 2):
            raise InvalidParameterError(f"n_outputs must be an int >= 2, got {self.n_outputs!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.n_outputs)


@dataclass(frozen=True)
class FieldGridConfig:
    quantity: str = "Q"
    xlim: tuple = (-8.0, 8.0)
    ylim: tuple = (-8.0, 8.0)   # time axis for 1D systems
    nx: int = 201
    ny: int = 201
    t: float = 0.0              # evaluation time (2D/3D systems)
    plane: str = "xy"           # 3D systems: which coordinate plane
    offset: float = 0.0         # 3D systems: offset of the remaining axis

    def __post_init__(self):
        for name, choices in (("quantity", QUANTITIES), ("plane", PLANES)):
            v = getattr(self, name)
            if v not in choices:
                raise InvalidParameterError(f"{name} must be one of {sorted(choices)}, got {v!r}")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 2):
                raise InvalidParameterError(f"{name} must be an int >= 2, got {v!r}")
        _limits("xlim", self.xlim)
        _limits("ylim", self.ylim)
        _finite("t", self.t)
        _finite("offset", self.offset)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    basename: str = "run"
    formats: tuple = ("csv", "svg")
    field: FieldGridConfig | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    system: WaveField
    coupling: object
    mode: str
    ensemble: SamplerConfig
    integrator: IntegratorConfig
    time: TimeGrid
    numerics: StencilConfig
    output: OutputConfig
    name: str = ""

    def annotation(self) -> str:
        """One-line parameter summary embedded in exported artifacts."""
        sysp = self.system.params
        if self.system.kind == "double_slit":
            sy = f"double_slit rho0={_fmt(sysp.rho0)} u={_fmt(sysp.u)} X={_fmt(sysp.X)}"
        elif self.system.kind == "oscillator_2d":
            sy = f"oscillator_2d k0={_fmt(sysp.k0)} alpha={_fmt(sysp.alpha)}"
        else:
            sy = f"hydrogen n={sysp.n} l={sysp.l} m={sysp.m}"
        c = self.coupling
        if isinstance(c, Logistic):
            cp = f"logistic b={_fmt(c.b)} t0={_fmt(c.t0)}"
        elif isinstance(c, GaussianCDF):
            cp = f"gaussian_cdf mu={_fmt(c.mu)} sigma={_fmt(c.sigma)}"
        else:
            cp = f"constant P={_fmt(c.value)}"
        return (
            f"{sy} | {cp} | mode={self.mode} n={self.ensemble.n} "
            f"t=[{_fmt(self.time.start)},{_fmt(self.time.end)}]"
        )


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _expect_keys(d, allowed, path):
    for k in d:
        if k not in allowed:
            raise ConfigurationError(f"unknown key (allowed: {sorted(allowed)})", path=f"{path}.{k}")


def _expect_obj(v, path):
    if not isinstance(v, dict):
        raise ConfigurationError(f"expected an object, got {type(v).__name__}", path=path)
    return v


def _num(d, key, path, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigurationError("required key missing", path=f"{path}.{key}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigurationError(f"expected a finite number, got {v!r}", path=f"{path}.{key}")
    return float(v)


def _int(d, key, path, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigurationError("required key missing", path=f"{path}.{key}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"expected an integer, got {v!r}", path=f"{path}.{key}")
    return v


def _str(d, key, path, default=None, required=False, choices=None):
    if key not in d:
        if required:
            raise ConfigurationError("required key missing", path=f"{path}.{key}")
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigurationError(f"expected a string, got {v!r}", path=f"{path}.{key}")
    if choices is not None and v not in choices:
        raise ConfigurationError(f"must be one of {sorted(choices)}, got {v!r}", path=f"{path}.{key}")
    return v


def _bool(d, key, path, default=None):
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, bool):
        raise ConfigurationError(f"expected a boolean, got {v!r}", path=f"{path}.{key}")
    return v


def _limits(name, v):
    """(lo, hi) as floats: two finite numbers with lo < hi."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2
            and all(_real(e) and math.isfinite(e) for e in v) and v[0] < v[1]):
        raise InvalidParameterError(f"{name} must be [lo, hi] with lo < hi, got {v!r}")
    return (float(v[0]), float(v[1]))


def _pair(v, path):
    try:
        return _limits(path, v)
    except InvalidParameterError as e:
        raise ConfigurationError(f"expected [lo, hi] with lo < hi, got {v!r}", path=path) from e


def _build_system(doc) -> WaveField:
    d = _expect_obj(doc.get("system"), "system") if "system" in doc else None
    if d is None:
        raise ConfigurationError("required section missing", path="system")
    kind = _str(d, "type", "system", required=True,
                choices=("double_slit", "oscillator_2d", "hydrogen"))
    if kind == "double_slit":
        _expect_keys(d, {"type", "rho0", "u", "X"}, "system")
        kw = {}
        for key in ("rho0", "u", "X"):
            v = _num(d, key, "system")
            if v is not None:
                kw[key] = v
    elif kind == "oscillator_2d":
        _expect_keys(d, {"type", "k0", "alpha"}, "system")
        kw = {}
        for key in ("k0", "alpha"):
            v = _num(d, key, "system")
            if v is not None:
                kw[key] = v
    else:
        _expect_keys(d, {"type", "n", "l", "m"}, "system")
        kw = {}
        for key in ("n", "l", "m"):
            v = _int(d, key, "system")
            if v is not None:
                kw[key] = v
    try:
        return make_system(kind, **kw)
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="system") from e


def _build_coupling(doc, mode):
    d = doc.get("coupling")
    if d is None:
        if mode == "transition":
            raise ConfigurationError("transition mode requires a coupling section", path="coupling")
        return Constant(1.0) if mode == "guidance" else Constant(0.0)
    d = _expect_obj(d, "coupling")
    ctype = _str(d, "type", "coupling", required=True,
                 choices=("logistic", "gaussian_cdf", "constant"))
    if ctype == "logistic":
        _expect_keys(d, {"type", "b", "t0"}, "coupling")
        sched = Logistic(_num(d, "b", "coupling", required=True),
                         _num(d, "t0", "coupling", required=True))
    elif ctype == "gaussian_cdf":
        _expect_keys(d, {"type", "mu", "sigma"}, "coupling")
        sigma = _num(d, "sigma", "coupling", required=True)
        if sigma <= 0:
            raise ConfigurationError("must be > 0", path="coupling.sigma")
        sched = GaussianCDF(_num(d, "mu", "coupling", required=True), sigma)
    else:
        _expect_keys(d, {"type", "value"}, "coupling")
        value = _num(d, "value", "coupling", required=True)
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError("must lie in [0, 1]", path="coupling.value")
        sched = Constant(value)
    if mode == "classical" and not (isinstance(sched, Constant) and sched.value == 0.0):
        raise ConfigurationError(
            "classical mode forces constant P=0; omit coupling or set it so",
            path="coupling",
        )
    if mode == "guidance":
        return Constant(1.0)
    return sched


_DEFAULT_TIME = {
    "double_slit": TimeGrid(0.0, 2.0, 41),
    "oscillator_2d": TimeGrid(0.0, 35.0, 141),
    "hydrogen": TimeGrid(0.0, 2500.0, 1001),
}

# long Coulomb spans need tighter error control to hold the conservation laws
_DEFAULT_INTEGRATOR = {
    "double_slit": IntegratorConfig(),
    "oscillator_2d": IntegratorConfig(),
    "hydrogen": IntegratorConfig(rtol=1e-9, atol=1e-11),
}


def _build_ensemble(doc, system) -> SamplerConfig:
    d = doc.get("ensemble")
    if d is None:
        if system.dim == 1:
            return SamplerConfig(mode="quantile_1d", n=50)
        return SamplerConfig(mode="rejection", n=100)
    d = _expect_obj(d, "ensemble")
    _expect_keys(d, {"mode", "n", "seed", "domain", "envelope_margin", "envelope",
                     "positions", "velocities"}, "ensemble")
    mode = _str(d, "mode", "ensemble", default="quantile_1d" if system.dim == 1 else "rejection",
                choices=("rejection", "quantile_1d", "fixed"))
    if mode == "quantile_1d" and system.dim != 1:
        raise ConfigurationError("quantile_1d requires a 1D system", path="ensemble.mode")
    domain = None
    if "domain" in d:
        raw = d["domain"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigurationError("expected a list of [lo, hi] pairs", path="ensemble.domain")
        domain = tuple(_pair(p, f"ensemble.domain[{i}]") for i, p in enumerate(raw))
        if len(domain) != system.dim:
            raise ConfigurationError(
                f"domain has {len(domain)} dimensions, system has {system.dim}",
                path="ensemble.domain",
            )
    positions = velocities = None
    n = _int(d, "n", "ensemble", default=None)
    if "positions" in d:
        try:
            positions = np.asarray(d["positions"], dtype=float)
            positions = positions.reshape(-1, system.dim)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad positions array: {e}", path="ensemble.positions") from e
        if not np.all(np.isfinite(positions)):
            raise ConfigurationError("positions must be finite", path="ensemble.positions")
        if n is None:
            n = positions.shape[0]
        positions = tuple(map(tuple, positions))
    if "velocities" in d:
        try:
            velocities = np.asarray(d["velocities"], dtype=float).reshape(-1, system.dim)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad velocities array: {e}", path="ensemble.velocities") from e
        if not np.all(np.isfinite(velocities)):
            raise ConfigurationError("velocities must be finite", path="ensemble.velocities")
        velocities = tuple(map(tuple, velocities))
    if n is None:
        n = 50 if system.dim == 1 else 100
    env = _num(d, "envelope", "ensemble", default=None)
    try:
        return SamplerConfig(
            mode=mode, n=n, seed=_int(d, "seed", "ensemble", default=0),
            domain=domain, envelope_margin=_num(d, "envelope_margin", "ensemble", default=1.5),
            envelope=env, positions=positions, velocities=velocities,
        )
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="ensemble") from e


def _build_integrator(doc, system) -> IntegratorConfig:
    d = doc.get("integrator")
    base = _DEFAULT_INTEGRATOR[system.kind]
    if d is None:
        return base
    d = _expect_obj(d, "integrator")
    _expect_keys(d, {"method", "dt", "rtol", "atol", "max_steps"}, "integrator")
    try:
        return IntegratorConfig(
            method=_str(d, "method", "integrator", default=base.method,
                        choices=("rk45_adaptive", "rk4_fixed")),
            dt=_num(d, "dt", "integrator", default=base.dt),
            rtol=_num(d, "rtol", "integrator", default=base.rtol),
            atol=_num(d, "atol", "integrator", default=base.atol),
            max_steps=_int(d, "max_steps", "integrator", default=base.max_steps),
        )
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="integrator") from e


def _build_time(doc, system) -> TimeGrid:
    d = doc.get("time")
    base = _DEFAULT_TIME[system.kind]
    if d is None:
        return base
    d = _expect_obj(d, "time")
    _expect_keys(d, {"start", "end", "n_outputs"}, "time")
    try:
        grid = TimeGrid(
            start=_num(d, "start", "time", default=base.start),
            end=_num(d, "end", "time", default=base.end),
            n_outputs=_int(d, "n_outputs", "time", default=base.n_outputs),
        )
        system._check_t(grid.start)
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="time") from e
    return grid


def _build_numerics(doc) -> StencilConfig:
    d = doc.get("numerics")
    if d is None:
        return StencilConfig()
    d = _expect_obj(d, "numerics")
    _expect_keys(d, {"h", "richardson", "min_rho"}, "numerics")
    try:
        return StencilConfig(
            h=_num(d, "h", "numerics", default=1e-4),
            richardson=_bool(d, "richardson", "numerics", default=True),
            min_rho=_num(d, "min_rho", "numerics", default=1e-12),
        )
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="numerics") from e


def _build_field(d, system) -> FieldGridConfig:
    d = _expect_obj(d, "output.field")
    _expect_keys(d, {"quantity", "xlim", "ylim", "nx", "ny", "t", "plane", "offset"},
                 "output.field")
    base = default_field_grid(system)
    xlim = _pair(d["xlim"], "output.field.xlim") if "xlim" in d else base.xlim
    ylim = _pair(d["ylim"], "output.field.ylim") if "ylim" in d else base.ylim
    nx = _int(d, "nx", "output.field", default=base.nx)
    ny = _int(d, "ny", "output.field", default=base.ny)
    if nx < 2 or ny < 2:
        raise ConfigurationError("grid must be at least 2x2", path="output.field.nx")
    try:
        field = FieldGridConfig(
            quantity=_str(d, "quantity", "output.field", default=base.quantity,
                          choices=QUANTITIES),
            xlim=xlim, ylim=ylim, nx=nx, ny=ny,
            t=_num(d, "t", "output.field", default=base.t),
            plane=_str(d, "plane", "output.field", default=base.plane, choices=PLANES),
            offset=_num(d, "offset", "output.field", default=base.offset),
        )
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path="output.field") from e
    if system.dim == 1:  # the y axis is time
        try:
            system._check_t(ylim)
        except InvalidParameterError as e:
            raise ConfigurationError(str(e), path="output.field.ylim") from e
    return field


def default_field_grid(system: WaveField) -> FieldGridConfig:
    """Sensible field-figure window per system; 1D y-axis is time."""
    if system.kind == "double_slit":
        return FieldGridConfig(quantity="Q", xlim=(-8.0, 8.0), ylim=(0.0, 2.5), nx=201, ny=161)
    if system.kind == "oscillator_2d":
        return FieldGridConfig(quantity="Q", xlim=(-3.0, 3.0), ylim=(-3.0, 3.0), nx=201, ny=201)
    return FieldGridConfig(quantity="Q", xlim=(-12.0, 12.0), ylim=(-12.0, 12.0),
                           nx=201, ny=201, plane="xy")


def _build_output(doc, system, name) -> OutputConfig:
    d = doc.get("output")
    if d is None:
        return OutputConfig(basename=name or "run")
    d = _expect_obj(d, "output")
    _expect_keys(d, {"directory", "basename", "formats", "field"}, "output")
    formats = d.get("formats", ["csv", "svg"])
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigurationError("expected a non-empty list", path="output.formats")
    for f in formats:
        if f not in FORMATS:
            raise ConfigurationError(f"must be one of {sorted(FORMATS)}, got {f!r}",
                                     path="output.formats")
    field = _build_field(d["field"], system) if "field" in d else None
    return OutputConfig(
        directory=_str(d, "directory", "output", default="out"),
        basename=_str(d, "basename", "output", default=name or "run"),
        formats=tuple(formats),
        field=field,
    )


def build_scenario(doc: dict, name: str = "") -> ScenarioConfig:
    """Validate a raw document and resolve it into a ScenarioConfig."""
    doc = _expect_obj(doc, "$")
    _expect_keys(doc, {"system", "coupling", "mode", "ensemble", "integrator",
                       "time", "numerics", "output", "name"}, "$")
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise ConfigurationError("expected a string", path="$.name")
    system = _build_system(doc)
    mode = _str(doc, "mode", "$", required=True, choices=MODES)
    coupling = _build_coupling(doc, mode)
    ensemble = _build_ensemble(doc, system)
    integrator = _build_integrator(doc, system)
    time = _build_time(doc, system)
    numerics = _build_numerics(doc)
    output = _build_output(doc, system, name)
    return ScenarioConfig(system=system, coupling=coupling, mode=mode, ensemble=ensemble,
                          integrator=integrator, time=time, numerics=numerics,
                          output=output, name=name)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigurationError(f"document is not UTF-8: {e}", path="$") from e
    if not isinstance(text, str):
        raise ConfigurationError("expected a JSON document string", path="$")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}", path="$"
        ) from e
    return build_scenario(doc)


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides to a raw document (CLI --set)."""
    out = json.loads(json.dumps(doc))  # deep copy, JSON types only
    for item in assignments:
        if "=" not in item:
            raise ConfigurationError(f"override must look like key.path=value, got {item!r}",
                                     path="$")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError("empty override key", path="$")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        cur = out
        parts = key.split(".")
        for p in parts[:-1]:
            nxt = cur.get(p)
            if not isinstance(nxt, dict):
                nxt = {}
                cur[p] = nxt
            cur = nxt
        cur[parts[-1]] = value
    return out
