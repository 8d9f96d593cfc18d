"""Scenario documents: parsing, validation, defaults.

A scenario is a JSON object selecting a system, a coupling schedule, a
dynamics mode, and the ensemble/integrator/time/numerics/output settings.
Parsing is total: any malformed document raises
:class:`~qctrans.errors.ConfigurationError` carrying the dotted path of the
offending field; nothing else escapes.

Minimal example::

    {"system": {"type": "double_slit"}, "mode": "guidance"}

Each section is read into its config dataclass: its keys are the
dataclass's fields, each read by the field's type, and a key left out takes
the per-system default (the published figure parameters) or the
dataclass's own.
"""

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .coupling import Constant, GaussianCDF, Logistic
from .dynamics import _METHODS, IntegratorConfig
from .errors import ConfigurationError, InvalidParameterError
from .fields import StencilConfig
from .sampling import SamplerConfig, _points, _start
from .systems import _KINDS as _SYSTEMS, WaveField, _finite, _integer, _is_pair, _number, _shown

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
        if not (_integer(self.n_outputs) and self.n_outputs >= 2):
            raise InvalidParameterError(
                f"n_outputs must be an int >= 2, got {_shown(self.n_outputs)}")

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
                raise InvalidParameterError(
                    f"{name} must be one of {sorted(choices)}, got {_shown(v)}")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not (_integer(v) and v >= 2):
                raise InvalidParameterError(f"{name} must be an int >= 2, got {_shown(v)}")
        for name in ("xlim", "ylim"):
            v = getattr(self, name)
            if not _is_pair(v):
                raise InvalidParameterError(
                    f"{name} must be [lo, hi] with lo < hi, got {_shown(v)}")
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


# a config field's type -> (its JSON test, what a message says was expected, the
# conversion to the field's value)
_TYPES = {
    float: (_number, "a finite number", float),
    float | None: (_number, "a finite number", float),
    int: (_integer, "an integer", int),
    str: (lambda v: isinstance(v, str), "a string", str),
    bool: (lambda v: isinstance(v, bool), "a boolean", bool),
    tuple: (_is_pair, "[lo, hi] with lo < hi", lambda v: (float(v[0]), float(v[1]))),
}

_COUPLINGS = {"logistic": Logistic, "gaussian_cdf": GaussianCDF, "constant": Constant}


def _one_of(choices):
    return lambda v: v in choices, f"must be one of {sorted(choices)}, got {{!r}}"


# checks made as a key is read, so that the message names the key (most of
# them the configs make too, and would report at the section)
_CHECKS = {
    "$.mode": _one_of(MODES),
    "system.type": _one_of(_SYSTEMS),
    "coupling.type": _one_of(_COUPLINGS),
    "coupling.sigma": (lambda v: v > 0, "must be > 0"),
    "coupling.value": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "ensemble.mode": _one_of(("rejection", "quantile_1d", "fixed")),
    "integrator.method": _one_of(_METHODS),
    "output.field.quantity": _one_of(QUANTITIES),
    "output.field.plane": _one_of(PLANES),
    "output.field.nx": (lambda v: v >= 2, "grid must be at least 2x2"),
    "output.field.ny": (lambda v: v >= 2, "grid must be at least 2x2"),
}


def _read(v, path, kind):
    """The JSON value v at path as a field of type kind."""
    ok, name, value = _TYPES[kind]
    if not ok(v):
        raise ConfigurationError(f"expected {name}, got {_shown(v)}", path=path)
    v = value(v)
    check, message = _CHECKS.get(path, (None, None))
    if check and not check(v):
        raise ConfigurationError(message.format(v), path=path)
    return v


def _key(d, path, key, kind):
    if key not in d:
        raise ConfigurationError("required key missing", path=f"{path}.{key}")
    return _read(d[key], f"{path}.{key}", kind)


def _at(path, make, *args, **kw):
    """make(*args, **kw), a config's InvalidParameterError reported at path."""
    try:
        return make(*args, **kw)
    except InvalidParameterError as e:
        raise ConfigurationError(str(e), path=path) from e


def _section(d, path, cls, own=(), **defaults):
    """The config dataclass cls from the object d at path.

    Its fields are the allowed keys, with ``own``, the keys the caller reads
    itself.  A field present in d (and not in ``own``) is read by its type;
    any other takes its value from ``defaults``, then from cls.
    """
    d = _expect_obj(d, path)
    fields = dataclasses.fields(cls)
    _expect_keys(d, {f.name for f in fields}.union(own), path)
    kw = dict(defaults)
    for f in fields:
        required = f.name not in kw and f.default is dataclasses.MISSING
        if f.name not in own and (f.name in d or required):
            kw[f.name] = _key(d, path, f.name, f.type)
    return _at(path, cls, **kw)


def _build_coupling(d, mode):
    if d is None and mode == "transition":
        raise ConfigurationError("transition mode requires a coupling section", path="coupling")
    if d is None:
        sched = Constant(0.0)
    else:
        d = _expect_obj(d, "coupling")
        sched = _section(d, "coupling", _COUPLINGS[_key(d, "coupling", "type", str)], ("type",))
    if mode == "classical" and sched != Constant(0.0):
        raise ConfigurationError(
            "classical mode forces constant P=0; omit coupling or set it so",
            path="coupling",
        )
    return Constant(1.0) if mode == "guidance" else sched


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


def _build_ensemble(d, system) -> SamplerConfig:
    d = _expect_obj(d, "ensemble")
    kw = {"mode": "quantile_1d", "n": 50} if system.dim == 1 else {}
    own = ("domain", "positions", "velocities")  # read and checked by the sampler (_start)
    kw.update((key, d[key]) for key in own if d.get(key) is not None)
    if "positions" in kw:
        kw["n"] = len(_points(kw["positions"], "positions", system.dim))
    sampler = _section(d, "ensemble", SamplerConfig, own, **kw)
    _start(system, sampler)
    return sampler


def default_field_grid(system: WaveField) -> FieldGridConfig:
    """Sensible field-figure window per system; 1D y-axis is time."""
    if system.kind == "double_slit":
        return FieldGridConfig(quantity="Q", xlim=(-8.0, 8.0), ylim=(0.0, 2.5), nx=201, ny=161)
    if system.kind == "oscillator_2d":
        return FieldGridConfig(quantity="Q", xlim=(-3.0, 3.0), ylim=(-3.0, 3.0), nx=201, ny=201)
    return FieldGridConfig(quantity="Q", xlim=(-12.0, 12.0), ylim=(-12.0, 12.0),
                           nx=201, ny=201, plane="xy")


def _build_output(d, system, name) -> OutputConfig:
    d = _expect_obj(d, "output")
    kw = {"basename": name or "run"}
    if "formats" in d:
        formats = d["formats"]
        if not isinstance(formats, (list, tuple)) or not formats:
            raise ConfigurationError("expected a non-empty list", path="output.formats")
        for f in formats:
            if f not in FORMATS:
                raise ConfigurationError(f"must be one of {sorted(FORMATS)}, got {_shown(f)}",
                                         path="output.formats")
        kw["formats"] = tuple(formats)
    if "field" in d:
        kw["field"] = _section(d["field"], "output.field", FieldGridConfig,
                               **vars(default_field_grid(system)))
        if system.dim == 1:  # the y axis is time
            _at("output.field.ylim", system._check_t, kw["field"].ylim)
    return _section(d, "output", OutputConfig, ("formats", "field"), **kw)


def build_scenario(doc: dict, name: str = "") -> ScenarioConfig:
    """Validate a raw document and resolve it into a ScenarioConfig."""
    doc = _expect_obj(doc, "$")
    _expect_keys(doc, {f.name for f in dataclasses.fields(ScenarioConfig)}, "$")
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise ConfigurationError("expected a string", path="$.name")
    if "system" not in doc:
        raise ConfigurationError("required section missing", path="system")
    d = _expect_obj(doc["system"], "system")
    kind = _key(d, "system", "type", str)
    system = WaveField(kind, _section(d, "system", _SYSTEMS[kind], ("type",)))
    mode = _key(doc, "$", "mode", str)
    coupling = _build_coupling(doc.get("coupling"), mode)
    given = {k: {} if v is None else v for k, v in doc.items()}  # null takes the defaults
    ensemble = _build_ensemble(given.get("ensemble", {}), system)
    integrator = _section(given.get("integrator", {}), "integrator", IntegratorConfig,
                          **vars(_DEFAULT_INTEGRATOR[kind]))
    time = _section(given.get("time", {}), "time", TimeGrid, **vars(_DEFAULT_TIME[kind]))
    _at("time", system._check_t, time.start)
    return ScenarioConfig(system, coupling, mode, ensemble, integrator, time,
                          _section(given.get("numerics", {}), "numerics", StencilConfig),
                          _build_output(given.get("output", {}), system, name), name)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigurationError(f"document is not UTF-8: {e}", path="$") from e
    if not isinstance(text, str):
        raise ConfigurationError("expected a JSON document string", path="$")
    return build_scenario(_json_document(text))


def _json_document(text: str):
    """``json.loads(text)``, any failure a ConfigurationError at ``$``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}", path="$"
        ) from e
    except ValueError as e:  # an integer of more digits than int() converts
        raise ConfigurationError(f"invalid JSON: {e}", path="$") from e


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
        except ValueError:  # JSONDecodeError, or an integer too long to convert
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
