"""Scenario documents: defaults, validation paths, presets, overrides."""
import dataclasses
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qctrans as qt
from qctrans import scenario as scn
from qctrans.dynamics import _METHODS
from qctrans.presets import preset, preset_doc, preset_names
from qctrans.scenario import apply_overrides, build_scenario, parse_scenario

MINIMAL = {"system": {"type": "double_slit"}, "mode": "guidance"}


# --- defaults -------------------------------------------------------------

def test_minimal_double_slit_defaults():
    sc = build_scenario(MINIMAL)
    p = sc.system.params
    assert (p.rho0, p.u, p.X) == (0.625, -2.0, 2.5)
    assert sc.mode == "guidance"
    assert isinstance(sc.coupling, qt.Constant) and sc.coupling.value == 1.0
    assert (sc.time.start, sc.time.end, sc.time.n_outputs) == (0.0, 2.0, 41)
    assert sc.ensemble.mode == "quantile_1d" and sc.ensemble.n == 50
    assert sc.integrator.method == "rk45_adaptive"
    assert sc.numerics.h == 1e-4 and sc.numerics.richardson
    assert sc.output.directory == "out" and "csv" in sc.output.formats


def test_per_system_defaults():
    osc = build_scenario({"system": {"type": "oscillator_2d"}, "mode": "guidance"})
    assert osc.ensemble.mode == "rejection" and osc.ensemble.n == 100
    assert (osc.time.end, osc.time.n_outputs) == (35.0, 141)
    hyd = build_scenario({"system": {"type": "hydrogen"}, "mode": "guidance"})
    assert (hyd.time.end, hyd.time.n_outputs) == (2500.0, 1001)
    # the long Coulomb span gets a tighter default tolerance
    assert hyd.integrator.rtol == 1e-9


def test_classical_mode_defaults_to_zero_coupling():
    sc = build_scenario({"system": {"type": "hydrogen"}, "mode": "classical"})
    assert isinstance(sc.coupling, qt.Constant) and sc.coupling.value == 0.0


def test_guidance_normalizes_coupling_to_one():
    sc = build_scenario({
        "system": {"type": "double_slit"}, "mode": "guidance",
        "coupling": {"type": "logistic", "b": 15, "t0": 2},
    })
    assert isinstance(sc.coupling, qt.Constant) and sc.coupling.value == 1.0


def test_transition_builds_requested_schedule():
    sc = build_scenario({
        "system": {"type": "double_slit"}, "mode": "transition",
        "coupling": {"type": "gaussian_cdf", "mu": 1.0, "sigma": 0.25},
    })
    assert isinstance(sc.coupling, qt.GaussianCDF)
    assert qt.eval_lambda(sc.coupling, 1.0) == 0.5
    assert sc.annotation() == ("double_slit rho0=0.625 u=-2 X=2.5 | gaussian_cdf mu=1 sigma=0.25 | "
                               "mode=transition n=50 t=[0,2]")


# --- validation errors carry dotted paths -----------------------------------

def _config_error(doc):
    """The error of a document, or of a JSON text."""
    with pytest.raises(qt.ConfigurationError) as exc:
        (parse_scenario if isinstance(doc, str) else build_scenario)(doc)
    return exc.value


@pytest.mark.parametrize("doc,needle", [
    ({}, "system"),
    ({"system": {"type": "double_slit"}}, "mode"),
    ({"system": {"type": "ring"}, "mode": "guidance"}, "system.type"),
    ({"system": {"type": "double_slit", "foo": 1}, "mode": "guidance"}, "system.foo"),
    ({"system": {"type": "double_slit", "rho0": -1}, "mode": "guidance"}, "system"),
    ({"system": {"type": "hydrogen", "n": 2, "l": 2, "m": 0}, "mode": "guidance"}, "system"),
    (dict(MINIMAL, mode="transition"), "coupling"),
    (dict(MINIMAL, mode="transition",
          coupling={"type": "gaussian_cdf", "mu": 0, "sigma": -1}), "coupling.sigma"),
    (dict(MINIMAL, mode="transition",
          coupling={"type": "constant", "value": 1.5}), "coupling.value"),
    (dict(MINIMAL, mode="classical",
          coupling={"type": "constant", "value": 1.0}), "coupling"),
    (dict(MINIMAL, time={"start": 2.0, "end": 1.0}), "time"),
    (dict(MINIMAL, time={"n_outputs": 1}), "time"),
    (dict(MINIMAL, integrator={"rtol": 0.0}), "integrator"),
    (dict(MINIMAL, integrator={"method": "euler"}), "integrator.method"),
    (dict(MINIMAL, numerics={"h": -1e-4}), "numerics"),
    (dict(MINIMAL, ensemble={"mode": "rejection", "domain": [[0, 1], [0, 1]]}),
     "ensemble.domain"),
    (dict(MINIMAL, ensemble={"n": 0}), "ensemble"),
    (dict(MINIMAL, output={"formats": ["png"]}), "output.formats"),
    (dict(MINIMAL, output={"formats": []}), "output.formats"),
    (dict(MINIMAL, bogus=1), "$.bogus"),
    ({"system": {"type": "oscillator_2d"}, "mode": "guidance",
      "ensemble": {"mode": "quantile_1d"}}, "ensemble.mode"),
    (dict(MINIMAL, time={"start": True}), "time.start"),
    (dict(MINIMAL, time={"start": "0"}), "time.start"),
    (dict(MINIMAL, output={"field": {"quantity": "rho2"}}), "output.field.quantity"),
    (dict(MINIMAL, output={"field": {"nx": 1}}), "output.field.nx"),
    (dict(MINIMAL, output={"field": {"plane": "ab"}}), "output.field.plane"),
    (dict(MINIMAL, output={"field": {"xlim": [8, -8]}}), "output.field.xlim"),
    (dict(MINIMAL, output={"field": {"t": "nan"}}), "output.field.t"),
    # the double slit's time domain: its time grid and its field's time axis
    (dict(MINIMAL, time={"start": -1.0}), "time: double slit is defined for t >= 0"),
    (dict(MINIMAL, output={"field": {"ylim": [-1, 2]}}),
     "output.field.ylim: double slit is defined for t >= 0"),
    (dict(MINIMAL, output={"field": {"ny": 1}}), "output.field.ny"),
])
def test_validation_error_paths(doc, needle):
    err = _config_error(doc)
    assert needle in str(err)


OSC = {"system": {"type": "oscillator_2d"}, "mode": "guidance"}


def _with(**sections):
    return dict(MINIMAL, **sections)


def _trans(coupling):
    return dict(MINIMAL, mode="transition", coupling=coupling)


# One fault per document, each section's unknown key, wrong JSON type, value
# its config rejects and missing required key, with the full message.
_BAD_DOCUMENTS = [
    # the document itself
    ([], '$: expected an object, got list'),
    (_with(bogus=1),
     "$.bogus: unknown key (allowed: ['coupling', 'ensemble', 'integrator', 'mode', "
     "'name', 'numerics', 'output', 'system', 'time'])"),
    (_with(name=3), '$.name: expected a string'),
    ({"system": {"type": "double_slit"}}, '$.mode: required key missing'),
    (_with(mode=3), '$.mode: expected a string, got 3'),
    (_with(mode="quantum"),
     "$.mode: must be one of ['classical', 'guidance', 'transition'], got 'quantum'"),
    # system
    ({"mode": "guidance"}, 'system: required section missing'),
    ({"system": [1], "mode": "guidance"}, 'system: expected an object, got list'),
    ({"system": {}, "mode": "guidance"}, 'system.type: required key missing'),
    ({"system": {"type": 5}, "mode": "guidance"}, 'system.type: expected a string, got 5'),
    ({"system": {"type": "ring"}, "mode": "guidance"},
     "system.type: must be one of ['double_slit', 'hydrogen', 'oscillator_2d'], got 'ring'"),
    ({"system": {"type": "double_slit", "k0": 1}, "mode": "guidance"},
     "system.k0: unknown key (allowed: ['X', 'rho0', 'type', 'u'])"),
    ({"system": {"type": "double_slit", "rho0": "1"}, "mode": "guidance"},
     "system.rho0: expected a finite number, got '1'"),
    ({"system": {"type": "double_slit", "rho0": -1}, "mode": "guidance"},
     'system: rho0 must be > 0, got -1.0'),
    ({"system": {"type": "oscillator_2d", "n": 2}, "mode": "guidance"},
     "system.n: unknown key (allowed: ['alpha', 'k0', 'type'])"),
    ({"system": {"type": "oscillator_2d", "alpha": True}, "mode": "guidance"},
     'system.alpha: expected a finite number, got True'),
    ({"system": {"type": "oscillator_2d", "k0": 0}, "mode": "guidance"},
     'system: k0 must be > 0, got 0.0'),
    ({"system": {"type": "hydrogen", "k0": 1}, "mode": "guidance"},
     "system.k0: unknown key (allowed: ['l', 'm', 'n', 'type'])"),
    ({"system": {"type": "hydrogen", "n": 2.0}, "mode": "guidance"},
     'system.n: expected an integer, got 2.0'),
    ({"system": {"type": "hydrogen", "n": 2, "l": 2}, "mode": "guidance"},
     'system: l must satisfy 0 <= l < n, got l=2, n=2'),
    ({"system": {"type": "hydrogen", "m": -2}, "mode": "guidance"},
     'system: |m| must be <= l, got m=-2, l=1'),
    # coupling
    (dict(MINIMAL, mode="transition"), 'coupling: transition mode requires a coupling section'),
    (_trans("logistic"), 'coupling: expected an object, got str'),
    (_trans({"b": 1, "t0": 0}), 'coupling.type: required key missing'),
    (_trans({"type": 1}), 'coupling.type: expected a string, got 1'),
    (_trans({"type": "ramp"}),
     "coupling.type: must be one of ['constant', 'gaussian_cdf', 'logistic'], got 'ramp'"),
    (_trans({"type": "logistic", "b": 1, "t0": 0, "sigma": 1}),
     "coupling.sigma: unknown key (allowed: ['b', 't0', 'type'])"),
    (_trans({"type": "logistic", "b": "fast", "t0": 0}),
     "coupling.b: expected a finite number, got 'fast'"),
    (_trans({"type": "logistic", "b": math.inf, "t0": 0}),
     'coupling.b: expected a finite number, got inf'),
    (_trans({"type": "logistic", "b": 1}), 'coupling.t0: required key missing'),
    (_trans({"type": "logistic", "t0": 0}), 'coupling.b: required key missing'),
    (_trans({"type": "gaussian_cdf", "mu": 0, "sigma": -1}), 'coupling.sigma: must be > 0'),
    (_trans({"type": "gaussian_cdf", "mu": 0}), 'coupling.sigma: required key missing'),
    (_trans({"type": "gaussian_cdf", "sigma": 1}), 'coupling.mu: required key missing'),
    (_trans({"type": "gaussian_cdf", "mu": None, "sigma": 1}),
     'coupling.mu: expected a finite number, got None'),
    (_trans({"type": "constant", "value": 1.5}), 'coupling.value: must lie in [0, 1]'),
    (_trans({"type": "constant", "value": "1"}),
     "coupling.value: expected a finite number, got '1'"),
    (_trans({"type": "constant"}), 'coupling.value: required key missing'),
    (_trans({"type": "constant", "value": 1, "b": 2}),
     "coupling.b: unknown key (allowed: ['type', 'value'])"),
    (dict(MINIMAL, mode="classical", coupling={"type": "constant", "value": 1.0}),
     'coupling: classical mode forces constant P=0; omit coupling or set it so'),
    # ensemble
    (_with(ensemble=[]), 'ensemble: expected an object, got list'),
    (_with(ensemble={"count": 5}),
     "ensemble.count: unknown key (allowed: ['domain', 'envelope', 'envelope_margin', "
     "'mode', 'n', 'positions', 'seed', 'velocities'])"),
    (_with(ensemble={"n": "5"}), "ensemble.n: expected an integer, got '5'"),
    (_with(ensemble={"n": 0}), 'ensemble: n must be a positive int, got 0'),
    (_with(ensemble={"mode": "grid"}),
     "ensemble.mode: must be one of ['fixed', 'quantile_1d', 'rejection'], got 'grid'"),
    (dict(OSC, ensemble={"mode": "quantile_1d"}),
     'ensemble.mode: quantile_1d requires a 1D system'),
    (_with(ensemble={"seed": -1}), 'ensemble: seed must be a non-negative int, got -1'),
    (_with(ensemble={"seed": 1.5}), 'ensemble.seed: expected an integer, got 1.5'),
    (_with(ensemble={"envelope_margin": 0.5}),
     'ensemble: envelope_margin must be a finite real >= 1, got 0.5'),
    (_with(ensemble={"envelope": "x"}), "ensemble.envelope: expected a finite number, got 'x'"),
    (_with(ensemble={"envelope": -1}),
     'ensemble: envelope must be None or a finite real > 0, got -1.0'),
    (_with(ensemble={"domain": 5}), 'ensemble.domain: expected a list of [lo, hi] pairs'),
    (_with(ensemble={"domain": [[1, 0]]}),
     'ensemble.domain[0]: expected [lo, hi] with lo < hi, got [1, 0]'),
    (_with(ensemble={"domain": [[0, 1], [0, 1]]}),
     'ensemble.domain: domain has 2 dimensions, system has 1'),
    (_with(ensemble={"mode": "fixed", "positions": "abc"}),
     "ensemble.positions: bad positions array: could not convert string to float: 'abc'"),
    (_with(ensemble={"mode": "fixed", "positions": [[math.nan]]}),
     'ensemble.positions: positions must be finite'),
    (_with(ensemble={"mode": "fixed", "positions": [[0.0]], "velocities": [["a"]]}),
     "ensemble.velocities: bad velocities array: could not convert string to float: 'a'"),
    (_with(ensemble={"mode": "fixed"}), 'ensemble: fixed sampler mode requires positions'),
    # integrator
    (_with(integrator=3), 'integrator: expected an object, got int'),
    (_with(integrator={"order": 4}),
     "integrator.order: unknown key (allowed: ['atol', 'dt', 'max_steps', 'method', 'rtol'])"),
    (_with(integrator={"dt": "0.1"}), "integrator.dt: expected a finite number, got '0.1'"),
    (_with(integrator={"rtol": 0}), 'integrator: rtol must be > 0, got 0.0'),
    (_with(integrator={"method": "euler"}),
     "integrator.method: must be one of ['rk45_adaptive', 'rk4_fixed'], got 'euler'"),
    (_with(integrator={"method": 4}), 'integrator.method: expected a string, got 4'),
    (_with(integrator={"max_steps": 1.5}), 'integrator.max_steps: expected an integer, got 1.5'),
    (_with(integrator={"max_steps": 0}), 'integrator: max_steps must be a positive int, got 0'),
    # time
    (_with(time="0-2"), 'time: expected an object, got str'),
    (_with(time={"stop": 1}), "time.stop: unknown key (allowed: ['end', 'n_outputs', 'start'])"),
    (_with(time={"start": "0"}), "time.start: expected a finite number, got '0'"),
    (_with(time={"start": True}), 'time.start: expected a finite number, got True'),
    (_with(time={"start": 2, "end": 1}), 'time: need end > start, got [2.0, 1.0]'),
    (_with(time={"n_outputs": 1}), 'time: n_outputs must be an int >= 2, got 1'),
    (_with(time={"n_outputs": 2.0}), 'time.n_outputs: expected an integer, got 2.0'),
    (_with(time={"start": -1}), 'time: double slit is defined for t >= 0 only'),
    # numerics
    (_with(numerics=[]), 'numerics: expected an object, got list'),
    (_with(numerics={"step": 1e-4}),
     "numerics.step: unknown key (allowed: ['h', 'min_rho', 'richardson'])"),
    (_with(numerics={"h": -1e-4}), 'numerics: stencil h must be > 0, got -0.0001'),
    (_with(numerics={"richardson": 1}), 'numerics.richardson: expected a boolean, got 1'),
    (_with(numerics={"min_rho": "0"}), "numerics.min_rho: expected a finite number, got '0'"),
    (_with(numerics={"min_rho": -1}), 'numerics: min_rho must be >= 0, got -1.0'),
    # output
    (_with(output="out"), 'output: expected an object, got str'),
    (_with(output={"dir": "x"}),
     "output.dir: unknown key (allowed: ['basename', 'directory', 'field', 'formats'])"),
    (_with(output={"formats": "csv"}), 'output.formats: expected a non-empty list'),
    (_with(output={"formats": []}), 'output.formats: expected a non-empty list'),
    (_with(output={"formats": ["png"]}),
     "output.formats: must be one of ['csv', 'json', 'svg'], got 'png'"),
    (_with(output={"formats": ["csv", 1]}),
     "output.formats: must be one of ['csv', 'json', 'svg'], got 1"),
    (_with(output={"directory": 3}), 'output.directory: expected a string, got 3'),
    (_with(output={"basename": None}), 'output.basename: expected a string, got None'),
    # output.field
    (_with(output={"field": None}), 'output.field: expected an object, got NoneType'),
    (_with(output={"field": {"n": 3}}),
     "output.field.n: unknown key (allowed: ['nx', 'ny', 'offset', 'plane', 'quantity', "
     "'t', 'xlim', 'ylim'])"),
    (_with(output={"field": {"quantity": "rho2"}}),
     "output.field.quantity: must be one of ['Q', 'S', 'rho'], got 'rho2'"),
    (_with(output={"field": {"quantity": 1}}), 'output.field.quantity: expected a string, got 1'),
    (_with(output={"field": {"nx": 1}}), 'output.field.nx: grid must be at least 2x2'),
    (_with(output={"field": {"ny": 1}}), 'output.field.ny: grid must be at least 2x2'),
    (_with(output={"field": {"nx": 2.5}}), 'output.field.nx: expected an integer, got 2.5'),
    (_with(output={"field": {"xlim": [8, -8]}}),
     'output.field.xlim: expected [lo, hi] with lo < hi, got [8, -8]'),
    (_with(output={"field": {"xlim": 8}}),
     'output.field.xlim: expected [lo, hi] with lo < hi, got 8'),
    (_with(output={"field": {"ylim": [-1, 2]}}),
     'output.field.ylim: double slit is defined for t >= 0 only'),
    (_with(output={"field": {"t": "nan"}}), "output.field.t: expected a finite number, got 'nan'"),
    (_with(output={"field": {"plane": "ab"}}),
     "output.field.plane: must be one of ['xy', 'xz', 'yz'], got 'ab'"),
    (_with(output={"field": {"offset": True}}),
     'output.field.offset: expected a finite number, got True'),
    # an int beyond the float range, and a JSON integer of more digits than
    # int() converts
    ({"system": {"type": "double_slit", "rho0": 10**400}, "mode": "guidance"},
     f'system.rho0: expected a finite number, got {10**400}'),
    (_with(output={"field": {"xlim": [0, 10**400]}}),
     f'output.field.xlim: expected [lo, hi] with lo < hi, got [0, {10**400}]'),
    (_with(ensemble={"mode": "fixed", "positions": [[10**400]]}),
     'ensemble.positions: bad positions array: int too large to convert to float'),
    pytest.param(
        '{"system": {"type": "double_slit", "rho0": 1' + "0" * 4300 + '}, "mode": "guidance"}',
        '$: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: '
        'value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit',
        id="json-integer-of-4301-digits"),
    # explicit starts outside the fixed mode would only set n
    (dict(OSC, ensemble={"mode": "rejection", "positions": [[1, 0], [0, 2]]}),
     "ensemble.positions: only the fixed mode takes positions, mode is 'rejection'"),
    (dict(OSC, ensemble={"velocities": [[1, 0]]}),
     "ensemble.velocities: only the fixed mode takes velocities, mode is 'rejection'"),
    (_with(ensemble={"positions": [[0.5]], "velocities": [[0.0]]}),
     "ensemble.positions: only the fixed mode takes positions, mode is 'quantile_1d'"),
    # an int beyond the float range is neither a number nor an integer in any
    # section; one of more digits than repr converts (which only a dict
    # document can hold) is quoted by its type
    ({"system": {"type": "hydrogen", "n": 10**400, "l": 0, "m": 0}, "mode": "guidance"},
     f'system.n: expected an integer, got {10**400}'),
    ({"system": {"type": "double_slit", "rho0": 10**5000}, "mode": "guidance"},
     'system.rho0: expected a finite number, got <int too long to print>'),
    (_trans({"type": "logistic", "b": 10**5000, "t0": 0}),
     'coupling.b: expected a finite number, got <int too long to print>'),
    (_with(ensemble={"seed": 10**400}), f'ensemble.seed: expected an integer, got {10**400}'),
    (_with(ensemble={"n": 10**400}), f'ensemble.n: expected an integer, got {10**400}'),
    (_with(ensemble={"domain": [[0, 10**5000]]}),
     'ensemble.domain[0]: expected [lo, hi] with lo < hi, got <list too long to print>'),
    (_with(integrator={"max_steps": 10**400}),
     f'integrator.max_steps: expected an integer, got {10**400}'),
    (_with(time={"n_outputs": -10**5000}),
     'time.n_outputs: expected an integer, got <int too long to print>'),
    (_with(numerics={"min_rho": 10**5000}),
     'numerics.min_rho: expected a finite number, got <int too long to print>'),
    (_with(output={"formats": ["csv", 10**5000]}),
     "output.formats: must be one of ['csv', 'json', 'svg'], got <int too long to print>"),
    (_with(output={"field": {"nx": 10**400}}),
     f'output.field.nx: expected an integer, got {10**400}'),
]


@pytest.mark.parametrize("doc,message", _BAD_DOCUMENTS)
def test_validation_messages(doc, message):
    before = pickle.dumps(doc)  # repr raises on an int of more than 4300 digits
    assert str(_config_error(doc)) == message
    assert pickle.dumps(doc) == before


def test_stationary_systems_accept_negative_times():
    for kind in ("oscillator_2d", "hydrogen"):
        sc = build_scenario({"system": {"type": kind}, "mode": "guidance",
                             "time": {"start": -1.0, "end": 1.0},
                             "output": {"field": {"ylim": [-3, 3]}}})
        assert sc.time.start == -1.0 and sc.output.field.ylim == (-3.0, 3.0)


# the public config dataclasses reject what the documents above reject
@pytest.mark.parametrize("make", [
    lambda: qt.FieldGridConfig(quantity="rho2"),
    lambda: qt.FieldGridConfig(nx=1),
    lambda: qt.FieldGridConfig(ny=True),
    lambda: qt.FieldGridConfig(plane="ab"),
    lambda: qt.FieldGridConfig(xlim=(8.0, -8.0)),
    lambda: qt.FieldGridConfig(ylim=(0.0, math.inf)),
    lambda: qt.FieldGridConfig(t=math.nan),
    lambda: qt.FieldGridConfig(offset=math.inf),
    lambda: qt.TimeGrid(start=True, end=2.0),
    lambda: qt.TimeGrid(start="0"),
])
def test_config_dataclass_validation(make):
    with pytest.raises(qt.InvalidParameterError):
        make()


# one number rule: each public config's number and integer fields, with the
# arguments a class needs besides
_CONFIGS = {
    qt.DoubleSlitParams: {}, qt.Oscillator2DParams: {}, qt.HydrogenParams: {},
    qt.Logistic: {"b": 1.0, "t0": 0.0}, qt.GaussianCDF: {"mu": 0.0, "sigma": 1.0},
    qt.Constant: {"value": 0.5}, qt.StencilConfig: {}, qt.IntegratorConfig: {},
    qt.SamplerConfig: {}, qt.TimeGrid: {}, qt.FieldGridConfig: {},
}
_NUMBER_FIELDS = [(cls, f) for cls in _CONFIGS for f in dataclasses.fields(cls)
                  if f.type in (float, int, float | None)]


def test_every_public_config_has_number_fields():
    assert {cls for cls, _ in _NUMBER_FIELDS} == set(_CONFIGS)


@pytest.mark.parametrize("cls,field", _NUMBER_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in _NUMBER_FIELDS])
def test_one_number_rule_across_the_public_configs(cls, field):
    args = _CONFIGS[cls]
    for bad in (True, math.nan, math.inf, 10**400, -10**5000):
        with pytest.raises(qt.InvalidParameterError):
            cls(**{**args, field.name: bad})
    valid = args.get(field.name, field.default)
    valid = 2.0 if valid is None else valid  # SamplerConfig.envelope
    for scalar in (np.int64, np.int32) if field.type is int else (np.float64, np.float32):
        cls(**{**args, field.name: scalar(valid)})


def test_json_error_names_line_and_column():
    with pytest.raises(qt.ConfigurationError) as exc:
        parse_scenario('{"system": {"type": "double_slit",}\n "mode": "guidance"}')
    assert "invalid JSON at line" in str(exc.value)
    assert "column" in str(exc.value)


def test_parse_scenario_round_trip():
    sc = parse_scenario(json.dumps(MINIMAL))
    assert sc.system.kind == "double_slit"


def test_parse_scenario_reads_utf8_bytes_and_rejects_other_input():
    doc = dict(MINIMAL, name="ψ²")
    assert parse_scenario(json.dumps(doc, ensure_ascii=False).encode("utf-8")).name == "ψ²"
    with pytest.raises(qt.ConfigurationError, match=r"^\$: document is not UTF-8: 'utf-8' codec"):
        parse_scenario(b'{"name": "\xff"}')
    with pytest.raises(qt.ConfigurationError) as exc:
        parse_scenario(MINIMAL)
    assert str(exc.value) == "$: expected a JSON document string"


def test_fixed_positions_infer_n():
    sc = build_scenario({
        "system": {"type": "oscillator_2d"}, "mode": "guidance",
        "ensemble": {"mode": "fixed", "positions": [[1.0, 0.0], [0.0, 2.0]]},
    })
    assert sc.ensemble.n == 2


def test_null_sampler_arrays_read_as_left_out():
    doc = {"system": {"type": "oscillator_2d"}, "mode": "guidance",
           "ensemble": {"domain": None, "positions": None, "velocities": None}}
    assert build_scenario(doc).ensemble == build_scenario(dict(doc, ensemble={})).ensemble


# --- annotations ------------------------------------------------------------

_EXPECTED_ANNOTATIONS = {
    "fig1_quantum": "double_slit rho0=0.625 u=-2 X=2.5 | logistic b=15 t0=2 | "
                    "mode=transition n=50 t=[0,2]",
    "fig1_classical": "double_slit rho0=0.625 u=-2 X=2.5 | logistic b=40 t0=0 | "
                      "mode=transition n=50 t=[0,2]",
    "fig1_meso_a": "double_slit rho0=0.625 u=-2 X=2.5 | logistic b=0.5 t0=2 | "
                   "mode=transition n=50 t=[0,2]",
    "fig3_quantum": "oscillator_2d k0=1 alpha=1.570796327 | logistic b=1 t0=200 | "
                    "mode=transition n=4 t=[0,35]",
    "fig3_classical": "oscillator_2d k0=1 alpha=1.570796327 | logistic b=37 t0=0 | "
                      "mode=transition n=4 t=[0,35]",
    "fig3_meso_a": "oscillator_2d k0=1 alpha=1.570796327 | logistic b=16 t0=10 | "
                   "mode=transition n=4 t=[0,35]",
    "fig3_meso_b": "oscillator_2d k0=1 alpha=1.570796327 | logistic b=0.5 t0=4 | "
                   "mode=transition n=4 t=[0,35]",
    "fig4": "double_slit rho0=0.625 u=-2 X=2.5 | constant P=1 | "
            "mode=guidance n=9 t=[0,2.5]",
    "fig5": "oscillator_2d k0=1 alpha=1.570796327 | constant P=1 | "
            "mode=guidance n=4 t=[0,6.283185307]",
    "fig6": "hydrogen n=2 l=1 m=1 | constant P=0 | mode=classical n=3 t=[0,2500]",
    "fig7": "hydrogen n=2 l=1 m=1 | constant P=1 | mode=guidance n=3 t=[0,2500]",
    "fig8": "hydrogen n=2 l=1 m=1 | logistic b=0.014 t0=1250 | "
            "mode=transition n=3 t=[0,2500]",
}


def test_preset_names_cover_expected_set():
    names = preset_names()
    assert set(_EXPECTED_ANNOTATIONS) <= set(names)
    assert {"fig1", "fig3"} <= set(names)


@pytest.mark.parametrize("name", sorted(_EXPECTED_ANNOTATIONS))
def test_preset_annotations(name):
    assert preset(name).annotation() == _EXPECTED_ANNOTATIONS[name]


def test_preset_aliases():
    assert preset("fig1").annotation() == preset("fig1_quantum").annotation()
    assert preset("fig3").annotation() == preset("fig3_quantum").annotation()


def test_unknown_preset():
    with pytest.raises(qt.ConfigurationError):
        preset_doc("fig999")


def test_preset_docs_are_valid_scenarios():
    for name in preset_names():
        sc = build_scenario(preset_doc(name), name)
        assert sc.name == name or sc.name == ""


def test_build_scenario_leaves_the_document_unchanged():
    for name in preset_names():
        doc = preset_doc(name)
        before = json.dumps(doc, sort_keys=True)
        build_scenario(doc, name)
        assert json.dumps(doc, sort_keys=True) == before


def test_readme_example_document_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario documents", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    sc = build_scenario(json.loads(block))
    assert sc.system.kind == "double_slit" and sc.mode == "transition"
    assert sc.output.field == qt.FieldGridConfig(quantity="Q", xlim=(-8.0, 8.0),
                                                 ylim=(0.0, 2.0), nx=161, ny=81)


# --- overrides --------------------------------------------------------------

def test_apply_overrides_updates_and_extends():
    doc = apply_overrides(preset_doc("fig1_quantum"),
                          ["coupling.b=40", "coupling.t0=0", "ensemble.n=10"])
    sc = build_scenario(doc)
    assert sc.coupling.b == 40.0 and sc.coupling.t0 == 0.0
    assert sc.ensemble.n == 10


def test_apply_overrides_creates_sections_and_keeps_strings():
    doc = apply_overrides(dict(MINIMAL), ["output.basename=alt", "numerics.h=1e-5"])
    sc = build_scenario(doc)
    assert sc.output.basename == "alt"
    assert sc.numerics.h == 1e-5


def test_apply_overrides_does_not_mutate_input():
    base = preset_doc("fig1_quantum")
    snapshot = json.dumps(base, sort_keys=True)
    apply_overrides(base, ["coupling.b=99"])
    assert json.dumps(base, sort_keys=True) == snapshot


def test_apply_overrides_rejects_malformed():
    with pytest.raises(qt.ConfigurationError):
        apply_overrides(dict(MINIMAL), ["coupling.b"])
    with pytest.raises(qt.ConfigurationError):
        apply_overrides(dict(MINIMAL), ["=3"])


# --- totality ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.text(max_size=80))
def test_parse_scenario_total_on_text(text):
    try:
        parse_scenario(text)
    except qt.ConfigurationError:
        pass


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["system", "coupling", "mode", "ensemble", "integrator",
                     "time", "numerics", "output", "name", "junk"]),
    _json_values, max_size=4,
))
def test_build_scenario_total_on_documents(doc):
    try:
        build_scenario(doc)
    except qt.ConfigurationError:
        pass


# documents built from the tables the section reader reads: each section's
# dataclass fields, with the systems and couplings by their type; a field
# holds its default and now and then a value of the wrong JSON type, an int
# beyond the float range or a number out of range, read by type (_TYPES)
_HUGE = st.sampled_from([10**400, -(10**400), 10**300, 2**63])
_NUMS = (st.integers(-3, 300) | st.floats(-50, 50)
         | st.sampled_from([0, 0.5, 1, 1.5, 2, -1e-4, 1e-4, 1e-12]))
_WRONG = (st.none() | st.booleans() | st.text(max_size=3) | st.just([]) | st.just({})
          | st.sampled_from([math.nan, math.inf]))
_WORDS = st.sampled_from(sorted({*scn.MODES, *scn.QUANTITIES, *scn.PLANES, *scn.FORMATS,
                                 *_METHODS, "rejection", "quantile_1d", "fixed"}))
_PAIRS = st.lists(_NUMS | _HUGE, min_size=2, max_size=2)
_POINTS = st.lists(st.lists(_NUMS | _HUGE, min_size=1, max_size=3), min_size=1, max_size=3)
_BY_TYPE = {
    float: _NUMS | _HUGE | _WRONG,
    float | None: _NUMS | _HUGE | _WRONG,
    int: _NUMS | _HUGE | _WRONG,
    str: _WORDS | _WRONG,
    bool: _WRONG,
    tuple: _PAIRS | _WRONG,
}
_RARE = st.integers(0, 15).map(lambda k: k == 7)  # not 0, which hypothesis favours


@st.composite
def _section(draw, cls, **good):
    """Some of cls's fields, each with its default (or a value drawn from
    ``good``), rarely a mutated value instead; rarely an unknown key."""
    d = {}
    for f in dataclasses.fields(cls):
        if (f.default is None and f.name not in good) or not draw(st.booleans()):
            continue
        if draw(_RARE):
            d[f.name] = draw(_BY_TYPE.get(f.type, _WRONG))
        elif f.name in good:
            d[f.name] = draw(good[f.name])
        else:
            d[f.name] = f.default if f.default is not dataclasses.MISSING else 0.5
    if draw(_RARE):
        d["bogus"] = 1
    return d


def _typed(table):
    return st.sampled_from(sorted(table)).flatmap(
        lambda kind: _section(table[kind]).map(lambda d: {"type": kind, **d}))


_SECTIONS = {
    "coupling": _typed(scn._COUPLINGS),
    "ensemble": _section(qt.SamplerConfig, domain=st.lists(_PAIRS, max_size=3),
                         positions=_POINTS, velocities=_POINTS),
    "integrator": _section(qt.IntegratorConfig),
    "time": _section(qt.TimeGrid),
    "numerics": _section(qt.StencilConfig),
    "output": _section(scn.OutputConfig, field=_section(qt.FieldGridConfig)),
    "name": st.text(max_size=3),
}


@st.composite
def _documents(draw):
    """A system, a mode and some other sections; rarely one of them (or an
    unknown key) set to a value of the wrong JSON type."""
    doc = {"system": draw(_typed(scn._SYSTEMS)), "mode": draw(st.sampled_from(scn.MODES))}
    for key, section in _SECTIONS.items():
        if draw(st.booleans()):
            doc[key] = draw(section)
    if draw(_RARE):
        doc[draw(st.sampled_from([*doc, "bogus"]))] = draw(_WRONG | _WORDS)
    return doc


def test_document_tables_cover_every_type_and_checked_path():
    assert set(_BY_TYPE) == set(scn._TYPES)
    paths = {"$.mode", "system.type", "coupling.type", "output.formats"}
    for section, classes in (("system", scn._SYSTEMS.values()),
                             ("coupling", scn._COUPLINGS.values()),
                             ("ensemble", [qt.SamplerConfig]),
                             ("integrator", [qt.IntegratorConfig]),
                             ("output.field", [qt.FieldGridConfig])):
        paths |= {f"{section}.{f.name}" for cls in classes for f in dataclasses.fields(cls)}
    assert set(scn._CHECKS) <= paths


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_documents())
@example({"system": {"type": "hydrogen", "n": 10**400, "l": 0, "m": 0}, "mode": "guidance"})
@example({"system": {"type": "hydrogen", "n": 10**300, "l": 0, "m": 0}, "mode": "guidance"})
@example({"system": {"type": "hydrogen", "n": 10**20, "l": 10**19, "m": 0}, "mode": "guidance",
          "ensemble": {"n": 2}})
@example({"system": {"type": "hydrogen", "n": 10**200, "l": 0, "m": 0}, "mode": "guidance",
          "ensemble": {"n": 2}})
@example({"system": {"type": "hydrogen", "n": 90, "l": 89, "m": 89}, "mode": "guidance",
          "ensemble": {"n": 2}})
@example({"system": {"type": "hydrogen", "n": 10**308, "l": 10**308 - 1, "m": 0},
          "mode": "guidance", "ensemble": {"n": 2}})
@example({"system": {"type": "double_slit", "rho0": 10**400}, "mode": "guidance"})
@example(_trans({"type": "logistic", "b": 10**400, "t0": 0}))
@example(_with(ensemble={"seed": 10**400, "domain": [[0, 10**400]]}))
@example(_with(integrator={"max_steps": 10**400}))
@example(_with(time={"n_outputs": 10**400}))
@example(_with(numerics={"h": 10**400}))
@example(_with(output={"field": {"nx": 10**400}}))
def test_documents_from_the_section_tables_fail_only_as_configuration_errors(doc):
    for read, arg in ((build_scenario, doc), (parse_scenario, json.dumps(doc))):
        try:
            read(arg)
        except qt.ConfigurationError:
            pass
