"""The closed forms of ``qctrans.kernels``, shared by the scalar kernel and
the ensemble engine.

One source serves both: the kernel calls each form on floats, the engine
(``dynamics._batch_rhs``) on numpy arrays.  The contract checked here:

* an array call gives, point by point, the bits of the float calls, and
  the same guard flag (the singular-set quantity below ``_TINY``);
* a float call never raises, also on the singular sets (the origin, the z
  axis, the oscillator node), and returns Python floats: plain-Python
  arithmetic on numpy scalars is several times slower;
* the forms keep the bits that every output of the oscillator and hydrogen
  routes is computed with (pinned digests over fixed points).
"""
import hashlib
import math
import struct

import numpy as np
import pytest

import qctrans as qt
from qctrans import kernels
from qctrans.dynamics import _array

# (form, leading parameters, coordinates it takes, whether it takes a sqrt)
_CASES = [
    ("oscillator_velocity", (math.pi / 2,), 2, False),
    ("oscillator_velocity", (0.8,), 2, False),
    ("oscillator_velocity", (0.0,), 2, False),
    ("oscillator_grad_qpot", (1.0, math.pi / 2), 2, False),
    ("oscillator_grad_qpot", (1.5, 0.8), 2, False),
    ("oscillator_grad_qpot", (1.0, 0.0), 2, False),
    ("hydrogen_velocity", (1.0,), 2, False),
    ("hydrogen_velocity", (-2.0,), 2, False),
    ("hydrogen_velocity", (0.0,), 2, False),
    ("hydrogen_m2_term", (1.0,), 2, False),
    ("hydrogen_m2_term", (-2.0,), 2, False),
    ("hydrogen_m2_term", (0.0,), 2, False),
    ("coulomb_grad", (), 3, True),
]


def _far(dim):
    return np.random.default_rng(2016).normal(size=(48, dim)) * 2.0


def _near(dim):
    """Points on both sides of every guard, and exact zeros: the origin, the
    axes (the z axis in 3D), and the node line x = -y of alpha = 0."""
    pts = []
    # g, s^2 < _TINY near 1e-140; g^3, s^4 near 1e-93 and 1e-70; r^3 near 1e-94
    for scale in (1e-140, 1e-93, 1e-70, 3e-94, 1e-47, 2.2e-47):
        for f in (0.5, 1.0, 2.0):
            a = scale * f
            pts += [[a, 0.0, 1.0], [0.0, -a, -2.0], [a, a, 0.0], [-a, 0.7 * a, a]]
    pts += [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [-0.0, 0.0, -1.5], [1.0, -1.0, 0.0],
            [1.5, 0.0, 0.0], [0.0, 0.25, 0.0]]
    return np.array(pts)[:, :dim]


def _bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("name,params,dim,takes_sqrt", _CASES)
def test_array_call_equals_float_calls_bit_for_bit(name, params, dim, takes_sqrt):
    form = getattr(kernels, name)
    pts = np.concatenate([_far(dim), _near(dim)])
    extra_np = (np.sqrt,) if takes_sqrt else ()
    extra_f = (kernels._sqrt,) if takes_sqrt else ()
    with np.errstate(divide="raise", invalid="raise"):
        cols = _array(form)(*params, *pts.T, *extra_np)
    cols = [np.broadcast_to(c, pts.shape[:1]) for c in cols]
    for i, p in enumerate(pts.tolist()):
        guarded, *vals = form(*params, *p, *extra_f)
        assert len(vals) == len(cols) - 1
        assert type(guarded) is bool and guarded == cols[0][i], (name, params, p)
        for k, v in enumerate(vals, 1):
            assert type(v) is float, (name, p, k, type(v))
            assert math.isfinite(v), (name, p, k, v)
            assert _bits(v) == _bits(float(cols[k][i])), (name, params, p, k)


# the power of |x| in each form's singular-set quantity (g, g^3, s^2, s^4, r^3)
_POWER = {"oscillator_velocity": 2, "oscillator_grad_qpot": 6, "hydrogen_velocity": 2,
          "hydrogen_m2_term": 4, "coulomb_grad": 3}


@pytest.mark.parametrize("name,params,dim,takes_sqrt", _CASES)
def test_guards_sit_at_tiny_and_catch_exact_zeros(name, params, dim, takes_sqrt):
    form = getattr(kernels, name)
    extra = (kernels._sqrt,) if takes_sqrt else ()
    m_free = name.startswith("hydrogen") and params == (0.0,)  # guarded nowhere
    edge = kernels._TINY ** (1.0 / _POWER[name])  # on the x axis, q = |x|^power
    for a, below in ((0.5 * edge, True), (2.0 * edge, False)):
        assert form(*params, a, *([0.0] * (dim - 1)), *extra)[0] is (below and not m_free)
    assert form(*params, *([0.0] * dim), *extra)[0] is not m_free
    if name.startswith("hydrogen"):
        assert form(*params, 0.0, -0.0)[0] is not m_free  # the z axis
    if name.startswith("oscillator") and params[-1] == 0.0:
        assert form(*params, 1.0, -1.0)[0] is True  # the node line of alpha = 0


# sha256 prefixes of the values over _far: the bits every published output
# of the closed-form routes was computed with
_PINNED = {
    ("oscillator_velocity", (math.pi / 2,)): "31228591368f07df",
    ("oscillator_velocity", (0.8,)): "851e32145a4b261c",
    ("oscillator_velocity", (0.0,)): "fbb72ed5b4ddb19e",
    ("oscillator_grad_qpot", (1.0, math.pi / 2)): "a2df33761adb41a5",
    ("oscillator_grad_qpot", (1.5, 0.8)): "faf4e01f80748cf1",
    ("oscillator_grad_qpot", (1.0, 0.0)): "248d183b67d09448",
    ("hydrogen_velocity", (1.0,)): "d19ba1ddccbca8d3",
    ("hydrogen_velocity", (-2.0,)): "e0c3caabfa8d702f",
    ("hydrogen_velocity", (0.0,)): "ef115a0e0c15cdc4",
    ("hydrogen_grad_qpot", (1.0,)): "6b826062d42f1d77",
    ("hydrogen_grad_qpot", (-2.0,)): "d30672b7b739450a",
    ("hydrogen_grad_qpot", (0.0,)): "1bea14882addd611",
    ("coulomb_grad", ()): "c3fa0006605b3acf",
}


def _pinned_rows(name, params):
    pts = _far(3).tolist()
    if name == "coulomb_grad":
        return [kernels.coulomb_grad(*p, kernels._sqrt)[1:] for p in pts]
    if name == "hydrogen_grad_qpot":
        # grad Q = -grad V + the m^2 term, composed as the kernel composes it
        rows = []
        for x0, x1, x2 in pts:
            _, v0, v1, v2 = kernels.coulomb_grad(x0, x1, x2, kernels._sqrt)
            _, t0, t1 = kernels.hydrogen_m2_term(*params, x0, x1)
            rows.append([-v0 + t0, -v1 + t1, -v2])
        return rows
    if name.startswith("oscillator"):
        pts = _far(2).tolist()
    return [getattr(kernels, name)(*params, p[0], p[1])[1:] for p in pts]


@pytest.mark.parametrize("name,params", list(_PINNED))
def test_forms_keep_their_pinned_bits(name, params):
    rows = _pinned_rows(name, params)
    digest = hashlib.sha256(np.asarray(rows, dtype="<f8").tobytes()).hexdigest()[:16]
    assert digest == _PINNED[name, params]


def test_m0_term_adds_nothing():
    _, t0, t1 = kernels.hydrogen_m2_term(0.0, 0.3, -1.2)
    for v in (0.0, -0.0, 1.5, -2.5e-300):
        assert _bits(v + t0) == _bits(v) and _bits(v + t1) == _bits(v)


# --- the engine on states the other engine tests do not reach ---------------

_RNG = np.random.default_rng(7)


@pytest.mark.parametrize("nlm", [(2, 1, 0), (3, 2, -2)])
@pytest.mark.parametrize("mode", ["guidance", "transition"])
def test_hydrogen_ensemble_equals_scalar_kernel_for_m0_and_negative_m(nlm, mode):
    # m = 0 hands the engine scalar forms (no flow, nothing singular); m < 0
    # flips the flow.  12 starts, so the batch runs before the hand-off
    n, l, m = nlm
    starts = np.concatenate([_RNG.normal(size=(10, 3)) * 3.0,
                             [[0.1, 0.0, 1.0], [0.0, 0.0, 2.0]]])
    doc = {
        "system": {"type": "hydrogen", "n": n, "l": l, "m": m},
        "mode": mode,
        "ensemble": {"mode": "fixed", "positions": starts.tolist(),
                     "velocities": np.zeros_like(starts).tolist()},
        "time": {"start": 0.0, "end": 5.0, "n_outputs": 4},
    }
    if mode == "transition":
        doc["coupling"] = {"type": "logistic", "b": 2.0, "t0": 2.0}
    res = qt.run_ensemble(qt.build_scenario(doc), compute_metrics=False)
    sc = res.scenario
    for i, tr in enumerate(res.trajectories):
        if mode == "guidance":
            ref = qt.integrate_guidance(sc.system, starts[i], res.t, integrator=sc.integrator,
                                        stencil=sc.numerics)
        else:
            ref = qt.integrate_transition(sc.system, sc.coupling, (starts[i], np.zeros(3)),
                                          res.t, integrator=sc.integrator, stencil=sc.numerics)
        assert (tr.status, tr.n_steps) == (ref.status, ref.n_steps)
        for a, b in ((tr.t, ref.t), (tr.x, ref.x), (tr.v, ref.v)):
            assert a.tobytes() == b.tobytes()
    assert {tr.status for tr in res.trajectories} >= {"completed"}
