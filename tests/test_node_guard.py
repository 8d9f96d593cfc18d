"""The ensemble engine's node guard against the scalar kernel.

On the oscillator and hydrogen closed routes the batch engine checks
|psi|^2 >= min_rho once per step, on the points of all its stages together;
the scalar kernel checks it inside every right-hand-side call.  Here the
guard halves steps and stops rows inside the batch, with and without the
hand-off to the scalar kernel, and every output must still be the scalar
kernel's, bit for bit.  The references run before the hand-off size is
patched, so they run on the scalar kernel.
"""
import math

import numpy as np
import pytest

import qctrans as qt
from qctrans import dynamics, fields, kernels
from qctrans.scenario import build_scenario
from test_engine import _MODES, _STARTS, _doc, _same, _scalar

_A = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
_RADIAL = {"oscillator_2d": np.stack([np.cos(_A), np.sin(_A)], axis=1),
           "hydrogen": np.stack([np.cos(_A), np.sin(_A), np.zeros(12)], axis=1)}
# P(t) = 1 / (1 + e^(40 t)) falls below the floor at t = 1.04, mid-run
_FAST_LOGISTIC = {"mode": "transition", "coupling": {"type": "logistic", "b": 40.0, "t0": 0.0}}
_P_GONE = math.log(1.0 / kernels._P_FLOOR) / 40.0


def _far(kind):
    """The engine tests' starts without those near the node, which take
    thousands of batch steps without the hand-off."""
    return np.concatenate([_STARTS[kind][:14], _STARTS[kind][-2:]])


def _run(doc, handoff, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_HANDOFF", handoff)
        return qt.run_ensemble(build_scenario(doc), compute_metrics=False)


def _check_against_scalar(doc, monkeypatch):
    """The ensemble, with the hand-off and without it, against scalar runs."""
    res = _run(doc, dynamics._HANDOFF, monkeypatch)
    assert res.n > dynamics._HANDOFF
    refs = [_scalar(res, i) for i in range(res.n)]
    for handoff in (dynamics._HANDOFF, 0):
        got = res if handoff else _run(doc, 0, monkeypatch)
        for tr, ref in zip(got.trajectories, refs):
            _same(tr, ref)
    return res


def _ring_beyond_the_density_maximum(kind):
    """Twelve starts on one orbit outside the density maximum, where a stage
    point off the orbit is thinner than the orbit; and their density."""
    ring = 1.6 * _RADIAL[kind] if kind == "oscillator_2d" else 5.0 * _RADIAL[kind] + [0, 0, 0.5]
    return ring, float(qt.make_system(kind).rho(ring, 0.0).min())


@pytest.mark.parametrize("kind", list(_STARTS))
def test_guarded_guidance_stages_halve_steps_as_in_the_scalar_kernel(kind, monkeypatch):
    # with min_rho a hair under the orbit's density, stage points that leave
    # the orbit outwards fail the guard and halve the step, all run long
    ring, rho = _ring_beyond_the_density_maximum(kind)
    starts = np.concatenate([_far(kind), ring])
    fine = qt.run_ensemble(build_scenario(_doc(kind, "guidance", starts)),
                           compute_metrics=False)
    res = _check_against_scalar(
        _doc(kind, "guidance", starts, numerics={"min_rho": rho * (1.0 - 1e-4)}), monkeypatch)
    for tr, ref in zip(res.trajectories[-12:], fine.trajectories[-12:]):
        assert tr.completed and tr.n_steps > ref.n_steps + 10


@pytest.mark.parametrize("mode", ["quantum_transition", "fast_logistic"])
@pytest.mark.parametrize("kind", list(_STARTS))
def test_guard_stops_transition_rows_as_in_the_scalar_kernel(kind, mode, monkeypatch):
    # twelve starts 0.5 from the node, aimed at it at speeds 0.05 to 2: with
    # min_rho 1e-6 the guard stops those that reach it while P(t) > 0; under
    # the fast logistic the slow ones arrive once P is below the floor, where
    # no density is checked, and cross
    monkeypatch.setitem(_MODES, "fast_logistic", _FAST_LOGISTIC)
    ring = 0.5 * _RADIAL[kind] + (0.0 if kind == "oscillator_2d" else [0.0, 0.0, 1.0])
    doc = _doc(kind, mode, np.concatenate([_far(kind), ring]), numerics={"min_rho": 1e-6})
    vel = np.asarray(doc["ensemble"]["velocities"])
    vel[-12:] = -np.geomspace(0.05, 2.0, 12)[:, None] * _RADIAL[kind]
    doc["ensemble"]["velocities"] = vel.tolist()
    res = _check_against_scalar(doc, monkeypatch)
    aimed = res.trajectories[-12:]
    stopped = [tr for tr in aimed if tr.status == "singular_stop"]
    assert len(stopped) >= 3
    assert all(0.0 < tr.stop_t < _P_GONE for tr in stopped)
    if mode == "fast_logistic":
        assert sum(tr.completed for tr in aimed) >= 3


@pytest.mark.parametrize("mode", ["guidance", "fast_logistic"])
@pytest.mark.parametrize("kind", list(_STARTS))
def test_one_node_guard_call_per_batch_step(kind, mode, monkeypatch):
    # every row of the batch takes one step per iteration, so the longest
    # run's step count is the number of iterations.  Under the fast logistic
    # the rows near the node circle it until they stop, while P(t) > 0, so
    # a check runs in most iterations, on those rows' points only
    monkeypatch.setitem(_MODES, "fast_logistic", _FAST_LOGISTIC)
    calls = []
    dense_enough = fields._dense_enough

    def counting(*args):
        calls.append(len(args[1]))
        return dense_enough(*args)

    monkeypatch.setattr(fields, "_dense_enough", counting)
    monkeypatch.setattr(dynamics, "_dense_enough", counting, raising=False)
    starts = _far(kind) if mode == "guidance" else _STARTS[kind]
    res = _run(_doc(kind, mode, starts), 0, monkeypatch)
    iterations = max(tr.n_steps for tr in res.trajectories)
    assert iterations > 50
    assert len(calls) <= 1 + iterations
    if mode == "guidance":
        assert len(calls) == 1 + iterations
        assert calls[1] == 6 * (res.n - 2)  # every stage of every row left


# starts on the oscillator's node and on hydrogen's z axis, where |psi|^2 is 0
_ON_THE_NODE = {"oscillator_2d": [[0.0, 0.0]],
                "hydrogen": [[0.0, 0.0, 2.0], [0.0, 0.0, -1.5]]}


@pytest.mark.parametrize("mode", ["guidance", "quantum_transition"])
@pytest.mark.parametrize("kind", list(_STARTS))
def test_a_node_guard_of_zero_leaves_the_stop_to_the_closed_forms(kind, mode, monkeypatch):
    # with min_rho = 0 a start on the node passes the density guard, and the
    # closed forms' own guards (g, g^3, s^2 or s^4 below _TINY) stop it, in
    # the batch and in the scalar kernel alike; no row holds a NaN
    starts = np.concatenate([_far(kind), _ON_THE_NODE[kind]])
    res = _check_against_scalar(_doc(kind, mode, starts, numerics={"min_rho": 0.0}),
                                monkeypatch)
    assert res.scenario.numerics.min_rho == 0.0
    for tr in res.trajectories[-len(_ON_THE_NODE[kind]):]:
        assert tr.status == "singular_stop" and tr.stop_t == 0.0 and tr.t.size == 1
    for tr in res.trajectories:
        for rows in (tr.t, tr.x, tr.v):
            assert np.isfinite(rows).all()
    assert sum(res.truncation_report.values()) == res.n
