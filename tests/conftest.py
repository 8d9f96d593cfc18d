"""Shared fixtures.

The session-scoped warm-up drives, once, what numba compiles: the scalar
kernel's closed guidance and transition routes of the oscillator and
hydrogen, the double slit's stencil in both modes, and RK4.  Tests that
assert wall-clock budgets then never pay compilation inside the timed
block.  Field queries, samplers, ``force`` and the batch engine's array
right-hand side run on numpy and need no warm-up.
"""
import numpy as np
import pytest

import qctrans as qt

_START = {"double_slit": [0.5], "oscillator_2d": [1.0, 0.0], "hydrogen": [4.0, 0.0, 0.0]}


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    tg = np.linspace(0.0, 0.01, 3)
    rk4 = qt.IntegratorConfig(method="rk4_fixed", dt=0.005)
    for kind, x0 in _START.items():
        sys = qt.make_system(kind)
        state0 = (x0, np.zeros(sys.dim))
        qt.integrate_guidance(sys, x0, tg)
        qt.integrate_transition(sys, qt.Logistic(1.0, 0.005), state0, tg)
        qt.integrate_transition(sys, qt.Constant(0.5), state0, tg, integrator=rk4)
