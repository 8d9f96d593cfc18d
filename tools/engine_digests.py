"""Print the sha256 of the ensemble engine's arrays on a seeded corpus.

Each case of a fixed corpus of random ensembles runs through
``dynamics._run_batch``, and the eight arrays it returns (the grid, the
samples x and v, and per row its status, samples filled, step count, stop
time and stop position) are hashed with their dtypes and shapes.  One line
per case, ``<sha256>  <case> <system> <mode> <method> n=<rows>``, is
followed by one over all cases, ``<sha256>  all``.  Two checkouts run the
engine to the same bits when their outputs ``diff`` clean.

The corpus draws, per case: the double slit, the oscillator at alpha =
pi/2 and at 0.4, or hydrogen; guidance, or transition with P = 1, 0.4, 0
or a logistic P; DP5(4) or RK4; 1 to 20 rows, so ensembles on both sides
of the hand-off to the scalar kernel; starts some of which sit on a node
(or, for the double slit, where its density is below any guard); a first
time up to 3; a first dt from 1e-3 to 30; max_steps from 20 to 50000; and
min_rho 0, 1e-12 or 1e-4.

Usage::

    python3 tools/engine_digests.py [CASES]    # default: 160 cases

The ``qctrans`` imported is the one under ``src/`` next to this script.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qctrans import dynamics, kernels  # noqa: E402
from qctrans.coupling import Constant, Logistic  # noqa: E402
from qctrans.dynamics import IntegratorConfig  # noqa: E402
from qctrans.fields import StencilConfig  # noqa: E402
from qctrans.systems import double_slit, hydrogen, oscillator_2d  # noqa: E402

_SEED = 27
_SYSTEMS = {
    "double_slit": double_slit,
    "oscillator": oscillator_2d,
    "oscillator_a0.4": lambda: oscillator_2d(alpha=0.4),
    "hydrogen": hydrogen,
}
_COUPLINGS = ["P=1", "P=0.4", "P=0", "logistic"]


def _starts(rng, name, n):
    """n random starts of a system, each on a node with probability 1/5."""
    if name == "double_slit":
        x = rng.uniform(-5.0, 5.0, (n, 1))
        node = [[30.0]]   # far outside both packets: |psi|^2 underflows
    elif name == "hydrogen":
        x = rng.normal(size=(n, 3)) * 4.0
        node = [[0.0, 0.0, rng.uniform(-3.0, 3.0)]]   # on the z axis
    else:
        x = rng.normal(size=(n, 2)) * 1.2
        node = [[0.0, 0.0]]
    on = rng.random(n) < 0.2
    x[on] = node
    return x


def corpus(count, seed=_SEED) -> list:
    """The first ``count`` cases of the corpus, as dicts of the engine's
    inputs and a label."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        name = list(_SYSTEMS)[rng.integers(len(_SYSTEMS))]
        guidance = rng.random() < 0.4
        coupling = _COUPLINGS[rng.integers(len(_COUPLINGS))]
        method = ["rk45_adaptive", "rk4_fixed"][rng.integers(2)]
        n = int(rng.integers(1, 21))
        t0 = float(rng.uniform(0.0, 3.0))
        t = t0 + np.sort(rng.uniform(0.0, 2.0, int(rng.integers(1, 8))))
        t_grid = np.unique(np.concatenate([[t0], t, [t0 + 2.0]]))
        x0 = _starts(rng, name, n)
        v0 = rng.normal(size=x0.shape) * 0.5
        if coupling == "logistic":
            schedule = Logistic(float(rng.uniform(0.5, 20.0)), float(rng.uniform(t0, t0 + 2.0)))
        else:
            schedule = Constant(float(coupling[2:]))
        integrator = IntegratorConfig(
            method=method, dt=float(10.0 ** rng.uniform(-3.0, math.log10(30.0))),
            max_steps=int(10.0 ** rng.uniform(math.log10(20.0), math.log10(50000.0))))
        stencil = StencilConfig(min_rho=[0.0, 1e-12, 1e-4][rng.integers(3)])
        mode = "guidance" if guidance else f"transition:{coupling}"
        cases.append({
            "label": f"{k} {name} {mode} {method} n={n}",
            "args": (kernels.GUIDANCE if guidance else kernels.TRANSITION, _SYSTEMS[name](),
                     Constant(1.0) if guidance else schedule, x0, v0, t_grid, integrator,
                     stencil),
        })
    return cases


def run(case) -> tuple:
    """The engine's eight arrays for one case."""
    return dynamics._run_batch(*case["args"])


def digest(arrays) -> str:
    """sha256 over the dtypes, shapes and bytes of the arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests(count) -> list:
    """One ``<sha256>  <label>`` line per case, then one over all cases."""
    lines = [f"{digest(run(case))}  {case['label']}" for case in corpus(count)]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return [*lines, f"{total}  all"]


def main(argv) -> int:
    for line in digests(int(argv[0]) if argv else 160):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
