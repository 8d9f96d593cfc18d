"""Numeric field operators: density, guidance velocity, quantum potential.

Every query runs through one array stencil.  It evaluates psi over the
stencils of a stack of points (leading axes free, trailing axis = dim), in
calls of a bounded number of stencil points, with
:meth:`~qctrans.systems.WaveField.psi` for systems and a point-by-point
adapter for any callable ``psi(x, t) -> complex`` taking a position vector.
The stencil contract:

* velocity from the phase gradient uses centre-referenced phase increments,
  so each half-stencil difference stays on the principal branch;
* Q = -lap|psi| / (2 |psi|) by second central differences;
* grad Q by centred differences of Q with outer step 10h, the Q probes
  running at 5h;
* Richardson extrapolation (h and 2h) is applied when enabled;
* points with density below ``min_rho`` are masked; the point operators
  raise :class:`NodeProximityError` there.

``force`` is the exception: it calls the scalar integrator kernels, so the
transition RHS and its point query stay one code path.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NodeProximityError
from .systems import WaveField


@dataclass(frozen=True)
class StencilConfig:
    h: float = 1e-4
    richardson: bool = True
    min_rho: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise InvalidParameterError(f"stencil h must be > 0, got {self.h!r}")
        if not (isinstance(self.min_rho, (int, float)) and self.min_rho >= 0):
            raise InvalidParameterError(f"min_rho must be >= 0, got {self.min_rho!r}")


DEFAULT_STENCIL = StencilConfig()


def _point(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size < 1 or x.size > 3:
        raise InvalidParameterError(f"position must have 1..3 components, got {x.size}")
    return x


def _pad3(x):
    out = np.zeros(3)
    out[: x.size] = x
    return out


def _raise_guarded(x, t, min_rho):
    raise NodeProximityError(
        f"field evaluation guarded near a node/singular set (min_rho {min_rho:.3e})",
        point=np.array(x), t=t,
    )


# ---------------------------------------------------------------------------
# array core
# ---------------------------------------------------------------------------

# stencil points per psi call: bounds the temporaries of a field grid
_CHUNK = 4096


def _evaluator(psi):
    """psi as an array function over a stack of points; t broadcasts."""
    if isinstance(psi, WaveField):
        return psi.psi

    def per_point(pts, t):
        out = np.empty(pts.shape[:-1], dtype=complex)
        tt = np.broadcast_to(np.asarray(t, dtype=float), out.shape)
        for i in np.ndindex(out.shape):
            out[i] = psi(pts[i].copy(), float(tt[i]))
        return out

    return per_point


def _stencil(psi, pts, t, st):
    """psi at a stack of points and at +/- d along every axis, d = h (and 2h
    with Richardson extrapolation).

    Returns (centre, at) with ``at(ax, d)`` the values at the offset d along
    axis ax.  psi sees whole stencils in calls of at most _CHUNK points, so
    a point query is one call and a field grid holds no more at a time.
    """
    f = _evaluator(psi)
    steps = (st.h, 2.0 * st.h) if st.richardson else (st.h,)
    shifts = [(ax, s * d) for d in steps for ax in range(pts.shape[-1]) for s in (1.0, -1.0)]
    flat = pts.reshape(-1, pts.shape[-1])
    tt = np.broadcast_to(np.asarray(t, dtype=float), pts.shape[:-1]).reshape(1, -1)
    vals = np.empty((1 + len(shifts), flat.shape[0]), dtype=complex)
    step = max(1, _CHUNK // vals.shape[0])
    for i in range(0, flat.shape[0], step):
        q = np.repeat(flat[None, i : i + step], vals.shape[0], axis=0)
        for k, (ax, d) in enumerate(shifts, 1):
            q[k, :, ax] += d
        vals[:, i : i + step] = f(q, tt[:, i : i + step])
    vals = vals.reshape((-1,) + pts.shape[:-1])
    index = {s: k for k, s in enumerate(shifts, 1)}
    return vals[0], lambda ax, d: vals[index[ax, d]]


def _guard(pc, st):
    rho = pc.real * pc.real + pc.imag * pc.imag
    return rho, (rho >= st.min_rho) & np.isfinite(rho)


def _extrapolate(diff, st):
    """diff(h), Richardson-combined with diff(2h) when enabled."""
    d1 = diff(st.h)
    if not st.richardson:
        return d1
    return (4.0 * d1 - diff(2.0 * st.h)) / 3.0


def _grad_s(psi, pts, t, st):
    """(u, ok): phase-gradient velocity over a stack of points."""
    pc, at = _stencil(psi, pts, t, st)
    _, ok = _guard(pc, st)
    cc = pc.conj()

    def slope(ax, d):
        return (np.angle(at(ax, d) * cc) - np.angle(at(ax, -d) * cc)) / (2.0 * d)

    with np.errstate(all="ignore"):
        u = [_extrapolate(lambda d: slope(ax, d), st) for ax in range(pts.shape[-1])]
        return np.stack(u, axis=-1), ok


def _current(psi, pts, t, st):
    """(u, ok): velocity Im(psi* grad psi) / |psi|^2 over a stack of points."""
    pc, at = _stencil(psi, pts, t, st)
    rho, ok = _guard(pc, st)
    cc = pc.conj()

    def slope(ax, d):
        return (cc * (at(ax, d) - at(ax, -d))).imag / (2.0 * d)

    with np.errstate(all="ignore"):
        u = [_extrapolate(lambda d: slope(ax, d), st) / rho for ax in range(pts.shape[-1])]
        return np.stack(u, axis=-1), ok


def _qpot(psi, pts, t, st):
    """(Q, ok): quantum potential over a stack of points."""
    pc, at = _stencil(psi, pts, t, st)
    _, ok = _guard(pc, st)
    r0 = np.abs(pc)

    def q(d):
        lap = np.zeros(r0.shape)
        for ax in range(pts.shape[-1]):
            # second difference per axis first, so lap never carries |psi|
            lap += np.abs(at(ax, d)) + np.abs(at(ax, -d)) - 2.0 * r0
        return -0.5 * lap / (d * d * r0)

    with np.errstate(all="ignore"):
        return _extrapolate(q, st), ok


def _grad_qpot(psi, pts, t, st):
    """(grad Q, ok): centred differences of Q probes; ok needs every probe."""
    d = 10.0 * st.h
    dim = pts.shape[-1]
    probes = np.repeat(pts[None], 2 * dim, axis=0)
    for ax in range(dim):
        probes[2 * ax, ..., ax] += d
        probes[2 * ax + 1, ..., ax] -= d
    q, ok = _qpot(psi, probes, t, StencilConfig(5.0 * st.h, st.richardson, st.min_rho))
    g = np.stack([(q[2 * ax] - q[2 * ax + 1]) / (2.0 * d) for ax in range(dim)], axis=-1)
    return g, ok.all(axis=0)


def _at_point(core, psi, x, t, stencil):
    st = stencil or DEFAULT_STENCIL
    x = _point(x)
    vals, ok = core(psi, x[None], float(t), st)
    if not ok[0]:
        _raise_guarded(x, t, st.min_rho)
    return vals[0]


# ---------------------------------------------------------------------------
# point operators
# ---------------------------------------------------------------------------

def density(psi, x, t):
    """|psi(x, t)|^2 at a single point."""
    w = _evaluator(psi)(_point(x)[None], float(t))[0]
    return float(w.real * w.real + w.imag * w.imag)


def velocity_grad_s(psi, x, t, stencil: StencilConfig | None = None):
    """Guidance velocity u = grad(S) from the wavefunction phase."""
    return _at_point(_grad_s, psi, x, t, stencil)


def velocity_current(psi, x, t, stencil: StencilConfig | None = None):
    """Velocity from the probability current, u = Im(psi* grad psi)/|psi|^2."""
    return _at_point(_current, psi, x, t, stencil)


def quantum_potential(psi, x, t, stencil: StencilConfig | None = None):
    """Q = -lap(R)/(2R), R = |psi|, by second central differences."""
    return float(_at_point(_qpot, psi, x, t, stencil))


def qpot_gradient(psi, x, t, stencil: StencilConfig | None = None):
    """grad Q by centred differences of Q with outer step 10h."""
    return _at_point(_grad_qpot, psi, x, t, stencil)


def force(system: WaveField, coupling, x, t, stencil: StencilConfig | None = None,
          use_closed: bool = True):
    """Transition force -grad(V + P(t) Q) at a single point.

    ``use_closed`` selects the analytic grad-Q route when the system has one;
    the numeric stencil route is used otherwise (and always for the
    double slit).
    """
    st = stencil or DEFAULT_STENCIL
    x = _point(x)
    system._check_t(t)
    p = _pad3(x)
    out = np.zeros(3)
    c0, c1 = coupling._packed()
    rc = kernels.force(
        system.sys_id, system._par, system.dim, coupling._kind, c0, c1,
        p[0], p[1], p[2], float(t), st.h, st.richardson, st.min_rho,
        bool(use_closed and system.has_closed), out,
    )
    if rc != 0:
        _raise_guarded(x, t, st.min_rho)
    return out[: system.dim].copy()
