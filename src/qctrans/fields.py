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

The array right-hand side of the ensemble engine (``_batch_rhs``) lives
here too, next to the stencil it calls for the double slit; for the
oscillator and hydrogen it calls the closed forms of
:mod:`qctrans.kernels` on arrays and leaves the node guard
(``_dense_enough``, the kernel's oscillator density and hydrogen
recurrences) to its caller, who checks every stage point of a step in one
call.  ``force`` is that right-hand side at one point, guard included.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jit import _array
from .errors import InvalidParameterError, NodeProximityError
from .systems import WaveField, _number, _shown, hydrogen_rho


@dataclass(frozen=True)
class StencilConfig:
    h: float = 1e-4
    richardson: bool = True
    min_rho: float = 1e-12

    def __post_init__(self):
        if not (_number(self.h) and self.h > 0):
            raise InvalidParameterError(f"stencil h must be > 0, got {_shown(self.h)}")
        if not isinstance(self.richardson, bool):
            raise InvalidParameterError(f"richardson must be a bool, got {_shown(self.richardson)}")
        if not (_number(self.min_rho) and self.min_rho >= 0):
            raise InvalidParameterError(f"min_rho must be >= 0, got {_shown(self.min_rho)}")


DEFAULT_STENCIL = StencilConfig()


def _point(psi, x):
    """x as a flat position; a system's dimension, or 1..3 for a bare callable.
    The error names the caller's shape."""
    a = np.asarray(x, dtype=float)
    x = a.reshape(-1)
    if isinstance(psi, WaveField):
        if x.size != psi.dim:
            raise InvalidParameterError(
                f"position must have {psi.dim} components, got shape {a.shape}")
    elif x.size < 1 or x.size > 3:
        raise InvalidParameterError(f"position must have 1..3 components, got shape {a.shape}")
    return x


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
    x = _point(psi, x)
    vals, ok = core(psi, x[None], float(t), st)
    if not ok[0]:
        _raise_guarded(x, t, st.min_rho)
    return vals[0]


# ---------------------------------------------------------------------------
# point operators
# ---------------------------------------------------------------------------

def density(psi, x, t):
    """|psi(x, t)|^2 at a single point."""
    w = _evaluator(psi)(_point(psi, x)[None], float(t))[0]
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


def force(system: WaveField, coupling, x, t, stencil: StencilConfig | None = None):
    """Transition force -grad(V + P(t) Q) at a single point.

    grad Q is the closed form for the oscillator and hydrogen, and the
    numeric stencil for the double slit.
    """
    st = stencil or DEFAULT_STENCIL
    x = _point(system, x)
    system._check_t(t)
    dim = system.dim
    y = np.zeros((1, 2 * dim))
    y[0, :dim] = x
    rhs, _ = _batch_rhs(kernels.TRANSITION, system, coupling, st)
    with np.errstate(all="ignore"):
        dy, ok, need = rhs(y, np.array([float(t)]))
        if not (ok[0] and (need is None or _dense_enough(system, x[None], t, st)[0])):
            _raise_guarded(x, t, st.min_rho)
    return dy[0, dim:]


# ---------------------------------------------------------------------------
# the ensemble engine's right-hand side
# ---------------------------------------------------------------------------

def _dense_enough(system, x, t, st):
    """The node guard rho >= min_rho of the kernel's ``density``, on arrays:
    the oscillator's density form of :mod:`qctrans.kernels` with np.exp,
    hydrogen's real amplitude squared (``systems.hydrogen_rho``, the same
    recurrences).  Only the double slit's density reads t."""
    if system.kind == "oscillator_2d":
        _, alpha, w = system._par.tolist()
        rho = _array(kernels._oscillator_density)(w, alpha, x[:, 0], x[:, 1], np.exp)
    elif system.kind == "hydrogen":
        rho = hydrogen_rho(system._par, x[:, 0], x[:, 1], x[:, 2])
    else:
        rho = system.rho(x, t)
    return (rho >= st.min_rho) & np.isfinite(rho)


def _batch_rhs(mode, system, coupling, st):
    """(rhs, reads_t): rhs(y, t) -> (dy, ok, need) over an (m, nvar) stack of
    states with a time for each, and whether rhs reads t at all (the closed
    guidance forms are stationary and take t = None).

    The oscillator and hydrogen take the closed routes, the double slit the
    array stencil.  ``ok`` and the node guard together are the kernel's
    ``rhs`` status 0.  On the closed routes ``ok`` is the forms' own guard,
    and ``need`` indexes the rows whose position must still pass
    ``_dense_enough``; the caller checks them, the points of a whole step
    at once.  The guard feeds no value of dy, so where it is checked moves
    no bit.  On the stencil route ``ok`` holds the guard and ``need`` is
    None, as it is where P(t) leaves no quantum term to guard.
    The closed forms are the kernel's own, called on columns; their guard
    flag is negated with np.logical_not, because an m = 0 hydrogen form
    returns the bool False, and ~False is -1 (guidance writes it into a
    mask over all rows)."""
    dim = system.dim
    par = system._par.tolist()
    closed = system.has_closed
    osc = system.kind == "oscillator_2d"
    if mode == kernels.GUIDANCE:
        if not closed:
            return (lambda y, t: (*_grad_s(system, y, t, st), None)), True
        form, arg = ((_array(kernels.oscillator_velocity), par[1]) if osc
                     else (_array(kernels.hydrogen_velocity), par[2]))

        def guidance(y, t):
            u = np.zeros_like(y)
            ok = np.empty(len(y), dtype=bool)
            guarded, u[:, 0], u[:, 1] = form(arg, y[:, 0], y[:, 1])
            np.logical_not(guarded, out=ok)
            return u, ok, slice(None)

        return guidance, False

    kind = coupling._kind
    c0, c1 = coupling._packed()

    def transition(y, t):
        x = y[:, :dim]
        if system.kind == "hydrogen":
            gv = np.empty_like(x)
            guarded, gv[:, 0], gv[:, 1], gv[:, 2] = _array(kernels.coulomb_grad)(
                x[:, 0], x[:, 1], x[:, 2], np.sqrt)
            ok = ~guarded
        else:
            gv = par[0] * x if osc else np.zeros_like(x)
            ok = np.ones(t.size, dtype=bool)
        acc = -gv
        if kind == kernels.CONSTANT:
            p = np.full(t.size, c0)
        else:
            p = np.array([kernels.coupling_p(kind, c0, c1, s) for s in t.tolist()])
        q = np.flatnonzero(p > kernels._P_FLOOR)
        need = None
        if q.size:
            if q.size == t.size:
                q = slice(None)
            xq = x[q]
            if not closed:
                # the Q probes sit around x, not at it: x's own density here
                gq, ok_q = _grad_qpot(system, xq, t[q], st)
                ok_q &= _dense_enough(system, xq, t[q], st)
            elif osc:
                gq = np.empty_like(xq)
                guarded, gq[:, 0], gq[:, 1] = _array(kernels.oscillator_grad_qpot)(
                    par[2], par[1], xq[:, 0], xq[:, 1])
                ok_q = ~guarded
            else:
                gq = -gv[q]
                guarded, m0, m1 = _array(kernels.hydrogen_m2_term)(par[2], xq[:, 0], xq[:, 1])
                gq[:, 0] += m0
                gq[:, 1] += m1
                ok_q = np.logical_not(guarded)
            acc[q] = -gv[q] - p[q, None] * gq
            ok[q] &= ok_q
            need = q if closed else None
        return np.concatenate([y[:, dim:], acc], axis=1), ok, need

    return transition, True
