"""Analytic model systems: wavefunctions, potentials, closed-form fields.

Three exactly solvable configurations (hbar = m = 1):

* ``double_slit``  -- 1D superposition of two spreading Gaussian packets
  launched at -/+X with wavenumber u; V = 0.
* ``oscillator_2d`` -- entangled degenerate superposition of the first
  excited isotropic-oscillator states with relative phase alpha;
  V = k0 r^2 / 2, omega = sqrt(k0).
* ``hydrogen`` -- Coulomb eigenstate (n, l, m); V = -1/r.

Functions here are numpy-vectorized over positions (trailing axis = dim).
``WaveField.psi`` is what every field query evaluates, through the array
stencil of :mod:`qctrans.fields`, as well as the samplers, the field grids
and the ensemble engine's double-slit stencil.  The only other psi is the
double slit's scalar one in :mod:`qctrans.kernels`, behind the integrator's
one-dimensional stencil, so the two stencils cross-check each other.
``WaveField.rho``
of hydrogen squares the real amplitude R_nl N_lm P_l^|m| instead of
|psi|^2: the phase factors have modulus 1, and real arithmetic is several
times cheaper for the samplers, the KS tables and the ensemble node guard.
Its Laguerre and Legendre recurrences are the scalar kernel's own
(:mod:`qctrans.kernels`), called on arrays.

The two closed forms of Q here, the oscillator's and hydrogen's, are not
the ones the integrator runs (those are in :mod:`qctrans.kernels`).  They
stay in their published shape on purpose, even where a shorter algebraic
form exists, so they are an independent route: they draw the field maps of
``export.compute_field`` and are the tests' oracles for Q.  The other
closed forms in that shape are the tests' alone and live in
``tests/oracles.py``.

The one number rule of every parameter lives here too: ``_number`` (a finite
real, numpy's scalars included, never a bool, and no int beyond the float
range) and ``_integer`` (an integral ``_number``).  The params and coupling
classes, the time, stencil, integrator, sampler and field-grid configs, the
scenario reader and the sampler's domain all ask these two, so a value gets
one verdict everywhere; ``_shown`` quotes a rejected value in a message
without raising.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jit import _array
from .errors import InvalidParameterError, SingularityError


def _number(v):
    """A finite real, numpy's included; a bool is an int to isinstance but
    never a number here (np.bool_ is none to :mod:`numbers`), and an int
    beyond the float range is none."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _integer(v):
    """An integer, numpy's included, that is a ``_number``."""
    return isinstance(v, numbers.Integral) and _number(v)


def _is_pair(v):
    """[lo, hi]: two finite numbers with lo < hi."""
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_number, v)) and v[0] < v[1]


def _shown(v):
    """repr(v) for a message; a value whose repr raises (an int of more
    digits than Python converts to text, or a list holding one) is named by
    its type instead."""
    try:
        return repr(v)
    except ValueError:
        return f"<{type(v).__name__} too long to print>"


def _finite(name, v):
    if not _number(v):
        raise InvalidParameterError(f"{name} must be a finite number, got {_shown(v)}")


@dataclass(frozen=True)
class DoubleSlitParams:
    rho0: float = 0.625
    u: float = -2.0
    X: float = 2.5

    def __post_init__(self):
        _finite("rho0", self.rho0)
        _finite("u", self.u)
        _finite("X", self.X)
        if self.rho0 <= 0:
            raise InvalidParameterError(f"rho0 must be > 0, got {self.rho0}")
        if self.X < 0:
            raise InvalidParameterError(f"X must be >= 0, got {self.X}")


@dataclass(frozen=True)
class Oscillator2DParams:
    k0: float = 1.0
    alpha: float = math.pi / 2

    def __post_init__(self):
        _finite("k0", self.k0)
        _finite("alpha", self.alpha)
        if self.k0 <= 0:
            raise InvalidParameterError(f"k0 must be > 0, got {self.k0}")

    @property
    def omega(self) -> float:
        return math.sqrt(self.k0)


@dataclass(frozen=True)
class HydrogenParams:
    n: int = 2
    l: int = 1
    m: int = 1

    def __post_init__(self):
        for name in ("n", "l", "m"):
            v = getattr(self, name)
            if not _integer(v):
                raise InvalidParameterError(f"{name} must be an integer, got {_shown(v)}")
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.l < self.n:
            raise InvalidParameterError(f"l must satisfy 0 <= l < n, got l={self.l}, n={self.n}")
        if abs(self.m) > self.l:
            raise InvalidParameterError(f"|m| must be <= l, got m={self.m}, l={self.l}")
        _hydrogen_norms(self.n, self.l, self.m)

    @property
    def energy(self) -> float:
        return -0.5 / (self.n * self.n)


class WaveField:
    """One analytic system: array psi for queries, kernel codes for the integrator."""

    def __init__(self, kind: str, params):
        self.kind = kind
        self.params = params
        if kind == "double_slit":
            self.sys_id = kernels.DOUBLE_SLIT
            self.dim = 1
            self._par = np.array([params.rho0, params.u, params.X])
        elif kind == "oscillator_2d":
            self.sys_id = kernels.OSCILLATOR
            self.dim = 2
            self._par = np.array([params.k0, params.alpha, params.omega])
        elif kind == "hydrogen":
            self.sys_id = kernels.HYDROGEN
            self.dim = 3
            # the normalisations, once per state, for the kernel's density
            # and the array one alike
            self._par = np.array([float(params.n), float(params.l), float(params.m),
                                  *_hydrogen_norms(params.n, params.l, params.m)])
        else:
            raise InvalidParameterError(f"unknown system kind {_shown(kind)}")

    def __repr__(self):
        return f"WaveField({self.kind}, {self.params})"

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise InvalidParameterError("t must be finite")
        if self.kind == "double_slit" and np.any(t < 0):
            raise InvalidParameterError("double slit is defined for t >= 0 only")
        return t

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise InvalidParameterError(
                f"position must have trailing dimension {self.dim}, got shape {x.shape}"
            )
        return [x[..., i] for i in range(self.dim)]

    def psi(self, x, t):
        """Complex wavefunction; x has trailing axis of length dim."""
        t = self._check_t(t)
        if self.kind == "double_slit":
            (xx,) = self._split(x)
            return double_slit_psi(self.params, xx, t)
        if self.kind == "oscillator_2d":
            xx, yy = self._split(x)
            return oscillator_psi(self.params, xx, yy, t)
        xx, yy, zz = self._split(x)
        return hydrogen_psi(self.params, self._par, xx, yy, zz, t)

    def rho(self, x, t):
        """|psi|^2; for hydrogen the square of its real amplitude."""
        if self.kind != "hydrogen":
            w = self.psi(x, t)
            return (w * w.conjugate()).real
        t = self._check_t(t)
        xx, yy, zz = self._split(x)
        rho = hydrogen_rho(self._par, xx, yy, zz)
        if t.ndim:
            rho = np.broadcast_to(rho, np.broadcast_shapes(rho.shape, t.shape)).copy()
        return rho

    @property
    def has_closed(self) -> bool:
        """Whether the kernels hold closed forms of this system's guidance
        velocity and grad Q (``kernels.oscillator_velocity`` and the rest)."""
        return self.kind in ("oscillator_2d", "hydrogen")


def double_slit(rho0=0.625, u=-2.0, X=2.5) -> WaveField:
    return WaveField("double_slit", DoubleSlitParams(rho0, u, X))


def oscillator_2d(k0=1.0, alpha=math.pi / 2) -> WaveField:
    return WaveField("oscillator_2d", Oscillator2DParams(k0, alpha))


def hydrogen(n=2, l=1, m=1) -> WaveField:
    return WaveField("hydrogen", HydrogenParams(n, l, m))


# the system kinds, each with its params dataclass
_KINDS = {"double_slit": DoubleSlitParams, "oscillator_2d": Oscillator2DParams,
          "hydrogen": HydrogenParams}


def make_system(kind: str, **params) -> WaveField:
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown system kind {_shown(kind)}")
    extra = set(params) - {f.name for f in dataclasses.fields(_KINDS[kind])}
    if extra:
        raise InvalidParameterError(f"unknown {kind} parameter(s): {sorted(extra)}")
    return WaveField(kind, _KINDS[kind](**params))


def _raise_where(singular, message):
    """SingularityError with the indices of the singular points, if any."""
    if np.any(singular):
        raise SingularityError(message, point=np.argwhere(np.atleast_1d(singular)))


# ---------------------------------------------------------------------------
# double slit
# ---------------------------------------------------------------------------

def double_slit_psi(p: DoubleSlitParams, x, t):
    """Two-packet superposition; packets start at -/+X with width rho0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    a = 1.0 + 1j * t / p.rho0**2
    g1 = np.exp(
        -((p.u * t + x - p.X) ** 2) / (2.0 * p.rho0**2 * a)
        - 1j * p.u * (p.u * t / 2.0 + x - p.X)
    )
    g2 = np.exp(
        -((-p.u * t + x + p.X) ** 2) / (2.0 * p.rho0**2 * a)
        + 1j * p.u * (-p.u * t / 2.0 + x + p.X)
    )
    return (g1 + g2) / np.sqrt(p.rho0 * a)


# ---------------------------------------------------------------------------
# 2D oscillator
# ---------------------------------------------------------------------------

def oscillator_psi(p: Oscillator2DParams, x, y, t):
    """(x + e^{i alpha} y) Gaussian, the normalized entangled superposition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    w = p.omega
    return (
        (w / math.sqrt(math.pi))
        * (x + np.exp(1j * p.alpha) * y)
        * np.exp(-0.5 * w * (x * x + y * y) - 2j * w * t)
    )


def oscillator_qpot_closed(p: Oscillator2DParams, x, y):
    """Quantum potential of the entangled state (published T1/T2/T3 shape)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = p.omega
    c = math.cos(p.alpha)
    r2 = x * x + y * y
    g = x * x + 2.0 * c * x * y + y * y
    _raise_where(g < 1e-280, "quantum potential singular on the nodal set")
    t1 = w * w * r2 * r2 - 4.0 * w * r2 + 1.0
    t2 = w * r2 - 4.0
    t3 = x * x * (-4.0 * w * w * y * y * r2 + 16.0 * w * y * y + 1.0) + y * y
    return (-t1 * r2 - 4.0 * t2 * x * w * y * c * r2 + t3 * c * c) / (2.0 * g * g)


# ---------------------------------------------------------------------------
# hydrogen
# ---------------------------------------------------------------------------

def _hydrogen_norms(n, l, m):
    """(c_rad, N_lm) = ((2/n^2) / sqrt((n-l)...(n+l)),
    sqrt((2l+1) / (4 pi) / ((l-|m|+1)...(l+|m|)))): the normalisations of
    R_nl and of N_lm P_l^|m|, which ``WaveField`` computes once per state.

    Each product stops at its first overflow, at most ~1000 factors in, so
    an l near the float range costs no loop of 2l + 1 factors; the state is
    then rejected, as is any whose normalisation is not a positive float."""
    fr = _product(range(n - l, n + l + 1))
    fa = _product(range(l - abs(m) + 1, l + abs(m) + 1))
    # int / int, so an n whose square is beyond the float range gives 0.0, as
    # does the inf fr of an l whose 2l + 1 N_lm could not convert to a float
    c_rad = (2 / n**2) / math.sqrt(fr)
    norms = c_rad, (math.sqrt((2 * l + 1) / (4.0 * math.pi) / fa) if c_rad else 0.0)
    if not min(norms) > 0:
        raise InvalidParameterError(
            f"(n, l, m) = ({n}, {l}, {m}) has a normalisation of {min(norms)!r}, "
            "not a positive float")
    return norms


def _product(factors):
    """The float product of the int factors, inf from its first overflow on."""
    p = 1.0
    for i in factors:
        p *= i
        if p == math.inf:
            break
    return p


# the recurrences of the kernel's density, for arrays
_genlaguerre = _array(kernels._genlaguerre)
_assoc_legendre = _array(kernels._assoc_legendre)


def _hydrogen_real(par, x, y, z):
    """(R_nl(r), N_lm P_l^|m|(cos theta)): the real factors of the eigenstate.
    ``par`` is the kernel's (n, l, m, c_rad, N_lm), see ``WaveField._par``."""
    n, l, ma = int(par[0]), int(par[1]), abs(int(par[2]))
    r = np.sqrt(x * x + y * y + z * z)
    rho = 2.0 * r / n
    rad = par[3] * rho**l * np.exp(-0.5 * rho)
    if n - l - 1 > 0:  # L_0 is exactly 1
        rad = rad * _genlaguerre(n - l - 1, 2 * l + 1, rho)
    if (r > 0).all():
        cth = z / r
    else:
        cth = np.divide(z, r, out=np.ones_like(r), where=r > 0)
    sth = np.sqrt(np.maximum(0.0, 1.0 - cth * cth)) if ma > 0 else 0.0
    return rad, par[4] * _assoc_legendre(l, ma, cth, sth)


def hydrogen_psi(p: HydrogenParams, par, x, y, z, t):
    """Eigenstate via Laguerre/Legendre recurrences (vectorized); ``par`` as
    in ``_hydrogen_real``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    ma = abs(p.m)
    rad, ang = _hydrogen_real(par, x, y, z)
    phi = np.arctan2(y, x)
    ang = ang * np.exp(1j * ma * phi)
    if p.m < 0:
        ang = (-1.0) ** ma * np.conj(ang)
    return rad * ang * np.exp(-1j * p.energy * t)


def hydrogen_rho(par, x, y, z):
    """|psi|^2 as the square of the real amplitude R_nl N_lm P_l^|m|: the
    phase factors e^{i m phi} and e^{-i E t} have modulus 1.  ``par`` as in
    ``_hydrogen_real``."""
    rad, ang = _hydrogen_real(par, x, y, z)
    a = rad * ang
    return a * a


def _hydrogen_singular_mask(p: HydrogenParams, x, y, z):
    r2 = x * x + y * y + z * z
    bad = r2 < 1e-280
    if p.m != 0:
        bad = bad | (x * x + y * y < 1e-280)
    return bad


def hydrogen_qpot_closed(p: HydrogenParams, x, y, z):
    """Q = E_n + 1/r - m^2/(2 s^2), exact for every eigenstate off its nodes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    _raise_where(_hydrogen_singular_mask(p, x, y, z), "quantum potential singular at r=0 / z-axis")
    r = np.sqrt(x * x + y * y + z * z)
    q = p.energy + 1.0 / r
    if p.m != 0:
        q = q - 0.5 * p.m * p.m / (x * x + y * y)
    return q
