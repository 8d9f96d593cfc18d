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
stencil of :mod:`qctrans.fields`, as well as the samplers and field grids;
the scalar kernels in :mod:`qctrans.kernels` carry their own psi for the
integrator, so the two routes cross-check each other.  ``WaveField.rho``
of hydrogen squares the real amplitude R_nl N_lm P_l^|m| instead of
|psi|^2: the phase factors have modulus 1, and real arithmetic is several
times cheaper for the samplers, the KS tables and the ensemble node guard.

The closed forms here are not the ones the integrator runs (those are in
:mod:`qctrans.kernels`).  They stay in their published shape on purpose,
even where a shorter algebraic form exists, so they are an independent
route: the double slit's density and phase and the oscillator and hydrogen
velocities and Q are the tests' oracles, Q also draws the field maps of
``export.compute_field``, and the oscillator density is the ensemble
engine's node guard.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidParameterError, SingularityError


def _finite(name, v):
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be a finite number, got {v!r}")


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
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.l < self.n:
            raise InvalidParameterError(f"l must satisfy 0 <= l < n, got l={self.l}, n={self.n}")
        if abs(self.m) > self.l:
            raise InvalidParameterError(f"|m| must be <= l, got m={self.m}, l={self.l}")

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
            self._par = np.array([float(params.n), float(params.l), float(params.m)])
        else:
            raise InvalidParameterError(f"unknown system kind {kind!r}")

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
        return hydrogen_psi(self.params, xx, yy, zz, t)

    def rho(self, x, t):
        """|psi|^2; for hydrogen the square of its real amplitude."""
        if self.kind != "hydrogen":
            w = self.psi(x, t)
            return (w * w.conjugate()).real
        t = self._check_t(t)
        xx, yy, zz = self._split(x)
        rho = hydrogen_rho(self.params, xx, yy, zz)
        if t.ndim:
            rho = np.broadcast_to(rho, np.broadcast_shapes(rho.shape, t.shape)).copy()
        return rho

    def potential(self, x):
        """Classical potential V(x)."""
        if self.kind == "double_slit":
            (xx,) = self._split(x)
            return np.zeros_like(xx)
        if self.kind == "oscillator_2d":
            xx, yy = self._split(x)
            return 0.5 * self.params.k0 * (xx * xx + yy * yy)
        xx, yy, zz = self._split(x)
        r = np.sqrt(xx * xx + yy * yy + zz * zz)
        with np.errstate(divide="ignore"):
            return -1.0 / r

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


def make_system(kind: str, **params) -> WaveField:
    makers = {"double_slit": double_slit, "oscillator_2d": oscillator_2d, "hydrogen": hydrogen}
    if kind not in makers:
        raise InvalidParameterError(f"unknown system kind {kind!r}")
    maker = makers[kind]
    known = set(inspect.signature(maker).parameters)
    extra = set(params) - known
    if extra:
        raise InvalidParameterError(f"unknown {kind} parameter(s): {sorted(extra)}")
    return maker(**params)


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


def double_slit_rho_closed(p: DoubleSlitParams, x, t):
    """Closed-form |psi|^2 (cross-check route, kept in published shape)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    d = t**2 + p.rho0**4
    pref = np.exp(-2.0 * (x**2 + (-p.u * t + p.X) ** 2) * p.rho0**2 / d)
    e1 = np.exp((p.u * t + x - p.X) ** 2 * p.rho0**2 / d)
    e2 = np.exp((-p.u * t + x + p.X) ** 2 * p.rho0**2 / d)
    cross = 2.0 * np.exp((x**2 + (-p.u * t + p.X) ** 2) * p.rho0**2 / d) * np.cos(
        2.0 * x * (p.X * t + p.u * p.rho0**4) / d
    )
    return pref * (e1 + e2 + cross) / np.sqrt(d / p.rho0**2)


def double_slit_s_closed(p: DoubleSlitParams, x, t):
    """Closed-form phase S (cross-check route); agrees with arg(psi) mod 2pi."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    d = p.rho0**4 + t**2
    w1 = np.exp(p.rho0**2 * (p.u * t + x - p.X) ** 2 / (2.0 * d))
    w2 = np.exp(p.rho0**2 * (-p.u * t + x + p.X) ** 2 / (2.0 * d))
    t1 = (
        t * (-p.u * t + x + p.X) ** 2 / (2.0 * d)
        - 0.5 * np.arctan(t / p.rho0**2)
        + p.u * (-p.u * t / 2.0 + x + p.X)
    )
    t2 = (
        -t * (p.u * t + x - p.X) ** 2 / (2.0 * d)
        + 0.5 * np.arctan(t / p.rho0**2)
        + p.u * (p.u * t / 2.0 + x - p.X)
    )
    return np.arctan2(w1 * np.sin(t1) - w2 * np.sin(t2), w1 * np.cos(t1) + w2 * np.cos(t2))


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


def oscillator_rho_closed(p: Oscillator2DParams, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = p.omega
    return (
        (w * w / math.pi)
        * np.exp(-w * (x * x + y * y))
        * (x * x + y * y + 2.0 * x * y * math.cos(p.alpha))
    )


def oscillator_velocity_closed(p: Oscillator2DParams, x, y):
    """Guidance velocity; singular on the nodal set x^2 + 2xy cos a + y^2 = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = x * x + 2.0 * math.cos(p.alpha) * x * y + y * y
    if np.any(g < 1e-280):
        bad = np.argwhere(np.atleast_1d(g) < 1e-280)
        raise SingularityError("velocity singular on the nodal set", point=bad)
    sa = math.sin(p.alpha)
    return np.stack([-sa * y / g, sa * x / g], axis=-1)


def oscillator_qpot_closed(p: Oscillator2DParams, x, y):
    """Quantum potential of the entangled state (published T1/T2/T3 shape)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = p.omega
    c = math.cos(p.alpha)
    r2 = x * x + y * y
    g = x * x + 2.0 * c * x * y + y * y
    if np.any(g < 1e-280):
        bad = np.argwhere(np.atleast_1d(g) < 1e-280)
        raise SingularityError("quantum potential singular on the nodal set", point=bad)
    t1 = w * w * r2 * r2 - 4.0 * w * r2 + 1.0
    t2 = w * r2 - 4.0
    t3 = x * x * (-4.0 * w * w * y * y * r2 + 16.0 * w * y * y + 1.0) + y * y
    return (-t1 * r2 - 4.0 * t2 * x * w * y * c * r2 + t3 * c * c) / (2.0 * g * g)


# ---------------------------------------------------------------------------
# hydrogen
# ---------------------------------------------------------------------------

def _hydrogen_real(p: HydrogenParams, x, y, z):
    """(R_nl(r), N_lm P_l^|m|(cos theta)): the real factors of the eigenstate."""
    n, l = p.n, p.l
    ma = abs(p.m)
    r = np.sqrt(x * x + y * y + z * z)
    rho = 2.0 * r / n
    fr = 1.0
    for i in range(n - l, n + l + 1):
        fr *= i
    rad = (2.0 / n**2) / math.sqrt(fr) * rho**l * np.exp(-0.5 * rho)
    rad = rad * _genlaguerre_np(n - l - 1, 2 * l + 1, rho)
    fa = 1.0
    for i in range(l - ma + 1, l + ma + 1):
        fa *= i
    nrm = math.sqrt((2 * l + 1) / (4.0 * math.pi) / fa)
    with np.errstate(invalid="ignore", divide="ignore"):
        cth = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
    return rad, nrm * _assoc_legendre_np(l, ma, cth)


def hydrogen_psi(p: HydrogenParams, x, y, z, t):
    """Eigenstate via Laguerre/Legendre recurrences (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    ma = abs(p.m)
    rad, ang = _hydrogen_real(p, x, y, z)
    phi = np.arctan2(y, x)
    ang = ang * np.exp(1j * ma * phi)
    if p.m < 0:
        ang = (-1.0) ** ma * np.conj(ang)
    return rad * ang * np.exp(-1j * p.energy * t)


def hydrogen_rho(p: HydrogenParams, x, y, z):
    """|psi|^2 as the square of the real amplitude R_nl N_lm P_l^|m|: the
    phase factors e^{i m phi} and e^{-i E t} have modulus 1."""
    rad, ang = _hydrogen_real(p, x, y, z)
    a = rad * ang
    return a * a


def _genlaguerre_np(k, a, x):
    if k == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = 1.0 + a - x
    for i in range(1, k):
        prev, cur = cur, ((2.0 * i + 1.0 + a - x) * cur - (i + a) * prev) / (i + 1.0)
    return cur


def _assoc_legendre_np(l, m, c):
    pmm = np.ones_like(c)
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
        for i in range(m):
            pmm = pmm * (-(2.0 * i + 1.0) * s)
    if l == m:
        return pmm
    pm1 = c * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pm1
    pll = pm1
    for ll in range(m + 2, l + 1):
        pll = ((2.0 * ll - 1.0) * c * pm1 - (ll + m - 1.0) * pmm) / (ll - m)
        pmm, pm1 = pm1, pll
    return pll


def _hydrogen_singular_mask(p: HydrogenParams, x, y, z):
    r2 = x * x + y * y + z * z
    bad = r2 < 1e-280
    if p.m != 0:
        bad = bad | (x * x + y * y < 1e-280)
    return bad


def hydrogen_velocity_closed(p: HydrogenParams, x, y, z):
    """Guidance velocity m/s^2 (-y, x, 0); zero for m = 0 states."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if p.m == 0:
        zero = np.zeros_like(x)
        return np.stack([zero, zero, zero], axis=-1)
    s2 = x * x + y * y
    if np.any(s2 < 1e-280):
        bad = np.argwhere(np.atleast_1d(s2) < 1e-280)
        raise SingularityError("velocity singular on the z-axis", point=bad)
    return np.stack([-p.m * y / s2, p.m * x / s2, np.zeros_like(x)], axis=-1)


def hydrogen_qpot_closed(p: HydrogenParams, x, y, z):
    """Q = E_n + 1/r - m^2/(2 s^2), exact for every eigenstate off its nodes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(_hydrogen_singular_mask(p, x, y, z)):
        bad = np.argwhere(np.atleast_1d(_hydrogen_singular_mask(p, x, y, z)))
        raise SingularityError("quantum potential singular at r=0 / z-axis", point=bad)
    r = np.sqrt(x * x + y * y + z * z)
    q = p.energy + 1.0 / r
    if p.m != 0:
        q = q - 0.5 * p.m * p.m / (x * x + y * y)
    return q
