"""Closed forms that only the tests use, as oracles independent of the package.

They stay in their published shape on purpose, even where a shorter
algebraic form exists: the double slit's density and phase, the oscillator's
density and guidance velocity, and hydrogen's guidance velocity.  The
oscillator's and hydrogen's Q in the same shape stay in
:mod:`qctrans.systems`, because ``export.compute_field`` draws the field
maps with them.
"""
import math

import numpy as np

from qctrans.systems import DoubleSlitParams, HydrogenParams, Oscillator2DParams, _raise_where


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
    _raise_where(g < 1e-280, "velocity singular on the nodal set")
    sa = math.sin(p.alpha)
    return np.stack([-sa * y / g, sa * x / g], axis=-1)


def hydrogen_velocity_closed(p: HydrogenParams, x, y, z):
    """Guidance velocity m/s^2 (-y, x, 0); zero for m = 0 states."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if p.m == 0:
        zero = np.zeros_like(x)
        return np.stack([zero, zero, zero], axis=-1)
    s2 = x * x + y * y
    _raise_where(s2 < 1e-280, "velocity singular on the z-axis")
    return np.stack([-p.m * y / s2, p.m * x / s2, np.zeros_like(x)], axis=-1)
