"""Initial-condition sampling from |psi(. , t_start)|^2.

Two samplers:

* ``quantile_1d`` -- deterministic inverse-CDF placement at the midpoint
  levels (k - 1/2)/n; 1D systems only.  The CDF comes from composite Simpson
  quadrature on a symmetric interval, inverted by bisection.
* ``rejection`` -- seeded rejection sampling inside a bounding box under a
  constant envelope (grid-scanned density maximum times a safety margin).
  The stream is a counter-based Philox generator, so runs are reproducible
  across platforms; spawned substreams keep resampling independent of the
  main proposal stream.

A third mode, ``fixed``, passes explicit start positions through (velocities
optional), which is how figure-style runs pin their starting points.

Initial velocities are the phase gradient grad S at t_start.  Positions that
land inside the node guard are perturbed by the stencil step (quantile/fixed)
or resampled (rejection), at most 10 times each.

Every bulk |psi|^2 evaluation here (the envelope scan, the hydrogen marginal
quadratures and the rejection candidates) and in ``export.compute_field``
(the field maps, in blocks of whole grid rows) runs on blocks of about
``_BLOCK`` = 2^13 points.  The scan and the marginals write each block's
points into one reused buffer.  A rejection batch is drawn one block of
candidates at a time: the points from the generator, in order, and the
acceptance uniforms from a copy of it moved past the batch's points
(``_ahead``), whose state the generator takes after the batch, so the
stream is read at the same positions as by one whole-batch draw.  A
hydrogen |psi|^2 holds up to six temporaries the size of its input at
once, ~400 kB for a block, so they stay in cache and peak memory no longer
grows with the grid or the candidate batch.  The size is
measured: with glibc's default malloc thresholds a fresh process hands the
memory of a 2^14- or 2^15-point block back to the kernel after each block
and faults it in again (the hydrogen s marginal then ran ~1.8x slower than
at 2^13), and at 2^12 an s-marginal block is a single abscissa and pays
numpy's per-call cost.  Each block goes through the same elementwise numpy
operations as the whole array would, so every value is bitwise the same as
one pass over all points.
"""

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, EnvelopeError, InvalidParameterError, NodeProximityError
from .fields import DEFAULT_STENCIL, _grad_s, velocity_grad_s
from .systems import WaveField, _integer, _is_pair, _number, _shown

_MAX_RETRIES = 10
_BLOCK = 1 << 13  # points per bulk density evaluation
_CDF_TOL = 1e-12  # relative change of a GridCDF's mass at which its cells stop halving
_CDF_MAX_CELLS = 1 << 19
_PPF_TOL = 1e-10  # |F - level| at which a quantile is found


def _by_rows(f, x, rows):
    """f(x) for an f that maps each row of x (along its first axis) to one
    float, evaluated on at most ``rows`` rows at a time."""
    out = np.empty(len(x))
    for i in range(0, len(x), rows):
        out[i : i + rows] = f(x[i : i + rows])
    return out


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "rejection"
    n: int = 100
    seed: int = 0
    domain: tuple | None = None          # ((lo, hi), ...) per dimension
    envelope_margin: float = 1.5
    envelope: float | None = None        # explicit density bound override
    positions: tuple | None = None       # fixed mode
    velocities: tuple | None = None      # fixed mode, optional

    def __post_init__(self):
        if self.mode not in ("rejection", "quantile_1d", "fixed"):
            raise InvalidParameterError(f"unknown sampler mode {_shown(self.mode)}")
        if not (_integer(self.n) and self.n >= 1):
            raise InvalidParameterError(f"n must be a positive int, got {_shown(self.n)}")
        if not (_integer(self.seed) and self.seed >= 0):
            raise InvalidParameterError(f"seed must be a non-negative int, got {_shown(self.seed)}")
        if not (_number(self.envelope_margin) and self.envelope_margin >= 1.0):
            raise InvalidParameterError(
                f"envelope_margin must be a finite real >= 1, got {_shown(self.envelope_margin)}"
            )
        if self.envelope is not None and not (_number(self.envelope) and self.envelope > 0):
            raise InvalidParameterError(
                f"envelope must be None or a finite real > 0, got {_shown(self.envelope)}"
            )
        if self.mode == "fixed" and self.positions is None:
            raise InvalidParameterError("fixed sampler mode requires positions")


def default_domain(system: WaveField):
    """Bounding box of the samplers and the KS marginals.

    Fraction of the mass outside the box at t = 0:

    * double slit: < 1e-16 for any parameters, since each packet sits at
      least 6 rho0 inside the box;
    * oscillator: < 37 e^-36 = 8.6e-15 for any k0 and alpha, the mass
      outside the inscribed disk omega r^2 = 36;
    * hydrogen: at most the mass outside the inscribed sphere r = 5 n^2,
      which is 2.8e-3 for n = 1, 4.2e-5 for (2, 0) and 1.7e-5 for (2, 1).
      The default (2, 1, 1) box holds 0.9999972, and its s and z marginals,
      which integrate over the cylinder s <= 20, |z| <= 20, hold 0.9999928.
    """
    if system.kind == "double_slit":
        p = system.params
        half = 4.0 * p.X + 6.0 * p.rho0
        return ((-half, half),)
    if system.kind == "oscillator_2d":
        half = 6.0 / math.sqrt(system.params.omega)
        return ((-half, half), (-half, half))
    half = 5.0 * system.params.n**2
    return ((-half, half),) * 3


def _domain(system, sampler):
    """The sampler's box as float pairs: its domain (``_start`` checks a
    given one) or the system's default."""
    dom = sampler.domain if sampler.domain is not None else default_domain(system)
    return tuple((float(lo), float(hi)) for lo, hi in dom)


def _points(raw, key, dim):
    """Explicit start positions or velocities as an (n, dim) array."""
    try:
        a = np.asarray(raw, dtype=float).reshape(-1, dim)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"bad {key} array: {e}", path=f"ensemble.{key}") from e
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"{key} must be finite", path=f"ensemble.{key}")
    return a


class GridCDF:
    """Numeric CDF of a 1D non-negative density on [lo, hi], kept as a table.

    The density is evaluated once per abscissa, at the nodes and cell
    midpoints of a uniform grid.  The cells halve until the composite
    Simpson mass is stable to ``_CDF_TOL`` relative, or up to
    ``_CDF_MAX_CELLS`` cells; the old midpoints become nodes, so an N-cell
    table costs 2N + 1 density values.  After construction every answer
    reads the table: ``cdf`` adds the exact integral of the partial cell's
    Simpson parabola, so the CDF is continuous at every node, and
    ``mean``/``var`` are Simpson sums.
    Quantiles are found by bisection from the full symmetric interval, so an
    antisymmetric-density midpoint level hits the centre exactly.

    ``fn`` receives all new abscissae of a refinement step in one call (up
    to 8192 for the tables built here).  The hydrogen callbacks of
    ``marginal_density_1d`` bound their own memory: each abscissa is a
    trapezoid over 1025 or 2049 inner points, evaluated ``_BLOCK // inner``
    abscissae at a time.
    """

    def __init__(self, fn, lo, hi, n_cells=4096):
        self.lo = float(lo)
        self.hi = float(hi)
        n = int(n_cells)
        nodes = np.linspace(self.lo, self.hi, n + 1)
        f_nodes = np.asarray(fn(nodes), dtype=float)
        total_prev = None
        while True:
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            f_mids = np.asarray(fn(mids), dtype=float)
            cells = _simpson_cells(nodes, f_nodes, f_mids)
            total = float(cells.sum())
            tol = _CDF_TOL * max(total, 1e-300)
            if n >= _CDF_MAX_CELLS or (total_prev is not None and abs(total - total_prev) <= tol):
                break
            total_prev = total
            nodes = _interleave(nodes, mids)
            f_nodes = _interleave(f_nodes, f_mids)
            n *= 2
        if not (total > 0 and math.isfinite(total)):
            raise ConfigurationError(f"density mass on [{lo}, {hi}] is {total}")
        self.nodes = nodes
        self.f_nodes = f_nodes
        self.f_mids = f_mids
        self.cum = np.concatenate([[0.0], np.cumsum(cells)])
        self.total = total

    def cdf(self, x):
        xc = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        idx = np.clip(np.searchsorted(self.nodes, xc, side="right") - 1, 0, len(self.nodes) - 2)
        a = self.nodes[idx]
        w = self.nodes[idx + 1] - a
        u = (xc - a) / w
        f0, fm, f1 = self.f_nodes[idx], self.f_mids[idx], self.f_nodes[idx + 1]
        # integral over [a, a + u w] of the parabola through the cell's three
        # stored values; at u = 1 it is the cell's Simpson sum
        part = w * u * (f0 + u * (0.5 * (4.0 * fm - 3.0 * f0 - f1)
                                  + u * (2.0 / 3.0) * (f0 - 2.0 * fm + f1)))
        return np.clip((self.cum[idx] + part) / self.total, 0.0, 1.0)

    def ppf(self, levels):
        """Inverse CDF by bisection.  It stops when |F - level| <= ``_PPF_TOL``
        at every point, or when the widest bracket is below
        1e-13 max(1, hi - lo), [lo, hi] being the table's range.  On a steep
        CDF the second rule comes first, and the quantile it returns can miss
        its level by more than ``_PPF_TOL`` (by 9e-10 at level 0.3 of a spike
        of width 1e-5)."""
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if np.any((levels <= 0) | (levels >= 1)):
            raise InvalidParameterError("quantile levels must lie in (0, 1)")
        lo = np.full(levels.shape, self.lo)
        hi = np.full(levels.shape, self.hi)
        mid = 0.5 * (lo + hi)
        for _ in range(200):
            f = self.cdf(mid) - levels
            done = np.abs(f) <= _PPF_TOL
            if done.all():
                break
            hi = np.where(f > 0, mid, hi)
            lo = np.where(f > 0, lo, mid)
            new_mid = 0.5 * (lo + hi)
            mid = np.where(done, mid, new_mid)
            if np.max(hi - lo) < 1e-13 * max(1.0, abs(self.hi - self.lo)):
                break
        return mid

    def mean(self):
        return self._moment(lambda x: x)

    def var(self):
        m = self.mean()
        return self._moment(lambda x: (x - m) ** 2)

    def _moment(self, g):
        nodes = self.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        cells = _simpson_cells(nodes, self.f_nodes * g(nodes), self.f_mids * g(mids))
        return float(cells.sum()) / self.total


def _simpson_cells(nodes, f_nodes, f_mids):
    return np.diff(nodes) / 6.0 * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])


def _interleave(a, b):
    """a[0], b[0], a[1], ..., b[-1], a[-1]; a has one element more than b."""
    out = np.empty(a.size + b.size)
    out[0::2] = a
    out[1::2] = b
    return out


def marginal_density_1d(system: WaveField, t=0.0, axis="auto"):
    """Vectorized 1D marginal density and its natural support.

    Returns (fn, lo, hi).  Marginals: x for the double slit, polar radius for
    the oscillator, cylindrical radius 's' or height 'z' for hydrogen.
    ``axis`` is "auto" (the first of these) for every system; hydrogen also
    takes "s" and "z".
    """
    axes = ("auto", "s", "z") if system.kind == "hydrogen" else ("auto",)
    if axis not in axes:
        raise InvalidParameterError(
            f"{system.kind} has no marginal axis {axis!r}; expected one of {axes}"
        )
    system._check_t(t)
    if system.kind == "double_slit":
        (dom,) = default_domain(system)

        def fn(x):
            return system.rho(np.asarray(x, dtype=float)[..., None], t)

        return fn, dom[0], dom[1]
    if system.kind == "oscillator_2d":
        # |psi|^2 = (w^2 / pi) (x^2 + 2 x y cos(alpha) + y^2) e^(-w r^2) at
        # every t, and the angular mean of the bracket is r^2 for every alpha
        w = system.params.omega
        hi = default_domain(system)[0][1]

        def fn(r):
            r = np.asarray(r, dtype=float)
            return 2.0 * w * w * r**3 * np.exp(-w * r * r)

        return fn, 0.0, hi
    # hydrogen: |psi|^2 is phi-independent, so the phi integral is 2 pi.
    # Each abscissa is a trapezoid over an inner axis; a block of
    # _BLOCK // inner abscissae reuses one point buffer, in which only the
    # abscissa's coordinate changes from block to block
    hi = default_domain(system)[0][1]
    if axis == "z":
        inner = np.linspace(0.0, hi, 1025)  # s, on the half-plane y = 0, x = s
        lo, col, inner_col = -hi, 2, 0

        def integral(z, rho):
            return 2.0 * math.pi * np.trapezoid(rho * inner, inner, axis=-1)
    else:
        inner = np.linspace(-hi, hi, 2049)  # z
        lo, col, inner_col = 0.0, 0, 2

        def integral(s, rho):
            return 2.0 * math.pi * s * np.trapezoid(rho, inner, axis=-1)

    def fn(x):
        x = np.asarray(x, dtype=float)
        buf = np.zeros((max(1, _BLOCK // inner.size), inner.size, 3))
        buf[..., inner_col] = inner

        def block(a):
            pts = buf[: a.size]
            pts[..., col] = a[:, None]
            return integral(a, system.rho(pts, t))

        return _by_rows(block, x.ravel(), len(buf)).reshape(x.shape)

    return fn, lo, hi


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def estimate_envelope(system: WaveField, domain, t, margin):
    """Grid-scanned density maximum times the safety margin.

    The grid has n = 8192, 512 or 96 points per axis in 1, 2 or 3
    dimensions.  It is evaluated in slabs of whole first-axis rows, as many
    as fit in ``_BLOCK`` points and at least one (the whole 1D grid, 16
    rows of 512 in 2D, one row of 96^2 in 3D), so the 3D scan holds ~1 MB
    instead of ~85.  The maximum over the row maxima is the maximum of the
    whole grid, and a NaN anywhere still propagates to the result.
    """
    dim = system.dim
    n = {1: 8192, 2: 512, 3: 96}[dim]
    m = n ** (dim - 1)  # points per first-axis row
    axes = [np.linspace(lo, hi, n) for lo, hi in domain]
    rows = min(n, max(1, _BLOCK // m))
    # one slab's points, reused: only the first coordinate changes per slab
    grids = np.meshgrid(np.zeros(rows), *axes[1:], indexing="ij")
    slab = np.stack([g.ravel() for g in grids], axis=-1)

    def row_max(x0):
        pts = slab[: x0.size * m]
        pts[:, 0] = np.repeat(x0, m)
        return system.rho(pts, t).reshape(x0.size, m).max(axis=1)

    return float(np.max(_by_rows(row_max, axes[0], rows))) * margin


def _start(system: WaveField, sampler: SamplerConfig):
    """Check the sampler's section against the system, as ``build_scenario``
    and both samplers do, so a section gets one verdict; returns the fixed
    mode's positions and velocities (None if not given) as (n, dim) arrays,
    and (None, None) in the other modes.

    A given domain must be a list of one [lo, hi] pair per dimension; the
    default one is not built here, so the check costs no envelope scan and
    no hydrogen box."""
    dom = sampler.domain
    if dom is not None:
        if not isinstance(dom, (list, tuple)):
            raise ConfigurationError("expected a list of [lo, hi] pairs", path="ensemble.domain")
        for i, pair in enumerate(dom):
            if not _is_pair(pair):
                raise ConfigurationError(f"expected [lo, hi] with lo < hi, got {_shown(pair)}",
                                         path=f"ensemble.domain[{i}]")
        if len(dom) != system.dim:
            raise ConfigurationError(f"domain has {len(dom)} dimensions, system has {system.dim}",
                                     path="ensemble.domain")
    given = {key: _points(getattr(sampler, key), key, system.dim)
             for key in ("positions", "velocities") if getattr(sampler, key) is not None}
    for key in given:
        if sampler.mode != "fixed":
            raise ConfigurationError(f"only the fixed mode takes {key}, mode is {sampler.mode!r}",
                                     path=f"ensemble.{key}")
    if sampler.mode == "quantile_1d" and system.dim != 1:
        raise ConfigurationError("quantile_1d requires a 1D system", path="ensemble.mode")
    if sampler.mode != "fixed":
        return None, None
    pos, vel = given["positions"], given.get("velocities")
    if pos.shape[0] != sampler.n:
        raise ConfigurationError(
            f"fixed positions count {pos.shape[0]} != n {sampler.n}",
            path="ensemble.positions",
        )
    if vel is not None and vel.shape != pos.shape:
        raise ConfigurationError(
            f"velocities shape {vel.shape} != positions shape {pos.shape}",
            path="ensemble.velocities",
        )
    return pos, vel


def sample_positions(system: WaveField, sampler: SamplerConfig, t_start=0.0):
    """Draw n start positions distributed as |psi(. , t_start)|^2."""
    pos = _start(system, sampler)[0]
    if pos is not None:
        return pos.copy()
    if sampler.mode == "quantile_1d":
        dom = _domain(system, sampler)[0]
        cdf = GridCDF(marginal_density_1d(system, t_start)[0], dom[0], dom[1])
        levels = (np.arange(sampler.n) + 0.5) / sampler.n
        return cdf.ppf(levels)[:, None]
    return _rejection_sample(system, sampler, t_start, sampler.n, _rng(sampler.seed))


def _rejection_sample(system, sampler, t_start, n, rng):
    dom = _domain(system, sampler)
    dim = system.dim
    env = sampler.envelope
    if env is None:
        env = estimate_envelope(system, dom, t_start, sampler.envelope_margin)
    if not (env > 0 and math.isfinite(env)):
        raise ConfigurationError(f"bad rejection envelope {env}", path="ensemble.envelope")
    lo = np.array([d[0] for d in dom])
    wid = np.array([d[1] - d[0] for d in dom])
    out = np.empty((n, dim))
    got = 0
    batches = 0
    proposed = 0
    chunk = max(4096, 2 * n)
    while got < n:
        batches += 1
        if batches > 5000:
            raise ConfigurationError(
                "rejection sampling acceptance rate is pathologically low",
                path="ensemble",
            )
        # the batch's chunk uniforms follow its chunk * dim point draws in
        # the stream; a copy of the generator reads them piece by piece
        ahead = _ahead(rng, chunk * dim)
        tops, first_bad = [], None
        for i in range(0, chunk, _BLOCK):
            m = min(_BLOCK, chunk - i)
            pts = lo + wid * rng.random((m, dim))
            rho = system.rho(pts, t_start)
            bad = rho > env
            tops.append(rho.max())
            if first_bad is None and bad.any():
                first_bad = pts[np.argmax(bad)]
            keep = pts[ahead.random(m) * env < rho]
            take = min(n - got, keep.shape[0])
            out[got : got + take] = keep[:take]
            got += take
        if first_bad is not None:
            raise EnvelopeError(
                f"density {np.max(tops):.6e} exceeds envelope {env:.6e} at {first_bad.tolist()}",
                path="ensemble.envelope",
            )
        rng.bit_generator.state = ahead.bit_generator.state
        proposed += chunk
        # low-acceptance boxes (3D especially) grow the proposal batch so
        # the draw stays vectorized instead of looping thousands of times
        if got < n and got > 0:
            rate = got / proposed
            chunk = int(min(1 << 22, max(chunk, 1.5 * (n - got) / rate)))
    return out


def _ahead(rng, k):
    """A copy of the Philox generator rng, k doubles further on: the rest of
    its partly read block of 4 doubles is read, whole blocks are skipped by
    ``advance`` and the remainder is read and discarded."""
    ahead = copy.deepcopy(rng)
    bits = ahead.bit_generator
    left = min(k, 4 - bits.state["buffer_pos"])
    bits.random_raw(left)
    if k - left >= 4:
        bits.advance((k - left) // 4)
    bits.random_raw((k - left) % 4)
    return ahead


def initial_velocities(system: WaveField, positions, t_start=0.0, stencil=None,
                       resample=None):
    """grad S at each start position, with node-guard retries.

    Guarded positions are replaced by ``resample()`` when it is given (the
    rejection sampler's redraw), else perturbed by the stencil step, at most
    10 times each.  Returns (positions, velocities); positions may
    differ from the input where retries fired.
    """
    st = stencil or DEFAULT_STENCIL
    pos = np.asarray(positions, dtype=float).reshape(-1, system.dim).copy()
    vel, ok = _grad_s(system, pos, float(t_start), st)
    for i in np.flatnonzero(~ok):
        x = pos[i].copy()
        for attempt in range(1, _MAX_RETRIES + 1):
            if resample is not None:
                x = resample()
            else:
                x = x + st.h
            try:
                vel[i] = velocity_grad_s(system, x, t_start, st)
                pos[i] = x
                break
            except NodeProximityError:
                if attempt == _MAX_RETRIES:
                    raise
    return pos, vel


def sample_initial_conditions(system: WaveField, sampler: SamplerConfig, t_start=0.0,
                              stencil=None):
    """Positions from the configured sampler plus grad-S velocities.

    In ``fixed`` mode explicit velocities (when given) bypass the grad-S
    computation, which is how classical-analytic scenarios pin v0.  The
    section is checked (``_start``) before any envelope scan.
    """
    pos, vel = _start(system, sampler)
    if vel is not None:
        return pos.copy(), vel.copy()
    if sampler.mode == "rejection" and sampler.envelope is None:
        # one envelope scan serves the ensemble and every guarded-start redraw
        env = estimate_envelope(system, _domain(system, sampler), t_start,
                                sampler.envelope_margin)
        sampler = replace(sampler, envelope=env)
    pos = sample_positions(system, sampler, t_start)
    resample = None
    if sampler.mode == "rejection":
        retry_rng = _rng(sampler.seed + 1_000_003)

        def resample():
            return _rejection_sample(system, sampler, t_start, 1, retry_rng)[0]

    pos, vel = initial_velocities(system, pos, t_start, stencil, resample)
    return pos, vel
