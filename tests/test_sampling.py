"""Initial-condition sampling: quantile placement, rejection streams, grad-S."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import k1, ndtri

import qctrans as qt
from qctrans.sampling import (
    GridCDF,
    default_domain,
    estimate_envelope,
    initial_velocities,
    marginal_density_1d,
    sample_initial_conditions,
)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _peak_bytes(f):
    """Peak traced allocation of f(); numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- GridCDF ------------------------------------------------------------------

def test_gridcdf_standard_normal():
    g = GridCDF(lambda x: np.exp(-0.5 * x**2), -10.0, 10.0)
    assert abs(g.mean()) < 1e-12
    assert g.var() == pytest.approx(1.0, rel=1e-10)
    assert g.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert g.ppf(0.975)[0] == pytest.approx(1.959963985, abs=1e-6)


def test_gridcdf_ppf_cdf_roundtrip():
    g = GridCDF(lambda x: np.exp(-0.5 * x**2), -10.0, 10.0)
    levels = np.linspace(0.05, 0.95, 19)
    assert np.abs(g.cdf(g.ppf(levels)) - levels).max() < 1e-9


def test_gridcdf_monotone_and_clipped():
    g = GridCDF(lambda x: np.exp(-0.5 * x**2), -10.0, 10.0)
    xs = np.linspace(-12.0, 12.0, 101)
    f = g.cdf(xs)
    assert np.all(np.diff(f) >= 0)
    assert f[0] == 0.0
    assert f[-1] == pytest.approx(1.0, abs=1e-12)


def test_gridcdf_rejects_bad_levels():
    g = GridCDF(lambda x: np.exp(-0.5 * x**2), -10.0, 10.0)
    for lv in (0.0, 1.0, -0.1):
        with pytest.raises(qt.InvalidParameterError):
            g.ppf(lv)


def test_sampler_config_takes_numpy_integers():
    # a count or seed computed with numpy is an np.int64, no int
    hyd = qt.hydrogen()
    ref = qt.sample_positions(hyd, qt.SamplerConfig(n=50, seed=3))
    got = qt.sample_positions(hyd, qt.SamplerConfig(n=np.int64(50), seed=np.int64(3)))
    assert np.array_equal(got, ref)
    for bad, text in (({"n": np.True_}, "n must be a positive int"),
                      ({"seed": np.False_}, "seed must be a non-negative int"),
                      ({"n": np.int64(0)}, "n must be a positive int"),
                      ({"seed": np.int32(-1)}, "seed must be a non-negative int"),
                      ({"envelope_margin": np.True_}, "envelope_margin must be")):
        with pytest.raises(qt.InvalidParameterError, match=text):
            qt.SamplerConfig(**bad)
    assert qt.SamplerConfig(envelope=np.float32(2.0), envelope_margin=np.int64(2)).envelope == 2.0


def _counted_normal():
    calls = []

    def fn(x):
        calls.append(np.size(x))
        return np.exp(-0.5 * x**2)

    return fn, calls


def test_gridcdf_evaluates_each_abscissa_once():
    # refinement turns the old midpoints into nodes, so an N-cell table
    # costs its N + 1 nodes and N midpoints and nothing more
    fn, calls = _counted_normal()
    g = GridCDF(fn, -10.0, 10.0, n_cells=64)
    n = len(g.nodes) - 1
    assert n > 64
    assert sum(calls) == 2 * n + 1


def test_gridcdf_answers_from_its_table():
    fn, calls = _counted_normal()
    g = GridCDF(fn, -10.0, 10.0)
    calls.clear()
    g.cdf(np.linspace(-11.0, 11.0, 101))
    g.ppf([0.1, 0.5, 0.9])
    g.mean()
    g.var()
    assert calls == []
    # the partial-cell parabola integrates to the whole Simpson cell
    x = g.nodes[1:-1]
    assert np.abs(g.cdf(np.nextafter(x, -np.inf)) - g.cdf(x)).max() < 1e-14


# The bulk densities run in blocks of sampling._BLOCK points.  These digests
# were recorded from one whole-array numpy pass (x86-64, numpy 2.4); blocking
# must reproduce every bit of the KS and quantile tables built on them.
@pytest.mark.parametrize("system, t, axis, cells, digest", [
    (qt.hydrogen(), 0.0, "s", 1024,
     "d62c60fa99b7861223955909a07535e9217e8c5be7f2af480e08261e303846bd"),
    (qt.hydrogen(), 0.0, "z", 1024,
     "7dc1ace83d97cbeef9666f425c717ba1118d587d810b3d0a3277768ad85a841c"),
    (qt.hydrogen(3, 2, -1), 0.0, "s", 1024,
     "46a350ee98e83f4047bff55d075db5df7e61555a2126734fbdefe4e2ef956dde"),
    (qt.hydrogen(3, 2, -1), 0.0, "z", 1024,
     "596abf28c568740e3038911d57199551a4c814d4b367cdb304351dc4ff83d1f1"),
    (qt.oscillator_2d(), 0.0, "auto", 4096,
     "a292e1fb811697d160837f67ed4f5d93ddf67753326f81d4f06fb642713c3bb4"),
    (qt.double_slit(), 0.0, "auto", 4096,
     "69d4b88ce12ee6d37a514ecd2fdba51f7afa0618e144615ceb81cadbe35a740c"),
    (qt.double_slit(), 3.0, "auto", 4096,
     "576a9fc860df0ab581056200c20d55c7fd64807d991a75a3e5f74936ba9ed56f"),
], ids=["h211-s", "h211-z", "h32-1-s", "h32-1-z", "osc", "slit-t0", "slit-t3"])
def test_marginal_table_bits_are_pinned(system, t, axis, cells, digest):
    fn, lo, hi = marginal_density_1d(system, t, axis=axis)
    g = GridCDF(fn, lo, hi, n_cells=cells)
    assert _sha256(g.nodes, g.f_nodes, g.f_mids, g.cum) == digest


def test_hydrogen_marginal_stays_in_bounded_memory():
    # 1024 abscissae of 2049 inner points each took ~150 MB as one array
    fn, lo, hi = marginal_density_1d(qt.hydrogen(), axis="s")
    s = np.linspace(lo, hi, 1024)
    assert _peak_bytes(lambda: fn(s)) < 16e6


# --- marginals ----------------------------------------------------------------

@pytest.mark.parametrize("kind, axis", [
    ("double_slit", "s"),
    ("oscillator_2d", "z"),
    ("hydrogen", "x"),
    ("hydrogen", "radius"),
])
def test_marginal_rejects_axis_the_system_lacks(kind, axis):
    with pytest.raises(qt.InvalidParameterError):
        marginal_density_1d(qt.make_system(kind), axis=axis)


def test_oscillator_radial_cdf_matches_closed_form():
    # F(r) = 1 - (1 + w r^2) e^(-w r^2) for every alpha and k0
    osc = qt.oscillator_2d(k0=2.0, alpha=0.3)
    fn, lo, hi = marginal_density_1d(osc)
    w = osc.params.omega
    r = np.linspace(lo, hi, 401)
    exact = 1.0 - (1.0 + w * r * r) * np.exp(-w * r * r)
    assert np.abs(GridCDF(fn, lo, hi).cdf(r) - exact).max() <= 1e-12


def test_hydrogen_211_marginals_match_closed_forms():
    # the quadrature integrates over the cylinder s, |z| <= 20 with inner
    # trapezoids; the exact marginals integrate over all space
    hyd = qt.hydrogen()
    fs, lo, hi = marginal_density_1d(hyd, axis="s")
    s = np.linspace(1e-3, hi, 401)
    assert np.abs(fs(s) - s**4 * k1(s) / 16.0).max() <= 1e-7
    fz, lo, hi = marginal_density_1d(hyd, axis="z")
    z = np.linspace(lo, hi, 401)
    a = np.abs(z)
    assert np.abs(fz(z) - np.exp(-a) * (a * a + 3.0 * a + 3.0) / 16.0).max() <= 2e-6
    tail = np.exp(-a) * (a * a + 5.0 * a + 8.0) / 16.0
    exact = np.where(z >= 0, 1.0 - tail, tail)
    assert np.abs(GridCDF(fz, lo, hi, n_cells=1024).cdf(z) - exact).max() <= 5e-6


# --- quantile sampler ---------------------------------------------------------

def test_quantile_median_is_exact_center():
    # the double-slit density at t=0 is even in x, so the (k-1/2)/n midpoint
    # level at k = (n+1)/2 must land exactly at the origin
    ds = qt.double_slit()
    pts = qt.sample_positions(ds, qt.SamplerConfig(mode="quantile_1d", n=51))
    assert pts.shape == (51, 1)
    assert pts[25, 0] == 0.0
    assert np.all(np.diff(pts[:, 0]) > 0)


def test_quantile_even_split():
    ds = qt.double_slit()
    pts = qt.sample_positions(ds, qt.SamplerConfig(mode="quantile_1d", n=50))
    assert int((pts[:, 0] < 0).sum()) == 25


def test_quantile_levels_hit_cdf():
    ds = qt.double_slit()
    n = 40
    pts = qt.sample_positions(ds, qt.SamplerConfig(mode="quantile_1d", n=n))
    fn, lo, hi = marginal_density_1d(ds)
    cdf = GridCDF(fn, lo, hi)
    levels = (np.arange(n) + 0.5) / n
    assert np.abs(cdf.cdf(pts[:, 0]) - levels).max() < 1e-9


def test_grid_cdf_of_zero_mass_is_refused():
    with pytest.raises(qt.ConfigurationError, match=r"^density mass on \[0, 1\] is 0\.0$"):
        GridCDF(np.zeros_like, 0, 1)


def test_ppf_stops_at_the_bracket_floor_of_a_steep_cdf():
    # F climbs ~4e4 per unit through a spike of width 1e-5, so a bracket of
    # 1e-13 cannot resolve the 1e-10 level tolerance: the bisection stops on
    # the bracket, at the table's quantile
    c, w = 0.1234567, 1e-5
    cdf = GridCDF(lambda x: np.exp(-0.5 * ((x - c) / w) ** 2), -1.0, 1.0)
    levels = np.array([0.3, 0.7])
    miss = np.abs(cdf.cdf(cdf.ppf(levels)) - levels)
    assert np.all(miss > qt.sampling._PPF_TOL) and np.all(miss < 1e-8)
    assert cdf.ppf(levels) == pytest.approx(c + w * ndtri(levels), abs=1e-9)


def test_quantile_requires_1d():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.ConfigurationError):
        qt.sample_positions(osc, qt.SamplerConfig(mode="quantile_1d", n=5))


# --- rejection sampler --------------------------------------------------------

def test_rejection_deterministic_per_seed():
    osc = qt.oscillator_2d()
    a = qt.sample_positions(osc, qt.SamplerConfig(n=200, seed=7))
    b = qt.sample_positions(osc, qt.SamplerConfig(n=200, seed=7))
    c = qt.sample_positions(osc, qt.SamplerConfig(n=200, seed=8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rejection_respects_domain():
    osc = qt.oscillator_2d()
    dom = ((-2.0, 2.0), (-2.0, 2.0))
    pts = qt.sample_positions(osc, qt.SamplerConfig(n=500, seed=1, domain=dom))
    assert pts.shape == (500, 2)
    assert pts.min() >= -2.0 and pts.max() <= 2.0


def test_a_box_where_the_density_underflows_scans_no_envelope():
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(n=4, seed=0, domain=[[50.0, 51.0], [50.0, 51.0]])
    with pytest.raises(qt.ConfigurationError,
                       match=r"^ensemble\.envelope: bad rejection envelope 0\.0$"):
        qt.sample_positions(osc, cfg)


def test_rejection_gives_up_after_5000_empty_batches():
    # an explicit envelope over the same box: no candidate is ever taken
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(n=1, seed=0, domain=[[50.0, 51.0], [50.0, 51.0]], envelope=1.0)
    with pytest.raises(qt.ConfigurationError, match=(
            "^ensemble: rejection sampling acceptance rate is pathologically low$")):
        qt.sample_positions(osc, cfg)


def test_rejection_detects_undersized_envelope():
    ds = qt.double_slit()
    with pytest.raises(qt.EnvelopeError) as exc:
        qt.sample_positions(ds, qt.SamplerConfig(n=16, seed=0, envelope=1e-4))
    msg = str(exc.value)
    assert "exceeds envelope" in msg
    assert "ensemble.envelope" in msg


def test_envelope_estimate_matches_density_peak():
    # planar oscillator density peaks at e^-1 / pi on the unit circle
    osc = qt.oscillator_2d()
    env = estimate_envelope(osc, default_domain(osc), 0.0, 1.5)
    assert env == pytest.approx(1.5 * math.exp(-1.0) / math.pi, rel=1e-5)


def _whole_grid_envelope(system, domain, t, margin):
    n = {1: 8192, 2: 512, 3: 96}[system.dim]
    axes = [np.linspace(lo, hi, n) for lo, hi in domain]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return float(system.rho(pts, t).max()) * margin


@pytest.mark.parametrize("system", [
    qt.hydrogen(), qt.hydrogen(3, 2, -1), qt.hydrogen(4, 3, -2),
    qt.oscillator_2d(), qt.double_slit(),
], ids=["h211", "h32-1", "h43-2", "osc", "slit"])
def test_envelope_scan_in_slabs_matches_whole_grid(system):
    dom = default_domain(system)
    assert estimate_envelope(system, dom, 0.0, 1.5) == _whole_grid_envelope(system, dom, 0.0, 1.5)


def test_envelope_scan_propagates_nan():
    class NanInLastSlab:
        dim = 2

        def rho(self, x, t):
            out = np.ones(x.shape[:-1])
            out[(x[..., 0] == 1.0) & (x[..., 1] == 0.0)] = np.nan
            return out

    assert math.isnan(estimate_envelope(NanInLastSlab(), ((0.0, 1.0), (0.0, 1.0)), 0.0, 1.5))


def test_envelope_scan_stays_in_bounded_memory():
    # the 96^3 hydrogen grid took ~85 MB as one array
    hyd = qt.hydrogen()
    dom = default_domain(hyd)
    assert _peak_bytes(lambda: estimate_envelope(hyd, dom, 0.0, 1.5)) < 8e6


def test_hydrogen_rejection_draw_stays_in_bounded_memory():
    # its second proposal batch has 7.2e5 candidates, ~35 MB evaluated whole
    hyd = qt.hydrogen()
    assert _peak_bytes(lambda: qt.sample_positions(hyd, qt.SamplerConfig(n=2000, seed=0))) < 5e6


def test_hydrogen_rejection_draw_bits_are_pinned():
    # the proposal batch grows past sampling._BLOCK candidates, so the
    # density is evaluated across block edges; digest of the whole-array draw
    pts = qt.sample_positions(qt.hydrogen(), qt.SamplerConfig(n=2000, seed=0))
    assert _sha256(pts) == "ac1f0d929745479e66c4da4391556411054ffbf25003512feefa46a5a793d5a4"


def _h211_draw_setup():
    """(hydrogen, its default sampler at n = 2000 with the scanned envelope
    given, so that only the draw evaluates the density)."""
    hyd = qt.hydrogen()
    env = estimate_envelope(hyd, default_domain(hyd), 0.0, 1.5)
    return hyd, qt.SamplerConfig(n=2000, seed=0, envelope=env)


def test_hydrogen_rejection_draw_stops_at_the_nth_acceptance(monkeypatch):
    # batches of 4,096 and 716,679 candidates: the second is evaluated only
    # through the block that holds the 2000th acceptance (the whole batch,
    # 720,775 evaluations in all, before)
    hyd, sampler = _h211_draw_setup()
    evaluated = []
    rho = hyd.rho
    monkeypatch.setattr(hyd, "rho", lambda x, t: evaluated.append(len(x)) or rho(x, t))
    pts = qt.sample_positions(hyd, sampler)
    assert sum(evaluated) == 512_000
    assert _sha256(pts) == "ac1f0d929745479e66c4da4391556411054ffbf25003512feefa46a5a793d5a4"


def test_a_second_rejection_draw_reads_the_stream_after_the_whole_batch():
    # the generator ends where a whole batch leaves it, so a second draw
    # from it (as the guarded-start redraws make) keeps its bits; the digest
    # is that of the draw that evaluated every candidate of each batch
    from qctrans import sampling

    hyd, sampler = _h211_draw_setup()
    rng = sampling._rng(0)
    sampling._rejection_sample(hyd, sampler, 0.0, 2000, rng)
    second = sampling._rejection_sample(hyd, sampler, 0.0, 3, rng)
    assert _sha256(second) == "0a09ca2eef94eccd4ac9e717d27a938ca3560e6e6e2d99765c260143f6f84f3e"


def test_guarded_rejection_starts_share_one_envelope_scan(monkeypatch):
    # a raised node guard sends many hydrogen starts back for a redraw; the
    # redraws reuse the ensemble's envelope instead of scanning again
    from qctrans import sampling

    scans = []

    def counted(*args):
        scans.append(args[1])
        return estimate_envelope(*args)

    monkeypatch.setattr(sampling, "estimate_envelope", counted)
    hyd = qt.hydrogen()
    sampler = qt.SamplerConfig(mode="rejection", n=50, seed=3)
    drawn = qt.sample_positions(hyd, sampler)
    assert len(scans) == 1
    pos, _ = sample_initial_conditions(hyd, sampler, 0.0, qt.StencilConfig(min_rho=5e-4))
    assert len(scans) == 2
    redrawn = np.any(pos != drawn, axis=1)
    assert redrawn.sum() >= 10
    assert np.array_equal(pos[~redrawn], drawn[~redrawn])


def test_rejection_mean_matches_quadrature():
    osc = qt.oscillator_2d()
    pts = qt.sample_positions(osc, qt.SamplerConfig(n=20000, seed=4))
    r = np.hypot(pts[:, 0], pts[:, 1])
    fn, lo, hi = marginal_density_1d(osc)
    cdf = GridCDF(fn, lo, hi)
    se = math.sqrt(cdf.var() / len(r))
    assert abs(r.mean() - cdf.mean()) < 3 * se


def test_rejection_ks_double_slit_20_seeds():
    ds = qt.double_slit()
    fn, lo, hi = marginal_density_1d(ds)
    cdf = GridCDF(fn, lo, hi)
    crit = 1.6276 / math.sqrt(4096)
    hits = 0
    for seed in range(20):
        pts = qt.sample_positions(ds, qt.SamplerConfig(n=4096, seed=seed))
        hits += qt.ks_distance(pts[:, 0], cdf.cdf) < crit
    assert hits >= 19


def test_rejection_ks_oscillator_20_seeds():
    osc = qt.oscillator_2d()
    fn, lo, hi = marginal_density_1d(osc)
    cdf = GridCDF(fn, lo, hi)
    crit = 1.6276 / math.sqrt(4096)
    hits = 0
    for seed in range(20):
        pts = qt.sample_positions(osc, qt.SamplerConfig(n=4096, seed=seed))
        hits += qt.ks_distance(np.hypot(pts[:, 0], pts[:, 1]), cdf.cdf) < crit
    assert hits >= 19


def test_rejection_ks_hydrogen_10_seeds():
    hyd = qt.hydrogen()
    fn, lo, hi = marginal_density_1d(hyd)
    cdf = GridCDF(fn, lo, hi, n_cells=1024)
    crit = 1.6276 / math.sqrt(2048)
    hits = 0
    for seed in range(10):
        pts = qt.sample_positions(hyd, qt.SamplerConfig(n=2048, seed=seed))
        hits += qt.ks_distance(np.hypot(pts[:, 0], pts[:, 1]), cdf.cdf) < crit
    assert hits >= 9


# --- fixed mode ---------------------------------------------------------------

def test_fixed_positions_pass_through():
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(mode="fixed", n=2, positions=((1.0, 0.0), (0.0, 2.0)))
    pts = qt.sample_positions(osc, cfg)
    assert np.array_equal(pts, [[1.0, 0.0], [0.0, 2.0]])


def test_fixed_count_mismatch():
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(mode="fixed", n=3, positions=((1.0, 0.0),))
    with pytest.raises(qt.ConfigurationError):
        qt.sample_positions(osc, cfg)


def test_fixed_explicit_velocities():
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(mode="fixed", n=1, positions=((1.0, 0.0),),
                           velocities=((0.5, -0.5),))
    pos, vel = sample_initial_conditions(osc, cfg)
    assert np.array_equal(vel, [[0.5, -0.5]])


def test_fixed_velocities_shape_mismatch():
    osc = qt.oscillator_2d()
    cfg = qt.SamplerConfig(mode="fixed", n=2, positions=((1.0, 0.0), (0.0, 2.0)),
                           velocities=((0.5, -0.5),))
    with pytest.raises(qt.ConfigurationError):
        sample_initial_conditions(osc, cfg)


# --- initial velocities -------------------------------------------------------

def test_grad_s_velocities_match_closed_flow():
    osc = qt.oscillator_2d()
    hyd = qt.hydrogen()
    _, vel = sample_initial_conditions(
        osc, qt.SamplerConfig(mode="fixed", n=1, positions=((0.0, 2.0),))
    )
    assert vel[0] == pytest.approx([-0.5, 0.0], abs=1e-8)
    _, vel = sample_initial_conditions(
        hyd, qt.SamplerConfig(mode="fixed", n=1, positions=((0.0, 4.0, 1.0),))
    )
    assert vel[0] == pytest.approx([-0.25, 0.0, 0.0], abs=1e-8)


def test_double_slit_velocity_signs():
    # u = -2: the packets separate, so the wings carry sign(x) * 2;
    # u = +2 reverses both wings and the packets converge
    for u, wing in ((-2.0, 2.0), (2.0, -2.0)):
        ds = qt.make_system("double_slit", u=u)
        pos, vel = sample_initial_conditions(ds, qt.SamplerConfig(mode="quantile_1d", n=11))
        assert np.abs(vel[:5, 0] + wing).max() < 1e-6
        assert np.abs(vel[6:, 0] - wing).max() < 1e-6
        # psi is even in x, so grad S vanishes identically at the centre
        assert vel[5, 0] == 0.0


def test_node_retry_perturbs_quantile_positions():
    # the oscillator origin is a node; the retry shifts by the stencil step
    osc = qt.oscillator_2d()
    pos, vel = initial_velocities(osc, [[0.0, 0.0]], 0.0)
    assert np.array_equal(pos, [[1e-4, 1e-4]])
    assert vel[0, 0] < 0 < vel[0, 1]


def test_node_retry_exhaustion_keeps_the_start_at_rest():
    # after ten guarded shifts the start keeps its position with velocity 0,
    # for the engine's start guard to stop it
    osc = qt.oscillator_2d()
    pos, vel = initial_velocities(osc, [[0.0, 0.0]], 0.0, stencil=qt.StencilConfig(min_rho=1e-1))
    assert np.array_equal(pos, [[0.0, 0.0]])
    assert np.array_equal(vel, [[0.0, 0.0]])


def test_node_retry_rejection_resamples():
    osc = qt.oscillator_2d()
    calls = []

    def resample():
        calls.append(1)
        return np.array([1.0, 0.0])

    pos, vel = initial_velocities(osc, [[0.0, 0.0]], 0.0, resample=resample)
    assert len(calls) == 1
    assert np.array_equal(pos, [[1.0, 0.0]])
    assert vel[0] == pytest.approx([0.0, 1.0], abs=1e-8)


# --- config validation --------------------------------------------------------

# (system, ensemble section) pairs that build_scenario refuses; the samplers
# refuse the SamplerConfig of the same section with the same message
_SECTION_ERRORS = {
    "positions_rejection": ("oscillator_2d", {"mode": "rejection", "n": 2,
                                              "positions": [[1.0, 0.0], [0.0, 2.0]]}),
    "positions_quantile": ("double_slit", {"mode": "quantile_1d", "n": 1, "positions": [[0.5]]}),
    "velocities": ("oscillator_2d", {"mode": "rejection", "n": 1, "velocities": [[1.0, 0.0]]}),
    "quantile_2d": ("oscillator_2d", {"mode": "quantile_1d", "n": 4}),
    "domain_dims": ("double_slit", {"mode": "rejection", "n": 4,
                                    "domain": [[0.0, 1.0], [0.0, 1.0]]}),
    "fixed_count": ("oscillator_2d", {"mode": "fixed", "n": 5,
                                      "positions": [[1.0, 0.0], [0.0, 2.0]]}),
}


@pytest.mark.parametrize("kind,section", _SECTION_ERRORS.values(), ids=_SECTION_ERRORS)
def test_samplers_give_a_section_the_verdict_of_build_scenario(kind, section):
    with pytest.raises(qt.ConfigurationError) as built:
        qt.build_scenario({"system": {"type": kind}, "mode": "guidance", "ensemble": section})
    system, sampler = qt.make_system(kind), qt.SamplerConfig(**section)
    for sample in (qt.sample_positions, sample_initial_conditions):
        with pytest.raises(qt.ConfigurationError) as got:
            sample(system, sampler)
        assert str(got.value) == str(built.value)


@pytest.mark.parametrize("kwargs", [
    {"mode": "halton"},
    {"n": 0},
    {"n": 2.5},
    {"seed": -1},
    {"envelope_margin": 0.5},
    {"mode": "fixed"},
    {"seed": True},
    {"envelope_margin": True},
    {"envelope_margin": math.nan},
    {"envelope_margin": math.inf},
    {"envelope_margin": "2"},
    {"envelope": -1.0},
    {"envelope": True},
])
def test_sampler_config_validation(kwargs):
    with pytest.raises(qt.InvalidParameterError):
        qt.SamplerConfig(**kwargs)


def test_domain_dimension_mismatch():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.ConfigurationError):
        qt.sample_positions(osc, qt.SamplerConfig(n=4, domain=((-1.0, 1.0),)))


def test_domain_bad_interval():
    osc = qt.oscillator_2d()
    with pytest.raises(qt.ConfigurationError):
        qt.sample_positions(
            osc, qt.SamplerConfig(n=4, domain=((1.0, -1.0), (-1.0, 1.0)))
        )


def test_domain_bound_beyond_the_float_range_is_a_bad_interval():
    ds = qt.double_slit()
    message = r"ensemble.domain\[0\]: expected \[lo, hi\] with lo < hi, got \(0, 1000"
    for mode in ("quantile_1d", "rejection"):
        with pytest.raises(qt.ConfigurationError, match=message):
            qt.sample_positions(ds, qt.SamplerConfig(mode=mode, n=4, domain=((0, 10**400),)))


@pytest.mark.parametrize("section,message", [
    ({"mode": "fixed", "n": 1, "positions": "abc"},
     "ensemble.positions: bad positions array: could not convert string to float: 'abc'"),
    ({"mode": "fixed", "n": 1, "positions": [[math.nan, 0.0]]},
     "ensemble.positions: positions must be finite"),
    ({"domain": 5}, "ensemble.domain: expected a list of [lo, hi] pairs"),
    ({"domain": [5, 6]}, "ensemble.domain[0]: expected [lo, hi] with lo < hi, got 5"),
], ids=["positions_text", "positions_nan", "domain_int", "domain_flat"])
def test_a_sampler_config_gets_the_document_checks(section, message):
    # the same section as a Python config and in a document: one message
    osc = qt.oscillator_2d()
    with pytest.raises(qt.ConfigurationError) as exc:
        qt.sample_initial_conditions(osc, qt.SamplerConfig(**section))
    assert str(exc.value) == message
    doc = {"system": {"type": "oscillator_2d"}, "mode": "guidance", "ensemble": section}
    with pytest.raises(qt.ConfigurationError) as exc:
        qt.build_scenario(doc)
    assert str(exc.value) == message
