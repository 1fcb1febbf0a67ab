"""The batched energy-interval cover against the per-column reference algorithm.

`cover_from_profile` shares the eigenvalue clusters, the gap samples and the
reciprocal matrix between all boundary columns of a ball.  The oracle below is
the column-at-a-time construction it replaces, kept verbatim as the
reference: both must return the same interval tuples, float for float.  Its
bisection `_bisect_many` is kept verbatim too, as the reference for the
cover's bisection, which forms the same reciprocal matrices another way and
must return the same roots, bit for bit.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmsa.config import load_config
from mpmsa.configspace import MultiBall
from mpmsa.disorder import sample_potential
from mpmsa.experiments import certificate_for, model_from_config, params_from_config
from mpmsa.hamiltonian import spectral_window
from mpmsa import induction
from mpmsa.induction import RootCounts, _merge, _rational, _rational_deriv, cover_from_profile
from mpmsa.msa import MassSchedule
from mpmsa.rng import substream
from mpmsa.spectral import BallOperators, BallSpectra, BoundaryProfile, boundary_profile

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Oracle: one column at a time


def _bisect_many(fn, lo: np.ndarray, hi: np.ndarray, xtol: float) -> np.ndarray:
    """Vectorized bisection; fn maps an energy array to residuals with a sign
    change inside every [lo_i, hi_i] bracket."""
    if lo.size == 0:
        return lo
    flo = fn(lo)
    for _ in range(80):
        if (hi - lo).max() <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        same = (flo <= 0.0) == (fm <= 0.0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _cluster_poles(lam, coeffs, gap=1e-10):
    poles, weights = [], []
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] - lam[i - 1] > gap:
            poles.append(float(lam[start:i].mean()))
            weights.append(float(coeffs[start:i].sum()))
            start = i
    return np.asarray(poles), np.asarray(weights)


_EDGE_FRACTIONS = np.asarray([10.0**-j for j in range(1, 13)])


def _gap_points(lo, hi):
    width = hi - lo
    base = lo + width * np.linspace(0.0, 1.0, 35)[1:-1]
    return np.unique(np.concatenate([base, lo + width * _EDGE_FRACTIONS, hi - width * _EDGE_FRACTIONS]))


def _segments_for_column(poles, w, level, window, xtol):
    lo_w, hi_w = window
    live = np.abs(w) > 0.0
    p, c = poles[live], w[live]
    if p.size == 0:
        return []
    gap_edges = [lo_w, *[float(x) for x in p if lo_w < x < hi_w], hi_w]
    sample_blocks = [
        _gap_points(g_lo, g_hi)
        for g_lo, g_hi in zip(gap_edges[:-1], gap_edges[1:])
        if g_hi - g_lo > 4 * xtol
    ]
    if not sample_blocks:
        return []
    samples = np.concatenate(sample_blocks)
    dvals = _rational_deriv(samples, p, c)
    in_same_gap = np.searchsorted(p, samples[:-1]) == np.searchsorted(p, samples[1:])
    idx = np.nonzero((np.sign(dvals[:-1]) * np.sign(dvals[1:]) < 0) & in_same_gap)[0]
    dzeros = _bisect_many(lambda e: _rational_deriv(e, p, c), samples[idx], samples[idx + 1], xtol)
    pts = np.unique(np.concatenate([samples, dzeros, np.asarray(gap_edges)]))
    vals = _rational(pts, p, c)
    same_gap = np.searchsorted(p, pts[:-1]) == np.searchsorted(p, pts[1:])
    crossings = [np.asarray(gap_edges)]
    for target in (level, -level):
        resid = vals - target
        idx = np.nonzero((np.sign(resid[:-1]) * np.sign(resid[1:]) < 0) & same_gap)[0]
        crossings.append(_bisect_many(
            lambda e, t=target: _rational(e, p, c) - t, pts[idx], pts[idx + 1], xtol
        ))
    breakpoints = np.unique(np.clip(np.concatenate(crossings + [dzeros]), lo_w, hi_w))
    segments = []
    guard = max(xtol, 1e-15)
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    if mids.size == 0:
        return []
    near_pole = np.abs(p[None, :] - mids[:, None]).min(axis=1) <= guard
    inside = near_pole | (np.abs(_rational(mids, p, c)) >= level)
    for i in np.nonzero(inside)[0]:
        a, b = float(breakpoints[i]), float(breakpoints[i + 1])
        if b - a <= 0:
            continue
        if segments and a <= segments[-1][1] + guard:
            segments[-1] = (segments[-1][0], b)
        else:
            segments.append((a, b))
    return segments


def oracle_intervals(profile, level, window, xtol=1e-12):
    entry_level = level / profile.prefactor
    segments = []
    for col in range(profile.coefficients.shape[1]):
        poles, weights = _cluster_poles(profile.eigenvalues, profile.coefficients[:, col])
        segments.extend(_segments_for_column(poles, weights, entry_level, window, xtol))
    return tuple(_merge(segments, eps=xtol))


# ---------------------------------------------------------------------------
# Balls of the bridge experiment


def _bridge_profiles(cfg, trials):
    graph, n, dist, interaction, g = model_from_config(cfg)
    params = params_from_config(cfg)
    cert = certificate_for(graph, params)
    seed = cfg.get_int("experiment", "seed")
    radius = cfg.get_int("run", "radius")
    window = spectral_window(graph, n, g, dist.sup_abs, interaction)
    level = math.exp(-MassSchedule(params).m(n) * float(radius) ** params.delta)
    operators = BallOperators(graph, interaction)
    for i in range(trials):
        spectra = BallSpectra(operators, sample_potential(dist, graph, substream(seed, i)), g)
        for key in ("center_x", "center_y"):
            ball = MultiBall(graph, cfg.get_config_tuple("run", key), radius)
            yield boundary_profile(spectra.spectrum(ball), ball, cert), level, window


def test_batched_cover_matches_oracle_on_shipped_bridge_balls():
    cfg = load_config(CONFIGS / "bridge.cfg")
    checked = 0
    for prof, level, window in _bridge_profiles(cfg, cfg.get_int("experiment", "trials")):
        cover = cover_from_profile(prof, level, window, len(prof.eigenvalues))
        assert cover.intervals == oracle_intervals(prof, level, window)
        checked += 1
    assert checked == 6


def test_batched_cover_matches_oracle_on_two_particle_bridge_ball():
    # one variant of the benchmark's bridge balls: 169 eigenvalues, 48 columns
    cfg = load_config(CONFIGS / "bridge.cfg")
    cfg.table["model"].update(graph="path:40", particles="2", g="300",
                              interaction="u:C=1:zeta=0.5:rcut=inf")
    cfg.table["params"].update(nstar="2")
    cfg.table["run"].update(center_x="7,9")
    cfg.table["experiment"]["seed"] = "4100"
    prof, level, window = next(_bridge_profiles(cfg, 1))
    assert prof.coefficients.shape == (169, 48)
    cover = cover_from_profile(prof, level, window, 169)
    assert cover.count > 0
    assert cover.intervals == oracle_intervals(prof, level, window)


# ---------------------------------------------------------------------------
# Random rational profiles


@st.composite
def profiles(draw):
    # distinct base eigenvalues at least 1e-3 apart; some get a twin within
    # DEGENERACY_GAP (one cluster) or just above it (two nearly coincident poles)
    ks = draw(st.lists(st.integers(-4000, 4000), min_size=1, max_size=10, unique=True))
    lam = []
    for k in ks:
        lam.append(k * 1e-3)
        offset = draw(st.sampled_from([None, None, 0.0, 3e-11, 1e-10, 2e-10, 1e-8]))
        if offset is not None:
            lam.append(k * 1e-3 + offset)
    lam = np.sort(np.asarray(lam))
    n_cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_nan=False))
    coeffs = np.asarray(draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                      min_size=lam.size, max_size=lam.size)))
    if draw(st.booleans()):
        coeffs[:, draw(st.integers(0, n_cols - 1))] = 0.0  # a column without live poles
    lo = draw(st.floats(-5.0, 4.0))
    hi = lo + draw(st.floats(0.01, 6.0))
    level = 10.0 ** draw(st.floats(-3.0, 2.0))
    prefactor = draw(st.sampled_from([1.0, 2.5, 37.0]))
    prof = BoundaryProfile(eigenvalues=lam, coefficients=coeffs, prefactor=prefactor)
    return prof, level, (lo, hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(profiles())
def test_batched_cover_matches_oracle_on_random_profiles(case):
    prof, level, window = case
    cover = cover_from_profile(prof, level, window, len(prof.eigenvalues))
    assert cover.intervals == oracle_intervals(prof, level, window)


def test_cover_of_larger_cluster_agrees_to_rounding():
    """Runs of three or more eigenvalues within DEGENERACY_GAP are summed by
    np.add.reduceat, whose order differs from a sequential sum; the covers
    agree to the bisection tolerance."""
    lam = np.asarray([-1.0, 0.3, 0.3 + 4e-11, 0.3 + 8e-11, 1.7])
    coeffs = np.asarray([[0.2, -0.1], [0.123456789, 0.3], [-0.37, 0.111], [0.0611, -0.29], [0.5, 0.4]])
    prof = BoundaryProfile(lam, coeffs, 4.0)
    window = (-3.0, 3.0)
    for level in (0.5, 5.0, 50.0):
        got = cover_from_profile(prof, level, window, len(lam)).intervals
        want = oracle_intervals(prof, level, window)
        assert len(got) == len(want) > 0
        np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=0, atol=1e-11)


def test_cover_counts_the_rows_of_plain_bisection(monkeypatch):
    """The cover's bisection work equals the oracle's: a row per bracket for
    its lower end and per bracket and step."""
    cfg = load_config(CONFIGS / "bridge.cfg")
    cfg.table["model"].update(graph="path:40", particles="2", g="300",
                              interaction="u:C=1:zeta=0.5:rcut=inf")
    cfg.table["params"].update(nstar="2")
    cfg.table["run"].update(center_x="7,9")
    cfg.table["experiment"]["seed"] = "4100"
    prof, level, window = next(_bridge_profiles(cfg, 1))
    cover = cover_from_profile(prof, level, window, 169)
    seen = {"brackets": 0, "rows": 0}
    plain = _bisect_many

    def counting(fn, lo, hi, xtol):
        def rows(e):
            seen["rows"] += e.size
            return fn(e)

        seen["brackets"] += lo.size
        return plain(rows, lo, hi, xtol)

    monkeypatch.setitem(globals(), "_bisect_many", counting)
    assert cover.intervals == oracle_intervals(prof, level, window)
    turn, level_roots = cover.roots["turn"], cover.roots["level"]
    assert turn.brackets > 0 and level_roots.brackets > 0
    assert turn.brackets + level_roots.brackets == seen["brackets"]
    assert turn.rows + level_roots.rows == seen["rows"]


# ---------------------------------------------------------------------------
# The cover's bisection against the verbatim plain bisection


def _plain_roots(p, c, t, power, lo, hi, xtol):
    if power == 1:
        return _bisect_many(lambda e: _rational(e, p, c) - t, lo, hi, xtol)
    return _bisect_many(lambda e: _rational_deriv(e, p, c), lo, hi, xtol)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def bisections(draw):
    """Poles (some 3e-11 apart), a column of signed weights (some pairs
    cancelling to 1e-12), a level down to 1e-12 or an F' zero, and a batch
    of brackets: sign changes on the cover's gap samples and brackets that
    end on a pole, 1-9 or about 120 of them."""
    ks = draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=8, unique=True))
    poles = []
    for k in ks:
        poles.append(k * 1e-3)
        if draw(st.booleans()):
            poles.append(k * 1e-3 + 3e-11)
    p = np.sort(np.asarray(poles))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.choice([-1.0, 1.0], p.size) * 10.0 ** rng.uniform(-6.0, 0.0, p.size)
    if p.size >= 2 and draw(st.booleans()):
        c[1] = -c[0] * (1.0 + 1e-12)  # heavy cancellation away from the two poles
    weights = np.stack([c, -c[::-1]], axis=1)  # the cover bisects strided columns
    power = draw(st.sampled_from([1, 2]))
    t = 0.0 if power == 2 else draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-12.0, 1.0))
    xtol = draw(st.sampled_from([1e-12, 1e-15, 1e-300]))  # 1e-300 runs into the 80-step cap
    edges = np.concatenate(([p[0] - 1.0], p, [p[-1] + 1.0]))
    samples = induction._gap_samples(edges, 1e-12)
    col = weights[:, draw(st.integers(0, 1))]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = _rational(samples, p, col) - t if power == 1 else _rational_deriv(samples, p, col)
    same_gap = np.searchsorted(p, samples[:-1]) == np.searchsorted(p, samples[1:])
    idx = np.flatnonzero((np.sign(g[:-1]) * np.sign(g[1:]) < 0) & same_gap)
    below = np.searchsorted(samples, p) - 1  # the last sample before each pole
    below = below[(below >= 0) & (samples[np.maximum(below, 0)] < p)]
    lo = np.concatenate((samples[idx], samples[below]))
    hi = np.concatenate((samples[idx + 1], p[np.searchsorted(p, samples[below])]))
    if lo.size == 0:
        return p, col, t, power, lo, hi, xtol
    size = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 9, 117, 119, 121, 123]))
    pick = rng.integers(0, lo.size, size)
    return p, col, t, power, lo[pick], hi[pick], xtol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bisections())
def test_bisection_matches_plain_bisection_bitwise(case):
    p, c, t, power, lo, hi, xtol = case
    counts = RootCounts()
    got = induction._bisect_many(p, c, t, power, lo, hi, xtol, counts)
    assert _same_bits(got, _plain_roots(p, c, t, power, lo, hi, xtol))
    assert counts.brackets == lo.size


def test_bisection_of_three_turns_and_of_a_pole_end():
    """A bracket holding three zeros of F', and brackets ending on a pole,
    where midpoints land on the pole (+-inf) once xtol is below the ulp."""
    p = np.asarray([-3.0, -1.0, 1.0, 3.0])
    weights = np.asarray([[3.206, 1.0], [-0.002, -3.0], [0.042, 3.0], [-4.375, -1.0]])
    c = weights[:, 0]
    xs = np.linspace(-0.95, 0.9, 2001)
    dvals = _rational_deriv(xs, p, c)
    assert np.flatnonzero(np.sign(dvals[:-1]) * np.sign(dvals[1:]) < 0).size == 3
    lo, hi = xs[:1], xs[-1:]
    for xtol in (1e-12, 1e-300):
        got = induction._bisect_many(p, c, 0.0, 2, lo, hi, xtol, RootCounts())
        assert _same_bits(got, _plain_roots(p, c, 0.0, 2, lo, hi, xtol))
    lo = np.asarray([0.5, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])
    hi = np.ones(3)
    for power, t in ((1, 2.0), (1, -2.0), (2, 0.0)):
        for xtol in (1e-12, 1e-300):
            got = induction._bisect_many(p, weights[:, 1], t, power, lo, hi, xtol, RootCounts())
            assert _same_bits(got, _plain_roots(p, weights[:, 1], t, power, lo, hi, xtol))
