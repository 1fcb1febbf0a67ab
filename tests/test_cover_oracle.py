"""The batched energy-interval cover against the per-column reference algorithm.

`cover_from_profile` shares the eigenvalue clusters, the gap samples and the
reciprocal matrix between all boundary columns of a ball.  The oracle below is
the column-at-a-time construction it replaces, kept verbatim as the
reference: both must return the same interval tuples, float for float.
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
from mpmsa.induction import _bisect_many, _merge, _rational, _rational_deriv, cover_from_profile
from mpmsa.msa import MassSchedule
from mpmsa.rng import substream
from mpmsa.spectral import BallOperators, BallSpectra, BoundaryProfile, boundary_profile

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Oracle: one column at a time


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
