"""The energy-interval cover against the per-column reference algorithm.

`cover_from_profile` shares the eigenvalue clusters, the gap samples and the
reciprocal matrix between all boundary columns of a ball, bisects the brackets
of many columns in one batch, and skips the brackets whose root cannot bound
the union.  The oracle below is the column-at-a-time construction that
bisects every bracket, one bracket at a time: both must return the same
interval tuples, float for float.  The oracle's bisection evaluates
G(E) = sum_j c_j / (p_j - E)^power - t with the cover's arithmetic (a
row-wise product and numpy's pairwise sum) and stops where the cover does,
so the cover's roots must equal it bit for bit.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmsa.config import load_config
from mpmsa.configspace import MultiBall
from mpmsa.disorder import sample_potential
from mpmsa.experiments import certificate_for, model_from_config, params_from_config
from mpmsa.hamiltonian import spectral_window
from mpmsa import induction
from mpmsa.induction import RootCounts, _merge, cover_from_profile
from mpmsa.msa import MassSchedule
from mpmsa.rng import substream
from mpmsa.spectral import BallOperators, BallSpectra, BoundaryProfile, boundary_profile, cluster_sums

from helpers import _rational, rational_deriv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"


# ---------------------------------------------------------------------------
# Oracle: one column at a time, one bracket at a time


def _bisect_each(p, c, t, power, lo, hi, counts=None) -> np.ndarray:
    """Plain bisection of G(E) = sum_j c_j / (p_j - E)^power - t on each
    bracket [lo_i, hi_i] in turn, as a scalar loop; a bracket stops when its
    midpoint no longer lies strictly inside it or after 80 steps.  `counts`
    gains a row for each bracket's lower end and one per step."""

    def negative(e):
        d = p - e
        if power == 2:
            d = d * d
        return np.multiply(1.0 / d, c).sum() - t <= 0.0

    roots = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b in zip(lo.tolist(), hi.tolist()):
            neg_a = negative(a)
            steps = 0
            while steps < 80:
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break
                steps += 1
                if negative(mid) == neg_a:
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
            if counts is not None:
                counts.brackets += 1
                counts.rows += 1 + steps
    return np.asarray(roots, dtype=np.float64)


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


def _segments_for_column(poles, w, level, window, xtol, counts):
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
    dvals = rational_deriv(samples, p, c)
    in_same_gap = np.searchsorted(p, samples[:-1]) == np.searchsorted(p, samples[1:])
    idx = np.nonzero((np.sign(dvals[:-1]) * np.sign(dvals[1:]) < 0) & in_same_gap)[0]
    dzeros = _bisect_each(p, c, 0.0, 2, samples[idx], samples[idx + 1], counts["turn"])
    pts = np.unique(np.concatenate([samples, dzeros, np.asarray(gap_edges)]))
    vals = _rational(pts, p, c)
    same_gap = np.searchsorted(p, pts[:-1]) == np.searchsorted(p, pts[1:])
    crossings = [np.asarray(gap_edges)]
    for target in (level, -level):
        resid = vals - target
        idx = np.nonzero((np.sign(resid[:-1]) * np.sign(resid[1:]) < 0) & same_gap)[0]
        crossings.append(_bisect_each(p, c, target, 1, pts[idx], pts[idx + 1], counts["level"]))
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


def oracle_intervals(profile, level, window, xtol=1e-12, counts=None):
    """The cover's intervals; `counts` (per kind of root) gains the brackets
    and rows of bisecting every bracket."""
    if counts is None:
        counts = {"turn": RootCounts(), "level": RootCounts()}
    entry_level = level / profile.prefactor
    segments = []
    for col in range(profile.coefficients.shape[1]):
        poles, weights = _cluster_poles(profile.eigenvalues, profile.coefficients[:, col])
        segments.extend(_segments_for_column(poles, weights, entry_level, window, xtol, counts))
    return tuple(_merge(segments, eps=xtol))


def _cover_without_skips(prof, level, window):
    """The cover with every bracket bisected: both skip tests say no."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induction, "_turn_skips", lambda poles, w, samples, rows, *_: np.zeros(rows.size, bool))
        mp.setattr(induction, "_level_skips", lambda union, lo, hi, margin: np.zeros(lo.size, bool))
        return cover_from_profile(prof, level, window)


def _cover_recording_turn_skips(prof, level, window):
    """The cover and, per group, the poles, weights, samples, entry level and
    the (sample row, column) of every skipped zero of F'."""
    seen = []
    plain = induction._turn_skips

    def recording(poles, weights, samples, rows, cols, entry_level, guard, scratch):
        skip = plain(poles, weights, samples, rows, cols, entry_level, guard, scratch)
        seen.append((poles, weights.copy(), samples, rows[skip], cols[skip], entry_level))
        return skip

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induction, "_turn_skips", recording)
        return cover_from_profile(prof, level, window), seen


def _assert_skipped_turns_stay_below_level(seen) -> int:
    """|F| < level on a 65-point grid of every skipped turn bracket; returns
    how many brackets were checked."""
    fractions = np.linspace(0.0, 1.0, 65)
    checked = 0
    for poles, weights, samples, rows, cols, level in seen:
        for col in np.unique(cols):
            r = rows[cols == col]
            grid = samples[r, None] + (samples[r + 1] - samples[r])[:, None] * fractions
            assert (np.abs(_rational(grid.ravel(), poles, weights[:, col])) < level).all()
            checked += r.size
    return checked


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
            yield boundary_profile(spectra.spectrum(ball), cert), level, window


@functools.cache
def _two_particle_ball(seed=4100, center="7,9"):
    """A ball of a variant of the benchmark's bridge balls, the x ball
    (center 7,9) or the y ball (28,31): 169 eigenvalues, 48 columns
    (path:40, g = 300, seed 4100 + variant)."""
    cfg = load_config(CONFIGS / "bridge.cfg")
    cfg.table["model"].update(graph="path:40", particles="2", g="300",
                              interaction="u:C=1:zeta=0.5:rcut=inf")
    cfg.table["params"].update(nstar="2")
    cfg.table["run"].update(center_x=center)
    cfg.table["experiment"]["seed"] = str(seed)
    prof, level, window = next(_bridge_profiles(cfg, 1))
    assert prof.coefficients.shape == (169, 48)
    return prof, level, window


def test_batched_cover_matches_oracle_on_shipped_bridge_balls():
    cfg = load_config(CONFIGS / "bridge.cfg")
    checked = 0
    for prof, level, window in _bridge_profiles(cfg, cfg.get_int("experiment", "trials")):
        cover = cover_from_profile(prof, level, window)
        assert cover.intervals == oracle_intervals(prof, level, window)
        checked += 1
    assert checked == 6


def test_batched_cover_matches_oracle_on_two_particle_bridge_ball():
    prof, level, window = _two_particle_ball()
    cover = cover_from_profile(prof, level, window)
    assert cover.count > 0
    assert cover.intervals == oracle_intervals(prof, level, window)


def test_batched_cover_matches_oracle_on_the_bench_y_ball():
    prof, level, window = _two_particle_ball(center="28,31")
    cover = cover_from_profile(prof, level, window)
    assert cover.count > 0
    assert cover.intervals == oracle_intervals(prof, level, window)


def test_cover_forms_one_sample_grid_per_ball(monkeypatch):
    """A work guard without timing: the rows of reciprocals the cover forms
    through `_reciprocals` stay within the shared grid (the gap samples
    between consecutive poles and the edges) plus the samples of the gaps
    that columns merge across their dead poles.  A grid per set of live
    poles, with the values at zeros of F' and at segment midpoints formed
    the same way, came to about 8x that on this ball."""
    prof, level, window = _two_particle_ball()
    rows = []
    plain = induction._reciprocals

    def counting(es, poles, out=None):
        rows.append(es.size)
        return plain(es, poles, out)

    monkeypatch.setattr(induction, "_reciprocals", counting)
    cover_from_profile(prof, level, window)
    poles, weights = cluster_sums(prof.eigenvalues, prof.coefficients)
    live = np.abs(weights) > 0.0
    lo, hi = window

    def edges_and_gaps(p):
        edges = [lo, *p[(p > lo) & (p < hi)], hi]
        return edges, [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 4e-12]

    edges, gaps = edges_and_gaps(poles[live.any(axis=1)])
    shared = len(edges) + sum(_gap_points(a, b).size for a, b in gaps)
    merged = 0
    for col in live.T:
        dead = poles[live.any(axis=1) & ~col]
        merged += sum(_gap_points(a, b).size for a, b in edges_and_gaps(poles[col])[1]
                      if ((dead >= a) & (dead <= b)).any())
    assert merged > 0
    assert 0 < sum(rows) <= shared + merged


def test_bridge_covers_match_the_bench_reference(tmp_path, monkeypatch):
    """Every bench bridge-covers variant, run in process, against its stored
    reference: exit code, pass flags and cover counts exactly, sup_min and
    its energy to the bench tolerances.  A changed cover shows here before
    it fails the benchmark.  The classify-sweep and wegner-large variants,
    whose balls go through the same spectra, are checked alike."""
    from mpmsa.cli import main

    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("MPMSA_THREADS", "1")
    from workloads import PARTS, POOL, compare, load_reference, read_output

    for name in ("bridge-covers", "classify-sweep", "wegner-large"):
        part = PARTS[name]
        reference = load_reference(part)["variants"]
        for variant in range(POOL):
            out, cfg = tmp_path / f"{name}-{variant}", tmp_path / f"{name}-{variant}.cfg"
            cfg.write_text(part.make_config(variant, str(out)))
            code = main([part.kind, "--config", str(cfg)])
            assert compare(part, read_output(out, code), reference[str(variant)]) == [], (name, variant)


def test_cover_bisects_only_what_can_bound_the_union():
    """A work guard without timing: bisecting every bracket of the
    two-particle bench ball in lockstep batches formed 539,746 reciprocal
    rows; the cover must stay within a quarter of that."""
    prof, level, window = _two_particle_ball()
    cover = cover_from_profile(prof, level, window)
    assert sum(counts.rows for counts in cover.roots.values()) <= 135_000


def test_cover_counts_the_rows_of_plain_bisection():
    """Every bracket the oracle bisects is bisected or counted as skipped by
    the cover, and a bisected bracket forms the oracle's rows: one for its
    lower end and one per step.  With both skip tests off, the counts equal
    the oracle's and so do the intervals."""
    prof, level, window = _two_particle_ball()
    seen = {"turn": RootCounts(), "level": RootCounts()}
    want = oracle_intervals(prof, level, window, counts=seen)
    cover = cover_from_profile(prof, level, window)
    full = _cover_without_skips(prof, level, window)
    assert cover.intervals == full.intervals == want
    for kind in ("turn", "level"):
        got, every = cover.roots[kind], full.roots[kind]
        assert got.brackets > 0 and got.skipped > 0 and every.skipped == 0
        assert got.brackets + got.skipped == every.brackets == seen[kind].brackets
        assert every.rows == seen[kind].rows
        assert got.rows < every.rows


@pytest.mark.parametrize("seed", [4101, 4107])
def test_skips_leave_bench_balls_unchanged(seed):
    """Two more bench balls, float for float against every bracket bisected.
    On both, skipping turns next to a pole (no 4 guard margin) moves the
    cover: an endpoint on one, the interval count on the other."""
    prof, level, window = _two_particle_ball(seed)
    cover = cover_from_profile(prof, level, window)
    assert cover.roots["turn"].skipped > 0 and cover.roots["level"].skipped > 0
    assert cover.intervals == _cover_without_skips(prof, level, window).intervals


def test_skipped_turns_stay_below_level_on_the_bench_ball():
    prof, level, window = _two_particle_ball()
    cover, seen = _cover_recording_turn_skips(prof, level, window)
    assert _assert_skipped_turns_stay_below_level(seen) == cover.roots["turn"].skipped > 0


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
    cover = cover_from_profile(prof, level, window)
    assert cover.intervals == oracle_intervals(prof, level, window)


@st.composite
def wide_profiles(draw):
    """Up to 40 poles spread over [-10, 10], weights from 1e-6 to 1 (a fifth
    of them zero): wide gaps whose turns stay below the level, as on the
    bench balls, so both kinds of skip occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    n_cols = draw(st.integers(1, 6))
    lam = np.sort(rng.uniform(-10.0, 10.0, n))
    coeffs = rng.choice([-1.0, 1.0], (n, n_cols)) * 10.0 ** rng.uniform(-6.0, 0.0, (n, n_cols))
    coeffs[rng.random((n, n_cols)) < 0.2] = 0.0
    lo = draw(st.floats(-12.0, 0.0))
    hi = lo + draw(st.floats(1.0, 24.0))
    level = 10.0 ** draw(st.floats(-1.0, 2.0))
    prefactor = draw(st.sampled_from([1.0, 2.5, 37.0]))
    return BoundaryProfile(eigenvalues=lam, coefficients=coeffs, prefactor=prefactor), level, (lo, hi)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(profiles(), wide_profiles()))
def test_skips_leave_the_cover_unchanged_on_random_profiles(case):
    """The cover with skips equals the cover with every bracket bisected and
    the oracle, float for float, and every skipped zero of F' lies on a
    bracket where |F| < level on a dense grid."""
    prof, level, window = case
    cover, seen = _cover_recording_turn_skips(prof, level, window)
    full = _cover_without_skips(prof, level, window)
    assert cover.intervals == full.intervals == oracle_intervals(prof, level, window)
    for kind in ("turn", "level"):
        assert cover.roots[kind].brackets + cover.roots[kind].skipped == full.roots[kind].brackets
    assert _assert_skipped_turns_stay_below_level(seen) == cover.roots["turn"].skipped


@st.composite
def bench_shaped_profiles(draw):
    """Shaped like the bench balls: up to 48 columns over 2-14 poles, most
    with every pole live and a few with 1-11 dead ones: adjacent dead poles,
    the first or last pole inside the window dead, scattered ones; sometimes
    a pole dead in every column, and sometimes a window whose ends are the
    first and last pole."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    lam = np.sort(rng.uniform(-10.0, 10.0, n))
    n_cols = draw(st.integers(1, 48))
    coeffs = rng.choice([-1.0, 1.0], (n, n_cols)) * 10.0 ** rng.uniform(-6.0, 0.0, (n, n_cols))
    for col in rng.choice(n_cols, draw(st.integers(0, min(n_cols, 4))), replace=False):
        k = draw(st.integers(1, min(11, n - 1)))
        kind = draw(st.sampled_from(["adjacent", "first", "last", "scattered"]))
        if kind == "scattered":
            dead = rng.choice(n, k, replace=False)
        else:
            start = 0 if kind == "first" else n - k if kind == "last" else draw(st.integers(0, n - k))
            dead = np.arange(start, start + k)
        coeffs[dead, col] = 0.0
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, n - 1))] = 0.0
    window = (lam[0], lam[-1])
    if draw(st.integers(0, 3)):
        window = (lam[0] - draw(st.floats(0.01, 5.0)), lam[-1] + draw(st.floats(0.01, 5.0)))
    level = 10.0 ** draw(st.floats(-1.0, 2.0))
    prefactor = draw(st.sampled_from([1.0, 2.5, 37.0]))
    return BoundaryProfile(eigenvalues=lam, coefficients=coeffs, prefactor=prefactor), level, window


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bench_shaped_profiles())
def test_cover_matches_oracle_on_bench_shaped_profiles(case):
    """Columns that patch their own gaps beside the shared grid next to
    columns that use it all: equal to every bracket bisected and to the
    oracle, float for float."""
    prof, level, window = case
    cover = cover_from_profile(prof, level, window)
    full = _cover_without_skips(prof, level, window)
    assert cover.intervals == full.intervals == oracle_intervals(prof, level, window)


# ---------------------------------------------------------------------------
# Columns with dead poles: the grid in shared gaps, the patch in their own


_LAM = np.asarray([-2.0, -1.0, 0.5, 1.5, 3.0])
_W = np.asarray([0.7, -0.4, 0.9, 0.3, -0.6])
# the first sample of [1000, 1000.01] rounds onto 1000, a live pole whose
# weight is too small to set the sign of F' just below it
_NARROW = np.asarray([998.0, 999.0, 999.5, 1000.0, 1000.01, 1000.02])
_NARROW_W = np.asarray([-0.5, -0.3, 0.2, 1e-30, -0.01, -0.4])


@pytest.mark.parametrize("dead, window, lam, w, level", [
    pytest.param([(), (0,), (4,)], (-2.0, 3.0), _LAM, _W, 2.0, id="dead-pole-at-window-end"),
    pytest.param([(), (1,), (3,)], (-2.0, 3.0), _LAM, _W, 2.0, id="live-window-end-next-to-dead"),
    pytest.param([(), (1, 3)], (-2.5, 3.5), _LAM, _W, 2.0, id="dead-live-dead"),
    pytest.param([(), (1, 2, 3)], (-1.5, 2.0), _LAM, _W, 2.0, id="every-inner-pole-dead"),
    pytest.param([(), (2,)], (997.5, 1000.5), _NARROW, _NARROW_W, 0.5, id="narrow-gaps-at-1e3"),
])
def test_dead_pole_columns_match_the_oracle(dead, window, lam, w, level):
    """One column with every pole live and columns with dead poles, whose
    gaps merge across them: equal to every bracket bisected and to the
    oracle, float for float, and so are the brackets and rows bisected."""
    coeffs = w[:, None] * (1.0 + 0.1 * np.arange(len(dead)))
    for col, poles in enumerate(dead):
        coeffs[list(poles), col] = 0.0
    prof = BoundaryProfile(lam, coeffs, 1.0)
    seen = {"turn": RootCounts(), "level": RootCounts()}
    want = oracle_intervals(prof, level, window, counts=seen)
    cover = cover_from_profile(prof, level, window)
    full = _cover_without_skips(prof, level, window)
    assert len(want) > 0
    assert cover.intervals == full.intervals == want
    for kind in ("turn", "level"):
        got, every = cover.roots[kind], full.roots[kind]
        assert got.brackets + got.skipped == every.brackets == seen[kind].brackets > 0
        assert every.rows == seen[kind].rows


def test_dead_pole_columns_add_only_their_own_gaps_to_the_grid(monkeypatch):
    """A work guard without timing: beside the shared grid, the columns with
    a dead pole add at most the samples of their own gaps (the runs of gaps
    merged across their dead poles) and the two live edges that bound each
    run.  Copying every shared sample such a column keeps added 54,348
    points on this ball."""
    prof, level, window = _two_particle_ball()
    sampled, points = [], []
    plain_samples, plain_skips = induction._gap_samples, induction._turn_skips

    def sampling(lo, hi):
        out = plain_samples(lo, hi)
        sampled.append((lo, hi, out[0]))
        return out

    def skipping(poles, weights, samples, *rest):
        points.append(samples.size)
        return plain_skips(poles, weights, samples, *rest)

    monkeypatch.setattr(induction, "_gap_samples", sampling)
    monkeypatch.setattr(induction, "_turn_skips", skipping)
    cover_from_profile(prof, level, window)
    (lo, hi, shared), (runs, _, own) = sampled
    edges = np.append(lo, hi[-1])
    grid = shared.size + np.count_nonzero(~np.isin(edges, shared))
    assert own.size > 0
    assert 0 < points[0] - grid <= own.size + 2 * runs.size


def test_cover_of_larger_cluster_agrees_to_rounding():
    """Runs of three or more eigenvalues within DEGENERACY_GAP are summed by
    np.add.reduceat, whose order differs from a sequential sum; the covers
    agree to the bisection tolerance."""
    lam = np.asarray([-1.0, 0.3, 0.3 + 4e-11, 0.3 + 8e-11, 1.7])
    coeffs = np.asarray([[0.2, -0.1], [0.123456789, 0.3], [-0.37, 0.111], [0.0611, -0.29], [0.5, 0.4]])
    prof = BoundaryProfile(lam, coeffs, 4.0)
    window = (-3.0, 3.0)
    for level in (0.5, 5.0, 50.0):
        got = cover_from_profile(prof, level, window).intervals
        want = oracle_intervals(prof, level, window)
        assert len(got) == len(want) > 0
        np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=0, atol=1e-11)


def _merge_sweep(intervals, eps):
    """The ascending sweep over sorted pairs, one interval at a time."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1] + eps:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 1e-12, 2e-12, 0.5, 1.0]),
                          st.floats(0.0, 1.0)), max_size=12),
       st.sampled_from([0.0, 1e-12]))
def test_merge_equals_the_ascending_sweep(starts_and_widths, eps):
    """`_merge` on arrays, against the loop it replaced: intervals that
    touch, overlap, nest, repeat or lie eps apart."""
    intervals = [(a, a + w) for a, w in starts_and_widths]
    assert _merge(intervals, eps) == _merge_sweep(intervals, eps)
    assert _merge(np.asarray(intervals).reshape(-1, 2), eps) == _merge_sweep(intervals, eps)


# ---------------------------------------------------------------------------
# The cover's bisection against the scalar loop


def _cover_bisect(p, weights, col, t, power, lo, hi, scratch_rows=None):
    """The cover's bisection of the brackets [lo_i, hi_i] of columns col_i;
    its batches hold `scratch_rows` brackets if given."""
    rows = scratch_rows or max(lo.size, 1)
    scratch = np.empty(2 * rows * p.size)
    counts = RootCounts()
    wt = np.ascontiguousarray(weights.T)
    return induction._bisect(p, wt, col, t, power, lo, hi, scratch, counts), counts


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def bisections(draw):
    """Poles (some 3e-11 apart), two columns of signed weights (some pairs
    cancelling to 1e-12), a level down to 1e-12 or an F' zero, and a batch of
    brackets of both columns: sign changes on the cover's gap samples and
    brackets that end on a pole, 1-9 or about 120 of them."""
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
    weights = np.stack([c, -c[::-1]], axis=1)
    power = draw(st.sampled_from([1, 2]))
    level = 0.0 if power == 2 else 10.0 ** draw(st.floats(-12.0, 1.0))
    edges = np.concatenate(([p[0] - 1.0], p, [p[-1] + 1.0]))
    samples, _ = induction._gap_samples(edges[:-1], edges[1:])
    same_gap = np.searchsorted(p, samples[:-1]) == np.searchsorted(p, samples[1:])
    below = np.searchsorted(samples, p) - 1  # the last sample before each pole
    below = below[(below >= 0) & (samples[np.maximum(below, 0)] < p)]
    lo, hi, col, t = [], [], [], []
    for j in (0, 1):
        for target in ((level, -level) if power == 1 else (0.0,)):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                g = (_rational(samples, p, weights[:, j]) - target if power == 1
                     else rational_deriv(samples, p, weights[:, j]))
            idx = np.flatnonzero((np.sign(g[:-1]) * np.sign(g[1:]) < 0) & same_gap)
            lo.extend((samples[idx], samples[below]))
            hi.extend((samples[idx + 1], p[np.searchsorted(p, samples[below])]))
            count = idx.size + below.size
            col.append(np.full(count, j))
            t.append(np.full(count, target))
    lo, hi, col, t = (np.concatenate(a) for a in (lo, hi, col, t))
    if lo.size:
        size = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 9, 117, 119, 121, 123]))
        pick = rng.integers(0, lo.size, size)
        lo, hi, col, t = lo[pick], hi[pick], col[pick], t[pick]
    return p, weights, col, t, power, lo, hi, rng.permutation(lo.size)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bisections())
def test_bisection_matches_plain_bisection_bitwise(case):
    p, weights, col, t, power, lo, hi, _ = case
    got, counts = _cover_bisect(p, weights, col, t, power, lo, hi)
    want = np.empty(lo.size)
    seen = RootCounts()
    for i in range(lo.size):
        want[i:i + 1] = _bisect_each(p, weights[:, col[i]], t[i], power, lo[i:i + 1], hi[i:i + 1], seen)
    assert _same_bits(got, want)
    assert counts.brackets == seen.brackets == lo.size
    assert counts.rows == seen.rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bisections())
def test_a_root_does_not_depend_on_its_batch(case):
    """Each root is bit-identical whether its bracket is bisected alone, in a
    shuffled batch with the other column's brackets, or in batches of 3."""
    p, weights, col, t, power, lo, hi, perm = case
    alone = np.asarray([_cover_bisect(p, weights, col[i:i + 1], t[i:i + 1], power, lo[i:i + 1], hi[i:i + 1])[0][0]
                        for i in range(lo.size)])
    shuffled, _ = _cover_bisect(p, weights, col[perm], t[perm], power, lo[perm], hi[perm])
    chunked, _ = _cover_bisect(p, weights, col, t, power, lo, hi, scratch_rows=3)
    assert _same_bits(shuffled, alone[perm])
    assert _same_bits(chunked, alone)


def test_bisection_of_three_turns_and_of_a_pole_end():
    """A bracket holding three zeros of F', and brackets ending on a pole,
    where midpoints land on the pole (+-inf)."""
    p = np.asarray([-3.0, -1.0, 1.0, 3.0])
    weights = np.asarray([[3.206, 1.0], [-0.002, -3.0], [0.042, 3.0], [-4.375, -1.0]])
    xs = np.linspace(-0.95, 0.9, 2001)
    dvals = rational_deriv(xs, p, weights[:, 0])
    assert np.flatnonzero(np.sign(dvals[:-1]) * np.sign(dvals[1:]) < 0).size == 3
    lo, hi = xs[:1], xs[-1:]
    got, _ = _cover_bisect(p, weights, np.zeros(1, int), 0.0, 2, lo, hi)
    assert _same_bits(got, _bisect_each(p, weights[:, 0], 0.0, 2, lo, hi))
    lo = np.asarray([0.5, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])
    hi = np.ones(3)
    for power, t in ((1, 2.0), (1, -2.0), (2, 0.0)):
        got, _ = _cover_bisect(p, weights, np.ones(3, int), t, power, lo, hi)
        assert _same_bits(got, _bisect_each(p, weights[:, 1], t, power, lo, hi))


def test_bisection_stops_at_float_convergence_or_after_80_steps():
    """Adjacent ends take no step; a root at 0 never converges in floats and
    stops at the cap; a root near 0.6 converges after about 53 steps."""
    p, weights = np.asarray([-1.0, 1.0]), np.ones((2, 1))  # F(E) = 2E / (1 - E^2)
    lo = np.asarray([0.5, -0.5, 0.5])
    hi = np.asarray([np.nextafter(0.5, 1.0), 0.25, 0.75])
    t = np.asarray([0.0, 0.0, 2 * 0.6 / (1 - 0.36)])
    got, counts = _cover_bisect(p, weights, np.zeros(3, int), t, 1, lo, hi)
    steps = [_cover_bisect(p, weights, np.zeros(1, int), t[i:i + 1], 1, lo[i:i + 1], hi[i:i + 1])[1].rows - 1
             for i in range(3)]
    assert steps[:2] == [0, 80] and 40 < steps[2] < 80
    assert counts.rows == 3 + sum(steps)
    assert got[0] == 0.5 * (lo[0] + hi[0]) and abs(got[1]) < 1e-15 and abs(got[2] - 0.6) < 1e-15
    want = np.concatenate([_bisect_each(p, weights[:, 0], t[i], 1, lo[i:i + 1], hi[i:i + 1]) for i in range(3)])
    assert _same_bits(got, want)
