"""The energy-interval cover against the per-column reference algorithm.

`cover_from_profile` shares the eigenvalue clusters, the gap samples and the
reciprocal matrix between all boundary columns of a ball, bisects the brackets
of many columns in one batch, and skips the brackets whose root cannot bound
the union.  The oracle below is the column-at-a-time construction that
bisects every bracket, one bracket at a time: both must return the same
interval tuples, float for float.  A column samples the gaps between
consecutive poles of the ball and takes its dead poles (weight exactly 0) in
the window as points; its pairs of consecutive points and its guard come
from its live poles.  Its values and its bisection run over every pole of
the ball, where a dead pole adds an exact zero.  The oracle's bisection
evaluates G(E) = sum_j c_j / (p_j - E)^power - t with the cover's arithmetic
(a row-wise product and numpy's pairwise sum, a NaN from 0 * inf at a dead
pole summed as 0) and stops where the cover does, so the cover's roots must
equal it bit for bit.
"""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
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
from mpmsa.spectral import (
    RESOLVENT_GUARD, BallOperators, BallSpectra, BoundaryProfile, _reciprocals, boundary_profile, cluster_sums,
)

from helpers import _rational, rational_deriv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


# ---------------------------------------------------------------------------
# Oracle: one column at a time, one bracket at a time


def _dead_as_zero(terms):
    """The terms w_j / (p_j - E)^power of a row with each NaN (0 * inf at a
    dead pole) as 0."""
    return np.where(np.isnan(terms), 0.0, terms)


def _bisect_each(p, c, t, power, lo, hi, counts=None) -> np.ndarray:
    """Plain bisection of G(E) = sum_j c_j / (p_j - E)^power - t on each
    bracket [lo_i, hi_i] in turn, as a scalar loop; a bracket stops when its
    midpoint no longer lies strictly inside it or after 80 steps.  `counts`
    gains a row for each bracket's lower end and one per step."""

    def negative(e):
        d = p - e
        if power == 2:
            d = d * d
        return _dead_as_zero(np.multiply(1.0 / d, c)).sum() - t <= 0.0

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


def _column_values(es, poles, w, power=1):
    """sum_j w_j / (p_j - E)^power over every pole: one matrix-vector product,
    and a row that a dead pole makes NaN summed pairwise with the NaN as 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        recip = _reciprocals(es, poles) ** power
        out = recip @ w
        bad = np.isnan(out)
        out[bad] = _dead_as_zero(recip[bad] * w).sum(axis=1)
    return out


def _segments_for_column(poles, w, level, window, xtol, counts):
    """The segments of one column, with weights w on every pole of the ball."""
    lo_w, hi_w = window
    live = np.abs(w) > 0.0
    p = poles[live]
    if p.size == 0:
        return []
    ball_edges = [lo_w, *[float(x) for x in poles if lo_w < x < hi_w], hi_w]
    gap_edges = [lo_w, *[float(x) for x in p if lo_w < x < hi_w], hi_w]
    sample_blocks = [
        _gap_points(g_lo, g_hi)
        for g_lo, g_hi in zip(ball_edges[:-1], ball_edges[1:])
        if g_hi - g_lo > 4 * xtol
    ]
    if not sample_blocks:
        return []
    dead = poles[~live]
    samples = np.unique(np.concatenate([*sample_blocks, dead[(dead >= lo_w) & (dead <= hi_w)]]))
    dvals = _column_values(samples, poles, w, 2)
    in_same_gap = np.searchsorted(p, samples[:-1]) == np.searchsorted(p, samples[1:])
    idx = np.nonzero((np.sign(dvals[:-1]) * np.sign(dvals[1:]) < 0) & in_same_gap)[0]
    dzeros = _bisect_each(poles, w, 0.0, 2, samples[idx], samples[idx + 1], counts["turn"])
    pts = np.unique(np.concatenate([samples, dzeros, np.asarray(gap_edges)]))
    vals = _column_values(pts, poles, w)
    same_gap = np.searchsorted(p, pts[:-1]) == np.searchsorted(p, pts[1:])
    crossings = [np.asarray(gap_edges)]
    for target in (level, -level):
        resid = vals - target
        idx = np.nonzero((np.sign(resid[:-1]) * np.sign(resid[1:]) < 0) & same_gap)[0]
        crossings.append(_bisect_each(poles, w, target, 1, pts[idx], pts[idx + 1], counts["level"]))
    breakpoints = np.unique(np.clip(np.concatenate(crossings + [dzeros]), lo_w, hi_w))
    segments = []
    guard = max(xtol, 1e-15)
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    if mids.size == 0:
        return []
    near_pole = np.abs(p[None, :] - mids[:, None]).min(axis=1) <= guard
    inside = near_pole | (np.abs(_column_values(mids, poles, w)) >= level)
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
    columns = [_cluster_poles(profile.eigenvalues, c) for c in profile.coefficients.T]
    # the poles of the ball: live in some column
    ball = np.any([np.abs(w) > 0.0 for _, w in columns], axis=0)
    segments = []
    for poles, weights in columns:
        segments.extend(_segments_for_column(poles[ball], weights[ball], entry_level, window, xtol, counts))
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
    between consecutive poles and the edges).  A grid per set of live poles,
    with the values at zeros of F' and at segment midpoints formed the same
    way, came to about 8x that on this ball."""
    prof, level, window = _two_particle_ball()
    rows = []
    plain = induction._reciprocals

    def counting(es, poles, out=None):
        rows.append(es.size)
        return plain(es, poles, out)

    monkeypatch.setattr(induction, "_reciprocals", counting)
    cover_from_profile(prof, level, window)
    poles, weights = cluster_sums(prof.eigenvalues, prof.coefficients)
    p = poles[(np.abs(weights) > 0.0).any(axis=1)]
    lo, hi = window
    edges = [lo, *p[(p > lo) & (p < hi)], hi]
    shared = len(edges) + sum(_gap_points(a, b).size for a, b in zip(edges[:-1], edges[1:]) if b - a > 4e-12)
    assert 0 < sum(rows) <= shared


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


@functools.cache
def _bench_balls():
    """(label, profile, level, window) of both balls of every bench
    bridge-covers variant, as `tools/cover_replay.py` forms them."""
    sys.path.insert(0, str(TOOLS))
    try:
        import cover_replay
    finally:
        sys.path.remove(str(TOOLS))
    return cover_replay.profiles()


def _traced_peak_mb(f, *args, **kwargs) -> float:
    """The peak of the memory that f(*args, **kwargs) allocates, in MB, as
    tracemalloc sees it."""
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_cover_replay_tool_prints_every_bench_ball():
    """`tools/cover_replay.py --replays 1` runs: it hooks `_ball_union` and
    `_bisect_batch` by name, so it prints a row per bench bridge ball with
    its bisection batches, the interval count of `cover_from_profile` and
    the peak of one cover's memory, the mean over the balls, and the
    SHA-256 line that compares trees."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOLS / "cover_replay.py"), "--replays", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[1:-2]]
    balls = _bench_balls()
    assert len(rows) == len(balls) == 16
    for (variant, side, _, batches, _, intervals, peak), (label, prof, level, window) in zip(rows, balls):
        assert f"{variant} {side}" == label and int(batches) > 0
        assert int(intervals) == cover_from_profile(prof, level, window).count
        assert float(peak) > 0
    assert re.search(r", \d+\.\d\d MB peak$", lines[-2])
    assert re.fullmatch(r"sha256 of the intervals: [0-9a-f]{64}", lines[-1])


def test_bench_ball_covers_keep_a_bounded_working_set():
    """Every bench-ball cover peaks at 3.2 MB or less under tracemalloc: the
    reciprocal scratch of 2 x 512 rows at every pole (1.38 MB at 168
    poles), the weights, and the brackets with their keys.  The grid pass
    reads each block of 512 rows for its brackets before the next; sign
    planes, a pairs mask and skip bounds over the whole grid (about 9,500
    rows x 48 columns) took the peak to 5.0-5.3 MB."""
    peaks = [_traced_peak_mb(cover_from_profile, prof, level, window) for _, prof, level, window in _bench_balls()]
    assert len(peaks) == 16 and max(peaks) <= 3.2, peaks


def test_profile_evaluation_forms_no_energies_by_boundary_array():
    """`BoundaryProfile.evaluate` at 20,000 energies on a bench ball peaks
    below 3 MB under tracemalloc: it reduces each block of 512 energies to
    its maximum over the 48 boundary columns at once.  The (20,000 x 48)
    Green values and their magnitudes took about 15 MB."""
    _, prof, _, window = _bench_balls()[0]
    energies = np.linspace(*window, 20_000)
    assert prof.coefficients.shape[1] == 48
    assert _traced_peak_mb(prof.evaluate, energies, guard=RESOLVENT_GUARD) < 3.0


def test_cover_bisects_only_what_can_bound_the_union():
    """A work guard without timing: bisecting every bracket of the
    two-particle bench ball in lockstep batches forms 539,746 reciprocal
    rows, and skipping against the union of the columns done in rounds
    50,592.  With the envelope round first the cover forms 25,707 (13,295
    for zeros of F', 12,412 for level crossings); the bound leaves about
    9 % above that."""
    prof, level, window = _two_particle_ball()
    cover = cover_from_profile(prof, level, window)
    assert sum(counts.rows for counts in cover.roots.values()) <= 28_000


@pytest.mark.parametrize("center", ["7,9", "28,31"])
def test_envelope_round_bisects_only_brackets_the_final_union_needs(center):
    """Every level bracket of the envelope round (the first bisection of
    level crossings) fails the skip test against the final cover: the round
    orders the work and adds none."""
    prof, level, window = _two_particle_ball(center=center)
    calls = []
    plain = induction._Columns.bisect

    def recording(self, col, t, power, lo, hi, counts):
        if power == 1:
            calls.append((lo.copy(), hi.copy()))
        return plain(self, col, t, power, lo, hi, counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induction._Columns, "bisect", recording)
        cover = cover_from_profile(prof, level, window)
    lo, hi = calls[0]
    union = np.asarray(cover.intervals).T
    margin = 2 * induction.XTOL + 4 * induction.RESOLVENT_GUARD
    assert lo.size > 0 and not induction._level_skips(union, lo, hi, margin).any()


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


def _values_by_subtraction(columns, col, es, power):
    """`_Columns.values` without a guard, with p_j - E from a broadcast
    subtraction: per column, its points in order, in blocks of the rows the
    scratch buffer holds, a row that a dead pole makes NaN summed pairwise
    with the NaN as 0."""
    p = columns.poles
    out = np.empty(es.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c in np.unique(col):
            w = columns.wt[c]
            at = np.flatnonzero(col == c)
            size = columns.scratch.size // p.size
            for b in range(0, at.size, size):
                i = at[b : b + size]
                r = np.subtract(p, es[i, None])
                if power == 2:
                    r = r * r
                r = 1.0 / r
                v = r @ w
                bad = np.isnan(v)
                v[bad] = _dead_as_zero(r[bad] * w).sum(axis=1)
                out[i] = v
    return out


def test_rank2_differences_keep_the_bits_of_the_subtraction_on_the_bench_ball():
    """Every `_Columns.values` and `_turn_skips` call of a bench ball's cover
    equals its form with p_j - E from a broadcast subtraction: the values
    bit for bit, the skips flag for flag, and the |p_j - s| the skip bound is
    formed from bit for bit at every sample."""
    prof, level, window = _two_particle_ball()
    values, turns = [], []
    plain_values, plain_turns = induction._Columns.values, induction._turn_skips

    def recording_values(self, col, es, power=1, guard=None):
        got = plain_values(self, col, es, power)
        values.append((self, col, es, power, got))
        return plain_values(self, col, es, power, guard)

    def recording_turns(*args):
        turns.append((args, plain_turns(*args)))
        return turns[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induction._Columns, "values", recording_values)
        mp.setattr(induction, "_turn_skips", recording_turns)
        cover_from_profile(prof, level, window)
    assert len(values) > 5 and len(turns) == 1
    for columns, col, es, power, got in values:
        assert _same_bits(got, _values_by_subtraction(columns, col, es, power))
    (poles, weights, samples, rows, cols, entry_level, guard, scratch), skip = turns[0]
    far = (induction.dist_to_spectrum(poles, samples[rows]) > 4 * guard) & (
        induction.dist_to_spectrum(poles, samples[rows + 1]) > 4 * guard)
    near = np.minimum(np.abs(poles - samples[rows[far], None]), np.abs(poles - samples[rows[far] + 1, None]))
    bound = (1.0 / near @ np.abs(weights))[np.arange(near.shape[0]), cols[far]]
    want = far.copy()
    want[far] = bound < 0.5 * entry_level
    assert skip.any() and (~skip).any() and np.array_equal(skip, want)
    assert _same_bits(np.abs(induction._differences(samples, poles)), np.abs(poles - samples[:, None]))


def test_a_dead_pole_is_no_pole_of_its_column():
    """A column evaluated exactly at one of its dead poles, by the bisection
    rows and by `values`, gets the value of its live poles, not the NaN of
    0 * inf; a point within RESOLVENT_GUARD of a dead pole is not guarded,
    one within it of a live pole is.  Column 0 is F(E) = 1 / (-1 - E) +
    2 / (1 - E), dead at the pole 0: F(0) = 1 and F'(0) = 3.  F = 1.5 on
    [-0.5, 0.5], whose first midpoint is the dead pole, has its root above
    it; F' = 4 on [0, 0.5], whose lower end is the dead pole, has its root
    below 0.25.  Taken as NaN, the dead pole's sign would put both roots on
    the wrong side."""
    poles = np.asarray([-1.0, 0.0, 1.0])
    weights = np.asarray([[1.0, 0.7], [0.0, 0.2], [2.0, -0.4]])
    live = np.abs(weights[:, 0]) > 0.0
    columns = induction._Columns(poles, weights)
    col = np.zeros(1, dtype=np.int64)
    for power, t, lo, hi, (a, b) in ((1, 1.5, -0.5, 0.5, (0.0, 0.5)), (2, 4.0, 0.0, 0.5, (0.0, 0.25))):
        lo, hi = np.asarray([lo]), np.asarray([hi])
        got = columns.bisect(col, t, power, lo, hi, RootCounts())
        assert _same_bits(got, _bisect_each(poles[live], weights[live, 0], t, power, lo, hi))
        assert a < got[0] < b
    for power, want in ((1, 1.0), (2, 3.0)):
        assert columns.values(col, np.zeros(1), power).tolist() == [want]
        assert columns.values(col, np.zeros(1), power, guard=induction.RESOLVENT_GUARD).tolist() == [want]
    near = np.asarray([0.5e-12, -0.5e-12, 1.0 - 0.5e-12, -1.0 + 0.5e-12])
    guarded = columns.values(np.zeros(4, dtype=np.int64), near, guard=induction.RESOLVENT_GUARD)
    assert np.isfinite(guarded[:2]).all() and (guarded[2:] == np.inf).all()
    assert columns.values(np.ones(4, dtype=np.int64), near, guard=induction.RESOLVENT_GUARD).tolist() == [np.inf] * 4


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
    """Columns whose gaps run across their dead poles on the shared grid
    next to columns with every pole live: equal to every bracket bisected
    and to the oracle, float for float."""
    prof, level, window = case
    cover = cover_from_profile(prof, level, window)
    full = _cover_without_skips(prof, level, window)
    assert cover.intervals == full.intervals == oracle_intervals(prof, level, window)


# ---------------------------------------------------------------------------
# Columns with dead poles: one grid, gaps that run across dead poles


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


def test_cover_samples_one_grid_per_ball(monkeypatch):
    """A work guard without timing: the cover forms the gap samples once per
    ball, and every column, those with dead poles too, seeks the zeros of F'
    along that grid alone: `_turn_skips` gets exactly the samples and the
    edges no sample equals.  A patch of the gaps that columns merge across
    their dead poles used to add 470-1,830 points to each bench ball."""
    prof, level, window = _two_particle_ball()
    sampled, points = [], []
    plain_samples, plain_skips = induction._gap_samples, induction._turn_skips

    def sampling(lo, hi):
        out = plain_samples(lo, hi)
        sampled.append((lo, hi, out))
        return out

    def skipping(poles, weights, samples, *rest):
        points.append(samples)
        return plain_skips(poles, weights, samples, *rest)

    monkeypatch.setattr(induction, "_gap_samples", sampling)
    monkeypatch.setattr(induction, "_turn_skips", skipping)
    cover_from_profile(prof, level, window)
    assert (cluster_sums(prof.eigenvalues, prof.coefficients)[1] == 0.0).any()
    assert len(sampled) == len(points) == 1
    (lo, hi, samples), (grid,) = sampled[0], points
    edges = np.append(lo, hi[-1])
    assert np.array_equal(grid, np.sort(np.concatenate((samples, edges[~np.isin(edges, samples)]))))


def _exact_crossing(poles, weights, level, lo, hi):
    """The root of sum_j w_j / (p_j - E) = level in [lo, hi], by bisection in
    exact rationals to far below a float's spacing."""
    terms = [(Fraction(p), Fraction(w)) for p, w in zip(poles, weights) if w != 0.0]
    lo, hi = Fraction(lo), Fraction(hi)
    below_at_lo = sum(w / (p - lo) for p, w in terms) < level
    for _ in range(200):
        mid = (lo + hi) / 2
        if (sum(w / (p - mid) for p, w in terms) < level) == below_at_lo:
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_a_crossing_next_to_a_dead_pole_is_found_on_the_grid():
    """Column 0 is dead at the pole 1, so its gap runs from 0 to 9; column 1
    is live everywhere, so the grid samples the gap (0, 1) down to 1e-12
    above 0.  Column 0 falls through the level at about 4.96e-12 above its
    pole 0: the first sample of the merged gap (0, 9) lies past that, so
    sampling that gap alone misses the crossing and ends the interval at the
    pole.  On the grid the interval reaches the exact crossing."""
    poles = np.asarray([-5.0, 0.0, 1.0, 9.0])
    coeffs = np.asarray([[1e-9, 1e-9], [-5e-20, 1e-30], [0.0, 1e-9], [1e-9, 1e-9]])
    level, window = 1e-8, (-6.0, 10.0)
    prof = BoundaryProfile(poles, coeffs, 1.0)
    cover = cover_from_profile(prof, level, window)
    (end,) = [b for a, b in cover.intervals if a <= 0.0 <= b]
    crossing = _exact_crossing(poles, coeffs[:, 0], Fraction(level), 1e-13, 1e-11)
    assert 4.9e-12 < crossing < 5e-12
    assert abs(end - crossing) <= induction.XTOL
    assert cover.intervals == oracle_intervals(prof, level, window)


def test_a_dead_pole_row_ends_the_pairs_next_to_it():
    """Column 0 is F(E) = 2E / (10^4 - E^2), dead at the pole 0 of column 1,
    and |F| < 1e-14 only on (-5e-11, 5e-11), between the grid rows at -1e-10
    and 1e-10 and the row on 0.  Each crossing lies in a pair that ends on
    that row, where column 0 takes its finite value 0, and the pair above it
    runs across the dead pole.  Without the value, or without that pair, the
    cover loses the hole around 0 or one side of it."""
    poles = np.asarray([-100.0, 0.0, 100.0])
    coeffs = np.asarray([[1.0, 1e-40], [0.0, 1e-40], [1.0, 1e-40]])
    level, window = 1e-14, (-150.0, 150.0)
    prof = BoundaryProfile(poles, coeffs, 1.0)
    cover = cover_from_profile(prof, level, window)
    crossing = _exact_crossing(poles, coeffs[:, 0], Fraction(level), 1e-11, 1e-10)
    assert 4.9e-11 < crossing < 5.1e-11
    (_, below), _, (above, _) = cover.intervals
    assert abs(below + crossing) <= induction.XTOL and abs(above - crossing) <= induction.XTOL
    assert cover.intervals == _cover_without_skips(prof, level, window).intervals == oracle_intervals(prof, level, window)


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
    columns = induction._Columns(p, weights)
    columns.scratch = np.empty(2 * (scratch_rows or max(lo.size, 1)) * p.size)
    counts = RootCounts()
    return columns.bisect(col, t, power, lo, hi, counts), counts


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def bisections(draw):
    """Poles (some 3e-11 apart), two columns of signed weights (some pairs
    cancelling to 1e-12, some dead), a level down to 1e-12 or an F' zero, and
    a batch of brackets of both columns: sign changes on the cover's gap
    samples and brackets that end on a pole, 1-9 or about 120 of them."""
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
    if draw(st.booleans()):
        c[rng.random(p.size) < 0.3] = 0.0  # dead poles, summed as zeros
    weights = np.stack([c, -c[::-1]], axis=1)
    power = draw(st.sampled_from([1, 2]))
    level = 0.0 if power == 2 else 10.0 ** draw(st.floats(-12.0, 1.0))
    edges = np.concatenate(([p[0] - 1.0], p, [p[-1] + 1.0]))
    samples = induction._gap_samples(edges[:-1], edges[1:])
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
