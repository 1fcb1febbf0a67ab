"""Scale-induction experiments and the fixed-to-variable-energy bridge.

Covers of the energy sublevel sets {E : F_u(E) >= a} use the rational
structure of the Green function: the column of an inner-boundary vertex z is
sum_j w_j(z) / (p_j - E), with poles p_j at the eigenvalue clusters and a
derivative with finitely many zeros between consecutive poles.  The cover is
the union over columns of their segments {|column| >= a / prefactor}.

What is shared is computed once.  Per ball: the eigenvalue clusters and the
per-cluster weights of all columns.  Columns with the same live poles (nonzero
weights) form a group, usually one; per group: the gap samples, the matrix of
reciprocals 1/(p_j - E) at the samples, and the values and slopes of every
column at the samples as two matrix products.  Per column stay the sign-change
brackets of the derivative zeros ("turn") and of the level crossings
("level"), and the segments they bound.

Only roots that can bound the union are bisected: a turn bracket on which a
bound keeps |F| below half the level, and a level bracket that lies well
inside the union of the columns already done, are skipped (`_group_segments`
says how, and why the union stays the same).  The rest are bisected in
batches across the columns of a group.  The bisection uses no BLAS: it
evaluates each bracket's column as a row-wise product with numpy's pairwise
sum, so a root's bits depend on its own bracket alone, and each bracket stops
at float convergence or after 80 steps.  `EnergyIntervalCover.roots` counts
per kind of root the brackets bisected and skipped and the reciprocal rows
formed.  All sampling offsets are anchored to the poles and the window, so the
construction is translation-covariant under H -> H + tI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configspace import Config, MultiBall, rho_s
from .disorder import InteractionPotential, PotentialDistribution, sample_potential
from .errors import ConfigurationError, ContractViolation
from .graphs import Graph, GrowthCertificate
from .hamiltonian import VOLUME_BUDGET, VolumeIndex, VolumeOperator
from .msa import (
    MassSchedule,
    ParameterSet,
    ScaleSchedule,
    classify_interactivity,
    ns_threshold,
    resonant,
)
from .evc import McEstimate, wilson_interval
from .parallel import run_trials
from .quantiles import normal_quantile, t_quantile
from .spectral import (
    RESOLVENT_GUARD,
    BallOperators,
    BallSpectra,
    BoundaryProfile,
    SpectralData,
    boundary_profile,
    cluster_sums,
    dist_to_spectrum,
    efc,
    eigendecompose,
    ns_flags,
)


# ---------------------------------------------------------------------------
# Energy interval covers


@dataclass
class RootCounts:
    """Brackets found for one kind of root: `brackets` bisected and `skipped`
    (their root cannot bound the union), and the reciprocal `rows`
    1 / (p_j - E) formed for the bisected ones: one per bracket for its lower
    end and one per bracket and step."""

    brackets: int = 0
    rows: int = 0
    skipped: int = 0

    def add(self, other: RootCounts) -> None:
        self.brackets += other.brackets
        self.rows += other.rows
        self.skipped += other.skipped


@dataclass(frozen=True)
class EnergyIntervalCover:
    """Closed intervals covering {E in window : F_u(E) >= level}."""

    intervals: tuple[tuple[float, float], ...]
    level: float
    window: tuple[float, float]
    ball_size: int
    # bisection work per kind of root: "turn" (zeros of F') and "level"
    # (|F| = level crossings); not part of the cover's value
    roots: dict[str, RootCounts] = field(default_factory=dict, compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.intervals)


def _reciprocals(es: np.ndarray, poles: np.ndarray, out=None) -> np.ndarray:
    """(energies x poles) matrix 1 / (p_j - E), formed in `out` if given; a
    pole gives inf.  The differences p_j - E come from the rank-2 product
    [1, E] . [p_j, -1]: each is one rounding of the exact difference, the bits
    of a subtraction, and BLAS forms them in place some 4x faster than a
    broadcast subtraction allocates them."""
    ones = np.empty((es.size, 2))
    ones[:, 0], ones[:, 1] = 1.0, es
    out = np.matmul(ones, np.stack((poles, -np.ones(poles.size))), out=out)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.divide(1.0, out, out=out)


def _rational(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return _reciprocals(es, poles) @ w


_MAX_STEPS = 80
XTOL = 1e-12  # energy resolution of a cover


def _bisect(
    p: np.ndarray, wt: np.ndarray, col: np.ndarray, t, power: int, lo: np.ndarray, hi: np.ndarray,
    scratch: np.ndarray, counts: RootCounts,
) -> np.ndarray:
    """Bisection of G_i(E) = sum_j wt[col_i, j] / (p_j - E)^power - t_i, power
    1 or 2, on brackets [lo_i, hi_i] with a sign change; returns the final
    midpoints 0.5 (lo_i + hi_i).

    G_i is evaluated row by row, as np.multiply(recip_i, c_i).sum() (numpy's
    pairwise sum over the row), so a root's bits depend on its own bracket
    alone: brackets of any columns share a batch, and dropping or regrouping
    some moves no other root.  A bracket stops when its midpoint no longer
    lies strictly inside it (float convergence) or after 80 steps.  A batch
    keeps its reciprocals and weight rows in `scratch`, so it holds at most
    scratch.size / (2 len(p)) brackets; `counts` gains the brackets and rows.
    """
    t = np.broadcast_to(t, lo.shape)
    roots = np.empty(lo.size)
    size = scratch.size // (2 * p.size)
    for s in range(0, lo.size, size):
        part = slice(s, s + size)
        roots[part] = _bisect_batch(p, wt, col[part], t[part], power, lo[part], hi[part], scratch, counts)
    return roots


def _bisect_batch(p, wt, col, t, power, lo, hi, scratch, counts) -> np.ndarray:
    k, n = lo.size, p.size
    recip = scratch[: k * n].reshape(k, n)
    c = scratch[k * n : 2 * k * n].reshape(k, n)
    np.take(wt, col, axis=0, out=c, mode="clip")

    def negative(es: np.ndarray, t: np.ndarray) -> np.ndarray:
        r = recip[: es.size]
        np.subtract(p, es[:, None], out=r)
        if power == 2:
            np.multiply(r, r, out=r)
        np.divide(1.0, r, out=r)
        return np.multiply(r, c[: es.size], out=r).sum(axis=1) - t <= 0.0

    roots = np.empty(k)
    live = np.arange(k)  # the bracket of each row still bisected
    counts.brackets += k
    counts.rows += k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the sign at lo never changes: lo moves only to midpoints of its sign
        neg_lo = negative(lo, t)
        for step in range(_MAX_STEPS + 1):
            mid = 0.5 * (lo + hi)
            inner = (lo < mid) & (mid < hi) if step < _MAX_STEPS else np.zeros(mid.size, dtype=bool)
            if not inner.all():
                roots[live[~inner]] = mid[~inner]
                keep = np.flatnonzero(inner)
                if not keep.size:
                    break
                live, lo, hi, mid, neg_lo, t = (a[keep] for a in (live, lo, hi, mid, neg_lo, t))
                np.take(wt, col[live], axis=0, out=c[: live.size], mode="clip")
            counts.rows += live.size
            same = neg_lo == negative(mid, t)
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
    return roots


_INTERIOR_FRACTIONS = np.linspace(0.0, 1.0, 35)[1:-1]
_EDGE_FRACTIONS = np.asarray([10.0**-j for j in range(1, 13)])
# rows of a block of reciprocals in the scratch buffer (at the most live
# poles): a block of samples, or a bisection batch next to its weight rows
_BLOCK_ROWS = 512


def _gap_samples(edges: np.ndarray) -> np.ndarray:
    """Ascending sample points of every gap between consecutive edges wider
    than 4 XTOL: 33 interior points and 12 on each side approaching the edge
    geometrically, all parameterized by the gap (covariant)."""
    lo, hi = edges[:-1], edges[1:]
    wide = hi - lo > 4 * XTOL
    lo, hi = lo[wide, None], hi[wide, None]
    width = hi - lo
    grid = np.sort(
        np.concatenate(
            [lo + width * _INTERIOR_FRACTIONS, lo + width * _EDGE_FRACTIONS, hi - width * _EDGE_FRACTIONS],
            axis=1,
        ),
        axis=1,
    )
    fresh = np.ones(grid.shape, dtype=bool)
    fresh[:, 1:] = grid[:, 1:] != grid[:, :-1]
    return grid[fresh]


def _turn_skips(
    poles: np.ndarray, weights: np.ndarray, samples: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    level: float, guard: float, scratch: np.ndarray,
) -> np.ndarray:
    """Turn brackets [s_i, s_i+1] (sample rows i, columns `cols`) whose root
    cannot bound the union: both ends lie more than 4 guard from every pole,
    and sum_j |w_j| / min(|p_j - s_i|, |p_j - s_i+1|) < level / 2, which
    bounds |F| on the bracket (no pole lies inside it).  Such a zero of F'
    is neither a crossing nor next to one, and sits in no guard piece."""
    far = (dist_to_spectrum(poles, samples[rows]) > 4 * guard) & (
        dist_to_spectrum(poles, samples[rows + 1]) > 4 * guard
    )
    uniq, at = np.unique(rows[far], return_inverse=True)
    bound = np.empty((uniq.size, weights.shape[1]))
    size = scratch.size // (2 * poles.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, uniq.size, size):
            r = uniq[s : s + size]
            near = scratch[: r.size * poles.size].reshape(r.size, -1)
            other = scratch[r.size * poles.size : 2 * r.size * poles.size].reshape(r.size, -1)
            np.abs(np.subtract(poles, samples[r, None], out=near), out=near)
            np.abs(np.subtract(poles, samples[r + 1, None], out=other), out=other)
            np.divide(1.0, np.minimum(near, other, out=near), out=near)
            np.matmul(near, np.abs(weights), out=bound[s : s + size])
    skip = far.copy()
    skip[far] = bound[at, cols[far]] < 0.5 * level
    return skip


def _level_skips(union: np.ndarray, lo: np.ndarray, hi: np.ndarray, margin: float) -> np.ndarray:
    """Level brackets [lo, hi] whose widened span [lo - w - margin, hi + w +
    margin] (w = hi - lo) lies inside one interval of `union`, the merged
    cover so far as its (2 x intervals) starts and ends."""
    starts, ends = union
    width = hi - lo
    k = np.searchsorted(starts, lo - width - margin, side="right") - 1
    return (k >= 0) & (ends[np.maximum(k, 0)] >= hi + width + margin) if starts.size else np.zeros(lo.size, bool)


def _level_brackets(
    p: np.ndarray,
    c: np.ndarray,
    samples: np.ndarray,
    sample_values: np.ndarray,
    distinct: np.ndarray,
    gap_index: np.ndarray,
    edges: np.ndarray,
    edge_values: np.ndarray,
    dzeros: np.ndarray,
    level: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Brackets [lo, hi] of the crossings |F| = level of one rational column,
    their targets +-level, and each bracket's end outside {|F| >= level}.

    They are the sign changes of F -+ level on the refined point set: the
    shared samples (the first of equal ones at `distinct`, in the gaps
    `gap_index`) with F's values, plus the zeros of F' and the edges (with
    F's values there), each value at its first occurrence (as np.unique of
    samples then extras keeps it), merged instead of sorted."""
    extra = np.concatenate([dzeros, edges])
    order = np.argsort(extra, kind="stable")
    ex, ex_vals = extra[order], np.concatenate([_rational(dzeros, p, c), edge_values])[order]
    points = samples[distinct]
    at = np.searchsorted(points, ex)
    new = points[np.minimum(at, points.size - 1)] != ex
    new[1:] &= ex[1:] != ex[:-1]
    at, ex, ex_vals = at[new], ex[new], ex_vals[new]
    pts = np.insert(points, at, ex)
    vals = np.insert(sample_values[distinct], at, ex_vals)
    gap = np.insert(gap_index[distinct], at, np.searchsorted(p, ex))
    same_gap = gap[:-1] == gap[1:]
    los, targets, outside_lo = [], [], []
    for target in (level, -level):
        sign = np.sign(vals - target)
        idx = np.flatnonzero((sign[:-1] * sign[1:] < 0) & same_gap)
        los.append(idx)
        targets.append(np.full(idx.size, target))
        # outside means F < level for +level and F > -level for -level
        outside_lo.append(sign[idx] != np.sign(target))
    idx, outside_lo = np.concatenate(los), np.concatenate(outside_lo)
    return pts[idx], pts[idx + 1], np.concatenate(targets), np.where(outside_lo, pts[idx], pts[idx + 1])


def _column_segments(
    p: np.ndarray, c: np.ndarray, breakpoints: np.ndarray, level: float, window: tuple[float, float], guard: float
) -> list[tuple[float, float]]:
    """Sublevel segments {|F| >= level} of one rational column on the window:
    the pieces between consecutive breakpoints (edges, crossings and zeros of
    F') where |F| at the midpoint reaches the level or the midpoint lies
    within guard of a pole."""
    breakpoints = np.unique(np.clip(breakpoints, *window))
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    if mids.size == 0:
        return []
    near_pole = dist_to_spectrum(p, mids) <= guard
    inside = np.flatnonzero(near_pole | (np.abs(_rational(mids, p, c)) >= level))
    a, b = breakpoints[inside], breakpoints[inside + 1]
    a, b = a[b - a > 0], b[b - a > 0]
    if not a.size:
        return []
    # an interval starting within guard of the previous one's end extends it
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] > b[:-1] + guard
    last = np.append(np.flatnonzero(first)[1:] - 1, a.size - 1)
    return list(zip(a[first].tolist(), b[last].tolist()))


def _group_segments(
    poles: np.ndarray, weights: np.ndarray, level: float, window: tuple[float, float],
    scratch: np.ndarray, roots: dict[str, RootCounts], union: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """`union` (merged, ascending) grown by the sublevel segments
    {|F_col| >= level} of every column of `weights`; all columns share the
    live poles, hence the samples, the reciprocals and the bisection batches.

    Only roots that can bound the union are bisected.  A zero of F' is
    skipped where `_turn_skips` bounds |F| below level / 2.  The columns then
    join the union in rounds of 1, 2, 4, ... columns, most level brackets
    first; a level bracket [u, v] (w = v - u) whose [u - w, v + w] lies inside
    the union of earlier rounds, with margin 2 XTOL + 4 guard, keeps its end
    outside {|F| >= level} as breakpoint instead of its root.  That moves the
    column's segments only inside the union, so the union's endpoints are
    the roots every bracket would give."""
    lo_w, hi_w = window
    edges = np.concatenate(([lo_w], poles[(poles > lo_w) & (poles < hi_w)], [hi_w]))
    samples = _gap_samples(edges)
    if samples.size == 0:
        return union
    # the (samples x poles) reciprocals a block of rows at a time, in place
    # in `scratch`, where they stay in cache for both products
    values = np.empty((samples.size, weights.shape[1]))
    slopes = np.empty_like(values)
    block_rows = scratch.size // (2 * poles.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(0, samples.size, block_rows):
            part = slice(s, s + block_rows)
            block = samples[part]
            recip = _reciprocals(block, poles, out=scratch[: block.size * poles.size].reshape(block.size, -1))
            np.matmul(recip, weights, out=values[part])
            np.matmul(np.square(recip, out=recip), weights, out=slopes[part])
    gap_index = np.searchsorted(poles, samples)
    same_gap = gap_index[:-1] == gap_index[1:]
    # derivative sign changes within each gap give the monotone breakpoints
    turns = (np.sign(slopes[:-1]) * np.sign(slopes[1:]) < 0) & same_gap[:, None]
    # the samples ascend; a pole can be the last sample of one gap and the
    # first of the next
    distinct = np.flatnonzero(np.concatenate(([True], samples[1:] != samples[:-1])))
    guard = XTOL
    wt = np.ascontiguousarray(weights.T)
    n_cols = wt.shape[0]

    # the zeros of F' of all columns in one bisection, ordered by column
    cols, rows = np.nonzero(turns.T)
    skip = _turn_skips(poles, weights, samples, rows, cols, level, guard, scratch)
    roots["turn"].skipped += int(skip.sum())
    cols, rows = cols[~skip], rows[~skip]
    dzeros = _bisect(poles, wt, cols, 0.0, 2, samples[rows], samples[rows + 1], scratch, roots["turn"])
    dzeros = np.split(dzeros, np.searchsorted(cols, np.arange(1, n_cols)))

    # per column: its level brackets, their targets and their outside ends
    edge_values = _rational(edges, poles, weights)
    brackets = [
        _level_brackets(poles, wt[col], samples, values[:, col], distinct, gap_index, edges, edge_values[:, col],
                        dzeros[col], level)
        for col in range(n_cols)
    ]
    counts = np.asarray([lo.size for lo, *_ in brackets])
    order = np.argsort(-counts, kind="stable")
    margin = 2 * XTOL + 4 * guard
    start, size = 0, 1
    while start < n_cols:
        batch = order[start : start + size]
        start, size = start + size, 2 * size
        lo, hi, target, outside = (np.concatenate(part) for part in zip(*(brackets[col] for col in batch)))
        skip = _level_skips(np.asarray(union).reshape(-1, 2).T, lo, hi, margin)
        roots["level"].skipped += int(skip.sum())
        bisect = ~skip
        crossings = outside.copy()
        crossings[bisect] = _bisect(poles, wt, np.repeat(batch, counts[batch])[bisect], target[bisect], 1,
                                    lo[bisect], hi[bisect], scratch, roots["level"])
        segments = list(union)
        for col, found in zip(batch, np.split(crossings, np.cumsum(counts[batch])[:-1])):
            breakpoints = np.concatenate((edges, found, dzeros[col]))
            segments.extend(_column_segments(poles, wt[col], breakpoints, level, window, guard))
        union = _merge(segments, eps=XTOL)
    return union


def _merge(intervals: list[tuple[float, float]], eps: float) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [intervals[0]]
    for a, b in intervals[1:]:
        if a <= out[-1][1] + eps:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def cover_from_profile(
    profile: BoundaryProfile, level: float, window: tuple[float, float], ball_size: int
) -> EnergyIntervalCover:
    """Union over boundary vertices of the per-column sublevel segments.

    The per-column threshold is level / prefactor since F carries the scale
    factor in front of the Green entries.  Gaps between poles narrower than
    4 XTOL are not sampled, and segments closer than XTOL are merged.
    """
    if level <= 0:
        raise ContractViolation("cover level must be positive")
    entry_level = level / profile.prefactor
    poles, weights = cluster_sums(profile.eigenvalues, profile.coefficients)
    live = np.abs(weights) > 0.0
    groups: dict[bytes, list[int]] = {}
    for col in range(weights.shape[1]):
        groups.setdefault(live[:, col].tobytes(), []).append(col)
    # one buffer for every group's blocks of reciprocals and bisection
    # batches, reused in turn: about 1.4 MB at 169 poles, so a block stays
    # in cache, and no fresh blocks per group fragment the heap
    n_live = int(live.sum(axis=0).max())
    scratch = np.empty(2 * _BLOCK_ROWS * n_live)
    union: list[tuple[float, float]] = []
    roots = {"turn": RootCounts(), "level": RootCounts()}
    for cols in groups.values():
        mask = live[:, cols[0]]
        if mask.any():
            union = _group_segments(
                poles[mask], weights[mask][:, cols], entry_level, window, scratch, roots, union
            )
    return EnergyIntervalCover(
        intervals=tuple(union),
        level=level,
        window=window,
        ball_size=ball_size,
        roots=roots,
    )


# ---------------------------------------------------------------------------
# Sup-min functional over two balls


SUPMIN_GRID_POINTS = 2001
SUPMIN_REFINE_POINTS = 65


@dataclass(frozen=True)
class SupMinResult:
    sup_value: float
    argmax_energy: float
    exceeded: bool
    n_evaluations: int
    cover_x: EnergyIntervalCover
    cover_y: EnergyIntervalCover


def sup_min_functional(
    spec_x: SpectralData,
    ball_x: MultiBall,
    spec_y: SpectralData,
    ball_y: MultiBall,
    cert: GrowthCertificate,
    level: float,
    window: tuple[float, float],
) -> SupMinResult:
    """sup over E of min(F_x(E), F_y(E)) with cover-driven refinement.

    The min can only reach `level` where both covers overlap, so the base grid
    of SUPMIN_GRID_POINTS is refined by SUPMIN_REFINE_POINTS inside each
    intersection of the two covers.  Guarded energies evaluate to +inf (they
    lie inside the covers by construction).
    """
    prof_x = boundary_profile(spec_x, ball_x, cert)
    prof_y = boundary_profile(spec_y, ball_y, cert)
    cov_x = cover_from_profile(prof_x, level, window, len(spec_x.volume))
    cov_y = cover_from_profile(prof_y, level, window, len(spec_y.volume))

    points = [np.linspace(window[0], window[1], SUPMIN_GRID_POINTS)]
    for ax, bx in cov_x.intervals:
        for ay, by in cov_y.intervals:
            lo, hi = max(ax, ay), min(bx, by)
            if lo <= hi:
                points.append(np.linspace(lo, hi, SUPMIN_REFINE_POINTS))
    energies = np.unique(np.concatenate(points))
    fx = prof_x.evaluate(energies, guard=RESOLVENT_GUARD)
    fy = prof_y.evaluate(energies, guard=RESOLVENT_GUARD)
    mins = np.minimum(fx, fy)
    best = int(np.argmax(mins))
    sup_val = float(mins[best])
    return SupMinResult(
        sup_value=sup_val,
        argmax_energy=float(energies[best]),
        exceeded=bool(sup_val >= level),
        n_evaluations=int(energies.size),
        cover_x=cov_x,
        cover_y=cov_y,
    )


def bridge_parameters(mass: MassSchedule, n: int, radius: int, ball_sizes: tuple[int, int]) -> dict:
    """The fixed-to-variable bridge constants a_L, b_L, c_L, q_L and their
    compatibility inequality b_L <= min(a_L c_L^2 / K, c_L)."""
    nu = mass.nu(n)
    kappa = mass.params.kappa
    x = nu * float(radius) ** kappa
    a_l = math.exp(-x / 3.0)
    b_l = math.exp(-2.0 * x / 3.0)
    c_l = math.exp(-x / 8.0)
    q_l = math.exp(-x)
    k_size = max(ball_sizes)
    ok = b_l <= min(a_l * c_l**2 / k_size, c_l)
    return {
        "a_L": a_l,
        "b_L": b_l,
        "c_L": c_l,
        "q_L": q_l,
        "K": k_size,
        "precondition_ok": ok,
    }


# ---------------------------------------------------------------------------
# Scale probabilities


@dataclass(frozen=True)
class ScaleRow:
    k: int
    radius: int
    p: McEstimate | None
    q: McEstimate | None
    s: McEstimate | None
    target: float
    skipped: bool = False


@dataclass(frozen=True)
class ScaleReport:
    rows: tuple[ScaleRow, ...]
    energy_policy: str
    n_particles: int


def _policy_energies(policy: str, window: tuple[float, float]) -> np.ndarray:
    """'fixed:E' (a finite E) or 'grid[:count]' (count >= 1, default 41
    energies spanning the window)."""
    kind, _, rest = policy.partition(":")
    try:
        if kind == "fixed":
            energy = float(rest)
            if math.isfinite(energy):
                return np.asarray([energy])
        elif kind == "grid":
            count = int(rest) if rest else 41
            if count >= 1:
                return np.linspace(window[0], window[1], count)
    except ValueError:
        pass
    raise ConfigurationError(
        f"[run] energy_policy = '{policy}' is not fixed:<finite energy> or grid[:<count >= 1>]"
    )


def _worst_estimate(hit_matrix: np.ndarray, trials: int, seed: int, n_energies: int) -> McEstimate:
    """Max estimate over the energy grid with Bonferroni-widened Wilson CI."""
    hits = hit_matrix.sum(axis=0)
    worst = int(np.argmax(hits))
    base = McEstimate.from_counts(int(hits[worst]), trials, seed)
    if n_energies <= 1:
        return base
    # widen: Wilson at level alpha / n_energies
    lo, hi = wilson_interval(base.estimate, trials, float(normal_quantile(1 - 0.025 / n_energies)))
    return McEstimate(
        trials=trials, successes=base.successes, estimate=base.estimate, ci_low=lo, ci_high=hi, seed=seed
    )


def scale_probabilities(
    operators: BallOperators,
    center: Config,
    dist: PotentialDistribution,
    g: float,
    params: ParameterSet,
    mass: MassSchedule,
    schedule: ScaleSchedule,
    cert: GrowthCertificate,
    energy_policy: str,
    window: tuple[float, float],
    trials: int,
    seed: int,
) -> ScaleReport:
    """Empirical singularity (P), resonance (Q, with the factor-4 convention)
    and WI-singular-sub-ball (S) probabilities at each scale.

    All scales share per-trial disorder streams (common random numbers); a
    scale whose ball exceeds the volume budget is reported skipped.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    graph = operators.graph
    n = len(center)
    energies = _policy_energies(energy_policy, window)
    m_n = mass.m(n)
    rows: list[ScaleRow] = []
    for k, radius in enumerate(schedule.levels):
        ball = MultiBall(graph, center, radius)
        if ball.size() > VOLUME_BUDGET:
            rows.append(
                ScaleRow(k=k, radius=radius, p=None, q=None, s=None,
                         target=mass.singularity_target(n, radius), skipped=True)
            )
            continue
        thr_ns = ns_threshold(params, m_n, radius)
        sub_radius = schedule.levels[k - 1] if k >= 1 else None
        sub_centers: list[Config] = []
        if k >= 1 and n >= 2 and radius - sub_radius >= 0:
            # each sub-ball lies inside the ball, so it fits the budget too
            sub_centers = [
                v
                for v in MultiBall(graph, center, radius - sub_radius).members()
                if classify_interactivity(MultiBall(graph, v, sub_radius))[0] == "WI"
            ]

        def one(trial_seed: int, _idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            sample = sample_potential(dist, graph, trial_seed)
            spectra = BallSpectra(operators, sample, g)
            spec = spectra.spectrum(ball)
            res = resonant(spec.eigenvalues, energies, radius, params.beta)
            # an undetermined NS flag counts as singular
            singular = ~ns_flags(spec, ball, cert, energies, thr_ns)[0]
            wi_sing = np.zeros(len(energies), dtype=bool)
            for v in sub_centers:
                sub = MultiBall(graph, v, sub_radius)
                thr_sub = ns_threshold(params, m_n, sub_radius)
                wi_sing |= ~ns_flags(spectra.spectrum(sub), sub, cert, energies, thr_sub)[0]
                if wi_sing.all():
                    break
            return res, singular, wi_sing

        outcomes = run_trials(one, trials, seed)
        res_m = np.stack([o[0] for o in outcomes])
        sing_m = np.stack([o[1] for o in outcomes])
        wi_m = np.stack([o[2] for o in outcomes])
        p_est = _worst_estimate(sing_m, trials, seed, len(energies))
        q_est = _worst_estimate(res_m, trials, seed, len(energies)).scaled(4.0)
        if n == 1 or k == 0:
            s_est = McEstimate.from_counts(0, trials, seed) if k >= 1 else None
        else:
            s_est = _worst_estimate(wi_m, trials, seed, len(energies))
        rows.append(
            ScaleRow(
                k=k,
                radius=radius,
                p=p_est,
                q=q_est,
                s=s_est,
                target=mass.singularity_target(n, radius),
            )
        )
    return ScaleReport(rows=tuple(rows), energy_policy=energy_policy, n_particles=n)


@dataclass(frozen=True)
class RecursionCheck:
    first_term: float
    rhs: float
    target: float
    p_next: float | None
    satisfied: bool | None
    rhs_meets_target: bool


def recursion_bound(
    p_k: float,
    s_next: float,
    q_next: float,
    params: ParameterSet,
    mass: MassSchedule,
    cert: GrowthCertificate,
    n: int,
    radius_next: int,
    p_next: float | None = None,
) -> RecursionCheck:
    """rhs = C^(KN) L^(KNd) p_k^(K+1) / 2 + s_next + q_next / 4, compared to
    the measured next-scale singularity probability and the mode target.

    q_next carries the factor-4 resonance convention, so it lives in [0, 4]
    (q_next / 4 is the raw probability).
    """
    for val in (p_k, s_next):
        if not 0.0 <= val <= 1.0:
            raise ContractViolation("probabilities must lie in [0,1]")
    if not 0.0 <= q_next <= 4.0:
        raise ContractViolation("q_next uses the factor-4 convention and lies in [0,4]")
    kk = params.K
    first = 0.5 * cert.C ** (kk * n) * float(radius_next) ** (kk * n * params.d) * p_k ** (kk + 1)
    rhs = first + s_next + 0.25 * q_next
    target = mass.singularity_target(n, radius_next)
    return RecursionCheck(
        first_term=first,
        rhs=rhs,
        target=target,
        p_next=p_next,
        satisfied=None if p_next is None else p_next <= rhs,
        rhs_meets_target=rhs <= target,
    )


# ---------------------------------------------------------------------------
# EFC decay experiment


@dataclass(frozen=True)
class DecayFit:
    g: float
    mass: float
    intercept: float
    ci_low: float
    ci_high: float
    n_batches: int
    pair_distances: tuple[int, ...]
    mean_efc: tuple[float, ...]
    batch_masses: tuple[float, ...] = ()


def _fit_mass(distances: np.ndarray, mean_efc: np.ndarray, kappa: float) -> tuple[float, float]:
    xs = distances.astype(np.float64) ** kappa
    ys = -np.log(np.maximum(mean_efc, 1e-300))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def efc_decay_experiment(
    graph: Graph,
    volume: VolumeIndex,
    pairs: list[tuple[Config, Config]],
    dist: PotentialDistribution,
    interaction: InteractionPotential,
    g_values,
    kappa: float,
    seeds: int,
    seed: int,
    n_batches: int = 10,
) -> list[DecayFit]:
    """Mean EFC per pair and the decay-mass fit -log(mean EFC) ~ M * rho_S**kappa.

    Pairs at rho_S = 0 are excluded from the fit.  The confidence interval on
    M comes from refitting on disjoint seed batches (t interval).
    """
    if seeds < n_batches:
        n_batches = max(1, seeds)
    distances = np.asarray([rho_s(graph, x, y) for x, y in pairs], dtype=np.int64)
    keep = distances > 0
    if keep.sum() < 2:
        raise ContractViolation("need at least two pairs at distinct positive rho_S")

    operator = VolumeOperator(volume, interaction)
    fits: list[DecayFit] = []
    for g in g_values:
        def one(trial_seed: int, _idx: int) -> np.ndarray:
            sample = sample_potential(dist, graph, trial_seed)
            spec = eigendecompose(operator.hamiltonian(g, sample))
            return np.asarray([efc(spec, x, y).value for x, y in pairs])

        values = np.stack(run_trials(one, seeds, seed))  # (seeds, pairs)
        mean_efc = values.mean(axis=0)
        m_hat, intercept = _fit_mass(distances[keep], mean_efc[keep], kappa)
        batch_edges = np.linspace(0, seeds, n_batches + 1).astype(int)
        batch_fits = []
        for b0, b1 in zip(batch_edges[:-1], batch_edges[1:]):
            if b1 <= b0:
                continue
            bm = values[b0:b1].mean(axis=0)
            batch_fits.append(_fit_mass(distances[keep], bm[keep], kappa)[0])
        arr = np.asarray(batch_fits)
        if arr.size >= 2:
            crit = t_quantile(0.975, arr.size - 1)
            half = crit * arr.std(ddof=1) / math.sqrt(arr.size)
            ci = (float(arr.mean() - half), float(arr.mean() + half))
        else:
            ci = (float("nan"), float("nan"))
        fits.append(
            DecayFit(
                g=float(g),
                mass=m_hat,
                intercept=intercept,
                ci_low=ci[0],
                ci_high=ci[1],
                n_batches=int(arr.size),
                pair_distances=tuple(int(v) for v in distances),
                mean_efc=tuple(float(v) for v in mean_efc),
                batch_masses=tuple(float(v) for v in batch_fits),
            )
        )
    return fits
