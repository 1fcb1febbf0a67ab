"""Scale-induction experiments and the fixed-to-variable-energy bridge.

Covers of the energy sublevel sets {E : F_u(E) >= a} use the rational
structure of the Green function: the column of an inner-boundary vertex z is
sum_j w_j(z) / (p_j - E), with poles p_j at the eigenvalue clusters and a
derivative with finitely many zeros between consecutive poles.  The cover is
the union over columns of their segments {|column| >= a / prefactor}.

One sample grid serves a ball: the gap samples between consecutive poles and
the edges, with the values and slopes of every column there as two matrix
products per block of reciprocals 1/(p_j - E).  A column with a dead pole
(weight exactly 0) in the window has its own gaps, the runs of gaps merged
across its dead poles.  It uses the grid in every gap it shares and leaves it
only inside its own: one patch list holds their samples and the live edges
that bound each run, so grid and patch give the point set the column has on
its own.  On a bench ball 5-11 sets of live poles occur: about 40 columns
with every pole live, and single columns with 1-20 dead poles; the patch
holds 470-1,830 points next to a grid of about 9,400.  The sign-change brackets
of the derivative zeros ("turn") and of the level crossings ("level") are
found for all columns at once, along the grid and along the patch.

Only roots that can bound the union are bisected: a turn bracket on which a
bound keeps |F| below half the level, and a level bracket that lies well
inside the union of the columns already done, are skipped (`_ball_union`
says how, and why the union stays the same).  The rest are bisected in
batches across the columns with the same live poles.  The bisection uses no
BLAS: it evaluates each bracket's column as a row-wise product with numpy's
pairwise sum over the column's live poles, so a root's bits depend on its own
bracket alone, and each bracket stops at float convergence or after 80 steps.
`EnergyIntervalCover.roots` counts per kind of root the brackets bisected and
skipped and the reciprocal rows formed.  All sampling offsets are anchored to
the poles and the window, so the construction is translation-covariant under
H -> H + tI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .configspace import Config, MultiBall, rho_s, weakly_interactive
from .disorder import PotentialDistribution, sample_potential
from .errors import ConfigurationError, ContractViolation
from .graphs import GrowthCertificate
from .hamiltonian import VOLUME_BUDGET
from .msa import MassSchedule, ParameterSet, ScaleSchedule, classify
from .evc import McEstimate
from .parallel import run_trials
from .quantiles import normal_quantile, t_quantile
from .spectral import (
    RESOLVENT_GUARD,
    BallOperators,
    BallSpectra,
    BoundaryProfile,
    SpectralData,
    _reciprocals,
    boundary_profile,
    cluster_sums,
    dist_to_spectrum,
    efc,
)


# ---------------------------------------------------------------------------
# Energy interval covers


class RootCounts:
    """Brackets found for one kind of root: `brackets` bisected and `skipped`
    (their root cannot bound the union), and the reciprocal `rows`
    1 / (p_j - E) formed for the bisected ones: one per bracket for its lower
    end and one per bracket and step."""

    def __init__(self):
        self.brackets = self.rows = self.skipped = 0

    def add(self, other: RootCounts) -> None:
        self.brackets += other.brackets
        self.rows += other.rows
        self.skipped += other.skipped


@dataclass(frozen=True, eq=False, repr=False)
class EnergyIntervalCover:
    """Closed intervals covering {E in window : F_u(E) >= level}."""

    intervals: tuple[tuple[float, float], ...]
    # bisection work per kind of root: "turn" (zeros of F') and "level"
    # (|F| = level crossings)
    roots: dict[str, RootCounts] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.intervals)


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
# rows of a block of reciprocals in the scratch buffer (at all poles): a
# block of samples, or a bisection batch next to its weight rows
_BLOCK_ROWS = 512


def _gap_samples(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample points of every gap [lo_i, hi_i] wider than 4 XTOL, ascending
    within a gap, and the gap i of each: 33 interior points and 12 on each
    side approaching the edge geometrically, all parameterized by the gap
    (covariant)."""
    wide = np.flatnonzero(hi - lo > 4 * XTOL)
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
    return grid[fresh], np.broadcast_to(wide[:, None], grid.shape)[fresh]


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


def _signs(slopes, values, level: float, out=None) -> np.ndarray:
    """The signs of F', F - level and F + level, stacked as int8 (NaN gives
    0)."""
    out = np.empty((3, *np.shape(values)), dtype=np.int8) if out is None else out
    for sign, v, t in zip(out, (slopes, values, values), (0.0, level, -level)):
        np.subtract(v > t, v < t, out=sign, dtype=np.int8)
    return out


def _changes(signs: np.ndarray, pair: np.ndarray):
    """Where `signs` flips from row i to row i + 1 (0 flips nothing) and
    `pair` holds: the index tuple of row i (and column), and whether row i is
    negative."""
    at = np.nonzero((signs[:-1] * signs[1:] < 0) & pair)
    return at, signs[:-1][at] < 0


def _merge(intervals, eps: float) -> list[tuple[float, float]]:
    """Union of closed intervals (pairs or an (n, 2) array), joining those
    at most eps apart: the ascending sweep, with the running maximum of the
    ends as the end of the current interval."""
    iv = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    if not iv.size:
        return []
    iv = iv[np.lexsort((iv[:, 1], iv[:, 0]))]
    reach = np.maximum.accumulate(iv[:, 1])
    first = np.ones(len(iv), dtype=bool)
    first[1:] = iv[1:, 0] > reach[:-1] + eps
    last = np.append(np.flatnonzero(first)[1:] - 1, len(iv) - 1)
    return list(zip(iv[first, 0].tolist(), reach[last].tolist()))


class _Columns:
    """The boundary columns of one ball as rational functions: the poles
    live in some column and the (poles x columns) weights.  Columns with the
    same live poles form a class; every sum over poles below runs over the
    live poles of its column only, as the column-at-a-time construction
    does, so a root keeps its bits."""

    def __init__(self, poles: np.ndarray, weights: np.ndarray):
        self.poles, self.weights = poles, weights
        sets, kind = np.unique((np.abs(weights) > 0.0).T, axis=0, return_inverse=True)
        self.kind = kind.ravel()
        self.classes = [(poles[s], np.ascontiguousarray(weights[s].T)) for s in sets]
        # one buffer for every block of reciprocals and bisection batch,
        # reused in turn: about 1.4 MB at 169 poles, so a block stays in cache
        self.scratch = np.empty(2 * _BLOCK_ROWS * poles.size)

    def _split(self, col: np.ndarray):
        """Per class in `col`: its poles, its (columns x poles) weights and
        the positions in `col` of its columns, ordered by column."""
        kind = self.kind[col]
        for k in np.unique(kind):
            at = np.flatnonzero(kind == k)
            yield *self.classes[k], at[np.argsort(col[at], kind="stable")]

    def bisect(self, col, t, power, lo, hi, counts: RootCounts) -> np.ndarray:
        t = np.broadcast_to(t, lo.shape)
        roots = np.empty(lo.size)
        for p, wt, at in self._split(col):
            roots[at] = _bisect(p, wt, col[at], t[at], power, lo[at], hi[at], self.scratch, counts)
        return roots

    def values(self, col: np.ndarray, es: np.ndarray, power: int = 1, guard: float | None = None) -> np.ndarray:
        """sum_j w_j / (p_j - E)^power of column col_i at E = es_i, one
        matrix-vector product per run of equal columns; +inf within `guard`
        of a live pole."""
        out = np.empty(es.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for p, wt, at in self._split(col):
                runs = np.flatnonzero(np.diff(col[at], prepend=-1, append=-1))
                size = self.scratch.size // p.size
                for s, e in zip(runs[:-1], runs[1:]):
                    for b in range(s, e, size):
                        i = at[b : min(b + size, e)]
                        r = np.subtract(p, es[i, None], out=self.scratch[: i.size * p.size].reshape(i.size, -1))
                        if power == 2:
                            np.multiply(r, r, out=r)
                        out[i] = np.divide(1.0, r, out=r) @ wt[col[i[0]]]
                if guard is not None:
                    out[at[dist_to_spectrum(p, es[at]) <= guard]] = np.inf
        return out


def _ball_union(columns: _Columns, level: float, window: tuple[float, float], roots: dict[str, RootCounts]):
    """The merged segments {|F_col| >= level} of every column.

    A zero of F' is skipped where `_turn_skips` bounds |F| below level / 2.
    The columns join the union in rounds of 1, 2, 4, ... columns, most level
    brackets first; a level bracket [u, v] (w = v - u) whose [u - w, v + w]
    lies inside the union of earlier rounds, with margin 2 XTOL + 4 guard,
    keeps its end outside {|F| >= level} as breakpoint instead of its root.
    That moves the column's segments only inside the union, so the union's
    endpoints are the roots every bracket would give."""
    poles, weights = columns.poles, columns.weights
    n_cols = weights.shape[1]
    lo_w, hi_w = window
    guard = RESOLVENT_GUARD
    inner = (poles > lo_w) & (poles < hi_w)
    edges = np.concatenate(([lo_w], poles[inner], [hi_w]))
    samples, gap = _gap_samples(edges[:-1], edges[1:])
    # the grid: the samples, and in between the edges no sample equals
    new = np.flatnonzero(~np.isin(edges, samples))
    at = np.searchsorted(samples, edges[new])
    grid, gap = np.insert(samples, at, edges[new]), np.insert(gap, at, -1)

    # the signs of F', F - level and F + level of every column on the grid,
    # from two matrix products per block of reciprocals, formed in place in
    # `scratch`, where it stays in cache for both; an edge has no slope
    signs = np.empty((3, grid.size, n_cols), dtype=np.int8)
    block_rows = columns.scratch.size // (2 * poles.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(0, grid.size, block_rows):
            part = slice(s, s + block_rows)
            block = grid[part]
            recip = _reciprocals(block, poles, columns.scratch[: block.size * poles.size].reshape(block.size, -1))
            values = recip @ weights
            _signs(np.square(recip, out=recip) @ weights, values, level, out=signs[:, part])
    signs[0, gap < 0] = 0

    # per column, the edges it lacks (dead poles) and the gaps it does not
    # share: those touching a dead pole, at a window end too; its own gaps
    # are the runs of those joined at dead edges
    dead = ~(np.abs(weights) > 0.0)
    ends = dead[poles == lo_w].any(axis=0), dead[poles == hi_w].any(axis=0)
    dead_edge = np.vstack((np.zeros(n_cols, dtype=bool), dead[inner], np.zeros(n_cols, dtype=bool)))
    touched = np.vstack((ends[0], dead[inner], ends[1]))
    own = touched[:-1] | touched[1:]
    own_col, first = np.nonzero((own & ~dead_edge[:-1]).T)
    last = np.nonzero((own & ~dead_edge[1:]).T)[1]
    bound = np.zeros_like(dead_edge)
    bound[first, own_col] = bound[last + 1, own_col] = True
    own_pos, own_gap = _gap_samples(edges[first], edges[last + 1])
    own_col, own_gap = own_col[own_gap], first[own_gap]

    # the patch: per column its own samples and the live edges bounding its
    # runs, each edge before the samples of the gap above it and none where a
    # sample sits; a pole belongs to the gap below it, so an edge that a
    # shared sample of the gap above equals takes that sample's slope
    edge_col, edge = np.nonzero(bound.T)
    e_signs = _signs(np.full(edge.size, np.nan), columns.values(edge_col, edges[edge]), level)
    at = np.searchsorted(grid, edges[edge], side="right") - 1
    above = (gap[at] == edge) & ~own[gap[at], edge_col]
    e_signs[0, above] = signs[0, at[above], edge_col[above]]
    key = np.concatenate((2 * own_gap + 1, 2 * edge))
    order = np.lexsort((key, np.concatenate((own_col, edge_col))))
    t_col = np.concatenate((own_col, edge_col))[order]
    t_pos = np.concatenate((own_pos, edges[edge]))[order]
    own_signs = _signs(columns.values(own_col, own_pos, 2), columns.values(own_col, own_pos), level)
    t_signs = np.concatenate((own_signs, e_signs), axis=1)[:, order]
    same = (t_col[1:] == t_col[:-1]) & (t_pos[1:] == t_pos[:-1])
    keep = (key[order] % 2 == 1) | ~(np.append(same, False) | np.insert(same, 0, False))
    t_col, t_pos, t_signs = t_col[keep], t_pos[keep], t_signs[:, keep]

    # the gap of a point among its column's live poles, distinct between columns
    cum_dead = np.vstack((np.zeros(n_cols, dtype=np.int64), np.cumsum(dead, axis=0)))

    def same_gap(col: np.ndarray, pos: np.ndarray) -> np.ndarray:
        k = np.searchsorted(poles, pos)
        g = k - cum_dead[k, col] + col * (poles.size + 1)
        return g[:-1] == g[1:]

    # zeros of F': sign changes of the slope between consecutive samples of
    # a gap, along the grid (a pair in the gap of its upper point, and in no
    # column's own gap) and along the patch
    grid_gap = np.searchsorted(poles, grid)
    pairs = (grid_gap[:-1] == grid_gap[1:])[:, None] & ~own[np.searchsorted(edges, grid[1:]) - 1]
    (rows, col), _ = _changes(signs[0], pairs)
    (seq,), _ = _changes(t_signs[0], same_gap(t_col, t_pos))
    points = np.concatenate((grid, t_pos))
    rows, col = np.concatenate((rows, grid.size + seq)), np.concatenate((col, t_col[seq]))
    skip = _turn_skips(poles, weights, points, rows, col, level, guard, columns.scratch)
    roots["turn"].skipped += int(skip.sum())
    rows, dz_col = rows[~skip], col[~skip]
    dz = columns.bisect(dz_col, 0.0, 2, points[rows], points[rows + 1], roots["turn"])
    dz_signs = _signs(np.full(dz.size, np.nan), columns.values(dz_col, dz), level)

    # level brackets: sign changes of F -+ level between consecutive points
    # of a gap, the zeros of F' among them.  A zero on the patch is inserted
    # into it; on the grid a pair holding one is split in three points.
    split = (dz != points[rows]) & (dz != points[rows + 1])
    shared = split & (rows < grid.size)
    r, c = rows[shared], dz_col[shared]
    pairs[r, c] = False
    inserted = split & ~shared
    at = rows[inserted] - grid.size + 1
    f_col = np.concatenate((np.insert(t_col, at, dz_col[inserted]), np.repeat(c, 3)))
    f_pos = np.concatenate(
        (np.insert(t_pos, at, dz[inserted]), np.stack((grid[r], dz[shared], grid[r + 1]), 1).ravel())
    )
    f_signs = np.concatenate((
        np.insert(t_signs, at, dz_signs[:, inserted], axis=1),
        np.stack((signs[:, r, c], dz_signs[:, shared], signs[:, r + 1, c]), 2).reshape(3, -1),
    ), axis=1)
    f_pairs = same_gap(f_col, f_pos)
    f_pairs[f_col.size - 3 * r.size + 2 :: 3] = False  # between two split pairs
    brackets = []
    for pos, sign, pair, col_of in ((grid, signs, pairs, None), (f_pos, f_signs, f_pairs, f_col)):
        for target, z in zip((level, -level), sign[1:]):
            (i, *in_col), below = _changes(z, pair)
            # the end outside {|F| >= level}: F < level, or F > -level
            outside = np.where(below if target > 0 else ~below, pos[i], pos[i + 1])
            brackets.append((pos[i], pos[i + 1], np.full(i.size, target), outside, in_col[0] if in_col else col_of[i]))
    lo, hi, target, outside, lcol = (np.concatenate(v) for v in zip(*brackets))

    # rounds of 1, 2, 4, ... columns, most level brackets first
    order = np.argsort(-np.bincount(lcol, minlength=n_cols), kind="stable")
    round_of = np.empty(n_cols, dtype=np.int64)
    round_of[order] = np.frexp(np.arange(1.0, n_cols + 1))[1] - 1
    margin = 2 * XTOL + 4 * guard
    union: list[tuple[float, float]] = []
    for k in range(int(round_of.max()) + 1):
        part = np.flatnonzero(round_of[lcol] == k)
        starts, ends = np.asarray(union).reshape(-1, 2).T
        skip = _level_skips((starts, ends), lo[part], hi[part], margin)
        roots["level"].skipped += int(skip.sum())
        crossings = outside[part]
        done = part[~skip]
        crossings[~skip] = columns.bisect(lcol[done], target[done], 1, lo[done], hi[done], roots["level"])
        # the round's breakpoints per column: edges, crossings and zeros of
        # F'; a piece between two is in where |F| at its midpoint reaches
        # the level or the midpoint lies within guard of a pole, and a piece
        # inside an interval of the union so far cannot change it
        batch = order[round_of[order] == k]
        e_col, e_at = np.nonzero(~dead_edge[:, batch].T)
        b_col = np.concatenate((batch[e_col], lcol[part], dz_col[round_of[dz_col] == k]))
        b_pos = np.concatenate((edges[e_at], crossings, dz[round_of[dz_col] == k]))
        keep = np.lexsort((b_pos, b_col))
        b_col, b_pos = b_col[keep], b_pos[keep]
        piece = np.flatnonzero((b_col[:-1] == b_col[1:]) & (b_pos[:-1] != b_pos[1:]))
        a, b = b_pos[piece], b_pos[piece + 1]
        i = np.searchsorted(starts, a, side="right") - 1
        piece = piece[(i < 0) | (ends[np.maximum(i, 0)] < b)] if starts.size else piece
        a, b = b_pos[piece], b_pos[piece + 1]
        inside = np.abs(columns.values(b_col[piece], 0.5 * (a + b), guard=guard)) >= level
        union = _merge(np.concatenate((np.column_stack((starts, ends)), np.column_stack((a, b))[inside])), XTOL)
    return union


def cover_from_profile(
    profile: BoundaryProfile, level: float, window: tuple[float, float]
) -> EnergyIntervalCover:
    """Union over boundary vertices of the per-column sublevel segments.

    The per-column threshold is level / prefactor since F carries the scale
    factor in front of the Green entries.  Gaps between poles narrower than
    4 XTOL are not sampled, and segments closer than XTOL are merged.
    """
    if level <= 0:
        raise ContractViolation("cover level must be positive")
    poles, weights = cluster_sums(profile.eigenvalues, profile.coefficients)
    live = np.abs(weights) > 0.0
    # poles dead in every column and columns without a live pole take no part
    poles, weights = poles[live.any(axis=1)], weights[live.any(axis=1)][:, live.any(axis=0)]
    roots = {"turn": RootCounts(), "level": RootCounts()}
    union = _ball_union(_Columns(poles, weights), level / profile.prefactor, window, roots) if weights.size else []
    return EnergyIntervalCover(intervals=tuple(union), roots=roots)


# ---------------------------------------------------------------------------
# Sup-min functional over two balls


SUPMIN_GRID_POINTS = 2001
SUPMIN_REFINE_POINTS = 65


class SupMinResult(NamedTuple):
    sup_value: float
    argmax_energy: float
    exceeded: bool
    n_evaluations: int
    cover_x: EnergyIntervalCover
    cover_y: EnergyIntervalCover


def _overlaps(xs, ys) -> list[tuple[float, float]]:
    """The intersections (max(ax, ay), min(bx, by)) of every overlapping or
    touching pair of intervals from two sorted, disjoint lists, in the order
    of the double loop over xs then ys: the ys meeting [ax, bx] are those
    from the first ending at or after ax to the last starting at or before
    bx."""
    x, y = (np.asarray(v, dtype=np.float64).reshape(-1, 2) for v in (xs, ys))
    first = np.searchsorted(y[:, 1], x[:, 0])
    count = np.maximum(np.searchsorted(y[:, 0], x[:, 1], side="right") - first, 0)
    i = np.repeat(np.arange(len(x)), count)
    j = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    (ax, bx), (ay, by) = x[i].T, y[j].T
    # Python's max and min: the first argument on a tie, so signed zeros too
    return list(zip(np.where(ay > ax, ay, ax).tolist(), np.where(by < bx, by, bx).tolist()))


def sup_min_functional(
    spec_x: SpectralData,
    spec_y: SpectralData,
    cert: GrowthCertificate,
    level: float,
    window: tuple[float, float],
) -> SupMinResult:
    """sup over E of min(F_x(E), F_y(E)) of the balls of two spectra, with
    cover-driven refinement.

    The min can only reach `level` where both covers overlap, so the base grid
    of SUPMIN_GRID_POINTS is refined by SUPMIN_REFINE_POINTS inside each
    intersection of the two covers.  Guarded energies evaluate to +inf (they
    lie inside the covers by construction).
    """
    prof_x = boundary_profile(spec_x, cert)
    prof_y = boundary_profile(spec_y, cert)
    cov_x = cover_from_profile(prof_x, level, window)
    cov_y = cover_from_profile(prof_y, level, window)

    points = [np.linspace(window[0], window[1], SUPMIN_GRID_POINTS)]
    points += [np.linspace(lo, hi, SUPMIN_REFINE_POINTS) for lo, hi in _overlaps(cov_x.intervals, cov_y.intervals)]
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


class ScaleRow(NamedTuple):
    k: int
    radius: int
    p: McEstimate | None
    q: McEstimate | None
    s: McEstimate | None
    target: float
    skipped: bool = False


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
    worst = int(hit_matrix.sum(axis=0).max())
    if n_energies <= 1:
        return McEstimate.from_counts(worst, trials, seed)
    # widen: Wilson at level alpha / n_energies
    return McEstimate.from_counts(worst, trials, seed, float(normal_quantile(1 - 0.025 / n_energies)))


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
) -> list[ScaleRow]:
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
    rows: list[ScaleRow] = []
    for k, radius in enumerate(schedule.levels):
        ball = MultiBall(graph, center, radius)
        if ball.size() > VOLUME_BUDGET:
            rows.append(
                ScaleRow(k=k, radius=radius, p=None, q=None, s=None,
                         target=mass.singularity_target(n, radius), skipped=True)
            )
            continue
        sub_radius = schedule.levels[k - 1] if k >= 1 else None
        sub_centers: list[Config] = []
        if k >= 1 and n >= 2 and radius - sub_radius >= 0:
            # each sub-ball lies inside the ball, so it fits the budget too
            sub_centers = [
                v
                for v in MultiBall(graph, center, radius - sub_radius).members()
                if weakly_interactive(MultiBall(graph, v, sub_radius))
            ]

        def one(trial_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            sample = sample_potential(dist, graph, trial_seed)
            spectra = BallSpectra(operators, sample, g)
            # an undetermined NS flag counts as singular
            res, ns, _, _, _ = classify(ball, energies, params, mass, spectra, cert)
            wi_sing = np.zeros(len(energies), dtype=bool)
            for v in sub_centers:
                wi_sing |= ~classify(MultiBall(graph, v, sub_radius), energies, params, mass, spectra, cert)[1]
                if wi_sing.all():
                    break
            return res, ~ns, wi_sing

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
    return rows


def recursion_bound(
    p_k: float,
    s_next: float,
    q_next: float,
    params: ParameterSet,
    cert: GrowthCertificate,
    n: int,
    radius_next: int,
) -> float:
    """rhs = C^(KN) L^(KNd) p_k^(K+1) / 2 + s_next + q_next / 4.

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
    return first + s_next + 0.25 * q_next


# ---------------------------------------------------------------------------
# EFC decay experiment


def _fit_mass(distances: np.ndarray, mean_efc: np.ndarray, kappa: float) -> float:
    xs = distances.astype(np.float64) ** kappa
    ys = -np.log(np.maximum(mean_efc, 1e-300))
    return float(np.polyfit(xs, ys, 1)[0])


def efc_decay_experiment(
    ball: MultiBall,
    pairs: list[tuple[Config, Config]],
    dist: PotentialDistribution,
    operators: BallOperators,
    g_values,
    kappa: float,
    seeds: int,
    seed: int,
    n_batches: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean EFC per pair over the spectra of one ball and the decay-mass fit
    -log(mean EFC) ~ M * rho_S**kappa.

    Pairs at rho_S = 0 are excluded from the fit.  The confidence interval on
    M comes from refitting on disjoint seed batches (t interval).  Returns the
    pair distances rho_S, and per coupling in g_values the mean EFC of each
    pair, the mass, its interval (low, high) and the mass of each batch.
    """
    if seeds < n_batches:
        n_batches = max(1, seeds)
    # the operator is enumerated, and the ball checked against the dense
    # budget, before any pair and before the trials share it
    operators.operator(ball)
    graph = ball.graph
    distances = np.asarray([rho_s(graph, x, y) for x, y in pairs], dtype=np.int64)
    keep = distances > 0
    if keep.sum() < 2:
        raise ContractViolation("need at least two pairs at distinct positive rho_S")

    batch_edges = np.linspace(0, seeds, n_batches + 1).astype(int)
    means, masses, cis, batches = [], [], [], []
    for g in g_values:
        def one(trial_seed: int) -> np.ndarray:
            spec = BallSpectra(operators, sample_potential(dist, graph, trial_seed), g).spectrum(ball)
            return np.asarray([efc(spec, x, y) for x, y in pairs])

        values = np.stack(run_trials(one, seeds, seed))  # (seeds, pairs)
        mean_efc = values.mean(axis=0)
        batch_fits = np.asarray([
            _fit_mass(distances[keep], values[b0:b1].mean(axis=0)[keep], kappa)
            for b0, b1 in zip(batch_edges[:-1], batch_edges[1:])
        ])
        if batch_fits.size >= 2:
            crit = t_quantile(0.975, batch_fits.size - 1)
            half = crit * batch_fits.std(ddof=1) / math.sqrt(batch_fits.size)
            cis.append((batch_fits.mean() - half, batch_fits.mean() + half))
        else:
            cis.append((math.nan, math.nan))
        means.append(mean_efc)
        masses.append(_fit_mass(distances[keep], mean_efc[keep], kappa))
        batches.append(batch_fits)
    return distances, np.stack(means), np.asarray(masses), np.asarray(cis), np.stack(batches)
