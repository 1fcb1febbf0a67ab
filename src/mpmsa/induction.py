"""Scale-induction experiments and the fixed-to-variable-energy bridge.

Covers of the energy sublevel sets {E : F_u(E) >= a} use the rational
structure of the Green function: the column of an inner-boundary vertex z is
sum_j w_j(z) / (p_j - E), with poles p_j at the eigenvalue clusters and a
derivative with finitely many zeros between consecutive poles.  The cover is
the union over columns of their segments {|column| >= a / prefactor}.

One sample grid serves a ball: the gap samples between consecutive poles and
the edges, with the values and slopes of every column there as two matrix
products per block of reciprocals 1/(p_j - E).  Every sum runs over all
poles of the ball: a dead pole of a column (weight exactly 0) adds an exact
zero and is no pole of it.  Every column samples the grid alone: at a row
on one of its dead poles it takes its finite value and slope, and its gaps
run across its dead poles, so a pair of consecutive rows counts for it
where every pole between them is dead in it.  On a bench ball about 40 of
48 columns have every pole live, and single columns have 1-20 dead poles,
on a grid of about 9,400 rows.  The sign-change brackets of the derivative
zeros ("turn") and of the level crossings ("level") are found for all
columns at once along the grid.

Only roots that can bound the union are bisected: a turn bracket on which a
bound keeps |F| below half the level is skipped.  The level brackets whose
outside end no column reaches the level at, on the grid, can end the union;
they are bisected first (the envelope round), and the pieces they prove
start the union.  Every other level bracket that lies well inside the union
so far is skipped (`_ball_union` says how, and why the union stays the
same).  The rest are bisected in batches across all columns, each bracket
as a row-wise product with numpy's pairwise sum (no BLAS sum), so a root's
bits depend on its own bracket alone; a bracket stops at float convergence
or after 80 steps.
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
    _difference_factors,
    _differences,
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


def _bisect_batch(p, wt, col, t, power, lo, hi, scratch, counts) -> np.ndarray:
    k, n = lo.size, p.size
    recip = scratch[: k * n].reshape(k, n)
    c = scratch[k * n : 2 * k * n].reshape(k, n)
    np.take(wt, col, axis=0, out=c, mode="clip")
    # p_j - E as the rank-2 product [1, E] . [p_j, -1], formed in place: the
    # bits of the subtraction (see _difference_factors)
    ones, poles = _difference_factors(lo, p)

    def negative(es: np.ndarray, t: np.ndarray) -> np.ndarray:
        r = recip[: es.size]
        ones[: es.size, 1] = es
        np.matmul(ones[: es.size], poles, out=r)
        if power == 2:
            np.multiply(r, r, out=r)
        np.divide(1.0, r, out=r)
        return _row_sums(np.multiply(r, c[: es.size], out=r)) <= t

    roots = np.empty(k)
    live = np.arange(k)  # the bracket of each row still bisected
    lo, hi, mid = lo.copy(), hi.copy(), np.empty(k)
    counts.brackets += k
    counts.rows += k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the sign at lo never changes: lo moves only to midpoints of its sign
        neg_lo = negative(lo, t)
        for step in range(_MAX_STEPS + 1):
            np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
            inner = (lo < mid) & (mid < hi) if step < _MAX_STEPS else np.zeros(mid.size, dtype=bool)
            if not inner.all():
                roots[live[~inner]] = mid[~inner]
                keep = np.flatnonzero(inner)
                if not keep.size:
                    break
                live, lo, hi, mid, neg_lo, t = (a[keep] for a in (live, lo, hi, mid, neg_lo, t))
                np.take(wt, col[live], axis=0, out=c[: live.size], mode="clip")
            counts.rows += live.size
            moved = neg_lo != negative(mid, t)
            np.copyto(hi, mid, where=moved)
            np.copyto(lo, mid, where=np.logical_not(moved, out=moved))
    return roots


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of each row of terms w_j / (p_j - E)^power.  A
    dead pole (w_j = 0) at E, or with an overflowing reciprocal, gives
    0 * inf = NaN, summed as the exact zero it stands for in the rare rows
    where it appears (poles lie more than DEGENERACY_GAP apart, so no other
    term of such a row is infinite)."""
    sums = terms.sum(axis=1)
    bad = np.flatnonzero(np.isnan(sums))
    if bad.size:
        rows = terms[bad]
        rows[np.isnan(rows)] = 0.0
        sums[bad] = rows.sum(axis=1)
    return sums


_INTERIOR_FRACTIONS = np.linspace(0.0, 1.0, 35)[1:-1]
_EDGE_FRACTIONS = np.asarray([10.0**-j for j in range(1, 13)])
# rows of a block of reciprocals in the scratch buffer (at all poles): a
# block of samples, or a bisection batch next to its weight rows
_BLOCK_ROWS = 512


def _gap_samples(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sample points of every gap [lo_i, hi_i] wider than 4 XTOL, ascending:
    33 interior points and 12 on each side approaching the edge
    geometrically, all parameterized by the gap (covariant)."""
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
            np.abs(_differences(samples[r], poles, near), out=near)
            np.abs(_differences(samples[r + 1], poles, other), out=other)
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
    live in some column and the (poles x columns) weights.  Every sum below
    runs over all these poles; a dead pole of a column (weight exactly 0)
    adds an exact zero, so it is no pole of its column (see _row_sums)."""

    def __init__(self, poles: np.ndarray, weights: np.ndarray):
        self.poles, self.weights = poles, weights
        self.wt = np.ascontiguousarray(weights.T)  # a row of weights per column
        # one buffer for every block of reciprocals and bisection batch,
        # reused in turn: about 1.4 MB at 169 poles, so a block stays in cache
        self.scratch = np.empty(2 * _BLOCK_ROWS * poles.size)

    def bisect(self, col, t, power: int, lo, hi, counts: RootCounts) -> np.ndarray:
        """Bisection of G_i(E) = sum_j w_j(col_i) / (p_j - E)^power - t_i,
        power 1 or 2, on brackets [lo_i, hi_i] with a sign change; returns
        the final midpoints 0.5 (lo_i + hi_i).

        G_i is evaluated row by row over every pole, as
        np.multiply(recip_i, w_i).sum() (numpy's pairwise sum over the row,
        see _row_sums), so a root's bits depend on its own bracket alone:
        brackets of any columns share a batch, and dropping or regrouping
        some moves no other root.  A bracket stops when its midpoint no
        longer lies strictly inside it (float convergence) or after 80
        steps.  A batch keeps its reciprocals and weight rows in `scratch`,
        so it holds at most scratch.size / (2 len(poles)) brackets; `counts`
        gains the brackets and rows."""
        t = np.broadcast_to(t, lo.shape)
        roots = np.empty(lo.size)
        size = self.scratch.size // (2 * self.poles.size)
        for s in range(0, lo.size, size):
            part = slice(s, s + size)
            roots[part] = _bisect_batch(
                self.poles, self.wt, col[part], t[part], power, lo[part], hi[part], self.scratch, counts
            )
        return roots

    def values(self, col: np.ndarray, es: np.ndarray, power: int = 1, guard: float | None = None) -> np.ndarray:
        """sum_j w_j / (p_j - E)^power of column col_i at E = es_i, one
        matrix-vector product per run of equal columns (a row made NaN by a
        dead pole is summed by _row_sums); +inf within `guard` of a live
        pole of the column.  The differences p_j - E are one rank-2 product
        in `scratch`, its factors formed once (see _difference_factors)."""
        p = self.poles
        out = np.empty(es.size)
        at = np.argsort(col, kind="stable")
        runs = np.flatnonzero(np.diff(col[at], prepend=-1, append=-1))
        size = self.scratch.size // p.size
        ones, poles = _difference_factors(es[at], p)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s, e in zip(runs[:-1], runs[1:]):
                w = self.wt[col[at[s]]]
                for b in range(s, e, size):
                    part = slice(b, min(b + size, e))
                    r = np.matmul(ones[part], poles, out=self.scratch[: p.size * (part.stop - b)].reshape(-1, p.size))
                    if power == 2:
                        np.multiply(r, r, out=r)
                    out[at[part]] = np.divide(1.0, r, out=r) @ w
            bad = np.flatnonzero(np.isnan(out))  # a dead pole at E, see _row_sums
            if bad.size:
                out[bad] = _row_sums(1.0 / _differences(es[bad], p) ** power * self.wt[col[bad]])
        if guard is not None:  # at most one pole, a neighbour of E, lies within guard
            i = np.searchsorted(p, es)
            for j in (np.maximum(i - 1, 0), np.minimum(i, p.size - 1)):
                out[(np.abs(p[j] - es) <= guard) & (self.wt[col, j] != 0.0)] = np.inf
        return out


def _ball_union(columns: _Columns, level: float, window: tuple[float, float], roots: dict[str, RootCounts]):
    """The merged segments {|F_col| >= level} of every column.

    Every column samples the one grid of the ball; its brackets lie between
    consecutive rows with none of its live poles in between, and a zero of
    F' splits its level bracket in two.  A zero of F' is skipped where
    `_turn_skips` bounds |F| below level / 2.  The envelope round bisects
    the level brackets whose end outside {|F| >= level} is a grid row where
    no column reaches the level; on the bench balls none of them lies well
    inside the final union.  The union starts from the pieces between a
    column's edges, zeros of F' and those roots that no other level bracket
    of the column overlaps.  Such a piece is a piece of the column with
    every bracket bisected, so the starting union lies inside the final one.
    The other level brackets follow in rounds of 1, 2, 4, ... columns, most
    brackets first; a bracket [u, v] (w = v - u) whose [u - w, v + w] lies
    inside the union so far, with margin 2 XTOL + 4 guard, keeps its end
    outside {|F| >= level} as breakpoint instead of its root.  That moves
    the column's segments only inside the union, so the union's endpoints
    are the roots every bracket would give; and a root's bits depend on its
    own bracket alone, so the order of the work changes none."""
    poles, weights = columns.poles, columns.weights
    n_cols = weights.shape[1]
    lo_w, hi_w = window
    guard = RESOLVENT_GUARD
    inner = (poles > lo_w) & (poles < hi_w)
    edges = np.concatenate(([lo_w], poles[inner], [hi_w]))
    samples = _gap_samples(edges[:-1], edges[1:])
    # the grid: the samples, and in between the edges no sample equals
    at = np.searchsorted(samples, edges)
    new = np.flatnonzero(np.append(samples, np.nan)[at] != edges)
    grid = np.insert(samples, at[new], edges[new])

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
    signs[0, at[new] + np.arange(new.size)] = 0

    # a row on a dead pole of a column is a point of its gap: the column's
    # finite value and slope there (the products above give 0 * inf = NaN)
    live = np.abs(weights) > 0.0
    gap_of = np.searchsorted(poles, grid)  # a row on a pole lies in the gap below it
    next_pole = np.minimum(gap_of, poles.size - 1)
    on = np.flatnonzero(poles[next_pole] == grid)
    row, col = np.nonzero(~live[next_pole[on]])
    row = on[row]
    signs[:, row, col] = _signs(columns.values(col, grid[row], 2), columns.values(col, grid[row]), level)
    # consecutive rows in a gap of a column: every pole of the window is a
    # row, so at most one lies in [row i, row i + 1), on row i, and the pair
    # runs across it where it is dead in the column
    pairs = (gap_of[1:] == gap_of[:-1])[:, None] | ~live[next_pole[:-1]]

    # zeros of F': sign changes of the slope between the rows of a pair
    (rows, col), _ = _changes(signs[0], pairs)
    skip = _turn_skips(poles, weights, grid, rows, col, level, guard, columns.scratch)
    roots["turn"].skipped += int(skip.sum())
    rows, dz_col = rows[~skip], col[~skip]
    dz = columns.bisect(dz_col, 0.0, 2, grid[rows], grid[rows + 1], roots["turn"])
    dz_signs = _signs(np.full(dz.size, np.nan), columns.values(dz_col, dz), level)

    # level brackets: sign changes of F -+ level between the rows of a pair;
    # a pair holding a zero of F' is split in three points
    split = (dz != grid[rows]) & (dz != grid[rows + 1])
    r, c = rows[split], dz_col[split]
    pairs[r, c] = False
    trio = np.stack((grid[r], dz[split], grid[r + 1]))
    trio_signs = np.stack((signs[:, r, c], dz_signs[:, split], signs[:, r + 1, c]), axis=1)
    # the grid rows where some column has |F| > level
    above = (signs[1] > 0).any(axis=1) | (signs[2] < 0).any(axis=1)
    brackets = []
    for pos, sign, pair, col_of, envelope in (
        (np.broadcast_to(grid[:, None], (grid.size, n_cols)), signs, pairs, np.arange(n_cols), ~above),
        (trio, trio_signs, True, c, np.zeros(3, dtype=bool)),
    ):
        for target, z in zip((level, -level), sign[1:]):
            (i, j), below = _changes(z, pair)
            # the end outside {|F| >= level}: F < level, or F > -level
            out = np.where(below if target > 0 else ~below, i, i + 1)
            brackets.append((col_of[j], pos[i, j], pos[i + 1, j], np.full(i.size, target), pos[out, j], envelope[out]))
    # ordered by column, so that the searches below run along the keys
    by_col = np.argsort(np.concatenate([b[0] for b in brackets]), kind="stable")
    lcol, lo, hi, target, crossings, envelope = (np.concatenate(v)[by_col] for v in zip(*brackets))
    del signs, pairs, brackets  # the sign planes are done with: a lower peak in the rounds

    # the envelope round: a root can end the union only where no column
    # reaches the level at its bracket's outside end.  The grid brackets
    # whose outside row shows none are bisected first.  A zero of F' has no
    # signs of the other columns; on the bench balls 51 of the 54 brackets
    # per ball with a zero of F' for an end lie well inside the union.  The
    # union starts from the pieces between the known breakpoints (edges,
    # zeros of F' and those roots) that no other bracket of their column
    # overlaps: pieces of the final cover.
    first, rest = np.flatnonzero(envelope), np.flatnonzero(~envelope)
    crossings[first] = columns.bisect(lcol[first], target[first], 1, lo[first], hi[first], roots["level"])
    # the edges of a column: the window ends and its live poles
    e_col, e_at = np.nonzero(np.pad(live[inner], ((1, 1), (0, 0)), constant_values=True).T)
    k_key = np.sort(_keys(np.concatenate((e_col, dz_col, lcol[first])),
                          np.concatenate((edges[e_at], dz, crossings[first]))))
    # the pieces (k_i, k_i+1) that a bracket [lo, hi] overlaps: k_i < hi and k_i+1 > lo
    a = np.searchsorted(k_key, _keys(lcol[rest], lo[rest]), side="right") - 1
    b = np.maximum(np.searchsorted(k_key, _keys(lcol[rest], hi[rest])) - 1, a)
    blocked = np.cumsum(np.bincount(a, minlength=k_key.size) - np.bincount(b + 1, minlength=k_key.size + 1)[:-1]) > 0
    union = _union_of_pieces(columns, k_key, ~blocked[:-1], level, guard, [])

    # the rest in rounds of 1, 2, 4, ... columns, most brackets first; a
    # bracket [u, v] (w = v - u) whose [u - w, v + w] lies inside the union
    # so far, with margin 2 XTOL + 4 guard, keeps its outside end as
    # breakpoint.  Then the round's pieces the envelope round left out, those
    # between its crossings and the known breakpoints, join the union.
    margin = 2 * XTOL + 4 * guard
    order = np.argsort(-np.bincount(lcol[rest], minlength=n_cols), kind="stable")
    round_of = np.empty(n_cols, dtype=np.int64)
    round_of[order] = np.frexp(np.arange(1.0, n_cols + 1))[1] - 1
    k_round = round_of[k_key.real.astype(np.int64)]
    for k in range(int(round_of.max()) + 1):
        part = rest[round_of[lcol[rest]] == k]
        skip = _level_skips(np.asarray(union).reshape(-1, 2).T, lo[part], hi[part], margin)
        roots["level"].skipped += int(skip.sum())
        done = part[~skip]
        crossings[done] = columns.bisect(lcol[done], target[done], 1, lo[done], hi[done], roots["level"])
        mine = np.flatnonzero(k_round == k)
        # stable: a known breakpoint comes first on a tie; a piece between
        # two known ones was judged if no bracket blocked it
        key = np.concatenate((k_key[mine], _keys(lcol[part], crossings[part])))
        order = np.argsort(key, kind="stable")
        known = order < mine.size
        judged = known[:-1] & known[1:] & ~blocked[mine][np.where(known, order, 0)[:-1]]
        union = _union_of_pieces(columns, key[order], ~judged, level, guard, union)
    return union


def _keys(col: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(column, position) pairs as complex numbers, which numpy sorts and
    searches lexicographically: by column, then by position."""
    key = np.empty(col.size, dtype=np.complex128)
    key.real, key.imag = col, pos
    return key


def _union_of_pieces(columns: _Columns, key: np.ndarray, todo: np.ndarray, level: float, guard: float, union):
    """`union` merged with the pieces between consecutive breakpoints of a
    column, `key` (see _keys) in order, that `todo` marks (one flag per
    breakpoint but the last).  A piece is in where |F| at its midpoint
    reaches the level or the midpoint lies within guard of a pole; a piece
    inside an interval of `union` cannot change it."""
    col, pos = key.real.astype(np.int64), key.imag
    piece = np.flatnonzero(todo & (col[:-1] == col[1:]) & (pos[:-1] != pos[1:]))
    a, b = pos[piece], pos[piece + 1]
    starts, ends = np.asarray(union).reshape(-1, 2).T
    if starts.size:
        i = np.searchsorted(starts, a, side="right") - 1
        new = (i < 0) | (ends[np.maximum(i, 0)] < b)
        piece, a, b = piece[new], a[new], b[new]
    inside = np.abs(columns.values(col[piece], 0.5 * (a + b), guard=guard)) >= level
    return _merge(np.concatenate((np.column_stack((starts, ends)), np.column_stack((a, b))[inside])), XTOL)


def cover_from_profile(
    profile: BoundaryProfile, level: float, window: tuple[float, float]
) -> EnergyIntervalCover:
    """Union over boundary vertices of the per-column sublevel segments.

    The per-column threshold is level / prefactor since F carries the scale
    factor in front of the Green entries.  Gaps between poles narrower than
    4 XTOL are not sampled, and segments closer than XTOL are merged.
    """
    if not level > 0:  # NaN too
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
    energies = np.sort(np.concatenate(points))
    energies = energies[np.insert(energies[1:] != energies[:-1], 0, True)]
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
