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
brackets, the bisections for the derivative zeros and the level crossings, and
the segments they bound, so each column's result is what a column-at-a-time
construction gives.  All sampling offsets are anchored to the poles and the
window, so the construction is translation-covariant under H -> H + tI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

from .configspace import Config, MultiBall, rho_s
from .disorder import InteractionPotential, PotentialDistribution, sample_potential
from .errors import ContractViolation
from .graphs import Graph, GrowthCertificate
from .hamiltonian import VOLUME_BUDGET, VolumeIndex, assemble
from .msa import (
    MassSchedule,
    ParameterSet,
    ScaleSchedule,
    classify_interactivity,
    ns_threshold,
    resonance_threshold,
)
from .evc import McEstimate, wilson_interval
from .parallel import run_trials
from .spectral import (
    RESOLVENT_GUARD,
    BallSpectra,
    BoundaryProfile,
    SpectralData,
    boundary_profile,
    cluster_sums,
    efc,
    eigendecompose,
    ns_flags,
)


# ---------------------------------------------------------------------------
# Energy interval covers


@dataclass(frozen=True)
class EnergyIntervalCover:
    """Closed intervals covering {E in window : F_u(E) >= level}."""

    intervals: tuple[tuple[float, float], ...]
    level: float
    window: tuple[float, float]
    ball_size: int

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def covered(self, energies: np.ndarray, slack: float = 0.0) -> np.ndarray:
        energies = np.asarray(energies, dtype=np.float64)
        mask = np.zeros(energies.shape, dtype=bool)
        for a, b in self.intervals:
            mask |= (energies >= a - slack) & (energies <= b + slack)
        return mask


def _rational(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (1.0 / (poles[None, :] - es[:, None])) @ w


def _rational_deriv(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (1.0 / (poles[None, :] - es[:, None]) ** 2) @ w


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


_INTERIOR_FRACTIONS = np.linspace(0.0, 1.0, 35)[1:-1]
_EDGE_FRACTIONS = np.asarray([10.0**-j for j in range(1, 13)])


def _gap_samples(edges: np.ndarray, xtol: float) -> np.ndarray:
    """Ascending sample points of every gap between consecutive edges wider
    than 4 xtol: 33 interior points and 12 on each side approaching the edge
    geometrically, all parameterized by the gap (covariant)."""
    lo, hi = edges[:-1], edges[1:]
    wide = hi - lo > 4 * xtol
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


def _group_segments(
    poles: np.ndarray, weights: np.ndarray, level: float, window: tuple[float, float], xtol: float
) -> list[tuple[float, float]]:
    """Sublevel segments {|F_col| >= level} of every column of `weights`; all
    columns share the live poles, hence the samples and the reciprocals."""
    lo_w, hi_w = window
    edges = np.concatenate(([lo_w], poles[(poles > lo_w) & (poles < hi_w)], [hi_w]))
    samples = _gap_samples(edges, xtol)
    if samples.size == 0:
        return []
    # one (samples x poles) array, overwritten in place to bound the memory
    recip = poles[None, :] - samples[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(1.0, recip, out=recip)
        values = recip @ weights
        slopes = np.square(recip, out=recip) @ weights
    del recip
    gap_index = np.searchsorted(poles, samples)
    same_gap = gap_index[:-1] == gap_index[1:]
    # derivative sign changes within each gap give the monotone breakpoints
    turns = (np.sign(slopes[:-1]) * np.sign(slopes[1:]) < 0) & same_gap[:, None]
    segments: list[tuple[float, float]] = []
    for col in range(weights.shape[1]):
        segments.extend(
            _column_segments(poles, weights[:, col], samples, values[:, col], turns[:, col],
                             edges, level, window, xtol)
        )
    return segments


def _column_segments(
    p: np.ndarray,
    c: np.ndarray,
    samples: np.ndarray,
    sample_values: np.ndarray,
    turns: np.ndarray,
    edges: np.ndarray,
    level: float,
    window: tuple[float, float],
    xtol: float,
) -> list[tuple[float, float]]:
    """Sublevel segments {|F| >= level} of one rational column on the window,
    given F at the shared samples and the samples after which F' changes sign."""
    lo_w, hi_w = window
    idx = np.nonzero(turns)[0]
    dzeros = _bisect_many(lambda e: _rational_deriv(e, p, c), samples[idx], samples[idx + 1], xtol)

    # |F| = level crossings bracketed on the refined point set
    extra = np.concatenate([dzeros, edges])
    pts, first = np.unique(np.concatenate([samples, extra]), return_index=True)
    vals = np.concatenate([sample_values, _rational(extra, p, c)])[first]
    same_gap = np.searchsorted(p, pts[:-1]) == np.searchsorted(p, pts[1:])
    crossings = [edges]
    for target in (level, -level):
        resid = vals - target
        flip = (np.sign(resid[:-1]) * np.sign(resid[1:]) < 0) & same_gap
        idx = np.nonzero(flip)[0]
        roots = _bisect_many(
            lambda e, t=target: _rational(e, p, c) - t, pts[idx], pts[idx + 1], xtol
        )
        crossings.append(roots)
    breakpoints = np.clip(np.concatenate(crossings + [dzeros]), lo_w, hi_w)
    breakpoints = np.unique(breakpoints)

    segments: list[tuple[float, float]] = []
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
    profile: BoundaryProfile,
    level: float,
    window: tuple[float, float],
    ball_size: int,
    xtol: float = 1e-12,
) -> EnergyIntervalCover:
    """Union over boundary vertices of the per-column sublevel segments.

    The per-column threshold is level / prefactor since F carries the scale
    factor in front of the Green entries.
    """
    if level <= 0:
        raise ContractViolation("cover level must be positive")
    entry_level = level / profile.prefactor
    poles, weights = cluster_sums(profile.eigenvalues, profile.coefficients)
    live = np.abs(weights) > 0.0
    groups: dict[bytes, list[int]] = {}
    for col in range(weights.shape[1]):
        groups.setdefault(live[:, col].tobytes(), []).append(col)
    segments: list[tuple[float, float]] = []
    for cols in groups.values():
        mask = live[:, cols[0]]
        if mask.any():
            segments.extend(
                _group_segments(poles[mask], weights[mask][:, cols], entry_level, window, xtol)
            )
    return EnergyIntervalCover(
        intervals=tuple(_merge(segments, eps=xtol)),
        level=level,
        window=window,
        ball_size=ball_size,
    )


def sublevel_cover(
    spec: SpectralData,
    ball: MultiBall,
    cert: GrowthCertificate,
    level: float,
    window: tuple[float, float],
    xtol: float = 1e-12,
) -> EnergyIntervalCover:
    """Interval cover of {E in window : F_u(E) >= level} for a ball's Green data."""
    prof = boundary_profile(spec, ball, cert)
    return cover_from_profile(prof, level, window, len(spec.volume), xtol=xtol)


# ---------------------------------------------------------------------------
# Sup-min functional over two balls


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
    grid_points: int = 2001,
    refine_points: int = 65,
) -> SupMinResult:
    """sup over E of min(F_x(E), F_y(E)) with cover-driven refinement.

    The min can only reach `level` where both covers overlap, so the base grid
    is refined inside intersections of the two covers.  Guarded energies
    evaluate to +inf (they lie inside the covers by construction).
    """
    prof_x = boundary_profile(spec_x, ball_x, cert)
    prof_y = boundary_profile(spec_y, ball_y, cert)
    cov_x = cover_from_profile(prof_x, level, window, len(spec_x.volume))
    cov_y = cover_from_profile(prof_y, level, window, len(spec_y.volume))

    points = [np.linspace(window[0], window[1], grid_points)]
    for ax, bx in cov_x.intervals:
        for ay, by in cov_y.intervals:
            lo, hi = max(ax, ay), min(bx, by)
            if lo <= hi:
                points.append(np.linspace(lo, hi, refine_points))
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
    kind, _, rest = policy.partition(":")
    if kind == "fixed":
        return np.asarray([float(rest)])
    if kind == "grid":
        count = int(rest) if rest else 41
        return np.linspace(window[0], window[1], count)
    raise ContractViolation(f"unknown energy policy '{policy}'")


def _worst_estimate(hit_matrix: np.ndarray, trials: int, seed: int, n_energies: int) -> McEstimate:
    """Max estimate over the energy grid with Bonferroni-widened Wilson CI."""
    hits = hit_matrix.sum(axis=0)
    worst = int(np.argmax(hits))
    base = McEstimate.from_counts(int(hits[worst]), trials, seed)
    if n_energies <= 1:
        return base
    # widen: Wilson at level alpha / n_energies
    lo, hi = wilson_interval(base.estimate, trials, float(ndtri(1 - 0.025 / n_energies)))
    return McEstimate(
        trials=trials, successes=base.successes, estimate=base.estimate, ci_low=lo, ci_high=hi, seed=seed
    )


def scale_probabilities(
    graph: Graph,
    center: Config,
    dist: PotentialDistribution,
    interaction: InteractionPotential,
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
        thr_res = resonance_threshold(radius, params.beta)
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
            spectra = BallSpectra(graph, sample, g, interaction)
            spec = spectra.spectrum(ball)
            dmin = np.abs(spec.eigenvalues[None, :] - energies[:, None]).min(axis=1)
            resonant = dmin < thr_res
            # an undetermined NS flag counts as singular
            singular = ~ns_flags(spec, ball, cert, energies, thr_ns)[0]
            wi_sing = np.zeros(len(energies), dtype=bool)
            for v in sub_centers:
                sub = MultiBall(graph, v, sub_radius)
                thr_sub = ns_threshold(params, m_n, sub_radius)
                wi_sing |= ~ns_flags(spectra.spectrum(sub), sub, cert, energies, thr_sub)[0]
                if wi_sing.all():
                    break
            return resonant, singular, wi_sing

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

    fits: list[DecayFit] = []
    for g in g_values:
        def one(trial_seed: int, _idx: int) -> np.ndarray:
            sample = sample_potential(dist, graph, trial_seed)
            spec = eigendecompose(assemble(volume, g, sample, interaction))
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
            crit = float(stdtrit(arr.size - 1, 0.975))
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
