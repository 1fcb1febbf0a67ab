"""Monte Carlo eigenvalue-concentration estimators.

One-volume resonance (Wegner-type) frequencies, the two-volume spectral
distance law with its small-s power fit, the exact spectral-shift consequence
of weak separation, and the conditional-modulus table for the sample mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configspace import MultiBall, SeparationCertificate, rho_s
from .disorder import DisorderSample, InteractionPotential, PotentialDistribution, sample_potential
from .errors import ContractViolation
from .hamiltonian import PreparedVolume
from .msa import resonance_threshold
from .parallel import run_trials
from .rng import substream
from .spectral import BallSpectra

_Z95 = 1.959963984540054


def wilson_interval(p: float, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval at critical value z for a binomial proportion p
    observed over `trials`, clipped to [0, 1]."""
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class McEstimate:
    """Binomial point estimate with a Wilson 95% interval."""

    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "McEstimate":
        if trials < 1:
            raise ContractViolation("trials must be >= 1")
        p = successes / trials
        lo, hi = wilson_interval(p, trials)
        lo = 0.0 if successes == 0 else lo
        hi = 1.0 if successes == trials else hi
        return cls(
            trials=trials, successes=successes, estimate=p, ci_low=lo, ci_high=hi, seed=seed
        )

    def scaled(self, factor: float) -> "McEstimate":
        """Estimate of factor * p (used by the factor-4 resonance convention)."""
        return McEstimate(
            trials=self.trials,
            successes=self.successes,
            estimate=factor * self.estimate,
            ci_low=factor * self.ci_low,
            ci_high=factor * self.ci_high,
            seed=self.seed,
        )


def wegner_estimate(
    ball: MultiBall,
    dist: PotentialDistribution,
    interaction: InteractionPotential,
    g: float,
    energy: float,
    beta: float,
    trials: int,
    seed: int,
) -> McEstimate:
    """Fraction of disorder samples for which the ball is (E, beta)-resonant."""
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    threshold = resonance_threshold(ball.radius, beta)
    prepared = PreparedVolume.from_ball(ball, interaction)

    def one(trial_seed: int, _idx: int) -> int:
        sample = sample_potential(dist, ball.graph, trial_seed)
        lam = prepared.eigenvalues(g, sample)
        return int(np.abs(lam - energy).min() < threshold)

    hits = run_trials(one, trials, seed)
    return McEstimate.from_counts(sum(hits), trials, seed)


@dataclass(frozen=True)
class PowerLawFit:
    """Empirical P{dist <= s} on a grid with a log-log small-s fit."""

    s_grid: tuple[float, ...]
    probabilities: tuple[float, ...]
    counts: tuple[int, ...]
    trials: int
    theta_hat: float
    log_constant: float
    residual: float
    n_fit_points: int
    seed: int


def fit_power_law(s_grid, probs, counts, trials: int, seed: int, min_successes: int = 10) -> PowerLawFit:
    s = np.asarray(s_grid, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    c = np.asarray(counts, dtype=np.int64)
    mask = c >= min_successes
    if mask.sum() >= 2:
        xs, ys = np.log(s[mask]), np.log(p[mask])
        coeffs, res = np.polyfit(xs, ys, 1, full=True)[:2]
        theta, logc = float(coeffs[0]), float(coeffs[1])
        residual = float(res[0]) if len(res) else 0.0
        nfit = int(mask.sum())
    else:
        theta, logc, residual, nfit = float("nan"), float("nan"), float("nan"), int(mask.sum())
    return PowerLawFit(
        s_grid=tuple(float(v) for v in s),
        probabilities=tuple(float(v) for v in p),
        counts=tuple(int(v) for v in c),
        trials=trials,
        theta_hat=theta,
        log_constant=logc,
        residual=residual,
        n_fit_points=nfit,
        seed=seed,
    )


def spectral_distances(
    ballx: MultiBall,
    bally: MultiBall,
    dist: PotentialDistribution,
    interaction: InteractionPotential,
    g: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """dist(Sigma_x, Sigma_y) = min over eigenvalue pairs, one value per trial."""
    prep_x = PreparedVolume.from_ball(ballx, interaction)
    prep_y = PreparedVolume.from_ball(bally, interaction)

    def one(trial_seed: int, _idx: int) -> float:
        sample = sample_potential(dist, ballx.graph, trial_seed)
        lam_x = prep_x.eigenvalues(g, sample)
        lam_y = prep_y.eigenvalues(g, sample)
        return float(np.abs(lam_x[:, None] - lam_y[None, :]).min())

    return np.asarray(run_trials(one, trials, seed))


def two_volume_evc(
    ballx: MultiBall,
    bally: MultiBall,
    dist: PotentialDistribution,
    interaction: InteractionPotential,
    g: float,
    s_grid,
    trials: int,
    seed: int,
) -> PowerLawFit:
    """Empirical two-volume concentration law for 3NL-distant balls."""
    n = ballx.n_particles
    if bally.n_particles != n or bally.radius != ballx.radius:
        raise ContractViolation("balls must share N and L")
    separation = rho_s(ballx.graph, ballx.center, bally.center)
    if separation < 3 * n * ballx.radius:
        raise ContractViolation(
            f"balls must be 3NL-distant (rho_S = {separation} < {3 * n * ballx.radius})"
        )
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    values = spectral_distances(ballx, bally, dist, interaction, g, trials, seed)
    s = np.asarray(sorted(s_grid), dtype=np.float64)
    counts = (values[None, :] <= s[:, None]).sum(axis=1)
    probs = counts / trials
    return fit_power_law(s, probs, counts, trials, seed)


@dataclass(frozen=True)
class ShiftReport:
    """Measured eigenvalue shifts after V -> V + t on a separating ball."""

    t: float
    g: float
    n1: int
    n2: int
    expected_shift_primary: float
    expected_shift_secondary: float
    max_dev_primary: float
    max_dev_secondary: float
    holds: bool


def spectral_shift_check(
    ballx: MultiBall,
    bally: MultiBall,
    certificate: SeparationCertificate,
    t: float,
    g: float,
    sample: DisorderSample,
    interaction: InteractionPotential,
    tol: float = 1e-9,
) -> ShiftReport:
    """Exact spectral-shift law from weak separation.

    Every configuration of the primary ball has exactly n1 coordinates inside
    the separating ball B, so H(V + t 1_B) = H(V) + g n1 t I; eigenvalues shift
    rigidly, and likewise with n2 for the secondary ball.
    """
    if certificate is None:
        raise ContractViolation("no separation certificate")
    primary, secondary = (ballx, bally) if certificate.primary == "x" else (bally, ballx)
    b_vertices = primary.graph.ball(certificate.center, certificate.radius).tolist()
    shifted = sample.shifted_on(b_vertices, t)

    base = BallSpectra(primary.graph, sample, g, interaction)
    moved = BallSpectra(primary.graph, shifted, g, interaction)

    def deviation(ball: MultiBall, n_inside: int) -> float:
        expected = base.spectrum(ball).eigenvalues + g * n_inside * t
        return float(np.abs(moved.spectrum(ball).eigenvalues - expected).max())

    dev_p = deviation(primary, certificate.n1)
    dev_s = deviation(secondary, certificate.n2)
    return ShiftReport(
        t=t,
        g=g,
        n1=certificate.n1,
        n2=certificate.n2,
        expected_shift_primary=g * certificate.n1 * t,
        expected_shift_secondary=g * certificate.n2 * t,
        max_dev_primary=dev_p,
        max_dev_secondary=dev_s,
        holds=dev_p <= tol and dev_s <= tol,
    )


@dataclass(frozen=True)
class RcmRow:
    q_size: int
    s: float
    exceed_frequency: float
    modulus_max: float
    modulus_threshold: float
    budget: float
    trials: int
    n_cells: int
    passes: bool | None  # None when the budget is degenerate (R = 0)


@dataclass(frozen=True)
class RcmTable:
    rows: tuple[RcmRow, ...]
    constants: dict = field(default_factory=dict)


def _empirical_modulus(sorted_values: np.ndarray, s: float) -> float:
    """sup_t [F_hat(t+s) - F_hat(t)] for the empirical CDF of the values."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if s <= 0:
        return 0.0
    # widest count of points inside a half-open window (t, t+s]
    left = np.searchsorted(sorted_values, sorted_values - s, side="left")
    best = int((np.arange(n) - left + 1).max())
    return best / n


def rcm_modulus(
    dist: PotentialDistribution,
    q_sizes,
    s_grid,
    trials: int,
    seed: int,
    n_cells: int = 16,
) -> RcmTable:
    """Stratified conditional-modulus table for the sample mean.

    Trials are stratified by the fluctuation range (max eta - min eta) into
    `n_cells` quantile cells; the conditional CDF of the mean is approximated
    by the empirical CDF within each cell, and a trial's modulus is its cell's
    modulus.  The constants C'=1, A'=1, b'=2/3 set the exceedance
    threshold and C''=(4 R p_upper)^2, A''=0, b''=2/3 the probability budget.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    c_prime, a_prime, b_prime = 1.0, 1.0, 2.0 / 3.0
    c_sec = (4.0 * dist.deriv_bound * dist.p_upper) ** 2
    b_sec = 2.0 / 3.0
    rows: list[RcmRow] = []
    for q_size in q_sizes:
        if q_size < 1:
            raise ContractViolation("#Q must be >= 1")
        sub = substream(seed, q_size)
        draws = dist.sample_values(sub, trials * q_size).reshape(trials, q_size)
        xi = draws.mean(axis=1)
        spread = draws.max(axis=1) - draws.min(axis=1)
        if q_size == 1:
            cell_of = np.zeros(trials, dtype=np.int64)
            cells = 1
        else:
            cells = min(n_cells, trials)
            edges = np.quantile(spread, np.linspace(0, 1, cells + 1)[1:-1])
            cell_of = np.searchsorted(edges, spread, side="right")
        for s in s_grid:
            if s < 0:
                raise ContractViolation("s must be >= 0")
            if s == 0:
                # the CDF increment over an empty window is identically 0
                rows.append(RcmRow(int(q_size), 0.0, 0.0, 0.0, 0.0, 0.0, trials, cells, True))
                continue
            exceed = 0
            worst = 0.0
            threshold = c_prime * q_size**a_prime * float(s) ** b_prime
            budget = c_sec * float(s) ** b_sec
            for cell in range(cells):
                members = np.nonzero(cell_of == cell)[0]
                if members.size == 0:
                    continue
                vals = np.sort(xi[members])
                modulus = _empirical_modulus(vals, float(s))
                worst = max(worst, modulus)
                if modulus >= threshold:
                    exceed += members.size
            freq = exceed / trials
            passes = None if c_sec == 0.0 or not math.isfinite(c_sec) else freq <= budget
            rows.append(
                RcmRow(
                    q_size=int(q_size),
                    s=float(s),
                    exceed_frequency=freq,
                    modulus_max=worst,
                    modulus_threshold=threshold,
                    budget=budget,
                    trials=trials,
                    n_cells=cells,
                    passes=passes,
                )
            )
    return RcmTable(
        rows=tuple(rows),
        constants={
            "C_prime": c_prime,
            "A_prime": a_prime,
            "b_prime": b_prime,
            "C_second": c_sec,
            "A_second": 0.0,
            "b_second": b_sec,
        },
    )


def wegner_g_sweep(
    ball: MultiBall,
    dist: PotentialDistribution,
    interaction: InteractionPotential,
    g_grid,
    energy_of_g,
    beta: float,
    trials: int,
    seed: int,
) -> list[tuple[float, McEstimate]]:
    """Resonance estimates over a g-grid with common random numbers.

    energy_of_g maps g to the probed energy (resonance windows track the
    spectrum's scale, so a fixed absolute E would trivially empty out).
    """
    out = []
    for g in g_grid:
        est = wegner_estimate(ball, dist, interaction, g, energy_of_g(g), beta, trials, seed)
        out.append((float(g), est))
    return out
