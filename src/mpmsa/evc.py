"""Monte Carlo eigenvalue-concentration estimators.

One-volume resonance (Wegner-type) frequencies, the two-volume spectral
distance law with its small-s power fit, the exact spectral-shift consequence
of weak separation, and the conditional-modulus table for the sample mean.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .configspace import MultiBall, SeparationCertificate, rho_s
from .disorder import PotentialDistribution, sample_potential
from .errors import ContractViolation
from .msa import resonance_radius, resonant
from .parallel import run_trials
from .quantiles import sample_quantiles
from .rng import substream
from .spectral import BallOperators, BallSpectra, dist_to_spectrum, inertia, volume_eigenvalues

_Z95 = 1.959963984540054
FIT_MIN_SUCCESSES = 10
SHIFT_TOL = 1e-9


def wilson_interval(p: float, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval at critical value z for a binomial proportion p
    observed over `trials`, clipped to [0, 1] and exactly 0 or 1 at p = 0 or 1."""
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if p == 0.0 else max(0.0, center - half)
    hi = 1.0 if p == 1.0 else min(1.0, center + half)
    return lo, hi


class McEstimate(NamedTuple):
    """Binomial point estimate with a Wilson interval (95 % unless widened)."""

    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int, z: float = _Z95) -> "McEstimate":
        """successes / trials with its Wilson interval at critical value z."""
        if trials < 1:
            raise ContractViolation("trials must be >= 1")
        p = successes / trials
        lo, hi = wilson_interval(p, trials, z)
        return cls(trials, successes, p, lo, hi, seed)

    def scaled(self, factor: float) -> "McEstimate":
        """Estimate of factor * p (used by the factor-4 resonance convention)."""
        return self._replace(
            estimate=factor * self.estimate, ci_low=factor * self.ci_low, ci_high=factor * self.ci_high
        )


def wegner_estimate(
    ball: MultiBall,
    dist: PotentialDistribution,
    operators: BallOperators,
    g: float,
    energy: float,
    beta: float,
    trials: int,
    seed: int,
) -> tuple[McEstimate, int]:
    """Fraction of disorder samples for which the ball is (E, beta)-resonant,
    and the number of samples decided by eigvalsh.

    A sample is resonant when H has an eigenvalue in the open interval
    (E - t, E + t), t = resonance_radius(L, beta): the inertia counts of
    H - (E + t) and H - (E - t) differ.  A sample whose counts are None (an
    eigenvalue within round-off of E - t or E + t, where the tie rule needs
    the spectrum, or a pivot block within round-off of singular) is decided
    by eigvalsh and msa.resonant.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    op = operators.operator(ball)
    t = resonance_radius(ball.radius, beta)
    shifts = (energy - t, energy + t)

    def one(trial_seed: int) -> tuple[bool, bool]:
        sample = sample_potential(dist, ball.graph, trial_seed)
        counts = inertia(op, g, sample, shifts)
        if counts is not None:
            return bool(counts[1] > counts[0]), False
        lam = volume_eigenvalues(op, g, sample)
        return bool(resonant(lam, energy, ball.radius, beta)), True

    hits, fallbacks = zip(*run_trials(one, trials, seed))
    return McEstimate.from_counts(sum(hits), trials, seed), sum(fallbacks)


def spectral_distances(
    ballx: MultiBall,
    bally: MultiBall,
    dist: PotentialDistribution,
    operators: BallOperators,
    g: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """dist(Sigma_x, Sigma_y) = min over eigenvalue pairs, one value per trial."""
    op_x, op_y = operators.operator(ballx), operators.operator(bally)

    def one(trial_seed: int) -> float:
        sample = sample_potential(dist, ballx.graph, trial_seed)
        lam_x = volume_eigenvalues(op_x, g, sample)
        lam_y = volume_eigenvalues(op_y, g, sample)
        return float(dist_to_spectrum(lam_y, lam_x).min())

    return np.asarray(run_trials(one, trials, seed))


def two_volume_evc(
    ballx: MultiBall,
    bally: MultiBall,
    dist: PotentialDistribution,
    operators: BallOperators,
    g: float,
    s_grid,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Empirical two-volume concentration law for 3NL-distant balls.

    Returns the sorted s grid, the count of trials with dist <= s at each grid
    point, and the least-squares line log P = theta log s + log C through the
    points with at least FIT_MIN_SUCCESSES successes: theta, log C (both nan
    without two such points) and the number of points fitted.
    """
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
    values = spectral_distances(ballx, bally, dist, operators, g, trials, seed)
    s = np.asarray(sorted(s_grid), dtype=np.float64)
    counts = (values[None, :] <= s[:, None]).sum(axis=1)
    fit = counts >= FIT_MIN_SUCCESSES
    if fit.sum() >= 2:
        theta, logc = (float(v) for v in np.polyfit(np.log(s[fit]), np.log(counts[fit] / trials), 1))
    else:
        theta, logc = float("nan"), float("nan")
    return s, counts, theta, logc, int(fit.sum())


def spectral_shift_check(
    ballx: MultiBall,
    bally: MultiBall,
    certificate: SeparationCertificate,
    t: float,
    g: float,
    sample: np.ndarray,
    operators: BallOperators,
) -> tuple[float, float, bool]:
    """Exact spectral-shift law from weak separation.

    Every configuration of the primary ball has exactly n1 coordinates inside
    the separating ball B, so H(V + t 1_B) = H(V) + g n1 t I; eigenvalues shift
    rigidly, and likewise with n2 for the secondary ball.  Returns the largest
    deviation from the rigid shift on each ball and whether both are at most
    SHIFT_TOL.
    """
    if certificate is None:
        raise ContractViolation("no separation certificate")
    primary, secondary = (ballx, bally) if certificate.primary == "x" else (bally, ballx)
    shifted = sample.copy()
    shifted[primary.graph.ball(certificate.center, certificate.radius)] += t

    base = BallSpectra(operators, sample, g)
    moved = BallSpectra(operators, shifted, g)

    def deviation(ball: MultiBall, n_inside: int) -> float:
        expected = base.spectrum(ball).eigenvalues + g * n_inside * t
        return float(np.abs(moved.spectrum(ball).eigenvalues - expected).max())

    dev_p = deviation(primary, certificate.n1)
    dev_s = deviation(secondary, certificate.n2)
    return dev_p, dev_s, dev_p <= SHIFT_TOL and dev_s <= SHIFT_TOL


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
) -> tuple[list[tuple], dict[str, float]]:
    """Stratified conditional-modulus table for the sample mean.

    Trials are stratified by the fluctuation range (max eta - min eta) into
    `n_cells` quantile cells; the conditional CDF of the mean is approximated
    by the empirical CDF within each cell, and a trial's modulus is its cell's
    modulus.  The constants C'=1, A'=1, b'=2/3 set the exceedance
    threshold and C''=(4 R p_upper)^2, A''=0, b''=2/3 the probability budget.

    Returns one row (q_size, s, exceedance frequency, largest cell modulus,
    threshold, budget, frequency <= budget) per (#Q, s), the last None when
    the budget is degenerate (R = 0), and the constants by name.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    c_prime, a_prime, b_prime = 1.0, 1.0, 2.0 / 3.0
    c_sec = (4.0 * dist.deriv_bound * dist.p_upper) ** 2
    b_sec = 2.0 / 3.0
    rows: list[tuple] = []
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
            edges = sample_quantiles(spread, np.linspace(0, 1, cells + 1)[1:-1])
            cell_of = np.searchsorted(edges, spread, side="right")
        for s in s_grid:
            if s < 0:
                raise ContractViolation("s must be >= 0")
            if s == 0:
                # the CDF increment over an empty window is identically 0
                rows.append((int(q_size), 0.0, 0.0, 0.0, 0.0, 0.0, True))
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
            rows.append((int(q_size), float(s), freq, worst, threshold, budget, passes))
    return rows, {
        "C_prime": c_prime,
        "A_prime": a_prime,
        "b_prime": b_prime,
        "C_second": c_sec,
        "A_second": 0.0,
        "b_second": b_sec,
    }
