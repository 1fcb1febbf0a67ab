"""Runners of the eigenvalue-concentration experiments: wegner, evc2, rcm
and shift."""

from __future__ import annotations

import math

from .config import ExperimentConfig
from .configspace import MultiBall, rho_s, weak_separation
from .disorder import sample_potential
from .evc import McEstimate, rcm_modulus, spectral_shift_check, two_volume_evc, wegner_estimate
from .experiments import configuration_at, model_from_config, params_from_config, seed_trials
from .graphs import Graph
from .reporting import Report
from .rng import CounterRng, substream
from .spectral import BallOperators


def random_separated_pair(graph: Graph, n: int, radius: int, rng: CounterRng):
    """A 3NL-distant pair of ball centers (weak separation then exists), or
    None when 600 draws find none."""
    need = 3 * n * radius
    for _ in range(600):
        x = tuple(rng.randint(0, graph.n_vertices - 1) for _ in range(n))
        y = tuple(rng.randint(0, graph.n_vertices - 1) for _ in range(n))
        if rho_s(graph, x, y) >= need:
            return x, y
    return None


def run_wegner(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    seed, trials = seed_trials(config)
    center = configuration_at(config, "center", graph, n)
    radius = config.get_int("run", "radius")
    energy = config.get_float("run", "energy")
    ball = MultiBall(graph, center, radius)
    g_grid = config.get_floats("run", "g_grid", str(g))
    tbl = report.table(
        "wegner",
        ("g", "estimate", "ci_low", "ci_high", "successes", "trials", "seed"),
        (
            "coupling amplitude",
            "empirical resonance probability",
            "Wilson 95% lower bound",
            "Wilson 95% upper bound",
            "resonant samples",
            "Monte Carlo trials",
            "master seed",
        ),
    )
    operators = BallOperators(graph, interaction)
    estimates, fallbacks = [], []
    for gv in g_grid:
        est, fell_back = wegner_estimate(ball, dist, operators, gv, energy, params.beta, trials, seed)
        estimates.append(est.estimate)
        fallbacks.append(fell_back)
        tbl.add(gv, est.estimate, est.ci_low, est.ci_high, est.successes, est.trials, est.seed)
    report.results["estimates"] = estimates
    report.results["eigvalsh_fallbacks"] = fallbacks
    report.pass_flags["ran"] = True


def run_evc2(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    seed, trials = seed_trials(config)
    radius = config.get_int("run", "radius")
    ball_x = MultiBall(graph, configuration_at(config, "center_x", graph, n), radius)
    ball_y = MultiBall(graph, configuration_at(config, "center_y", graph, n), radius)
    s_grid = config.get_floats("run", "s_grid")
    operators = BallOperators(graph, interaction)
    s_sorted, counts, theta_hat, log_constant, n_fit = two_volume_evc(
        ball_x, ball_y, dist, operators, g, s_grid, trials, seed
    )
    tbl = report.table(
        "evc2",
        ("s", "probability", "ci_low", "ci_high", "successes", "trials", "seed"),
        (
            "spectral distance threshold",
            "empirical P{dist(Sigma_x, Sigma_y) <= s}",
            "Wilson 95% lower bound",
            "Wilson 95% upper bound",
            "trials below threshold",
            "Monte Carlo trials",
            "master seed",
        ),
    )
    for s, c in zip(s_sorted.tolist(), counts.tolist()):
        est = McEstimate.from_counts(c, trials, seed)
        tbl.add(s, est.estimate, est.ci_low, est.ci_high, c, trials, seed)
    report.results["theta_hat"] = theta_hat
    report.results["log_constant"] = log_constant
    report.results["n_fit_points"] = n_fit
    if config.has("run", "theta_floor"):
        floor = config.get_float("run", "theta_floor")
        report.pass_flags["theta_at_least_floor"] = math.isfinite(theta_hat) and theta_hat >= floor
    else:
        report.pass_flags["ran"] = True


def run_rcm(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    seed, trials = seed_trials(config)
    q_sizes = config.get_ints("run", "q_sizes", "1,2,4")
    s_grid = config.get_floats("run", "s_grid", "0.01,0.05,0.1")
    rows, constants = rcm_modulus(dist, q_sizes, s_grid, trials, seed)
    tbl = report.table(
        "rcm",
        ("q_size", "s", "exceed_frequency", "modulus_max", "modulus_threshold", "budget", "passes"),
        (
            "conditioning set size #Q",
            "CDF increment width",
            "fraction of trials whose cell modulus meets the threshold",
            "largest empirical cell modulus",
            "C' (#Q)^A' s^b' exceedance threshold",
            "C'' s^b'' probability budget (0 when the density derivative bound is 0)",
            "frequency <= budget (empty when the budget is degenerate)",
        ),
    )
    overall = True
    for *cells, passes in rows:
        tbl.add(*cells, "" if passes is None else passes)
        if passes is not None:
            overall &= passes
    report.results["constants"] = constants
    report.pass_flags["within_budget"] = overall


def run_shift(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    seed, trials = seed_trials(config)
    radius = config.get_int("run", "radius", "1")
    t_val = config.get_float("run", "t", "0.5")
    tbl = report.table(
        "shift",
        ("instance", "n1", "n2", "dev_primary", "dev_secondary", "holds"),
        (
            "instance index",
            "captured particles of the primary ball",
            "captured particles of the secondary ball",
            "max |shift - g*n1*t| over the primary spectrum",
            "max |shift - g*n2*t| over the secondary spectrum",
            "both deviations <= 1e-9",
        ),
    )
    operators = BallOperators(graph, interaction)
    all_hold = True
    produced = 0
    for i in range(trials):
        rng = CounterRng(substream(seed, 77_000 + i))
        pair = random_separated_pair(graph, n, radius, rng)
        if pair is None:
            continue
        ball_x = MultiBall(graph, pair[0], radius)
        ball_y = MultiBall(graph, pair[1], radius)
        certificate = weak_separation(ball_x, ball_y)
        if certificate is None:
            all_hold = False
            tbl.add(i, -1, -1, float("nan"), float("nan"), False)
            continue
        sample = sample_potential(dist, graph, substream(seed, 88_000 + i))
        dev_p, dev_s, holds = spectral_shift_check(ball_x, ball_y, certificate, t_val, g, sample, operators)
        all_hold &= holds
        produced += 1
        tbl.add(i, certificate.n1, certificate.n2, dev_p, dev_s, holds)
    report.results["instances_with_certificates"] = produced
    report.pass_flags["shift_law_exact"] = all_hold and produced > 0
