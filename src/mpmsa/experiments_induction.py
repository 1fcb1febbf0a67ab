"""Runners of the multi-scale induction experiments: induction, bridge and
efc."""

from __future__ import annotations

import math

from .config import ExperimentConfig
from .configspace import MultiBall
from .disorder import sample_potential
from .errors import ConfigurationError
from .evc import McEstimate
from .experiments import (
    certificate_for, configuration_at, model_from_config, params_from_config, seed_trials,
)
from .hamiltonian import spectral_window
from .induction import (
    RootCounts, bridge_parameters, efc_decay_experiment, recursion_bound, scale_probabilities,
    sup_min_functional,
)
from .msa import MassSchedule, scales, validate
from .quantiles import T_DF_MAX
from .reporting import Report
from .rng import substream
from .spectral import BallOperators, BallSpectra


def run_induction(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    violations = validate(params)
    if violations and not config.get_bool("run", "allow_param_violations", "false"):
        raise ConfigurationError("parameter table violations: " + "; ".join(violations))
    mass = MassSchedule(params)
    cert = certificate_for(graph, params)
    seed, trials = seed_trials(config)
    center = configuration_at(config, "center", graph, n)
    kmax = config.get_int("run", "kmax", "1")
    schedule = scales(params, kmax, lmax=int(graph.dist.max()))
    window = spectral_window(graph, n, g, dist.sup_abs, interaction)
    policy = config.get("run", "energy_policy", "fixed:0")
    rows = scale_probabilities(
        BallOperators(graph, interaction), center, dist, g, params, mass, schedule, cert,
        policy, window, trials, seed,
    )
    tbl = report.table(
        "induction",
        ("k", "radius", "p", "p_lo", "p_hi", "q", "q_lo", "q_hi", "s", "target", "skipped"),
        (
            "scale index",
            "ball radius L_k",
            "singularity probability estimate",
            "Wilson 95% lower (Bonferroni-widened for grid policies)",
            "Wilson 95% upper",
            "resonance estimate with the factor-4 convention",
            "lower bound",
            "upper bound",
            "WI singular sub-ball probability (0 for N=1)",
            "mode target for the singularity probability",
            "scale skipped by the volume budget",
        ),
    )
    nanv = float("nan")
    for row in rows:
        tbl.add(
            row.k,
            row.radius,
            row.p.estimate if row.p else nanv,
            row.p.ci_low if row.p else nanv,
            row.p.ci_high if row.p else nanv,
            row.q.estimate if row.q else nanv,
            row.q.ci_low if row.q else nanv,
            row.q.ci_high if row.q else nanv,
            row.s.estimate if row.s else 0.0,
            row.target,
            row.skipped,
        )
    checks = report.table(
        "recursion",
        ("k_next", "rhs", "rhs_hi", "p_next", "p_next_lo", "satisfied_within_ci"),
        (
            "target scale index",
            "recursion right-hand side from point estimates",
            "right-hand side from CI-upper inputs",
            "measured next-scale singularity estimate",
            "its Wilson 95% lower bound",
            "p_next lower bound <= rhs upper bound",
        ),
    )
    all_ok = True
    usable = [r for r in rows if not r.skipped]
    for prev, nxt in zip(usable[:-1], usable[1:]):
        point = recursion_bound(
            prev.p.estimate, nxt.s.estimate if nxt.s else 0.0,
            nxt.q.estimate if nxt.q else 0.0,
            params, cert, n, nxt.radius,
        )
        wide = recursion_bound(
            prev.p.ci_high, nxt.s.ci_high if nxt.s else 0.0,
            nxt.q.ci_high if nxt.q else 0.0,
            params, cert, n, nxt.radius,
        )
        ok = nxt.p.ci_low <= wide
        all_ok &= ok
        checks.add(nxt.k, point, wide, nxt.p.estimate, nxt.p.ci_low, ok)
    report.results["n_scales"] = len(rows)
    report.pass_flags["recursion_within_ci"] = all_ok


def run_bridge(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    mass = MassSchedule(params)
    cert = certificate_for(graph, params)
    seed, trials = seed_trials(config)
    radius = config.get_int("run", "radius")
    ball_x = MultiBall(graph, configuration_at(config, "center_x", graph, n), radius)
    ball_y = MultiBall(graph, configuration_at(config, "center_y", graph, n), radius)
    window = spectral_window(graph, n, g, dist.sup_abs, interaction)
    level = config.get_float(
        "run", "level",
        str(math.exp(-mass.m(n) * float(radius) ** params.delta)),
    )
    size_x, size_y = ball_x.size(), ball_y.size()
    bp = bridge_parameters(mass, n, radius, (size_x, size_y))
    exceed = 0
    cover_ok = True
    tbl = report.table(
        "bridge",
        ("trial", "sup_min", "argmax_energy", "exceeded", "cover_count_x", "cover_count_y"),
        (
            "trial index",
            "sup over E of min(F_x, F_y) on the refined grid",
            "maximizing energy",
            "sup >= level",
            "intervals in the x cover",
            "intervals in the y cover",
        ),
    )
    operators = BallOperators(graph, interaction)
    roots = {"turn": RootCounts(), "level": RootCounts()}
    for i in range(trials):
        sample = sample_potential(dist, graph, substream(seed, i))
        spectra = BallSpectra(operators, sample, g)
        res = sup_min_functional(spectra.spectrum(ball_x), spectra.spectrum(ball_y), cert, level, window)
        for cover in (res.cover_x, res.cover_y):
            for kind, counts in cover.roots.items():
                roots[kind].add(counts)
        exceed += int(res.exceeded)
        cover_ok &= res.cover_x.count < 3 * size_x
        cover_ok &= res.cover_y.count < 3 * size_y
        tbl.add(i, res.sup_value, res.argmax_energy, res.exceeded,
                res.cover_x.count, res.cover_y.count)
    est = McEstimate.from_counts(exceed, trials, seed)
    report.results["exceed_estimate"] = est.estimate
    report.results["exceed_ci"] = [est.ci_low, est.ci_high]
    report.results["bridge_constants"] = {k: v for k, v in bp.items()}
    report.results["structural_target"] = math.exp(-mass.nu(n) * float(radius) ** params.kappa / 9.0)
    report.results["cover_roots"] = {kind: vars(counts) for kind, counts in roots.items()}
    report.pass_flags["bridge_precondition"] = bool(bp["precondition_ok"])
    report.pass_flags["cover_counts"] = cover_ok


def run_efc(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    seed, trials = seed_trials(config)
    pairs = configuration_at(config, "pairs", graph, n)
    g_grid = config.get_floats("run", "g_grid", str(g))
    batches = config.get_int("run", "batches", "10")
    if not 1 <= batches <= T_DF_MAX + 1:  # the t interval has batches - 1 df
        raise ConfigurationError(f"[run] batches must be between 1 and {T_DF_MAX + 1}")
    full = MultiBall(graph, tuple([0] * n), int(graph.dist.max()))
    distances, mean_efc, masses, ci, batch_masses = efc_decay_experiment(
        full, pairs, dist, BallOperators(graph, interaction), g_grid, params.kappa, trials, seed, batches
    )
    tbl = report.table(
        "efc",
        ("g", "pair_index", "rho_s", "mean_efc"),
        (
            "coupling amplitude",
            "index into the configured pair list",
            "symmetrized distance of the pair",
            "mean eigenfunction correlator over seeds",
        ),
    )
    fitt = report.table(
        "efc_fit",
        ("g", "mass", "ci_low", "ci_high", "n_batches"),
        (
            "coupling amplitude",
            "fitted decay mass M of -log(mean EFC) vs rho_S^kappa",
            "95% t-interval lower bound over seed batches",
            "upper bound",
            "number of seed batches",
        ),
    )
    for gv, means, m, (lo, hi) in zip(g_grid, mean_efc.tolist(), masses.tolist(), ci.tolist()):
        for idx, (r, v) in enumerate(zip(distances.tolist(), means)):
            tbl.add(gv, idx, r, v)
        fitt.add(gv, m, lo, hi, batch_masses.shape[1])
    report.results["masses"] = dict(zip(map(str, g_grid), masses.tolist()))
    report.pass_flags["ran"] = True
