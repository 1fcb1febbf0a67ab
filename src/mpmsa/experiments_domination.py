"""Runner of the dominated-decay experiment: dominate."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .configspace import MultiBall
from .disorder import sample_potential
from .domination import distance_arrays, domination_bound, gf_domination_check
from .experiments import (
    certificate_for, configuration_at, model_from_config, off_spectrum_energy, params_from_config,
    seed_trials,
)
from .hamiltonian import spectral_window
from .msa import MassSchedule, scales
from .reporting import Report
from .rng import CounterRng, substream
from .spectral import BallOperators, BallSpectra


def run_dominate(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    mass = MassSchedule(params)
    cert = certificate_for(graph, params)
    seed, trials = seed_trials(config)
    center = configuration_at(config, "center", graph, n)
    radius = config.get_int("run", "radius")
    ell = config.get_int("run", "ell", "1")
    kmax = config.get_int("run", "kmax", "1")
    schedule = scales(params, kmax, lmax=int(graph.dist.max()))
    window = spectral_window(graph, n, g, dist.sup_abs, interaction)

    tbl = report.table(
        "dominate",
        ("trial", "kind", "q", "W", "f_center", "bound", "holds"),
        (
            "trial index",
            "synthetic profile or Green-function derived",
            "contraction factor q",
            "exponent (L+1-w)/(ell+1)",
            "value at the ball center",
            "q^W times the enclosing max",
            "bound holds (preconditions included)",
        ),
    )
    all_hold = True

    # synthetic geometric profiles over B(u, L+1) (always dominated by construction)
    ball = MultiBall(graph, center, radius)
    domain = ball.concentric(radius + 1)
    to_center = distance_arrays(domain, radius, ell).to_center
    for i in range(max(1, trials // 2)):
        rng = CounterRng(substream(seed, 500 + i))
        q = rng.uniform(0.05, 0.8)
        scale = rng.uniform(0.5, 2.0)
        layers = [scale * q ** ((radius + 1 - r) / max(ell, 1)) for r in range(radius + 2)]
        res = domination_bound(domain, radius, ell, q, np.asarray(layers)[to_center])
        all_hold &= res.holds
        tbl.add(i, "synthetic", q, res.W, res.f_center, res.bound, res.holds)

    # Green-function instances under strong disorder
    gf_trials = max(1, trials - max(1, trials // 2))
    operators = BallOperators(graph, interaction)
    for i in range(gf_trials):
        sample = sample_potential(dist, graph, substream(seed, 900 + i))
        rng = CounterRng(substream(seed, 1300 + i))
        spectra = BallSpectra(operators, sample, g)
        energy = off_spectrum_energy((spectra.spectrum(ball),), window, rng, guard=1e-6)
        q, failures, bounds = gf_domination_check(spectra, ball, energy, ell, params, mass, cert, schedule)
        if failures:
            # not dominated is a precondition outcome, not a bound violation
            tbl.add(1000 + i, "gf-skipped:" + ";".join(failures), q,
                    float("nan"), float("nan"), float("nan"), True)
            continue
        # a bound without precondition failures is a dominated map
        ok = not any(res.precondition_failures for res in bounds)
        if ok:
            for res in bounds:
                ok &= res.holds
                tbl.add(1000 + i, "gf", q, res.W, res.f_center, res.bound, res.holds)
        all_hold &= ok
    report.pass_flags["domination_bounds_hold"] = all_hold
