"""Config unpacking shared by every runner, and the runners that need only
the spectral core: validate-params, classify and gri.

Each runner consumes an ExperimentConfig, runs a deterministic seeded
computation, and fills a Report (summary results, pass flags, CSV tables).
The other runners live in experiments_evc, experiments_induction and
experiments_domination, so a process imports only its runner's estimators.
"""

from __future__ import annotations

from .config import ExperimentConfig
from .configspace import Config, MultiBall
from .disorder import parse_distribution_spec, parse_interaction_spec, sample_potential
from .errors import BudgetExceeded, ConfigurationError
from .graphs import Graph, GrowthCertificate, build_graph, certify_growth
from .hamiltonian import VolumeOperator, spectral_window
from .msa import MassSchedule, ParameterSet, classify, scales, validate
from .reporting import Report
from .rng import CounterRng, substream
from .spectral import BallOperators, BallSpectra, dist_to_spectrum, eigendecompose, gri_check

# ---------------------------------------------------------------------------
# Config unpacking


def model_from_config(config: ExperimentConfig):
    graph = build_graph(config.get("model", "graph"))
    n = config.get_int("model", "particles", "1")
    if n < 1:
        raise ConfigurationError("particles must be >= 1")
    dist = parse_distribution_spec(config.get("model", "distribution", "uniform:0:1"))
    interaction = parse_interaction_spec(config.get("model", "interaction", "u:C=0:zeta=1:rcut=inf"))
    g = config.get_float("model", "g", "1.0")
    return graph, n, dist, interaction, g


def params_from_config(config: ExperimentConfig) -> ParameterSet:
    c = config
    return ParameterSet(
        mode=c.get("params", "mode", "subexp"),
        n_star=c.get_int("params", "nstar", "1"),
        d=c.get_float("params", "d", "1"),
        zeta=c.get_float("params", "zeta", "1"),
        kappa=c.get_float("params", "kappa", "0.3"),
        beta=c.get_float("params", "beta", "0.3"),
        delta=c.get_float("params", "delta", "0.5"),
        m_star=c.get_float("params", "mstar", "1"),
        nu_star=c.get_float("params", "nustar", "1"),
        K=c.get_int("params", "k", "1"),
        L0=c.get_int("params", "l0", "3"),
        B=c.get_int("params", "b", "2"),
        alpha=c.get_float("params", "alpha", "1.5"),
        tau=c.get_float("params", "tau", "1.0"),
        P_star=c.get_float("params", "pstar", "1"),
    )


def certificate_for(graph: Graph, params: ParameterSet) -> GrowthCertificate:
    lmax = max(1, int(graph.dist.max()))
    return certify_growth(graph, params.d, lmax)


def configuration_at(config: ExperimentConfig, key: str, graph: Graph, n: int):
    """[run] key as a configuration of n particles on the graph's vertices,
    or for key 'pairs' as a list of pairs of them."""
    if key == "pairs":
        return [tuple(_checked(key, c, graph, n) for c in pair) for pair in config.get_pairs("run", key)]
    return _checked(key, config.get_config_tuple("run", key), graph, n)


def _checked(key: str, config: Config, graph: Graph, n: int) -> Config:
    if len(config) != n or not all(0 <= v < graph.n_vertices for v in config):
        raise ConfigurationError(
            f"[run] {key}: {config} is not a configuration of {n} particles on vertices "
            f"0..{graph.n_vertices - 1}"
        )
    return config


def seed_trials(config: ExperimentConfig) -> tuple[int, int]:
    return config.get_int("experiment", "seed", "1"), config.get_int("experiment", "trials", "100")


# ---------------------------------------------------------------------------
# Instance generators (shared with the acceptance suite)


def random_gri_instance(graph: Graph, n: int, rng: CounterRng, max_volume: int = 600):
    """A random ball V of 2 to max_volume configurations, the configurations
    of a proper sub-volume W, and a pair x in W, y in V - W.  Raises
    BudgetExceeded when 400 draws find none."""
    for _ in range(400):
        center = tuple(rng.randint(0, graph.n_vertices - 1) for _ in range(n))
        radius = rng.randint(1, max(1, int(graph.dist.max())))
        ball = MultiBall(graph, center, radius)
        if not 2 <= ball.size() <= max_volume:
            continue
        volume = ball.members()
        w_center = volume[rng.randint(0, len(volume) - 1)]
        w_radius = rng.randint(0, max(0, radius - 1))
        in_volume = set(volume)
        sub = [c for c in MultiBall(graph, w_center, w_radius).members() if c in in_volume]
        if not sub or len(sub) == len(volume):
            continue
        in_sub = set(sub)
        outside = [c for c in volume if c not in in_sub]
        x = sub[rng.randint(0, len(sub) - 1)]
        y = outside[rng.randint(0, len(outside) - 1)]
        return ball, sub, x, y
    raise BudgetExceeded(
        f"no GRI instance in 400 draws: no ball drawn has 2 to {max_volume} configurations "
        f"(the {max_volume}-configuration instance cap) and a proper sub-volume"
    )


def off_spectrum_energy(specs, window, rng: CounterRng, guard: float = 1e-8) -> float:
    """Uniform energy in the window at distance > guard from every spectrum."""
    for _ in range(1000):
        e = rng.uniform(window[0], window[1])
        if all(dist_to_spectrum(s.eigenvalues, e) > guard for s in specs):
            return e
    raise RuntimeError("could not find an off-spectrum energy")


# ---------------------------------------------------------------------------
# Runners


def run_validate_params(config: ExperimentConfig, report: Report) -> None:
    params = params_from_config(config)
    violations = validate(params)
    tbl = report.table(
        "violations", ("index", "constraint"), ("running index", "violated inequality")
    )
    for i, v in enumerate(violations):
        tbl.add(i, v)
    report.results["n_violations"] = len(violations)
    report.results["violations"] = violations
    report.pass_flags["params_valid"] = not violations


def run_classify(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    params = params_from_config(config)
    mass = MassSchedule(params)
    cert = certificate_for(graph, params)
    seed, _ = seed_trials(config)
    center = configuration_at(config, "center", graph, n)
    radius = config.get_int("run", "radius")
    kmax = config.get_int("run", "kmax", "3")
    schedule = scales(params, kmax, lmax=int(graph.dist.max()))
    sample = sample_potential(dist, graph, seed)
    ball = MultiBall(graph, center, radius)
    energies = config.get_floats("run", "energy")
    spectra = BallSpectra(BallOperators(graph, interaction), sample, g)
    tbl = report.table(
        "classification",
        ("energy", "resonant", "nonsingular", "cnr", "weakly_interactive", "dist_to_spectrum"),
        (
            "probed energy",
            "(E,beta)-resonant flag",
            "mode Green-decay nonsingularity flag (empty = undetermined)",
            "completely non-resonant flag (empty = radius not an L_k, k>=1)",
            "weakly interactive flag (empty for N=1)",
            "distance from E to the ball spectrum",
        ),
    )
    res, ns, undetermined, cnr, wi = classify(ball, energies, params, mass, spectra, cert, schedule=schedule)
    dist = dist_to_spectrum(spectra.spectrum(ball).eigenvalues, energies)
    for i, e in enumerate(energies):
        tbl.add(
            e,
            bool(res[i]),
            "" if undetermined[i] else bool(ns[i]),
            "" if cnr is None else bool(cnr[i]),
            "" if wi is None else wi,
            float(dist[i]),
        )
    report.pass_flags["classified"] = True


def run_gri(config: ExperimentConfig, report: Report) -> None:
    graph, n, dist, interaction, g = model_from_config(config)
    seed, trials = seed_trials(config)
    window = spectral_window(graph, n, g, dist.sup_abs, interaction)
    energies_per = config.get_int("run", "energies_per_instance", "5")
    if energies_per < 1:
        raise ConfigurationError("[run] energies_per_instance must be >= 1")
    tbl = report.table(
        "gri",
        ("instance", "energy", "lhs", "rhs", "holds"),
        ("instance index", "probed energy", "|G_V(x,y)|", "boundary sum bound", "lhs <= rhs"),
    )
    all_hold = True
    operators = BallOperators(graph, interaction)
    for i in range(trials):
        rng = CounterRng(substream(seed, i))
        ball, sub, x, y = random_gri_instance(graph, n, rng)
        sample = sample_potential(dist, graph, substream(seed, 10_000_000 + i))
        spec_v = BallSpectra(operators, sample, g).spectrum(ball)
        # W is not a ball: its own operator, whose H is V's principal
        # submatrix under the Dirichlet convention
        spec_w = eigendecompose(VolumeOperator(graph, sub, interaction), g, sample)
        for _ in range(energies_per):
            e = off_spectrum_energy((spec_v, spec_w), window, rng)
            lhs, rhs, holds = gri_check(spec_v, spec_w, x, y, e)
            all_hold &= holds
            tbl.add(i, e, lhs, rhs, holds)
    report.results["instances"] = trials
    report.pass_flags["gri_holds"] = all_hold
