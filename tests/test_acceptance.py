"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np

from mpmsa.cli import main as cli_main
from mpmsa.configspace import (
    MultiBall,
    vertex_ball_mask,
    weak_separation,
)
from mpmsa.disorder import InteractionPotential, sample_potential, uniform_distribution
from mpmsa.domination import (
    AnnulusCover,
    DominationContext,
    domination_bound,
    gf_domination_check,
)
from mpmsa.evc import spectral_shift_check, two_volume_evc
from mpmsa.experiments import off_spectrum_energy, random_gri_instance
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.hamiltonian import VolumeOperator, spectral_window
from mpmsa.induction import (
    efc_decay_experiment,
    recursion_bound,
    scale_probabilities,
)
from mpmsa.msa import MassSchedule, ParameterSet, scales
from mpmsa.rng import CounterRng, substream
from mpmsa.spectral import (
    BallOperators,
    BallSpectra,
    boundary_profile,
    efc,
    eigendecompose,
    gri_check,
)

from helpers import (
    ZERO_INTERACTION,
    DenseOperator,
    assemble_ball,
    classify_interactivity,
    clusters,
    covered,
    decouple,
    efc_test_function_value,
    sublevel_cover,
)

DIST = uniform_distribution(0, 1)
MASTER = 20250810


def _verdict(num: int, description: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}"


# -------------------------------------------------------------------- 1


def test_criterion_01_gri_suite():
    """The resolvent inequality on 500 seeded instances, N in {1,2}, three graph families."""
    start = time.perf_counter()
    combos = [
        ("path:30", 1), ("cycle:24", 1), ("grid:5x5", 1),
        ("path:16", 2), ("cycle:10", 2), ("grid:4x4", 2),
    ]
    interaction = InteractionPotential(1.0, 0.5)
    per = [84, 84, 83, 83, 83, 83]
    violations = 0
    total = 0
    for (spec_str, n), count in zip(combos, per):
        graph = build_graph(spec_str)
        window = spectral_window(graph, n, 1.0, DIST.sup_abs, interaction)
        operators = BallOperators(graph, interaction)
        for i in range(count):
            rng = CounterRng(substream(MASTER, 1000 * n + i))
            ball, sub, x, y = random_gri_instance(graph, n, rng, max_volume=600)
            sample = sample_potential(DIST, graph, substream(MASTER, 5000 + total))
            spec_v = BallSpectra(operators, sample, 1.0).spectrum(ball)
            spec_w = eigendecompose(VolumeOperator(graph, sub, interaction), 1.0, sample)
            for _ in range(5):
                energy = off_spectrum_energy((spec_v, spec_w), window, rng, guard=1e-4)
                *_, holds = gri_check(spec_v, spec_w, x, y, energy)
                violations += int(not holds)
            total += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "GRI holds on 500 instances x 5 energies",
        violations == 0 and total == 500 and elapsed < 60.0,
        f"{total} instances, {violations} violations, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- 2


def test_criterion_02_resolvent_and_efc_identities():
    """(H-E)G = I columnwise to 1e-9; EFC closed form dominates random test
    functions and equals the sign-function value to 1e-10, on 200 instances."""
    graphs = [("path:9", 1), ("cycle:8", 1), ("grid:3x3", 1), ("path:5", 2)]
    interaction = InteractionPotential(0.8, 0.6)
    worst_resid = 0.0
    worst_gap = 0.0
    dominated = True
    for idx in range(200):
        spec_str, n = graphs[idx % len(graphs)]
        graph = build_graph(spec_str)
        rng = CounterRng(substream(MASTER, 40_000 + idx))
        g_amp = rng.uniform(0.5, 4.0)
        center = tuple(rng.randint(0, graph.n_vertices - 1) for _ in range(n))
        ball = MultiBall(graph, center, rng.randint(1, 3))
        sample = sample_potential(DIST, graph, substream(MASTER, 41_000 + idx))
        op = VolumeOperator.from_ball(ball, interaction)
        assert len(op) <= 700
        spec = eigendecompose(op, g_amp, sample)
        window = spectral_window(graph, n, g_amp, DIST.sup_abs, interaction)
        energy = off_spectrum_energy((spec,), window, rng, guard=1e-3)
        m = len(spec.volume)
        g_mat = (spec.eigenvectors / (spec.eigenvalues - energy)) @ spec.eigenvectors.T
        resid = np.abs((op.hamiltonian(g_amp, sample) - energy * np.eye(m)) @ g_mat - np.eye(m)).max()
        worst_resid = max(worst_resid, resid)

        xs = spec.volume.configs
        x = xs[rng.randint(0, m - 1)]
        y = xs[rng.randint(0, m - 1)]
        closed = efc(spec, x, y)
        blocks = clusters(spec)
        per_state = spec.component(x) * spec.component(y)
        for _ in range(100):
            f_vals = np.asarray([rng.uniform(-1, 1) for _ in blocks])
            if efc_test_function_value(spec, x, y, f_vals) > closed + 1e-12:
                dominated = False
        signs = np.asarray(
            [1.0 if per_state[blk].sum() >= 0 else -1.0 for blk in blocks]
        )
        worst_gap = max(
            worst_gap, abs(efc_test_function_value(spec, x, y, signs) - closed)
        )
    _verdict(
        2,
        "resolvent identity <= 1e-9 and EFC sup attained by the sign pattern",
        worst_resid <= 1e-9 and dominated and worst_gap <= 1e-10,
        f"max residual {worst_resid:.2e}, max sign gap {worst_gap:.2e}",
    )


# -------------------------------------------------------------------- 3


def test_criterion_03_decoupling():
    """Exact tensor split of 50 WI balls plus the interaction norm bound."""
    graph = build_graph("path:60")
    worst_dev = 0.0
    bound_ok = True
    built = 0
    idx = 0
    while built < 50:
        rng = CounterRng(substream(MASTER, 60_000 + idx))
        idx += 1
        n = 2 if built % 3 else 3
        radius = rng.randint(0, 3) if n == 2 else rng.randint(0, 1)
        center = tuple(rng.randint(0, 59) for _ in range(n))
        ball = MultiBall(graph, center, radius)
        if graph.diameter_of(set(center)) <= 3 * n * radius:
            continue
        kind, split = classify_interactivity(ball)
        assert kind == "WI"
        zeta = (0.5, 1.0)[built % 2]
        interaction = InteractionPotential(1.0 + (built % 4) * 0.5, zeta)
        sample = sample_potential(DIST, graph, substream(MASTER, 61_000 + idx))
        dec = decouple(ball, split, 1.0, sample, interaction)
        h = assemble_ball(ball, 1.0, sample, interaction)
        perm = dec.permutation
        dev = np.abs(h[np.ix_(perm, perm)] - dec.reassembled()).max()
        worst_dev = max(worst_dev, dev)
        limit = interaction.c_u * n**2 * math.exp(-float(radius) ** zeta)
        bound_ok &= dec.coupling_norm <= limit + 1e-15
        built += 1
    _verdict(
        3,
        "50 WI balls decouple exactly with the coupling norm bound",
        worst_dev <= 1e-12 and bound_ok,
        f"max entry deviation {worst_dev:.2e}",
    )


# -------------------------------------------------------------------- 4


def test_criterion_04_spectral_shift_law():
    """Eigenvalue shifts equal g*n1*t and g*n2*t to 1e-9 on 50 separated
    instances, including captured-count zero on the secondary side."""
    graph = build_graph("path:40")
    interaction = InteractionPotential(0.6, 0.8)
    seen_n2_zero = 0
    seen_n2_pos = 0
    all_hold = True
    built = 0
    idx = 0
    while built < 50:
        rng = CounterRng(substream(MASTER, 70_000 + idx))
        idx += 1
        if built % 5 == 4:
            # mixed cluster: one particle of the secondary ball sits inside
            # the capturing ball, so n2 > 0
            off = rng.randint(0, 4)
            ball_x = MultiBall(graph, (5 + off, 6 + off), 1)
            ball_y = MultiBall(graph, (5 + off, 30 + off), 1)
        else:
            n = (1, 2, 3)[built % 3]
            radius = rng.randint(0, 2)
            lo = tuple(rng.randint(0, 8) for _ in range(n))
            hi = tuple(rng.randint(30, 39) for _ in range(n))
            ball_x = MultiBall(graph, lo, radius)
            ball_y = MultiBall(graph, hi, radius)
        cert = weak_separation(ball_x, ball_y)
        if cert is None:
            continue
        g_amp = rng.uniform(-3.0, 3.0)
        t = rng.uniform(-1.0, 1.0)
        sample = sample_potential(DIST, graph, substream(MASTER, 71_000 + idx))
        *_, holds = spectral_shift_check(
            ball_x, ball_y, cert, t, g_amp, sample, BallOperators(graph, interaction)
        )
        all_hold &= holds
        seen_n2_zero += int(cert.n2 == 0)
        seen_n2_pos += int(cert.n2 > 0)
        built += 1
    _verdict(
        4,
        "spectral-shift law exact to 1e-9 on 50 separated instances",
        all_hold and seen_n2_zero > 0 and seen_n2_pos > 0,
        f"{seen_n2_zero} with n2=0, {seen_n2_pos} with n2>0",
    )


# -------------------------------------------------------------------- 5


def _config_grid(n_vertices: int, n: int) -> np.ndarray:
    ranges = [np.arange(n_vertices)] * n
    return np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)


def _diameters(graph, configs: np.ndarray) -> np.ndarray:
    n = configs.shape[1]
    diam = np.zeros(len(configs), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            diam = np.maximum(diam, graph.dist[configs[:, i], configs[:, j]])
    return diam


def _support_masks(graph, configs: np.ndarray, radius: int) -> np.ndarray:
    vertex_masks = np.asarray(
        [vertex_ball_mask(graph, v, radius) for v in range(graph.n_vertices)],
        dtype=np.uint64,
    )
    out = np.zeros(len(configs), dtype=np.uint64)
    for j in range(configs.shape[1]):
        out |= vertex_masks[configs[:, j]]
    return out


def _check_wi_splits(graph, n: int, radii) -> int:
    configs = _config_grid(graph.n_vertices, n)
    checked = 0
    for radius in radii:
        diam = _diameters(graph, configs)
        for row in configs[diam > 3 * n * radius]:
            ball = MultiBall(graph, tuple(int(v) for v in row), radius)
            kind, split = classify_interactivity(ball)
            assert kind == "WI" and split.separation > radius
            checked += 1
    return checked


def _check_weak_separation(graph, n: int, radius: int) -> int:
    configs = [tuple(int(v) for v in row) for row in _config_grid(graph.n_vertices, n)]
    arr = np.asarray(configs)
    need = 3 * n * radius
    perms = list(itertools.permutations(range(n)))
    checked = 0
    for x in configs:
        # rho_S from x to every configuration, vectorized over permutations
        best = None
        for perm in perms:
            d = np.zeros(len(arr), dtype=np.int64)
            for j, pj in enumerate(perm):
                d = np.maximum(d, graph.dist[x[j], arr[:, pj]])
            best = d if best is None else np.minimum(best, d)
        for row in arr[best >= need]:
            y = tuple(int(v) for v in row)
            cert = weak_separation(MultiBall(graph, x, radius), MultiBall(graph, y, radius))
            assert cert is not None, (x, y)
            checked += 1
    return checked


def _check_si_disjointness(graph, n: int, radius: int) -> int:
    configs = _config_grid(graph.n_vertices, n)
    diam = _diameters(graph, configs)
    si = configs[diam <= 3 * n * radius]
    masks = _support_masks(graph, si, radius)
    threshold = 8 * n * radius
    checked = 0
    for i in range(len(si)):
        rho_row = np.zeros(len(si), dtype=np.int64)
        for j in range(n):
            rho_row = np.maximum(rho_row, graph.dist[si[i, j], si[:, j]])
        far = rho_row > threshold
        checked += int(far.sum())
        overlap = (masks[far] & masks[i]) != 0
        assert not overlap.any(), (si[i], si[far][overlap][:1])
    return checked


def test_criterion_05_geometry_exhaustive():
    """The three geometry guarantees, exhaustively at small N."""
    wi_checked = 0
    wi_checked += _check_wi_splits(build_graph("path:60"), 2, (1, 2, 3))
    wi_checked += _check_wi_splits(build_graph("cycle:30"), 2, (1, 2))
    wi_checked += _check_wi_splits(build_graph("grid:7x8"), 2, (1, 2))
    wi_checked += _check_wi_splits(build_graph("path:30"), 3, (1,))

    ws_checked = 0
    ws_checked += _check_weak_separation(build_graph("path:14"), 2, 1)
    ws_checked += _check_weak_separation(build_graph("grid:4x4"), 2, 1)
    ws_checked += _check_weak_separation(build_graph("path:12"), 3, 1)

    si_checked = 0
    si_checked += _check_si_disjointness(build_graph("path:40"), 2, 1)
    si_checked += _check_si_disjointness(build_graph("path:40"), 2, 2)
    si_checked += _check_si_disjointness(build_graph("path:30"), 3, 1)

    _verdict(
        5,
        "WI splits, weak-separation certificates and SI disjointness, zero counterexamples",
        wi_checked > 10_000 and ws_checked > 1_000 and si_checked > 1_000,
        f"{wi_checked} WI balls, {ws_checked} distant pairs, {si_checked} SI pairs",
    )


# -------------------------------------------------------------------- 6


def test_criterion_06_interval_covers():
    """Cover count < 3 * ball size, nothing above the level escapes a 1e5-point
    scan, and H -> H + tI shifts every endpoint by exactly t (to 1e-10)."""
    count_ok = True
    scan_ok = True
    shift_ok = True
    instances = 0
    t_shift = 0.31
    for idx in range(100):
        rng = CounterRng(substream(MASTER, 90_000 + idx))
        if idx % 3 == 2:
            graph = build_graph("path:9")
            ball = MultiBall(graph, (4, 4 if idx % 2 else 6), 2)
            n = 2
        else:
            graph = build_graph(f"path:{11 + idx % 5}")
            ball = MultiBall(graph, ((11 + idx % 5) // 2,), 3 + idx % 3)
            n = 1
        cert = certify_growth(graph, 1.0, 10)
        g_amp = rng.uniform(0.5, 3.0)
        sample = sample_potential(DIST, graph, substream(MASTER, 91_000 + idx))
        op = VolumeOperator.from_ball(ball, ZERO_INTERACTION)
        spec = eigendecompose(op, g_amp, sample)
        window = spectral_window(graph, n, g_amp, DIST.sup_abs, ZERO_INTERACTION)
        level = 10.0 ** rng.uniform(-4, 0.5)
        cover = sublevel_cover(spec, cert, level, window)
        count_ok &= cover.count < 3 * len(spec.volume)

        prof = boundary_profile(spec, cert)
        es = np.linspace(window[0], window[1], 100_001)
        vals = prof.evaluate(es, guard=1e-12)
        step = es[1] - es[0]
        scan_ok &= not ((vals >= level) & ~covered(cover, es, slack=step)).any()

        shifted = DenseOperator(op, op.hamiltonian(g_amp, sample) + t_shift * np.eye(len(op)))
        cover_t = sublevel_cover(
            eigendecompose(shifted, g_amp, None), cert, level,
            (window[0] + t_shift, window[1] + t_shift),
        )
        if cover_t.count != cover.count:
            shift_ok = False
        else:
            for (a, b), (at, bt) in zip(cover.intervals, cover_t.intervals):
                shift_ok &= abs(at - (a + t_shift)) <= 1e-10
                shift_ok &= abs(bt - (b + t_shift)) <= 1e-10
        instances += 1
    _verdict(
        6,
        "interval covers: counts, 1e5-point scans, exact shift covariance",
        count_ok and scan_ok and shift_ok and instances == 100,
        f"{instances} instances",
    )


# -------------------------------------------------------------------- 7


def _synthetic_domination_cases():
    cases = []
    for idx in range(140):
        rng = CounterRng(substream(MASTER, 110_000 + idx))
        graph = build_graph("path:31") if idx % 2 else build_graph("cycle:25")
        center = (15,) if idx % 2 else (12,)
        radius = rng.randint(6, 10)
        ell = rng.randint(1, 3)
        if ell > radius:
            ell = radius
        q = rng.uniform(0.05, 0.9)
        scale = rng.uniform(0.1, 5.0)
        f = {}
        from mpmsa.configspace import rho as rho_metric

        for c in MultiBall(graph, center, radius + 1).members():
            f[c] = scale * q ** ((radius + 1 - rho_metric(graph, center, c)) / ell)
        ctx = DominationContext(
            graph=graph, center=center, radius=radius, ell=ell, q=q, f=f
        )
        cases.append((ctx, AnnulusCover(bounds=())))
    # capped-profile instances: the profile saturates from layer `lo` out to
    # the boundary, so every layer past lo - ell is singular, no regular layer
    # exists above them (jump conditions vacate there), and the annulus
    # shaves its width off the exponent.  The slope keeps a 5% margin so the
    # surviving jump conditions below the cap hold strictly.
    from mpmsa.configspace import rho as rho_metric
    from mpmsa.domination import regular_set

    for idx in range(40):
        rng = CounterRng(substream(MASTER, 115_000 + idx))
        graph = build_graph("path:41")
        center = (20,)
        radius = rng.randint(8, 10)
        ell = rng.randint(1, 3)
        q = rng.uniform(0.2, 0.6)
        lo = rng.randint(ell + 1, 5)
        slope = 1.05 / ell
        base = lambda r, q=q, radius=radius, slope=slope: q ** (slope * (radius + 1 - r))
        f = {}
        for c in MultiBall(graph, center, radius + 1).members():
            f[c] = min(base(rho_metric(graph, center, c)), base(lo))
        probe = DominationContext(
            graph=graph, center=center, radius=radius, ell=ell, q=q, f=f
        )
        singular = regular_set(probe).singular
        spans = sorted({rho_metric(graph, center, c) for c in singular})
        annuli = AnnulusCover(bounds=((spans[0], spans[-1]),) if spans else ())
        ctx = DominationContext(
            graph=graph, center=center, radius=radius, ell=ell, q=q, f=f,
            xi=frozenset(singular),
        )
        cases.append((ctx, annuli))
    return cases


def test_criterion_07_domination_suite():
    """The dominated-decay bound on >= 200 synthetic and GF-derived cases."""
    held = 0
    failed = 0
    for ctx, annuli in _synthetic_domination_cases():
        res = domination_bound(ctx, annuli)
        if res.holds:
            held += 1
        else:
            failed += 1

    params = ParameterSet(
        mode="subexp", n_star=1, d=1.0, zeta=1.0, kappa=0.3, beta=0.3, delta=0.5,
        m_star=1.0, nu_star=1.0, K=1, L0=2, B=4, alpha=1.5, tau=1.0, P_star=1.0,
    )
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)
    graph = build_graph("path:25")
    cert = certify_growth(graph, 1.0, 12)
    gf_cases = 0
    operators = BallOperators(graph, ZERO_INTERACTION)
    for idx in range(40):
        sample = sample_potential(DIST, graph, substream(MASTER, 120_000 + idx))
        ball = MultiBall(graph, (12,), 8)
        spectra = BallSpectra(operators, sample, 1e3)
        rng = CounterRng(substream(MASTER, 121_000 + idx))
        window = spectral_window(graph, 1, 1e3, DIST.sup_abs, ZERO_INTERACTION)
        energy = off_spectrum_energy((spectra.spectrum(ball),), window, rng, guard=1e-6)
        _, failures, bounds = gf_domination_check(
            spectra, ball, energy, 2, frozenset(), params, mass, cert, sched
        )
        if failures:
            continue
        # with Xi empty, a bound without precondition failures is a dominated map
        if any(res.precondition_failures for res in bounds.values()):
            continue
        for res in bounds.values():
            gf_cases += 1
            if res.holds:
                held += 1
            else:
                failed += 1
    _verdict(
        7,
        "dominated-decay bound holds on every qualifying case",
        failed == 0 and held >= 200 and gf_cases >= 20,
        f"{held} cases held ({gf_cases} Green-function derived), {failed} failed",
    )


# -------------------------------------------------------------------- 8


def test_criterion_08_two_volume_evc():
    """Small-s exponent of the two-volume spectral distance law at 1e4 trials."""
    start = time.perf_counter()
    graph = build_graph("path:40")
    ball_x = MultiBall(graph, (5, 9), 2)
    ball_y = MultiBall(graph, (25, 29), 2)
    interaction = InteractionPotential(1.0, 0.5)
    _, counts, theta_hat, _, _ = two_volume_evc(
        ball_x, ball_y, DIST, BallOperators(graph, interaction), 1.0,
        [1e-4, 2e-4, 5e-4, 1e-3, 2e-3], 10_000, MASTER,
    )
    elapsed = time.perf_counter() - start
    ok = (
        math.isfinite(theta_hat)
        and theta_hat >= 2.0 / 3.0 - 0.1
        and min(counts) >= 10
        and elapsed < 300.0
    )
    _verdict(
        8,
        "two-volume EVC small-s exponent >= 2/3 - 0.1",
        ok,
        f"theta_hat = {theta_hat:.3f}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- 9


def test_criterion_09_strong_disorder_decay():
    """Fitted EFC mass positive (CI excluding 0) at g = 50; flat at g = 0."""
    graph = build_graph("path:30")
    full = MultiBall(graph, (0, 0), 29)
    pairs = [((5, 7), (5 + r, 7 + r)) for r in (2, 4, 6, 8, 10, 12)]
    interaction = InteractionPotential(1.0, 0.5)
    _, _, masses, ci, _ = efc_decay_experiment(
        full, pairs, DIST, BallOperators(graph, interaction), [50.0], 0.5,
        seeds=200, seed=MASTER, n_batches=10,
    )
    mass, (ci_low, ci_high) = masses[0], ci[0]

    cyc = build_graph("cycle:17")
    cyc_full = MultiBall(cyc, (0, 0), 8)
    cyc_pairs = [((2, 4), (2 + r, 4 + r)) for r in (2, 3, 5, 6)]
    control = efc_decay_experiment(
        cyc_full, cyc_pairs, DIST, BallOperators(cyc, interaction), [0.0], 0.5,
        seeds=200, seed=MASTER, n_batches=10,
    )[2][0]
    ok = mass > 0 and ci_low > 0 and abs(control) < 0.05
    _verdict(
        9,
        "EFC decay mass > 0 with CI excluding 0 at g=50; |mass| < 0.05 at g=0",
        ok,
        f"M = {mass:.2f} CI [{ci_low:.2f}, {ci_high:.2f}], "
        f"control M = {control:.2e}",
    )


# -------------------------------------------------------------------- 10


def test_criterion_10_recursion_sanity():
    """Measured P_1 against the scale recursion for the pinned configuration
    (N=1, L_0=3, B=2, g=1e3, 2000 trials), within two-sided 95% intervals."""
    graph = build_graph("path:30")
    params = ParameterSet(
        mode="subexp", n_star=1, d=1.0, zeta=1.0, kappa=0.3, beta=0.3, delta=0.5,
        m_star=1.0, nu_star=1.0, K=1, L0=3, B=2, alpha=1.5, tau=1.0, P_star=1.0,
    )
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)
    cert = certify_growth(graph, 1.0, 12)
    window = spectral_window(graph, 1, 1e3, DIST.sup_abs, ZERO_INTERACTION)
    rows = scale_probabilities(
        BallOperators(graph, ZERO_INTERACTION), (14,), DIST, 1e3, params, mass, sched, cert,
        "fixed:500", window, trials=2000, seed=MASTER,
    )
    p0, p1 = rows[0].p, rows[1].p
    q1 = rows[1].q
    s1 = rows[1].s
    wide = recursion_bound(
        p0.ci_high, s1.ci_high if s1 else 0.0, q1.ci_high, params, cert, 1,
        rows[1].radius,
    )
    point = recursion_bound(
        p0.estimate, s1.estimate if s1 else 0.0, q1.estimate, params, cert, 1,
        rows[1].radius,
    )
    ok = (
        p1.ci_low <= wide
        and (s1 is None or s1.estimate == 0.0)
        and p0.estimate < 0.05  # strong-disorder initial-scale estimate
    )
    _verdict(
        10,
        "P_1 satisfies the recursion within two-sided 95% intervals",
        ok,
        f"P_0 = {p0.estimate:.4f}, P_1 = {p1.estimate:.4f}, "
        f"rhs = {point:.4f} (CI-widened {wide:.4f})",
    )


# -------------------------------------------------------------------- 11

_DETERMINISM_CONFIGS = {
    "gri": """\
[experiment]
kind = gri
trials = 4
seed = 3
out = {out}
[model]
graph = path:12
particles = 1
[run]
energies_per_instance = 2
""",
    "wegner": """\
[experiment]
kind = wegner
trials = 200
seed = 3
out = {out}
[model]
graph = path:9
particles = 1
g = 1.0
[params]
beta = 0.7
[run]
center = 4
radius = 4
energy = 2.0
g_grid = 0.5,1.0
""",
    "evc2": """\
[experiment]
kind = evc2
trials = 150
seed = 3
out = {out}
[model]
graph = path:40
particles = 2
interaction = u:C=1:zeta=0.5:rcut=inf
g = 1.0
[run]
radius = 2
center_x = 5,9
center_y = 25,29
s_grid = 0.001,0.01,0.1
""",
    "rcm": """\
[experiment]
kind = rcm
trials = 500
seed = 3
out = {out}
[model]
graph = path:5
[run]
q_sizes = 1,2
s_grid = 0.05,0.2
""",
    "shift": """\
[experiment]
kind = shift
trials = 5
seed = 3
out = {out}
[model]
graph = path:20
particles = 2
interaction = u:C=1:zeta=0.5:rcut=inf
g = 1.5
[run]
radius = 1
t = 0.5
""",
    "induction": """\
[experiment]
kind = induction
trials = 40
seed = 3
out = {out}
[model]
graph = path:30
particles = 1
g = 1000
[params]
mode = subexp
nstar = 1
l0 = 3
b = 2
[run]
center = 14
kmax = 1
energy_policy = fixed:500
allow_param_violations = true
""",
    "bridge": """\
[experiment]
kind = bridge
trials = 3
seed = 3
out = {out}
[model]
graph = path:30
particles = 1
g = 8.0
[params]
mode = subexp
nstar = 1
nustar = 20
l0 = 3
b = 2
[run]
radius = 6
center_x = 7
center_y = 22
kmax = 1
""",
    "efc": """\
[experiment]
kind = efc
trials = 10
seed = 3
out = {out}
[model]
graph = path:16
particles = 1
g = 20
[params]
kappa = 0.5
[run]
pairs = 3|5;3|7;3|9;3|11
g_grid = 0,20
batches = 5
""",
    "dominate": """\
[experiment]
kind = dominate
trials = 4
seed = 3
out = {out}
[model]
graph = path:20
particles = 1
g = 40
[params]
mode = subexp
nstar = 1
beta = 0.3
delta = 0.5
l0 = 3
b = 2
[run]
center = 9
radius = 6
ell = 2
kmax = 1
""",
}


def _run_cli(kind: str, cfg_path: Path, out_dir: Path, threads: int) -> dict:
    old = os.environ.get("MPMSA_THREADS")
    os.environ["MPMSA_THREADS"] = str(threads)
    try:
        code = cli_main([kind, "--config", str(cfg_path), "--out", str(out_dir)])
    finally:
        if old is None:
            os.environ.pop("MPMSA_THREADS", None)
        else:
            os.environ["MPMSA_THREADS"] = old
    assert code in (0, 1), f"{kind} exited {code}"
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def test_criterion_11_determinism(tmp_path):
    """Bitwise-identical CSVs across duplicate runs and MPMSA_THREADS in {1,4},
    exercised on the shipped example configs."""
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    mismatches = []
    for kind in _DETERMINISM_CONFIGS:
        cfg = config_dir / f"{kind}.cfg"
        runs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            runs.append(_run_cli(kind, cfg, tmp_path / f"{kind}-{tag}", threads))
        if not (runs[0] == runs[1] == runs[2]):
            mismatches.append(kind)
        if not runs[0]:
            mismatches.append(f"{kind}: no CSV produced")
    _verdict(
        11,
        "every seeded experiment reproduces bitwise-identical CSVs",
        not mismatches,
        f"{len(_DETERMINISM_CONFIGS)} experiments" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
