import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from mpmsa.configspace import MultiBall, rho_s
from mpmsa.disorder import sample_potential, uniform_distribution
from mpmsa.errors import ConfigurationError, ContractViolation
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.msa import (
    MassSchedule,
    ParameterSet,
    classify,
    ns_threshold,
    resonant,
    scales,
    validate,
)
from mpmsa.spectral import BallOperators, BallSpectra, dist_to_spectrum, ns_flags

from helpers import (
    ZERO_INTERACTION,
    CanonicalSplit,
    assemble_ball,
    classify_interactivity,
    decouple,
    laplacian,
)

DIST = uniform_distribution(0, 1)


def _params(**overrides) -> ParameterSet:
    base = dict(
        mode="subexp", n_star=1, d=1.0, zeta=1.0, kappa=0.3, beta=0.3, delta=0.5,
        m_star=1.0, nu_star=1.0, K=1, L0=3, B=2, alpha=1.5, tau=1.0, P_star=10.0,
    )
    base.update(overrides)
    return ParameterSet(**base)


def test_validate_b_too_small():
    violations = validate(_params(n_star=2, K=1, B=2, L0=1000))
    assert any("24" in v for v in violations)


def test_validate_delta_range():
    violations = validate(_params(delta=1.2))
    assert any("delta" in v for v in violations)


def test_validate_accepts_consistent_arithmetic():
    params = _params(
        n_star=2, K=1, B=48, L0=10**9, beta=0.05, delta=0.35, zeta=0.5, kappa=0.03,
        m_star=1.0, nu_star=1.0,
    )
    # beta + ln(384)/ln(1e9) ~ 0.337 < 0.35 < 1 - ln12/ln48 ~ 0.358
    assert validate(params) == []


def test_validate_exp_mode():
    good = _params(
        mode="exp", n_star=2, d=1.0, zeta=0.5, beta=0.4, delta=0.5, tau=2.1,
        alpha=2.15, P_star=20.0, L0=10**6,
    )
    assert validate(good) == []
    bad = validate(_params(mode="exp", zeta=0.5, beta=0.4, tau=1.0, alpha=1.2, L0=10**6))
    assert any("alpha" in v for v in bad)


def test_scales_geometric():
    sched = scales(_params(L0=3, B=2), kmax=3)
    assert sched.levels == (3, 6, 12, 24)


def test_scales_power():
    sched = scales(_params(mode="exp", L0=3, alpha=1.5, beta=0.4, tau=1.4), kmax=3)
    assert sched.levels == (3, 5, 11, 36)


def test_scales_non_increasing_rejected():
    with pytest.raises(ConfigurationError):
        scales(_params(mode="exp", L0=2, alpha=1.01), kmax=2)


def test_scales_truncation_flag():
    sched = scales(_params(L0=3, B=2), kmax=4, lmax=13)
    assert sched.levels == (3, 6, 12) and sched.truncated


def test_mass_schedule_identities():
    params = _params(n_star=4, L0=5, beta=0.3, delta=0.6, kappa=0.25, B=3)
    mass = MassSchedule(params)
    factor = 1.0 + 4.0 * 5 ** (0.3 - 0.6)
    for n in range(1, 4):
        assert mass.m(n) == pytest.approx(factor * mass.m(n + 1), rel=1e-14)
        assert mass.nu(n) == pytest.approx(2.0 * 3**0.25 * mass.nu(n + 1), rel=1e-14)
        assert mass.m(n) > mass.m(n + 1) >= params.m_star
        assert mass.nu(n) > mass.nu(n + 1)
        assert mass.p_exponent(n) > mass.p_exponent(n + 1)
    assert MassSchedule.gamma(2.0, 16) == pytest.approx(2.0 * (1 + 16 ** (-0.125)))


def _setup_ball(graph_spec="path:20", center=(9,), radius=4, seed=3):
    g = build_graph(graph_spec)
    cert = certify_growth(g, 1.0, max(1, int(g.dist.max())))
    smp = sample_potential(DIST, g, seed)
    return g, cert, smp, MultiBall(g, center, radius)


def test_classify_nonresonant_far_energy():
    g, cert, smp, ball = _setup_ball()
    params = _params()
    mass = MassSchedule(params)
    lam = np.linalg.eigvalsh(assemble_ball(ball, 1.0, smp, ZERO_INTERACTION))
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    res, *_ = classify(ball, [lam.max() + 10.0], params, mass, spectra, cert)
    assert res.tolist() == [False]


def test_classify_resonant_exact_eigenvalue():
    g, cert, smp, ball = _setup_ball()
    params = _params()
    mass = MassSchedule(params)
    lam = np.linalg.eigvalsh(assemble_ball(ball, 1.0, smp, ZERO_INTERACTION))
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    res, ns, undetermined, _, _ = classify(ball, [float(lam[3])], params, mass, spectra, cert)
    assert res.tolist() == [True]
    assert ns.tolist() == [False]  # resolvent guard tripped
    assert undetermined.tolist() == [True]


def test_classify_strong_disorder_mostly_nonsingular():
    g, cert, _, ball = _setup_ball()
    params = _params()
    mass = MassSchedule(params)
    hits = 0
    trials = 200
    for i in range(trials):
        smp = sample_potential(DIST, g, 40_000 + i)
        spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1e4)
        _, ns, _, _, _ = classify(ball, [5000.0], params, mass, spectra, cert)
        hits += int(ns[0])
    assert hits / trials >= 0.9


def test_cnr_implies_nr_and_needs_schedule_index():
    g, cert, smp, _ = _setup_ball()
    params = _params(L0=2, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=2)
    ball = MultiBall(g, (9,), 4)  # radius = L_1
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1e4)
    res, _, _, cnr, _ = classify(ball, [5000.0], params, mass, spectra, cert, schedule=sched)
    if cnr[0]:
        assert not res[0]
    bad = MultiBall(g, (9,), 5)  # not an L_k
    cnr2 = classify(bad, [5000.0], params, mass, spectra, cert, schedule=sched)[3]
    assert cnr2 is None


def test_classify_energy_array_matches_single_energies():
    """One call over an energy array gives, flag for flag, what one call per
    energy gives: on an eigenvalue (resonant, NS undetermined, not CNR), far
    from the spectrum, and on an eigenvalue of an inner concentric ball that
    the radius-L_1 ball is not resonant with (CNR fails at the inner radius)."""
    g = build_graph("path:30")
    cert = certify_growth(g, 1.0, 15)
    params = _params(n_star=2, L0=2, B=2, beta=0.9)
    mass = MassSchedule(params)
    sched = scales(params, kmax=2)
    ball = MultiBall(g, (2, 27), 4)  # radius L_1 = 4, diam 25 > 24
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), sample_potential(DIST, g, 8), 1.0)
    lam = spectra.spectrum(ball).eigenvalues
    inner = np.concatenate([spectra.spectrum(ball.concentric(ell)).eigenvalues for ell in (2, 3)])
    inner = inner[~resonant(lam, inner, 4, params.beta)]
    assert inner.size
    energies = np.asarray([float(lam[5]), float(inner[0]), float(lam.max()) + 10.0])
    res, ns, undetermined, cnr, wi = classify(ball, energies, params, mass, spectra, cert, schedule=sched)
    assert res.tolist() == [True, False, False]
    assert undetermined.tolist() == [True, False, False] and not ns[0]
    assert cnr.tolist() == [False, False, True] and wi is True
    for i, e in enumerate(energies):
        one = classify(ball, e, params, mass, spectra, cert, schedule=sched)
        assert [a.tolist() for a in one[:4]] == [[a[i]] for a in (res, ns, undetermined, cnr)]
        assert one[4] is wi


@dataclass
class WiClassification:
    """FNR/PNS flags of a weakly interactive ball at one energy."""

    split: CanonicalSplit
    fnr: bool
    pns: bool
    weakly_interactive: bool = True
    witnesses: dict = field(default_factory=dict)


def classify_wi(ball, energy, params, mass, spectra, cert, schedule) -> WiClassification:
    """FNR/PNS for a weakly interactive ball via its reduced Hamiltonians.

    FNR: for every reduced eigenvalue lambda' of one factor, the other factor
    is (E - lambda', beta)-CNR; PNS replaces CNR by the Green-decay predicate
    with the companion factor's mass (the crossed-index convention).
    """
    kind, split = classify_interactivity(ball)
    if kind != "WI":
        raise ContractViolation("classify_wi needs a weakly interactive ball")
    k = schedule.index_of(ball.radius)
    if k is None or k < 1:
        raise ContractViolation("FNR needs radius equal to some L_k with k >= 1")
    # the reduced Hamiltonians of the decoupled form are the factor-ball Hamiltonians
    ball_p = MultiBall(ball.graph, tuple(ball.center[j - 1] for j in split.J), ball.radius)
    ball_s = MultiBall(ball.graph, tuple(ball.center[j - 1] for j in split.Jc), ball.radius)
    spec_p = spectra.spectrum(ball_p)
    spec_s = spectra.spectrum(ball_s)
    lo, hi = schedule.levels[k - 1], schedule.levels[k]
    witnesses = {}

    def all_cnr(factor_ball, energies, tag) -> bool:
        for ell in range(lo, hi + 1):
            lam = spectra.spectrum(factor_ball.concentric(ell)).eigenvalues
            bad = np.nonzero(resonant(lam, energies, ell, params.beta))[0]
            if bad.size:
                witnesses[f"{tag}:fnr_failed"] = {"radius": ell, "shift_index": int(bad[0])}
                return False
        return True

    def all_ns(factor_ball, spec, energies, m_val, tag) -> bool:
        thr = ns_threshold(params, m_val, factor_ball.radius)
        ns, _ = ns_flags(spec, cert, energies, thr)  # undetermined fails
        bad = np.nonzero(~ns)[0]
        if bad.size:
            witnesses[f"{tag}:pns_failed_shift_index"] = int(bad[0])
        return not bad.size

    shifts_from_p = energy - spec_p.eigenvalues  # test second factor at E - lambda'
    shifts_from_s = energy - spec_s.eigenvalues
    fnr = all_cnr(ball_s, shifts_from_p, "second") & all_cnr(ball_p, shifts_from_s, "prime")
    n_p, n_s = len(split.J), len(split.Jc)
    pns = all_ns(ball_s, spec_s, shifts_from_p, mass.m(n_p), "second") & all_ns(
        ball_p, spec_p, shifts_from_s, mass.m(n_s), "prime"
    )
    return WiClassification(split=split, fnr=fnr, pns=pns, witnesses=witnesses)


def test_classify_wi_fnr_far_energy():
    g = build_graph("path:40")
    cert = certify_growth(g, 1.0, 20)
    params = _params(n_star=2, L0=2, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=2)
    smp = sample_potential(DIST, g, 5)
    ball = MultiBall(g, (2, 33), 4)  # radius L_1 = 4, diam 31 > 24
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    flags = classify_wi(ball, 1e6, params, mass, spectra, cert, sched)
    assert flags.weakly_interactive and flags.fnr is True and flags.pns is True


def test_classify_wi_not_fnr_on_resonant_shift():
    g = build_graph("path:40")
    cert = certify_growth(g, 1.0, 20)
    params = _params(n_star=2, L0=2, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=2)
    smp = sample_potential(DIST, g, 6)
    ball = MultiBall(g, (2, 33), 4)
    _, split = classify_interactivity(ball)
    dec = decouple(ball, split, 1.0, smp, ZERO_INTERACTION)
    lam_prime = np.linalg.eigvalsh(dec.h_prime)
    mu_second = np.linalg.eigvalsh(dec.h_second)
    energy = float(lam_prime[0] + mu_second[0])  # E - lambda' hits Sigma'' exactly
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    flags = classify_wi(ball, energy, params, mass, spectra, cert, sched)
    assert flags.fnr is False


def test_classify_wi_rejects_radius_zero():
    g = build_graph("path:40")
    cert = certify_growth(g, 1.0, 20)
    params = _params(n_star=2, L0=2, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=2)
    smp = sample_potential(DIST, g, 7)
    ball = MultiBall(g, (0, 30), 0)
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    with pytest.raises(ContractViolation):
        classify_wi(ball, 1.0, params, mass, spectra, cert, sched)


def _pairwise_distant_subset(graph, centers: list, threshold: int, want: int) -> list | None:
    """A subset of `want` centers with pairwise rho_S >= threshold, or None.

    Exhaustive over <= 12 candidates, greedy farthest-point packing beyond
    (the counting argument only needs existence, not maximality).
    """
    m = len(centers)
    if m < want:
        return None
    dist = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = rho_s(graph, centers[i], centers[j])
    if m <= 12:
        for combo in itertools.combinations(range(m), want):
            if all(dist[a, b] >= threshold for a, b in itertools.combinations(combo, 2)):
                return [centers[i] for i in combo]
        return None
    chosen = [0]
    for cand in range(1, m):
        if all(dist[cand, c] >= threshold for c in chosen):
            chosen.append(cand)
            if len(chosen) == want:
                return [centers[i] for i in chosen]
    return None


@dataclass(frozen=True)
class GoodBallReport:
    good: bool
    cnr: bool
    singular_centers: tuple
    forbidden_collection: tuple | None


def is_good(ball, energy, params, mass, spectra, cert, schedule) -> GoodBallReport:
    """Good ball at L_{k+1}: CNR and no K+1 pairwise-distant singular sub-balls.

    Sub-ball centers range over rho(center, v) <= L_{k+1} - L_k; the distance
    rule is 8*N*L_k (subexp) or L_k**tau with the two-ball count (exp).
    """
    k1 = schedule.index_of(ball.radius)
    if k1 is None or k1 < 1:
        raise ContractViolation("good-ball predicate needs radius = L_{k+1}, k+1 >= 1")
    l_small = schedule.levels[k1 - 1]
    n = ball.n_particles
    if params.mode == "subexp":
        threshold, count_bound = 8 * n * l_small, params.K
    else:
        threshold, count_bound = int(math.floor(float(l_small) ** params.tau)), 1
    cnr_flag = bool(classify(ball, [energy], params, mass, spectra, cert, schedule=schedule)[3][0])
    singular = []
    thr = ns_threshold(params, mass.m(n), l_small)
    for v in MultiBall(ball.graph, ball.center, ball.radius - l_small).members():
        sub = MultiBall(ball.graph, v, l_small)
        ns, _ = ns_flags(spectra.spectrum(sub), cert, np.asarray([energy]), thr)
        if not ns[0]:
            singular.append(v)  # undetermined NS counts against goodness
    collection = _pairwise_distant_subset(ball.graph, singular, threshold, count_bound + 1)
    return GoodBallReport(
        good=cnr_flag and collection is None,
        cnr=cnr_flag,
        singular_centers=tuple(singular),
        forbidden_collection=tuple(collection) if collection else None,
    )


def _good_setup():
    g = build_graph("path:60")
    cert = certify_growth(g, 1.0, 30)
    params = _params(L0=2, B=12, K=1)
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)  # levels (2, 24)
    ball = MultiBall(g, (30,), 24)
    return g, cert, params, mass, sched, ball


def test_good_ball_strong_disorder():
    g, cert, params, mass, sched, ball = _good_setup()
    smp = sample_potential(DIST, g, 97)
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1e4)
    rep = is_good(ball, 5000.25, params, mass, spectra, cert, sched)
    assert rep.cnr and rep.good and rep.forbidden_collection is None


def test_good_ball_planted_counterexample():
    from mpmsa.hamiltonian import VolumeOperator

    g, cert, params, mass, sched, ball = _good_setup()
    smp = sample_potential(DIST, g, 98)
    energy = 5.0
    # local potential surgery: plant a near-resonance of the radius-2 sub-ball
    # at two centers 20 >= 8*N*L_0 = 16 apart
    for v_center in (12, 32):
        sub = MultiBall(g, (v_center,), 2)
        lam0 = float(np.linalg.eigvalsh(-laplacian(VolumeOperator.from_ball(sub, ZERO_INTERACTION)))[0])
        for u in g.ball(v_center, 2):
            smp[u] = (energy - lam0 + 1e-8) / 1.0
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.0)
    rep = is_good(ball, energy, params, mass, spectra, cert, sched)
    assert rep.forbidden_collection is not None
    assert not rep.good
    planted = {(12,), (32,)}
    assert planted <= set(rep.singular_centers)


def test_good_ball_requires_cnr():
    g, cert, params, mass, sched, ball = _good_setup()
    smp = sample_potential(DIST, g, 99)
    lam = np.linalg.eigvalsh(assemble_ball(ball, 1e4, smp, ZERO_INTERACTION))
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1e4)
    rep = is_good(ball, float(lam[5]), params, mass, spectra, cert, sched)
    assert not rep.cnr and not rep.good


def test_good_implies_ns_mechanism():
    # the scaling step: good + off-spectrum distance >= e^{-L^beta} lands NS
    g, cert, params, mass, sched, ball = _good_setup()
    counterexamples = []
    for i in range(30):
        smp = sample_potential(DIST, g, 7000 + i)
        energy = 5000.25
        spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1e4)
        rep = is_good(ball, energy, params, mass, spectra, cert, sched)
        _, ns, _, _, _ = classify(ball, [energy], params, mass, spectra, cert, schedule=sched)
        dist = dist_to_spectrum(spectra.spectrum(ball).eigenvalues, energy)
        if rep.good and dist >= math.exp(-float(ball.radius) ** params.beta):
            if not ns[0]:
                counterexamples.append(i)
    assert counterexamples == []
