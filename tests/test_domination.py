import collections
import math

import numpy as np
import pytest

from mpmsa.configspace import MultiBall
from mpmsa.disorder import sample_potential, uniform_distribution
from mpmsa.domination import distance_arrays, domination_bound, gf_domination_check, green_magnitude_maps
from mpmsa.errors import ContractViolation
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.msa import MassSchedule, ParameterSet, scales
from mpmsa.spectral import BallOperators, BallSpectra

from helpers import (
    ZERO_INTERACTION,
    AnnulusCover,
    DominationContext,
    inner_boundary,
    is_dominated,
    radius_function,
    regular_set,
    rho,
)
from helpers import domination_bound as lemma_bound

DIST = uniform_distribution(0, 1)


def _ctx(graph, center, radius, ell, q, f, xi=frozenset()):
    return DominationContext(
        graph=graph, center=center, radius=radius, ell=ell, q=q, f=f, xi=xi
    )


def _radial(graph, center, radius, fn):
    return {c: fn(rho(graph, center, c)) for c in MultiBall(graph, center, radius).members()}


def _radial_array(domain, radius, ell, fn):
    """fn(rho(u, x)) over the domain, in members() order."""
    layers = np.asarray([fn(r) for r in range(domain.radius + 1)])
    return layers[distance_arrays(domain, radius, ell).to_center]


def test_constant_function_all_singular():
    g = build_graph("path:21")
    f = _radial(g, (10,), 9, lambda r: 0.7)
    part = regular_set(_ctx(g, (10,), 8, 2, 0.5, f))
    assert not part.regular
    assert not any(part.layer_regular)


def test_geometric_profile_regular():
    g = build_graph("path:21")
    q = 0.4
    f = _radial(g, (10,), 9, lambda r: q**r)  # decays away from the center
    # inward-decaying oracle案: regularity needs growth toward the boundary,
    # so reflect: f(r) = q^(L+1-r)
    f = _radial(g, (10,), 9, lambda r: q ** (9 - r))
    part = regular_set(_ctx(g, (10,), 8, 2, q, f))
    assert all(part.layer_regular)


def test_planted_spike_breaks_exactly_one_layer():
    g = build_graph("path:31")
    q = 0.5
    center = (15,)
    radius, ell = 10, 2
    f = _radial(g, center, radius + 1, lambda r: q ** (radius + 1 - r))
    spike = (15 + 4,)
    f[spike] = f[spike] / q**3  # beat the q * sup test at rho = 4 only
    part = regular_set(_ctx(g, center, radius, ell, q, f))
    bad_layers = [r for r, ok in enumerate(part.layer_regular) if not ok]
    assert bad_layers == [4]
    assert spike in part.singular


def test_radius_function_examples():
    g = build_graph("path:21")
    q = 0.4
    center = (10,)
    f = _radial(g, center, 9, lambda r: q ** (9 - r))
    ctx = _ctx(g, center, 8, 2, q, f)
    part = regular_set(ctx)
    assert radius_function(ctx, (10,), part) == 0 + 2
    assert radius_function(ctx, (12,), part) == 2 + 2

    flat = _radial(g, center, 9, lambda r: 1.0)
    ctx_flat = _ctx(g, center, 8, 2, 0.5, flat)
    assert math.isinf(radius_function(ctx_flat, (10,)))


def test_radius_function_skips_singular_annulus():
    g = build_graph("path:31")
    q = 0.5
    center = (15,)
    radius, ell = 10, 2
    base = lambda r: q ** (radius + 1 - r)
    # plateau over layers 3..6: its bottom layer cannot see past it within
    # ell+1 steps, so that layer fails the q * sup test
    f = _radial(g, center, radius + 1, lambda r: base(6) if 3 <= r <= 6 else base(r))
    xi = frozenset(c for c in MultiBall(g, center, radius - ell).members()
                   if 3 <= rho(g, center, c) <= 6)
    ctx = _ctx(g, center, radius, ell, q, f, xi=xi)
    part = regular_set(ctx)
    assert part.layer_regular[2]
    assert not part.layer_regular[3]
    first_regular_above = next(r for r in range(3, radius - ell + 1) if part.layer_regular[r])
    assert first_regular_above > 3
    # a query on the singular layer jumps past it to the next regular layer
    assert radius_function(ctx, (18,), part) == first_regular_above + ell


def test_domination_bound_synthetic():
    g = build_graph("path:31")
    center = (15,)
    radius, ell = 10, 2
    domain = MultiBall(g, center, radius + 1)
    for q in (0.2, 0.5, 0.8):
        f = _radial_array(domain, radius, ell, lambda r: q ** ((radius + 1 - r) / ell))
        res = domination_bound(domain, radius, ell, q, f)
        assert res.precondition_failures == ()
        assert res.holds
        assert res.W == pytest.approx((radius + 1) / (ell + 1))


def test_domination_bound_near_one_degenerates():
    g = build_graph("path:31")
    center = (15,)
    radius, ell = 8, 2
    q = 0.999
    domain = MultiBall(g, center, radius + 1)
    f = _radial_array(domain, radius, ell, lambda r: q ** ((radius + 1 - r) / ell))
    res = domination_bound(domain, radius, ell, q, f)
    assert res.holds
    assert res.bound == pytest.approx(res.sup_enclosing, rel=0.01)


def test_domination_bound_rejects_bad_input():
    g = build_graph("path:21")
    domain = MultiBall(g, (10,), 6)
    f = np.ones(domain.size())
    for args in ((6, 2, 1.0, f), (6, 7, 0.5, f), (7, 2, 0.5, f), (6, 2, 0.5, f[1:]),
                 (6, 2, 0.5, -f), (6, 2, 0.5, f * np.inf)):
        with pytest.raises(ContractViolation):
            domination_bound(domain, *args)


def test_singular_point_fails_the_bound():
    # a constant function is singular everywhere: no bound is claimed
    g = build_graph("path:21")
    domain = MultiBall(g, (10,), 9)
    res = domination_bound(domain, 8, 2, 0.5, np.full(domain.size(), 0.7))
    assert not res.holds and "singular points" in res.precondition_failures[0]


def test_domination_bound_with_full_width_annulus():
    g = build_graph("path:41")
    center = (20,)
    radius, ell = 10, 2
    q = 0.45
    plateau_lo, plateau_hi = 3, 10  # width 8 = L - ell exactly
    base = lambda r: q ** ((radius + 1 - r) / ell)

    def profile(r):
        return base(plateau_hi) if plateau_lo <= r <= plateau_hi else base(r)

    f = _radial(g, center, radius + 1, profile)
    xi = frozenset(
        c for c in MultiBall(g, center, radius - ell).members()
        if plateau_lo <= rho(g, center, c) <= plateau_hi
    )
    ctx = _ctx(g, center, radius, ell, q, f, xi=xi)
    annuli = AnnulusCover(bounds=((plateau_lo, plateau_hi),))
    assert annuli.width == radius - ell
    res = lemma_bound(ctx, annuli)
    assert res.W == pytest.approx((radius + 1 - (radius - ell)) / (ell + 1))
    assert res.holds


def test_constant_function_vacuously_dominated_inside_xi():
    g = build_graph("path:21")
    f = _radial(g, (10,), 9, lambda r: 0.7)
    xi = frozenset(MultiBall(g, (10,), 6).members())
    ctx = _ctx(g, (10,), 8, 2, 0.5, f, xi=xi)
    ok, failures = is_dominated(ctx)
    assert ok and failures == []  # no regular layer exists, so no jump bound applies


def test_stray_singular_point_reported():
    g = build_graph("path:21")
    f = _radial(g, (10,), 9, lambda r: 0.7)
    ok, failures = is_dominated(_ctx(g, (10,), 8, 2, 0.5, f))
    assert not ok and "singular points outside Xi" in failures[0]


def _gf_setup(seed, g_amp=1e3):
    g = build_graph("path:25")
    cert = certify_growth(g, 1.0, 12)
    params = ParameterSet(
        mode="subexp", n_star=1, d=1.0, zeta=1.0, kappa=0.3, beta=0.3, delta=0.5,
        m_star=1.0, nu_star=1.0, K=1, L0=2, B=4, alpha=1.5, tau=1.0, P_star=1.0,
    )
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)  # (2, 8)
    smp = sample_potential(DIST, g, seed)
    ball = MultiBall(g, (12,), 8)
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, g_amp)
    return g, cert, params, mass, sched, smp, ball, spectra


def test_gf_domination_rejects_small_ell():
    g, cert, params, mass, sched, smp, ball, spectra = _gf_setup(1)
    _, failures, _ = gf_domination_check(spectra, ball, 500.0, 0, params, mass, cert, sched)
    assert "m * ell^delta > 2 L^beta" in failures


def test_gf_domination_strong_disorder():
    hits = 0
    for seed in range(12):
        g, cert, params, mass, sched, smp, ball, spectra = _gf_setup(3000 + seed)
        q, failures, bounds = gf_domination_check(
            spectra, ball, 500.25, 2, params, mass, cert, sched
        )
        if not failures:
            assert q == pytest.approx(
                math.exp(-(mass.m(1) - 2 * 2**-0.5 * 8**0.3) * 2**0.5)
            )
            # a bound without precondition failures is a dominated map
            assert not any(res.precondition_failures for res in bounds)
            hits += 1
    assert hits >= 3  # hypotheses hold on a healthy share of strong-disorder draws


def test_gf_check_bounds_each_verified_green_map():
    for seed in range(3000, 3012):
        g, cert, params, mass, sched, smp, ball, spectra = _gf_setup(seed)
        q, failures, bounds = gf_domination_check(
            spectra, ball, 500.25, 2, params, mass, cert, sched
        )
        if not failures:
            break
    else:
        pytest.fail("no strong-disorder draw met the hypotheses")
    maps = green_magnitude_maps(spectra, ball, 500.25)
    op = spectra.operators.operator(ball)
    inverse = np.linalg.inv(op.hamiltonian(spectra.g, spectra.sample) - 500.25 * np.eye(len(op)))
    members = ball.members()
    assert list(op.configs) == members
    boundary = inner_boundary(g, members)
    assert maps.shape == (len(members), len(boundary)) == (len(members), len(bounds))
    for k, y in enumerate(boundary):
        kept = maps[:, k]
        col = np.abs(inverse[:, op.position(y)])
        assert np.allclose(kept[kept > 0], col[kept > 0], rtol=1e-10, atol=0)
        assert (kept > 0).sum() >= 2
        assert bounds[k] == domination_bound(ball, 8, 2, q, kept)
        ctx = DominationContext(graph=g, center=(12,), radius=8, ell=2, q=q,
                                f=dict(zip(members, kept.tolist())))
        _assert_agrees(bounds[k], lemma_bound(ctx, AnnulusCover(bounds=())))


def test_q_below_one_iff_margin_positive():
    g, cert, params, mass, sched, smp, ball, spectra = _gf_setup(3)
    m = mass.m(1)
    ell, radius = 2, 8
    m_prime = m - 2 * float(ell) ** (-params.delta) * float(radius) ** params.beta
    assert (m_prime > 0) == (m * ell**params.delta > 2 * radius**params.beta)


def test_outward_decaying_profile_regular_away_from_center():
    # f = q0^rho with q0 <= q: every point at rho >= 1 sees the larger value
    # one step inward, so only the center itself can be singular
    g = build_graph("path:21")
    q, q0 = 0.5, 0.4
    f = _radial(g, (10,), 9, lambda r: q0**r)
    part = regular_set(_ctx(g, (10,), 8, 2, q, f))
    assert (10,) in part.singular
    assert part.singular == frozenset({(10,)})
    assert all(part.layer_regular[1:])


def _assert_agrees(got, want):
    """The package's Xi-free bound against the lemma with Xi empty and no
    annuli: every number float for float, and the same verdict."""
    assert (got.W, got.bound, got.f_center, got.sup_enclosing) == (
        want.W, want.bound, want.f_center, want.sup_enclosing)
    assert got.holds is want.holds
    assert bool(got.precondition_failures) == bool(want.precondition_failures)


def _two_particle_profile(rng, domain, radius, ell, q):
    """A profile over the domain in members() order: a radial ramp (geometric;
    tight, where each layer is q times the layer ell further out; or q**W at
    the center, q over the rest of B(u, L - ell) and 1 outside), each tight
    value off by a factor of 1, 1 + 5e-13 or 1 + 3e-12 against the 1e-12
    slack; or random values; then some exact zeros, a zeroed patch or
    singular spikes."""
    to_center = distance_arrays(domain, radius, ell).to_center
    kind = rng.integers(4)
    factor = (1.0, 1.0 + 5e-13, 1.0 + 3e-12)[rng.integers(3)]
    layers = [1.0] * (domain.radius + 1)
    if kind == 0:
        slope = rng.uniform(0.6, 1.6) / max(ell, 1)
        layers = [q ** (slope * (radius + 1 - r)) for r in range(domain.radius + 1)]
    elif kind == 1:
        for r in range(radius, -1, -1):
            layers[r] = q * layers[min(r + max(ell, 1), domain.radius)] * factor
    elif kind == 2:
        layers = [q ** ((radius + 1) / (ell + 1)) * factor] + [q] * (radius - ell) + layers[radius - ell + 1:]
    else:
        layers = None
    f = rng.uniform(0.5, 2.0) * (
        np.asarray(layers)[to_center] if layers is not None else rng.exponential(size=to_center.size))
    touch = rng.integers(6)
    if touch == 1:
        f[rng.random(f.size) < 0.15] = 0.0
    elif touch == 2:
        sites = np.asarray(domain.members())
        z = sites[rng.integers(len(sites))]
        f[domain.graph.dist[z, sites].max(axis=1) <= rng.integers(2)] = 0.0
    elif touch == 3:
        spikes = rng.integers(f.size, size=rng.integers(1, 4))
        f[spikes] /= q ** rng.integers(1, 4)
    return f


def test_two_particle_bound_matches_the_lemma():
    """Two particles on grid, tree and cycle graphs, domains of radius L and
    L + 1, profiles with singular points and exact zeros: the package's bound
    equals the lemma's with Xi empty and no annuli, and it counts the lemma's
    singular points."""
    rng = np.random.default_rng(26)
    graphs = {spec: build_graph(spec) for spec in ("grid:4x3", "tree:2x3", "cycle:9")}
    centers = {"grid:4x3": ((5, 6), (0, 11), (4, 4)), "tree:2x3": ((1, 2), (0, 3), (5, 5)),
               "cycle:9": ((0, 4), (2, 2), (8, 1))}
    outcomes = collections.Counter()
    for _ in range(600):
        spec = ("grid:4x3", "tree:2x3", "cycle:9")[rng.integers(3)]
        graph = graphs[spec]
        center = centers[spec][rng.integers(3)]
        radius = int(rng.integers(1, 4))
        ell = int(rng.integers(0, min(radius, 2) + 1))
        q = float(rng.uniform(0.1, 0.9))
        domain = MultiBall(graph, center, radius + int(rng.integers(2)))
        f = _two_particle_profile(rng, domain, radius, ell, q)
        got = domination_bound(domain, radius, ell, q, f)
        ctx = DominationContext(graph=graph, center=center, radius=radius, ell=ell, q=q,
                                f=dict(zip(domain.members(), f.tolist())))
        _assert_agrees(got, lemma_bound(ctx, AnnulusCover(bounds=())))
        singular = got.precondition_failures[0] if got.precondition_failures else ""
        assert len(regular_set(ctx).singular) == (int(singular.split()[0]) if "singular" in singular else 0)
        outcomes[got.holds, got.f_center <= got.bound] += 1
    # both verdicts are common, and the 1e-12 slack decides some
    assert min(outcomes[True, True], outcomes[False, False]) >= 100 and outcomes[True, False] >= 3, outcomes
