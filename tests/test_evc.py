import numpy as np
import pytest

from mpmsa.configspace import MultiBall, weak_separation
from mpmsa.disorder import InteractionPotential, sample_potential, uniform_distribution
from mpmsa.errors import ContractViolation
from mpmsa.evc import (
    McEstimate,
    _empirical_modulus,
    rcm_modulus,
    spectral_distances,
    spectral_shift_check,
    two_volume_evc,
    wegner_estimate,
)
from mpmsa.graphs import build_graph
from mpmsa.hamiltonian import norm_bound
from mpmsa.induction import _worst_estimate
from mpmsa.msa import resonance_radius
from mpmsa.spectral import BallOperators

from helpers import ZERO_INTERACTION, assemble_ball

DIST = uniform_distribution(0, 1)


def test_wilson_interval_contains_estimate():
    est = McEstimate.from_counts(7, 100, seed=1)
    assert est.ci_low <= est.estimate <= est.ci_high
    zero = McEstimate.from_counts(0, 50, seed=1)
    assert zero.ci_low == 0.0 and zero.ci_high > 0.0


@pytest.mark.parametrize("n_energies", [2, 3, 41, 120])
def test_widened_wilson_interval_pins_the_ends(n_energies):
    # the Bonferroni-widened interval of induction._worst_estimate keeps the
    # end rule of from_counts: exactly 0 with no hits, exactly 1 with all hits
    for trials in range(1, 400):
        none = _worst_estimate(np.zeros((trials, n_energies), bool), trials, 1, n_energies)
        every = _worst_estimate(np.ones((trials, n_energies), bool), trials, 1, n_energies)
        assert none.ci_low == 0.0 and none.ci_high > 0.0
        assert every.ci_high == 1.0 and every.ci_low < 1.0


def test_wegner_deterministic_potential_far_energy():
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 4)
    flat = uniform_distribution(0.5, 0.5)
    est, _ = wegner_estimate(ball, flat, BallOperators(g, ZERO_INTERACTION), 1.0, 100.0, 0.3, 50, 3)
    assert est.estimate == 0.0


def test_wegner_g_zero_exact_eigenvalue():
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 4)
    smp = sample_potential(DIST, g, 0)
    lam = np.linalg.eigvalsh(assemble_ball(ball, 0.0, smp, ZERO_INTERACTION))
    est, fallbacks = wegner_estimate(ball, DIST, BallOperators(g, ZERO_INTERACTION), 0.0, float(lam[2]), 0.3, 50, 3)
    assert est.estimate == 1.0
    assert fallbacks == 0


def test_wegner_falls_back_to_eigvalsh_at_the_window_edge():
    # g = 0: every sample has the spectrum lam, and E + t lands on lam[2]
    # within rounding, so no sample's inertia counts are above round-off
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 4)
    lam = np.linalg.eigvalsh(assemble_ball(ball, 0.0, sample_potential(DIST, g, 0), ZERO_INTERACTION))
    energy = float(lam[2]) - resonance_radius(4, 0.3)
    est, fallbacks = wegner_estimate(ball, DIST, BallOperators(g, ZERO_INTERACTION), 0.0, energy, 0.3, 50, 3)
    assert fallbacks == 50
    assert est.estimate == 1.0  # lam[0] and lam[1] lie inside the window


def test_wegner_matches_higher_resolution_oracle():
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 4)
    operators = BallOperators(g, ZERO_INTERACTION)
    est, _ = wegner_estimate(ball, DIST, operators, 1.0, 2.0, 0.3, 10_000, 11)
    oracle, _ = wegner_estimate(ball, DIST, operators, 1.0, 2.0, 0.3, 100_000, 12)
    assert est.ci_low <= oracle.estimate <= est.ci_high


def wegner_g_sweep(ball, dist, interaction, g_grid, energy_of_g, beta, trials, seed):
    """Resonance estimates over a g-grid with common random numbers.

    energy_of_g maps g to the probed energy (resonance windows track the
    spectrum's scale, so a fixed absolute E would trivially empty out).
    """
    operators = BallOperators(ball.graph, interaction)
    out = []
    for g in g_grid:
        est, _ = wegner_estimate(ball, dist, operators, g, energy_of_g(g), beta, trials, seed)
        out.append((float(g), est))
    return out


def test_wegner_monotone_in_g_shared_seeds():
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 4)
    rows = wegner_g_sweep(
        ball, DIST, ZERO_INTERACTION, [0.5, 1.0, 2.0, 4.0], lambda gv: 2.0, 0.3, 2000, 9
    )
    estimates = [est.estimate for _, est in rows]
    assert estimates[0] > estimates[-1]
    for a, b in zip(estimates[:-1], estimates[1:]):
        assert b <= a + 0.02


def test_two_volume_edge_probabilities():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 2)
    ball_y = MultiBall(g, (25, 29), 2)
    u = InteractionPotential(1.0, 0.5)
    diam = 2 * norm_bound(g, 2, 1.0, DIST.sup_abs, u)
    _, counts, *_ = two_volume_evc(ball_x, ball_y, DIST, BallOperators(g, u), 1.0, [0.0, diam], 300, 21)
    probabilities = counts / 300
    assert probabilities[0] == 0.0  # continuous disorder, exact ties have measure 0
    assert probabilities[-1] == 1.0


def test_two_volume_requires_distant_balls():
    g = build_graph("path:40")
    with pytest.raises(ContractViolation):
        two_volume_evc(
            MultiBall(g, (5, 9), 2), MultiBall(g, (8, 12), 2), DIST,
            BallOperators(g, ZERO_INTERACTION), 1.0, [0.1], 10, 1,
        )


def test_two_volume_probability_monotone_in_s():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 2)
    ball_y = MultiBall(g, (25, 29), 2)
    _, counts, theta_hat, _, _ = two_volume_evc(
        ball_x, ball_y, DIST, BallOperators(g, ZERO_INTERACTION), 1.0,
        [1e-3, 3e-3, 1e-2, 3e-2, 1e-1], 800, 5,
    )
    probs = list(counts / 800)
    assert probs == sorted(probs)
    assert theta_hat > 0.3  # smooth density: near-linear small-s law


def test_spectral_distances_reproducible():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 2)
    ball_y = MultiBall(g, (25, 29), 2)
    a = spectral_distances(ball_x, ball_y, DIST, BallOperators(g, ZERO_INTERACTION), 1.0, 50, 7)
    b = spectral_distances(ball_x, ball_y, DIST, BallOperators(g, ZERO_INTERACTION), 1.0, 50, 7)
    assert np.array_equal(a, b)


def test_shift_zero_t():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 1)
    ball_y = MultiBall(g, (25, 29), 1)
    cert = weak_separation(ball_x, ball_y)
    smp = sample_potential(DIST, g, 2)
    *_, holds = spectral_shift_check(ball_x, ball_y, cert, 0.0, 1.0, smp, BallOperators(g, ZERO_INTERACTION))
    assert holds and 1.0 * cert.n1 * 0.0 == 0.0  # the rigid shift g n t is 0 at t = 0


def test_shift_two_particles_captured():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 2)
    ball_y = MultiBall(g, (25, 29), 2)
    cert = weak_separation(ball_x, ball_y)
    assert cert.n1 == 2 and cert.n2 == 0
    smp = sample_potential(DIST, g, 3)
    u = InteractionPotential(1.0, 0.5)
    *_, holds = spectral_shift_check(ball_x, ball_y, cert, 0.5, 1.0, smp, BallOperators(g, u))
    assert holds
    assert 1.0 * cert.n1 * 0.5 == pytest.approx(1.0)  # the rigid shift g n t
    assert 1.0 * cert.n2 * 0.5 == 0.0


def test_shift_single_particle_negative_g():
    g = build_graph("path:20")
    ball_x = MultiBall(g, (3,), 1)
    ball_y = MultiBall(g, (15,), 1)
    cert = weak_separation(ball_x, ball_y)
    assert cert.n1 == 1 and cert.n2 == 0
    smp = sample_potential(DIST, g, 4)
    *_, holds = spectral_shift_check(
        ball_x, ball_y, cert, 0.25, -2.0, smp, BallOperators(g, ZERO_INTERACTION)
    )
    assert holds
    assert -2.0 * cert.n1 * 0.25 == pytest.approx(-0.5)


def test_empirical_modulus_uniform_window():
    vals = np.sort(np.linspace(0, 1, 10_001))
    assert _empirical_modulus(vals, 0.25) == pytest.approx(0.25, abs=1e-3)
    assert _empirical_modulus(vals, 0.0) == 0.0


def test_rcm_single_vertex_matches_uniform_cdf():
    rows, _ = rcm_modulus(DIST, [1], [0.05, 0.2], 20_000, 5)
    for _, s, _, modulus_max, *_ in rows:
        # xi = V(x); sup_t [F(t+s) - F(t)] = p_upper * s exactly
        assert modulus_max == pytest.approx(DIST.p_upper * s, abs=0.01)


def test_rcm_two_vertices_triangular_oracle():
    # mean of two uniforms: density peaks at 2, increment 2s - s^2
    rows, _ = rcm_modulus(DIST, [2], [0.05, 0.1, 0.3], 40_000, 6, n_cells=1)
    for _, s, _, modulus_max, *_ in rows:
        oracle = 2 * s - s**2
        assert modulus_max == pytest.approx(oracle, abs=0.015)


def test_rcm_zero_s_row():
    rows, _ = rcm_modulus(DIST, [1], [0.0, 0.1], 500, 7)
    _, s, exceed_frequency, modulus_max, *_ = rows[0]
    assert s == 0.0 and modulus_max == 0.0 and exceed_frequency == 0.0


def test_rcm_constants_echoed():
    from mpmsa.disorder import truncated_gaussian

    tg = truncated_gaussian(0, 1, -2, 2)
    rows, constants = rcm_modulus(tg, [1, 2], [0.05], 2000, 8)
    assert constants["C_prime"] == 1.0
    assert constants["A_prime"] == 1.0
    assert constants["b_prime"] == pytest.approx(2 / 3)
    assert constants["C_second"] == pytest.approx((4 * tg.deriv_bound * tg.p_upper) ** 2)
    assert all(passes is not None for *_, passes in rows)
