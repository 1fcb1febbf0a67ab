import math

import numpy as np
import pytest

from mpmsa.configspace import MultiBall
from mpmsa.disorder import InteractionPotential, sample_potential, uniform_distribution
from mpmsa.errors import BudgetExceeded, ContractViolation, DataError
from mpmsa.experiments import random_gri_instance
from mpmsa.graphs import Graph, build_graph
from mpmsa.hamiltonian import VolumeOperator, norm_bound
from mpmsa.rng import CounterRng

from helpers import (
    ZERO_INTERACTION,
    CanonicalSplit,
    assemble,
    assemble_ball,
    classify_interactivity,
    decouple,
    interaction_value,
    laplacian,
)

DIST = uniform_distribution(0, 1)


def test_laplacian_middle_vertex():
    g = build_graph("path:3")
    op = VolumeOperator(g, [(1,)], ZERO_INTERACTION)
    assert (-laplacian(op)) == pytest.approx(np.array([[2.0]]))


def test_laplacian_row_sums_full_volume():
    g = build_graph("cycle:7")
    op = VolumeOperator(g, [(i,) for i in range(7)], ZERO_INTERACTION)
    rows = (-laplacian(op)).sum(axis=1)
    assert rows == pytest.approx(np.zeros(7))


def test_two_particle_laplacian_kronecker_oracle():
    g = build_graph("path:3")
    lap1 = laplacian(VolumeOperator(g, [(i,) for i in range(3)], ZERO_INTERACTION))
    lap2 = laplacian(VolumeOperator(g, [(a, b) for a in range(3) for b in range(3)], ZERO_INTERACTION))
    eye = np.eye(3)
    oracle = np.kron(lap1, eye) + np.kron(eye, lap1)
    assert np.abs(lap2 - oracle).max() == 0.0


def test_assemble_g_zero_no_interaction():
    g = build_graph("path:5")
    op = VolumeOperator(g, [(i,) for i in range(5)], ZERO_INTERACTION)
    smp = sample_potential(DIST, g, 3)
    assert np.array_equal(op.hamiltonian(0.0, smp), -laplacian(op))


def test_assemble_single_configuration_value():
    g = build_graph("path:3")
    smp = sample_potential(DIST, g, 9)
    u = InteractionPotential(0.7, 1.0)
    for gval in (0.0, 2.5, -1.0):
        h = assemble(g, [(1, 1)], gval, smp, u)
        expected = 4.0 + 2 * gval * smp.values[1] + interaction_value(u, 0)
        assert h == pytest.approx(np.array([[expected]]))


NESTED_BALLS = [
    ("path:8", (3, 4), 3), ("path:10", (2, 5, 7), 1),
    ("cycle:9", (4,), 3), ("cycle:7", (1, 5), 2),
    ("grid:3x4", (5,), 2), ("grid:3x3", (0, 4, 8), 1),
    ("tree:2x3", (0, 3), 2), ("tree:2x3", (1,), 3),
]


def test_assemble_symmetric_and_reproducible():
    """Every operator-built H is exactly symmetric, and equal samples give
    equal H: four graph families, N = 1-3."""
    u = InteractionPotential(1.0, 0.5)
    for spec, center, radius in [("grid:3x3", (4, 0), 1), *NESTED_BALLS]:
        g = build_graph(spec)
        ball = MultiBall(g, center, radius)
        h1 = assemble_ball(ball, 1.3, sample_potential(DIST, g, 21), u)
        h2 = assemble_ball(ball, 1.3, sample_potential(DIST, g, 21), u)
        assert np.array_equal(h1, h2), spec
        assert np.array_equal(h1, h1.T), spec


def test_asymmetric_edge_set_raises_at_construction():
    """A graph whose neighbour lists are not symmetric (vertex 2 lists 1,
    but 1 does not list 2) gives an asymmetric edge set."""
    path = build_graph("path:3")
    broken = Graph("broken", 3, path.edges, ((1,), (0,), (1,)), path.dist)
    with pytest.raises(DataError, match="not symmetric"):
        VolumeOperator(broken, [(0,), (1,), (2,)], ZERO_INTERACTION)
    with pytest.raises(DataError, match="not symmetric"):
        VolumeOperator.from_ball(MultiBall(broken, (1, 1), 1), ZERO_INTERACTION)
    VolumeOperator(broken, [(0,), (1,)], ZERO_INTERACTION)  # the edge 0-1 alone is symmetric


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_diagonal_raises(value):
    """H is finite exactly when its diagonal is: a non-finite potential value
    or an overflowing coupling raises DataError from hamiltonian and from
    inertia, which read the same diagonal."""
    from mpmsa.spectral import eigendecompose, inertia

    g = build_graph("path:6")
    op = VolumeOperator.from_ball(MultiBall(g, (2, 3), 2), InteractionPotential(1.0, 0.5))
    smp = sample_potential(DIST, g, 1)
    bad = smp._replace(values=smp.values.copy())
    bad.values[3] = value
    ones = smp._replace(values=np.ones_like(smp.values))
    for sample, coupling in ((bad, 1.0), (ones, 1e308), (smp._replace(values=smp.values * 1e308), 10.0)):
        with pytest.raises(DataError, match="non-finite"):
            op.hamiltonian(coupling, sample)
        with pytest.raises(DataError, match="non-finite"):
            inertia(op, coupling, sample, [0.0, 1.0])
        with pytest.raises(DataError, match="non-finite"):
            eigendecompose(op, coupling, sample)


def test_submatrix_consistency_nested_volumes():
    """H over a sub-volume W from W's own operator, as the GRI forms W, is
    bit for bit the slice of H over an enclosing ball V: random subsets of a
    ball and the W of GRI instances, on four graph families with N = 1-3."""
    u = InteractionPotential(0.4, 0.8)
    rng = np.random.default_rng(2)
    for spec, center, radius in NESTED_BALLS:
        g = build_graph(spec)
        smp = sample_potential(DIST, g, 4)
        big = MultiBall(g, center, radius)
        members = big.members()
        cases = []
        for _ in range(10):
            pick = rng.choice(len(members), size=rng.integers(2, min(12, len(members) + 1)), replace=False)
            cases.append((big, [members[i] for i in sorted(pick)]))
        for k in range(3):
            ball, sub, _, _ = random_gri_instance(g, len(center), CounterRng(k))
            cases.append((ball, sub))
        for ball, sub_cfgs in cases:
            op = VolumeOperator.from_ball(ball, u)
            idx = [op.position(c) for c in sub_cfgs]
            direct = assemble(g, sub_cfgs, 1.1, smp, u)
            assert np.array_equal(direct, op.hamiltonian(1.1, smp)[np.ix_(idx, idx)]), (spec, center)


def test_constant_potential_shift_moves_spectrum_rigidly():
    g = build_graph("path:6")
    ball = MultiBall(g, (2, 3), 2)
    smp = sample_potential(DIST, g, 8)
    u = InteractionPotential(0.5, 1.0)
    gval, t = 1.7, 0.37
    base = np.linalg.eigvalsh(assemble_ball(ball, gval, smp, u))
    shifted_sample = smp.shifted_on(range(g.n_vertices), t)
    shifted = np.linalg.eigvalsh(assemble_ball(ball, gval, shifted_sample, u))
    n = 2
    assert np.abs(shifted - (base + n * gval * t)).max() < 1e-10


def test_norm_bound_contains_spectrum():
    g = build_graph("grid:4x4")
    u = InteractionPotential(2.0, 0.5)
    for seed in range(5):
        smp = sample_potential(DIST, g, seed)
        ball = MultiBall(g, (5, 10), 2)
        lam = np.linalg.eigvalsh(assemble_ball(ball, 3.0, smp, u))
        bound = norm_bound(g, 2, 3.0, DIST.sup_abs, u)
        assert np.abs(lam).max() <= bound


def test_volume_budget_guard():
    g = build_graph("path:80")
    ball = MultiBall(g, (40, 40), 40)
    with pytest.raises(BudgetExceeded):
        assemble_ball(ball, 1.0, sample_potential(DIST, g, 0), ZERO_INTERACTION)


def test_decouple_exact_and_bounded():
    g = build_graph("path:30")
    smp = sample_potential(DIST, g, 13)
    u = InteractionPotential(1.0, 0.5)
    ball = MultiBall(g, (2, 22), 2)
    kind, split = classify_interactivity(ball)
    assert kind == "WI"
    dec = decouple(ball, split, 1.0, smp, u)
    h = assemble_ball(ball, 1.0, smp, u)
    perm = dec.permutation
    dev = np.abs(h[np.ix_(perm, perm)] - dec.reassembled()).max()
    assert dev <= 1e-12
    assert dec.coupling_norm <= dec.coupling_norm_bound
    assert dec.coupling_norm_bound == pytest.approx(
        u.c_u * 4 * math.exp(-(2.0**u.zeta))
    )


def test_decouple_zero_interaction_tensor_spectrum():
    g = build_graph("path:30")
    smp = sample_potential(DIST, g, 14)
    ball = MultiBall(g, (1, 25), 1)
    _, split = classify_interactivity(ball)
    dec = decouple(ball, split, 2.0, smp, ZERO_INTERACTION)
    assert np.abs(dec.coupling).max() == 0.0
    lam_p = np.linalg.eigvalsh(dec.h_prime)
    lam_s = np.linalg.eigvalsh(dec.h_second)
    sums = np.sort((lam_p[:, None] + lam_s[None, :]).ravel())
    full = np.linalg.eigvalsh(dec.reassembled())
    assert np.abs(full - sums).max() < 1e-10


def test_decouple_kron_eigenvalue_sum_oracle_2x2():
    # endpoint vertex balls give genuine 2x2 (x) 2x2 factors; the eigenvalues
    # of the non-interacting part are all four pairwise sums
    g = build_graph("path:40")
    smp = sample_potential(DIST, g, 15)
    ball = MultiBall(g, (0, 39), 1)
    kind, split = classify_interactivity(ball)
    assert kind == "WI"
    dec = decouple(ball, split, 1.0, smp, ZERO_INTERACTION)
    assert len(dec.h_prime) == 2 and len(dec.h_second) == 2
    lam_p = np.linalg.eigvalsh(dec.h_prime)
    lam_s = np.linalg.eigvalsh(dec.h_second)
    ni = dec.noninteracting_matrix()
    assert np.abs(
        np.sort(np.linalg.eigvalsh(ni)) - np.sort((lam_p[:, None] + lam_s[None, :]).ravel())
    ).max() < 1e-10


def test_decouple_rejects_trivial_split():
    g = build_graph("path:30")
    smp = sample_potential(DIST, g, 16)
    ball = MultiBall(g, (2, 22), 2)
    _, split = classify_interactivity(ball)
    with pytest.raises(ContractViolation):
        decouple(ball, CanonicalSplit(J=(1, 2), Jc=(), separation=99), 1.0, smp, ZERO_INTERACTION)


def test_decouple_bound_radius_four_exponential_tail():
    g = build_graph("path:40")
    smp = sample_potential(DIST, g, 17)
    u = InteractionPotential(1.0, 1.0)
    ball = MultiBall(g, (2, 32), 4)  # diam 30 > 3*2*4
    kind, split = classify_interactivity(ball)
    assert kind == "WI"
    dec = decouple(ball, split, 1.0, smp, u)
    assert dec.coupling_norm <= u.c_u * 2**2 * math.exp(-4.0)
