import itertools

import numpy as np
import pytest

from mpmsa.configspace import (
    MultiBall,
    rho,
    rho_s,
    separation_candidates,
    vertex_ball_mask,
    vertex_ball_masks,
    weak_separation,
)
from mpmsa.errors import ContractViolation
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.hamiltonian import VolumeOperator

from helpers import (
    ZERO_INTERACTION,
    ball_support,
    classify_interactivity,
    edge_boundary,
    inner_boundary,
    rho_one_neighbors,
    set_distance,
)


def test_rho_and_swap_permutation():
    g = build_graph("path:6")
    assert rho(g, (0, 5), (5, 0)) == 5
    assert rho_s(g, (0, 5), (5, 0)) == 0
    assert rho_s(g, (2, 3), (2, 3)) == 0


def test_rho_s_pseudo_metric_random():
    g = build_graph("grid:4x4")
    rng = np.random.default_rng(3)
    for _ in range(150):
        x, y, z = (tuple(rng.integers(0, 16, size=3)) for _ in range(3))
        assert rho_s(g, x, y) <= rho(g, x, y)
        assert rho_s(g, x, y) == rho_s(g, y, x)
        assert rho_s(g, x, z) <= rho_s(g, x, y) + rho_s(g, y, z)
        perm = tuple(reversed(x))
        assert rho_s(g, x, perm) == 0


def test_mismatched_particle_count():
    g = build_graph("path:4")
    with pytest.raises(ContractViolation):
        rho(g, (0, 1), (0, 1, 2))


def test_ball_members_product_count():
    g = build_graph("path:10")
    ball = MultiBall(g, (2, 7), 2)
    members = ball.members()
    assert len(members) == ball.size() == len(g.ball(2, 2)) * len(g.ball(7, 2))
    assert members == sorted(members)


def test_inner_boundary_whole_graph_empty():
    g = build_graph("cycle:5")
    volume = [(a, b) for a in range(5) for b in range(5)]
    assert inner_boundary(g, volume) == []


def test_edge_boundary_single_particle_example():
    g = build_graph("path:5")
    inner = inner_boundary(g, [(0,), (1,), (2,)])
    edges = edge_boundary(g, [(0,), (1,), (2,)], [(0,)])
    assert edges == [((0,), (1,))]
    assert ((2,) in inner) and ((0,) not in inner)


def test_ball_boundary_matches_exhaustive_scan():
    cases = [
        ("path:7", (1, 4), 1),
        ("path:7", (3, 3), 2),
        ("path:7", (0, 6), 1),
        ("path:7", (3,), 0),
        ("path:7", (3,), 3),  # exhausts the graph: no boundary
        ("path:7", (0, 6, 3), 2),
        ("cycle:8", (0, 3), 2),
        ("cycle:8", (1, 5, 6), 1),
        ("cycle:5", (0, 2), 2),  # exhausts the graph
        ("grid:4x3", (5,), 1),
        ("grid:4x3", (0, 11), 2),
        ("grid:4x3", (1, 6, 10), 1),
        ("grid:4x3", (5, 6), 0),
        ("tree:2x3", (0,), 2),
        ("tree:2x3", (3, 12), 1),
        ("tree:2x3", (1, 2, 7), 1),
        ("tree:2x3", (7, 7), 6),  # exhausts the graph
    ]
    for spec, center, radius in cases:
        g = build_graph(spec)
        ball = MultiBall(g, center, radius)
        volume = VolumeOperator.from_ball(ball, ZERO_INTERACTION)
        # positions in volume order, against the generic scan
        assert [volume.configs[p] for p in volume.boundary] == inner_boundary(g, volume.configs)
        assert volume.ball is ball


def test_edge_boundary_exhaustive_pair_scan():
    g = build_graph("path:6")
    ball = MultiBall(g, (2, 3), 2)
    volume = ball.members()
    sub = [c for c in volume if rho(g, c, (2, 3)) <= 1]
    edges = set(edge_boundary(g, volume, sub))
    vol, subset = set(volume), set(sub)
    expected = set()
    for u in subset:
        for v in vol - subset:
            if sum(1 for a, b in zip(u, v) if a != b) == 1 and rho(g, u, v) == 1:
                expected.add((u, v))
    assert edges == expected


def test_boundary_cardinality_bound():
    g = build_graph("path:30")
    cert = certify_growth(g, 1.0, 12)
    for center, radius in [((10, 17), 2), ((5, 20), 3)]:
        ball = MultiBall(g, center, radius)
        bnd = ball.inner_boundary_positions()
        assert len(bnd) <= cert.C ** (2 * 2) * radius ** (2 * 1)


def test_supports_examples():
    # the (partial) supports of a configuration are those of its radius-0 ball
    g = build_graph("path:10")
    point = MultiBall(g, (3, 3), 0)
    assert ball_support(point) == ball_support(point, (1,)) == frozenset({3})
    assert g.diameter_of(ball_support(point)) == 0
    assert ball_support(MultiBall(g, (3, 3), 1)) == frozenset({2, 3, 4})
    assert ball_support(MultiBall(g, (3, 5), 0), ()) == ball_support(MultiBall(g, (3, 5), 1), ()) == frozenset()
    assert g.diameter_of(ball_support(MultiBall(g, (0, 4, 9), 0))) == 9


def test_wi_classification_examples():
    g = build_graph("path:30")
    kind, split = classify_interactivity(MultiBall(g, (0, 20), 2))
    assert kind == "WI" and split.J == (1,) and split.separation == 16
    kind, split = classify_interactivity(MultiBall(g, (0, 5), 2))
    assert kind == "SI" and split is None
    g50 = build_graph("path:50")
    kind, split = classify_interactivity(MultiBall(g50, (0, 1, 40), 2))
    assert kind == "WI" and split.J == (1, 2)
    with pytest.raises(ContractViolation):
        classify_interactivity(MultiBall(g, (4,), 2))


def test_wi_split_satisfies_separation_exhaustively():
    # Weak interactivity guarantees a split with separation > L; only that
    # direction holds.  (SI balls may still happen to split: (0,4) at L=1 is SI
    # with diameter 4 <= 6 yet separates at distance 2.)
    g = build_graph("path:20")
    for a in range(20):
        for b in range(20):
            for radius in (1, 2):
                ball = MultiBall(g, (a, b), radius)
                kind, split = classify_interactivity(ball)
                if kind == "WI":
                    assert g.diameter_of({a, b}) > 3 * 2 * radius
                    sep = set_distance(
                        g, ball_support(ball, split.J), ball_support(ball, split.Jc)
                    )
                    assert sep > radius
                else:
                    assert g.diameter_of({a, b}) <= 3 * 2 * radius


def test_si_distant_pairs_have_disjoint_supports():
    g = build_graph("path:20")
    radius = 1
    n = 2
    centers = [(a, b) for a in range(20) for b in range(20)]
    si = [
        c
        for c in centers
        if g.diameter_of(set(c)) <= 3 * n * radius
    ]
    for x in si[::7]:
        for y in si[::5]:
            if rho(g, x, y) > 8 * n * radius:
                sx = ball_support(MultiBall(g, x, radius))
                sy = ball_support(MultiBall(g, y, radius))
                assert not (sx & sy)


def test_weak_separation_identical_balls_none():
    g = build_graph("path:12")
    ball = MultiBall(g, (3, 8), 1)
    assert weak_separation(ball, ball) is None


def test_weak_separation_single_particle_disjoint():
    g = build_graph("path:12")
    cert = weak_separation(MultiBall(g, (2,), 1), MultiBall(g, (9,), 1))
    assert cert is not None
    assert cert.J1 == (1,) and cert.J2 == ()


def test_weak_separation_distant_pairs_exhaustive():
    g = build_graph("path:14")
    n, radius = 2, 1
    # the candidates depend on (graph, N, L) alone and are built once
    assert separation_candidates(g, n, radius) is separation_candidates(g, n, radius)
    centers = [(a, b) for a in range(14) for b in range(14)]
    checked = 0
    for x, y in itertools.product(centers[::3], centers[::3]):
        if rho_s(g, x, y) >= 3 * n * radius:
            cert = weak_separation(MultiBall(g, x, radius), MultiBall(g, y, radius))
            assert cert is not None, (x, y)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("spec", ["path:14", "cycle:11", "grid:4x5", "tree:2x3"])
def test_vertex_ball_masks_are_the_per_vertex_masks(spec):
    """One tuple of masks per (graph, radius), equal to vertex_ball_mask and
    to the bits of the vertices within the radius."""
    g = build_graph(spec)
    for radius in range(4):
        masks = vertex_ball_masks(g, radius)
        assert masks is vertex_ball_masks(g, radius)
        assert list(masks) == [vertex_ball_mask(g, v, radius) for v in range(g.n_vertices)]
        for v, mask in enumerate(masks):
            assert mask == sum(1 << u for u in range(g.n_vertices) if g.dist[v, u] <= radius)


def test_weak_separation_certificate_is_valid():
    g = build_graph("path:40")
    ball_x = MultiBall(g, (5, 9), 2)
    ball_y = MultiBall(g, (25, 29), 2)
    cert = weak_separation(ball_x, ball_y)
    assert cert is not None and cert.n1 > cert.n2
    b_verts = frozenset(g.ball(cert.center, cert.radius).tolist())
    assert g.diameter_of(b_verts) <= 2 * 2 * 2
    primary = ball_x if cert.primary == "x" else ball_y
    secondary = ball_y if cert.primary == "x" else ball_x
    for j in range(1, 3):
        inside = ball_support(primary, (j,)) <= b_verts
        outside = not (ball_support(primary, (j,)) & b_verts)
        assert inside == (j in cert.J1) and (outside == (j not in cert.J1))
        inside = ball_support(secondary, (j,)) <= b_verts
        outside = not (ball_support(secondary, (j,)) & b_verts)
        assert inside == (j in cert.J2) and (outside == (j not in cert.J2))


def test_rho_one_neighbors_match_metric():
    g = build_graph("grid:3x3")
    x = (4, 0)
    neigh = set(rho_one_neighbors(g, x))
    everything = [(a, b) for a in range(9) for b in range(9)]
    expected = {y for y in everything if y != x and rho(g, x, y) == 1}
    assert neigh == expected
