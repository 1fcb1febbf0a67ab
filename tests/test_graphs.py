import numpy as np
import pytest

from mpmsa.errors import BudgetExceeded, ConfigurationError
from mpmsa.graphs import build_graph, certify_growth, parse_graph_spec


def test_path_distances():
    g = build_graph("path:5")
    assert g.dist[0, 4] == 4
    assert all(g.dist[x, x] == 0 for x in range(5))


def test_cycle_shorter_arc():
    g = build_graph("cycle:6")
    assert g.dist[0, 4] == 2
    assert g.dist[0, 3] == 3


def test_grid_and_tree_shapes():
    g = build_graph("grid:3x4")
    assert g.n_vertices == 12
    assert g.dist[0, 11] == 2 + 3
    t = build_graph("tree:2x4")
    assert t.n_vertices == 31
    assert t.max_degree == 3


def test_metric_axioms_random_triples():
    g = build_graph("grid:5x5")
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, z = rng.integers(0, g.n_vertices, size=3)
        assert g.dist[x, y] == g.dist[y, x]
        assert g.dist[x, z] <= g.dist[x, y] + g.dist[y, z]


def test_bad_specs_rejected():
    for bad in ("path:x", "path", "blob:4", "grid:3", "path:1", "cycle:2", "tree:1x3"):
        with pytest.raises(ConfigurationError):
            build_graph(bad)


def test_vertex_budget_caps_dense_distances():
    with pytest.raises(BudgetExceeded):
        build_graph("path:6000")  # fixed cap: dense distances are quadratic


def test_parse_spec_forms():
    assert parse_graph_spec("grid:9x9") == ("grid", (9, 9))
    assert parse_graph_spec("tree:2x4") == ("tree", (2, 4))
    assert parse_graph_spec("cycle:6") == ("cycle", (6,))


def test_growth_certificate_path():
    g = build_graph("path:100")
    cert = certify_growth(g, 1.0, 10)
    # #B(x,L) <= 2L+1, and the max ratio (2L+1)/L is attained at L=1
    assert cert.C == pytest.approx(3.0)
    cert1 = certify_growth(build_graph("path:5"), 1.0, 1)
    assert cert1.C == pytest.approx(3.0)  # 1 + max degree


def test_growth_certificate_grid_brute_force():
    g = build_graph("grid:9x9")
    cert = certify_growth(g, 2.0, 4)
    # independent oracle: enumerate every ball size directly
    worst = 0.0
    for radius in range(1, 5):
        for x in range(g.n_vertices):
            size = int((g.dist[x] <= radius).sum())
            worst = max(worst, size / radius**2)
            assert size <= cert.C * radius**2
    assert cert.C == pytest.approx(worst)


def test_certificate_covers_all_radii():
    g = build_graph("cycle:20")
    cert = certify_growth(g, 1.0, 8)
    for radius in range(1, 9):
        sizes = (g.dist <= radius).sum(axis=1)
        assert sizes.max() <= cert.C * radius**1.0 + 1e-12
