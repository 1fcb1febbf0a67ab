import math

import numpy as np
import pytest

from mpmsa.disorder import (
    InteractionPotential,
    parse_distribution_spec,
    parse_interaction_spec,
    sample_potential,
    truncated_gaussian,
    uniform_distribution,
)
from mpmsa.errors import ConfigurationError, ContractViolation
from mpmsa.graphs import build_graph

from helpers import interaction_value, mean_fluctuation_split


def distribution_spec(dist) -> str:
    """The spec string parse_distribution_spec reads back to `dist`."""
    if dist.kind == "uniform":
        return f"uniform:{dist.a:g}:{dist.b:g}"
    return f"tgauss:{dist.mu:g}:{dist.sigma:g}:{dist.a:g}:{dist.b:g}"


def interaction_spec(u) -> str:
    """The spec string parse_interaction_spec reads back to `u`."""
    rcut = "inf" if math.isinf(u.truncation_radius) else f"{u.truncation_radius:g}"
    return f"u:C={u.c_u:g}:zeta={u.zeta:g}:rcut={rcut}"


def test_same_seed_identical_samples():
    g = build_graph("path:50")
    dist = uniform_distribution(0, 1)
    a = sample_potential(dist, g, 12345)
    b = sample_potential(dist, g, 12345)
    assert np.array_equal(a, b)
    c = sample_potential(dist, g, 12346)
    assert not np.array_equal(a, c)


def test_uniform_support():
    dist = uniform_distribution(-2, 3)
    vals = dist.sample_values(7, 5000)
    assert vals.min() >= -2 and vals.max() <= 3


def test_law_of_large_numbers_100k():
    dist = uniform_distribution(0, 1)
    vals = dist.sample_values(99, 100_000)
    assert abs(vals.mean() - 0.5) < 0.01


def test_empirical_density_within_bounds():
    dist = uniform_distribution(0, 1)
    vals = dist.sample_values(5, 200_000)
    hist, _ = np.histogram(vals, bins=20, range=(0, 1), density=True)
    assert hist.min() >= dist.p_lower - 0.05
    assert hist.max() <= dist.p_upper + 0.05


def test_truncated_gaussian_support_and_bounds():
    dist = truncated_gaussian(0, 1, -2, 2)
    vals = dist.sample_values(11, 50_000)
    assert vals.min() >= -2 and vals.max() <= 2
    assert 0 < dist.p_lower <= dist.p_upper < math.inf
    assert dist.deriv_bound > 0
    # density bounds actually hold on a histogram
    hist, _ = np.histogram(vals, bins=16, range=(-2, 2), density=True)
    assert hist.max() <= dist.p_upper + 0.05
    assert hist.min() >= dist.p_lower - 0.05


def test_distribution_spec_round_trip():
    for spec in ("uniform:0:1", "tgauss:0:1:-2:2"):
        dist = parse_distribution_spec(spec)
        assert distribution_spec(dist) == spec
    with pytest.raises(ConfigurationError):
        parse_distribution_spec("uniform:1")
    with pytest.raises(ConfigurationError):
        parse_distribution_spec("gauss:0:1")


def test_interaction_values():
    u = InteractionPotential(1.0, 1.0)
    assert u.values([1])[0] == pytest.approx(math.exp(-1))
    u2 = InteractionPotential(2.0, 0.5)
    assert u2.values([4])[0] == pytest.approx(2 * math.exp(-2))
    assert u2.values([0])[0] == 2.0  # continuity of the bound at shared vertices
    ut = InteractionPotential(1.0, 1.0, truncation_radius=3)
    assert ut.values([4])[0] == 0.0
    assert ut.values([3])[0] > 0.0
    with pytest.raises(ContractViolation):
        u.values([-1])
    with pytest.raises(ContractViolation):
        interaction_value(u, -1)


def test_interaction_vectorized_matches_scalar():
    u = InteractionPotential(1.5, 0.7, truncation_radius=5)
    rs = np.arange(0, 9)
    vec = u.values(rs)
    assert vec == pytest.approx([interaction_value(u, int(r)) for r in rs])


def test_interaction_spec_round_trip():
    spec = "u:C=1:zeta=0.5:rcut=inf"
    u = parse_interaction_spec(spec)
    assert interaction_spec(u) == spec
    assert math.isinf(u.truncation_radius)
    with pytest.raises(ConfigurationError):
        parse_interaction_spec("u:C=1")
    with pytest.raises(ConfigurationError):
        parse_interaction_spec("u:C=1:zeta=1:bogus=2")


def test_mean_fluctuation_examples():
    g = build_graph("path:4")
    dist = uniform_distribution(0, 1)
    smp = sample_potential(dist, g, 5)
    one = mean_fluctuation_split(smp, [2])
    assert one.xi == smp[2]
    assert one.eta[2] == 0.0

    smp2 = sample_potential(dist, g, 6)
    smp2[:] = 0.7
    const = mean_fluctuation_split(smp2, [0, 1, 2, 3])
    assert const.xi == pytest.approx(0.7)
    assert all(abs(e) < 1e-15 for e in const.eta.values())

    smp3 = sample_potential(dist, g, 7)
    smp3[0], smp3[1] = 0.2, 0.6
    pair = mean_fluctuation_split(smp3, [0, 1])
    assert pair.xi == pytest.approx(0.4)
    assert pair.eta[0] == pytest.approx(-0.2)
    assert pair.eta[1] == pytest.approx(0.2)

    with pytest.raises(ContractViolation):
        mean_fluctuation_split(smp, [])


def test_fluctuations_sum_to_zero():
    g = build_graph("path:200")
    smp = sample_potential(uniform_distribution(0, 1), g, 17)
    split = mean_fluctuation_split(smp, list(range(200)))
    assert abs(sum(split.eta.values())) <= 1e-12 * 200


def test_degenerate_zero_width_uniform():
    dist = uniform_distribution(0.3, 0.3)
    vals = dist.sample_values(1, 100)
    assert np.all(vals == 0.3)
