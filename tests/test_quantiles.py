import math

import numpy as np
import pytest

from mpmsa.quantiles import T_DF_MAX, normal_cdf, normal_quantile, t_quantile

special = pytest.importorskip("scipy.special")  # the oracle; a test-only dependency


def _ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_normal_quantile_within_8_ulp_of_scipy():
    rng = np.random.default_rng(20250810)
    p = np.concatenate([
        10.0 ** -rng.uniform(0.0, 300.0, 20000),  # lower tail down to 1e-300
        rng.uniform(0.0, 1.0, 20000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20000),  # upper tail up to 1 - 1e-16
        [1e-300, 0.075, 0.925, 0.5 - 1e-17, 1.0 - 1e-16],  # region edges of AS 241
    ])
    p = p[(p >= 1e-300) & (p <= 1.0 - 1e-16)]
    assert _ulps(normal_quantile(p), special.ndtri(p)).max() <= 8


def test_normal_quantile_at_the_bonferroni_levels():
    # induction._worst_estimate widens at 1 - 0.025 / n over n energies
    n = np.arange(1, 5000)
    p = 1.0 - 0.025 / n
    assert _ulps(normal_quantile(p), special.ndtri(p)).max() <= 8
    for k in (1, 41, 120, 4999):
        assert float(normal_quantile(1.0 - 0.025 / k)) == pytest.approx(
            float(special.ndtri(1.0 - 0.025 / k)), rel=1e-15
        )


def test_normal_cdf_matches_scipy_on_minus_8_to_8():
    x = np.linspace(-8.0, 8.0, 16001)
    got = np.asarray([normal_cdf(v) for v in x])
    want = special.ndtr(x)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_t_quantile_at_0975_matches_scipy_for_df_1_to_199():
    for df in range(1, 200):
        want = float(special.stdtrit(df, 0.975))
        assert abs(t_quantile(0.975, df) - want) <= 1e-13 * want, df


@pytest.mark.parametrize("q", [1e-10, 1e-3, 0.1, 0.3, 0.7, 0.9, 0.999, 1.0 - 1e-10])
def test_t_quantile_matches_scipy_across_levels(q):
    for df in (1, 2, 3, 4, 5, 10, 50, 150, 1000):
        want = float(special.stdtrit(df, q))
        assert abs(t_quantile(q, df) - want) <= 1e-12 * abs(want), df


def test_exact_values_at_0_half_and_1():
    assert float(normal_quantile(0.0)) == -math.inf
    assert float(normal_quantile(1.0)) == math.inf
    assert float(normal_quantile(0.5)) == 0.0
    assert np.isnan(normal_quantile(np.asarray([-0.1, 1.1, np.nan]))).all()
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(-math.inf) == 0.0 and normal_cdf(math.inf) == 1.0
    for df in (1, 2, 7, 200):
        assert t_quantile(0.0, df) == -math.inf
        assert t_quantile(1.0, df) == math.inf
        assert t_quantile(0.5, df) == 0.0


def test_t_quantile_is_odd_and_rejects_bad_df():
    for df in (1, 4, 33):
        for q in (0.6, 0.9, 0.975, 0.999):
            assert t_quantile(1.0 - q, df) == -t_quantile(q, df)
    for df in (0, -1, 2.5, T_DF_MAX + 1):
        with pytest.raises(ValueError):
            t_quantile(0.975, df)
    assert t_quantile(1e-300, 1) == pytest.approx(-1.0 / (math.pi * 1e-300), rel=1e-13)
    with pytest.raises(ValueError):
        t_quantile(5e-324, 1)


def test_normal_quantile_keeps_shape():
    p = np.full((3, 2), 0.975)
    assert normal_quantile(p).shape == (3, 2)
    assert isinstance(normal_quantile(0.975), np.floating)


def test_sample_quantiles_equal_numpy_quantile_bitwise():
    """Random, tied, short and signed-zero inputs at random levels, 0, 1 and
    the evenly spaced cell edges of rcm_modulus: every value is np.quantile's
    bit for bit."""
    from mpmsa.quantiles import sample_quantiles

    rng = np.random.default_rng(20261020)
    for case in range(4000):
        n = int(rng.integers(1, 40))
        values = (
            rng.random(n),
            rng.integers(0, 4, n).astype(float),  # ties
            rng.standard_normal(n) * 10.0 ** float(rng.integers(-300, 300)),
            np.concatenate((rng.random(n), [-0.0, 0.0])),
        )[case % 4]
        cells = int(rng.integers(1, 20))
        qs = np.concatenate((rng.random(cells), [0.0, 1.0], np.linspace(0, 1, cells + 1)[1:-1]))
        assert sample_quantiles(values, qs).tobytes() == np.quantile(values, qs).tobytes(), (values, qs)
