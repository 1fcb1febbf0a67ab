import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmsa.configspace import MultiBall
from mpmsa.disorder import sample_potential, uniform_distribution
from mpmsa.errors import ContractViolation
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.hamiltonian import VolumeOperator, spectral_window
from mpmsa.induction import (
    EnergyIntervalCover,
    _overlaps,
    bridge_parameters,
    cover_from_profile,
    efc_decay_experiment,
    recursion_bound,
    scale_probabilities,
    sup_min_functional,
)
from mpmsa.msa import MassSchedule, ParameterSet, scales
from mpmsa.spectral import BallOperators, BoundaryProfile, boundary_profile, eigendecompose

from helpers import ZERO_INTERACTION, DenseOperator, _rational, covered, rational_deriv, sublevel_cover, total_length

DIST = uniform_distribution(0, 1)


def _params(**overrides) -> ParameterSet:
    base = dict(
        mode="subexp", n_star=1, d=1.0, zeta=1.0, kappa=0.3, beta=0.3, delta=0.5,
        m_star=1.0, nu_star=1.0, K=1, L0=3, B=2, alpha=1.5, tau=1.0, P_star=10.0,
    )
    base.update(overrides)
    return ParameterSet(**base)


def test_cover_one_by_one_closed_form():
    h, c, pref, level = 1.7, 0.35, 2.0, 4.0
    profile = BoundaryProfile(
        eigenvalues=np.asarray([h]),
        coefficients=np.asarray([[c]]),
        prefactor=pref,
    )
    cover = cover_from_profile(profile, level, (-10.0, 10.0))
    half = pref * c / level
    assert cover.count == 1
    lo, hi = cover.intervals[0]
    assert lo == pytest.approx(h - half, abs=1e-10)
    assert hi == pytest.approx(h + half, abs=1e-10)


def test_cover_empty_when_level_above_max():
    h, c, pref = 0.0, 0.5, 1.0
    profile = BoundaryProfile(
        eigenvalues=np.asarray([h]),
        coefficients=np.asarray([[c]]),
        prefactor=pref,
    )
    # on a window bounded away from the pole the sup is pref*c/2, so pick more
    cover = cover_from_profile(profile, 1e6, (2.0, 10.0))
    assert cover.count == 0 and total_length(cover) == 0.0


def _ball_cover_setup(seed, graph_spec="path:13", center=(6,), radius=4, g_amp=2.0):
    g = build_graph(graph_spec)
    cert = certify_growth(g, 1.0, 12)
    smp = sample_potential(DIST, g, seed)
    ball = MultiBall(g, center, radius)
    spec = eigendecompose(VolumeOperator.from_ball(ball, ZERO_INTERACTION), g_amp, smp)
    window = spectral_window(g, len(center), g_amp, DIST.sup_abs, ZERO_INTERACTION)
    return g, cert, ball, spec, window


def test_cover_validated_by_dense_grid():
    g, cert, ball, spec, window = _ball_cover_setup(8)
    prof = boundary_profile(spec, cert)
    for level in (1.0, 0.05, 1e-3):
        cover = sublevel_cover(spec, cert, level, window)
        assert cover.count < 3 * len(spec.volume)
        es = np.linspace(window[0], window[1], 100_001)
        vals = prof.evaluate(es, guard=1e-12)
        step = es[1] - es[0]
        assert not ((vals >= level) & ~covered(cover, es, slack=step)).any()


def test_cover_shift_covariance():
    g, cert, ball, spec, window = _ball_cover_setup(9)
    level = 0.02
    cover = sublevel_cover(spec, cert, level, window)
    t = 0.41
    op = spec.volume
    shifted = DenseOperator(op, op.hamiltonian(2.0, sample_potential(DIST, g, 9)) + t * np.eye(len(op)))
    cover_t = sublevel_cover(eigendecompose(shifted, 2.0, None), cert, level, (window[0] + t, window[1] + t))
    assert cover_t.count == cover.count
    for (a, b), (at, bt) in zip(cover.intervals, cover_t.intervals):
        assert abs(at - (a + t)) <= 1e-10
        assert abs(bt - (b + t)) <= 1e-10


def test_scale_probabilities_s_zero_for_single_particle():
    g = build_graph("path:30")
    params = _params(L0=3, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)
    cert = certify_growth(g, 1.0, 12)
    window = spectral_window(g, 1, 1000.0, DIST.sup_abs, ZERO_INTERACTION)
    rows = scale_probabilities(
        BallOperators(g, ZERO_INTERACTION), (14,), DIST, 1000.0, params, mass, sched, cert,
        "fixed:500", window, trials=60, seed=4,
    )
    assert rows[1].s is not None and rows[1].s.estimate == 0.0
    assert rows[0].s is None  # no sub-scale below L_0
    with pytest.raises(ContractViolation):
        scale_probabilities(
            BallOperators(g, ZERO_INTERACTION), (14,), DIST, 1000.0, params, mass, sched, cert,
            "fixed:500", window, trials=0, seed=4,
        )


def test_recursion_bound_arithmetic():
    params = _params(K=1, d=1.0)
    cert = certify_growth(build_graph("path:40"), 1.0, 12)
    zero = recursion_bound(0.0, 0.0, 0.0, params, cert, 2, 12)
    assert zero == 0.0  # rhs at s = q = 0 is the first term

    cert3 = type(cert)(d=1.0, C=3.0, lmax=12)
    chk = recursion_bound(0.01, 0.0, 0.0, params, cert3, 2, 12)
    assert chk == pytest.approx(0.5 * 9 * 144 * 1e-4)

    lo = recursion_bound(0.01, 0.0, 0.0, params, cert3, 2, 12)
    hi = recursion_bound(0.02, 0.0, 0.0, params, cert3, 2, 12)
    assert hi > lo
    with pytest.raises(ContractViolation):
        recursion_bound(1.5, 0.0, 0.0, params, cert3, 2, 12)


@st.composite
def interval_lists(draw):
    """Sorted, disjoint intervals as a cover holds them, with ends on a grid
    of quarters so that two lists touch, nest and repeat: zero-width ones,
    and either sign of zero."""
    starts = sorted(draw(st.lists(st.integers(0, 12), unique=True, max_size=6)))
    ends = [draw(st.integers(a, b - 1)) for a, b in zip(starts, [*starts[1:], 13])]

    def value(k):
        return draw(st.sampled_from([-0.0, 0.0])) if k == 6 else 0.25 * (k - 6)

    return [(value(a), value(b)) for a, b in zip(starts, ends)]


def _overlaps_loop(xs, ys):
    """The double loop `_overlaps` replaced."""
    out = []
    for ax, bx in xs:
        for ay, by in ys:
            lo, hi = max(ax, ay), min(bx, by)
            if lo <= hi:
                out.append((lo, hi))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(interval_lists(), st.one_of(interval_lists(), st.just(None)))
def test_overlaps_equal_the_double_loop(xs, ys):
    """Bit for bit, signed zeros included; `None` stands for a copy of xs."""
    ys = list(xs) if ys is None else ys
    assert repr(_overlaps(xs, ys)) == repr(_overlaps_loop(xs, ys))
    assert repr(_overlaps(ys, xs)) == repr(_overlaps_loop(ys, xs))


def test_sup_min_identical_balls():
    g, cert, ball, spec, window = _ball_cover_setup(10)
    level = 1e-3
    res = sup_min_functional(spec, spec, cert, level, window)
    assert res.exceeded  # min(F, F) = F blows up near the shared spectrum
    assert res.sup_value >= level


def test_sup_min_twin_balls_shared_spectrum():
    # g = 0, U = 0 on a cycle: distant balls are isometric, spectra coincide
    g = build_graph("cycle:24")
    cert = certify_growth(g, 1.0, 12)
    smp = sample_potential(DIST, g, 11)
    ball_x = MultiBall(g, (3,), 3)
    ball_y = MultiBall(g, (15,), 3)
    spec_x = eigendecompose(VolumeOperator.from_ball(ball_x, ZERO_INTERACTION), 0.0, smp)
    spec_y = eigendecompose(VolumeOperator.from_ball(ball_y, ZERO_INTERACTION), 0.0, smp)
    assert np.abs(spec_x.eigenvalues - spec_y.eigenvalues).max() < 1e-12
    window = spectral_window(g, 1, 0.0, DIST.sup_abs, ZERO_INTERACTION)
    res = sup_min_functional(spec_x, spec_y, cert, 1e-6, window)
    assert res.exceeded


def test_sup_min_distant_strong_disorder_rarely_exceeds():
    g = build_graph("path:30")
    cert = certify_growth(g, 1.0, 12)
    params = _params()
    mass = MassSchedule(params)
    radius = 4
    level = math.exp(-mass.m(1) * radius**params.delta)
    window = spectral_window(g, 1, 1e3, DIST.sup_abs, ZERO_INTERACTION)
    hits = 0
    trials = 40
    for seed in range(trials):
        smp = sample_potential(DIST, g, 5000 + seed)
        ball_x = MultiBall(g, (6,), radius)
        ball_y = MultiBall(g, (23,), radius)
        sx = eigendecompose(VolumeOperator.from_ball(ball_x, ZERO_INTERACTION), 1e3, smp)
        sy = eigendecompose(VolumeOperator.from_ball(ball_y, ZERO_INTERACTION), 1e3, smp)
        res = sup_min_functional(sx, sy, cert, level, window)
        hits += int(res.exceeded)
    assert hits / trials <= 0.1  # mechanism of the variable-energy bound


def test_bridge_parameters_precondition():
    params = _params(nu_star=20.0)
    mass = MassSchedule(params)
    good = bridge_parameters(mass, 1, 6, (13, 13))
    assert good["precondition_ok"]
    weak = bridge_parameters(MassSchedule(_params(nu_star=1.0)), 1, 6, (13, 13))
    assert not weak["precondition_ok"]
    assert weak["b_L"] <= weak["c_L"]  # the binding constraint is a_L c_L^2 / K


def test_efc_decay_zero_distance_pairs_excluded():
    g = build_graph("path:12")
    full = MultiBall(g, (0, 0), 11)
    pairs = [((3, 5), (5, 3)), ((3, 5), (6, 8)), ((3, 5), (8, 10))]
    distances, mean_efc, *_ = efc_decay_experiment(
        full, pairs, DIST, BallOperators(g, ZERO_INTERACTION), [2.0], 0.5, seeds=4, seed=3, n_batches=2
    )
    assert distances[0] == 0
    assert len(mean_efc[0]) == 3  # measured for every pair, fit on the positive ones


def test_efc_decay_needs_two_positive_distances():
    g = build_graph("path:12")
    full = MultiBall(g, (0, 0), 11)
    with pytest.raises(ContractViolation):
        efc_decay_experiment(
            full, [((3, 5), (5, 3))], DIST, BallOperators(g, ZERO_INTERACTION), [1.0], 0.5, 2, 1
        )


def test_efc_decay_flat_at_zero_coupling_on_cycle():
    # prime length avoids commensurate revivals (cycle:16 has EFC = 1 exactly
    # at the antipode), so the zero-coupling correlator is exactly flat
    g = build_graph("cycle:17")
    full = MultiBall(g, (0,), 8)
    pairs = [((2,), (4,)), ((2,), (6,)), ((2,), (7,)), ((2,), (9,))]
    _, _, masses, _, _ = efc_decay_experiment(
        full, pairs, DIST, BallOperators(g, ZERO_INTERACTION), [0.0], 0.5, seeds=10, seed=6, n_batches=5
    )
    assert abs(masses[0]) < 0.05


def test_cover_dataclass_helpers():
    cover = EnergyIntervalCover(intervals=((0.0, 1.0), (2.0, 2.5)))
    assert cover.count == 2
    assert total_length(cover) == pytest.approx(1.5)
    mask = covered(cover, np.asarray([0.5, 1.75, 2.2]))
    assert mask.tolist() == [True, False, True]


def test_efc_mass_ordering_matches_coupling_order():
    # shared-seed batches: the fitted decay mass should respect the disorder
    # strength ordering in at least 90% of batches
    g = build_graph("path:16")
    full = MultiBall(g, (0,), 15)
    pairs = [((3,), (3 + r,)) for r in (2, 4, 6, 8, 10)]
    _, _, masses, _, per_batch = efc_decay_experiment(
        full, pairs, DIST, BallOperators(g, ZERO_INTERACTION), [5.0, 20.0, 80.0], 0.5,
        seeds=40, seed=77, n_batches=10,
    )  # per_batch: (g, batch)
    ordered = (per_batch[0] <= per_batch[1]) & (per_batch[1] <= per_batch[2])
    assert ordered.mean() >= 0.9
    assert masses[0] < masses[1] < masses[2]


def test_scale_probabilities_worst_over_grid_policy():
    # the grid policy takes the worst estimate over the energy grid and widens
    # the interval Bonferroni-style, so it dominates any fixed-energy estimate
    g = build_graph("path:24")
    params = _params(L0=2, B=2)
    mass = MassSchedule(params)
    sched = scales(params, kmax=1)
    cert = certify_growth(g, 1.0, 12)
    window = spectral_window(g, 1, 50.0, DIST.sup_abs, ZERO_INTERACTION)
    grid_rows = scale_probabilities(
        BallOperators(g, ZERO_INTERACTION), (11,), DIST, 50.0, params, mass, sched, cert,
        "grid:21", window, trials=120, seed=9,
    )
    mid = 0.5 * (window[0] + window[1])
    fixed_rows = scale_probabilities(
        BallOperators(g, ZERO_INTERACTION), (11,), DIST, 50.0, params, mass, sched, cert,
        f"fixed:{mid}", window, trials=120, seed=9,
    )
    for grid_row, fixed_row in zip(grid_rows, fixed_rows):
        assert grid_row.q.estimate >= fixed_row.q.estimate
        assert grid_row.p.ci_high >= grid_row.p.estimate >= grid_row.p.ci_low


def test_reciprocals_next_to_a_pole_warn_nothing():
    # 1 / 5e-324 overflows to inf; the pole convention makes that a value
    es, poles, w = np.asarray([5e-324]), np.asarray([0.0]), np.asarray([1.0])
    profile = BoundaryProfile(
        eigenvalues=poles, coefficients=np.asarray([[1.0]]), prefactor=1.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rational(es, poles, w)[0] == -math.inf
        assert rational_deriv(es, poles, w)[0] == math.inf
        assert profile.green_values(-es)[0, 0] == math.inf
