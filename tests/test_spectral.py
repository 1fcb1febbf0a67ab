import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpmsa.configspace import Config, MultiBall, rho_s
from mpmsa.disorder import InteractionPotential, sample_potential, uniform_distribution
from mpmsa.errors import ContractViolation, DataError, ResonanceError
from mpmsa.graphs import build_graph, certify_growth
from mpmsa.hamiltonian import VolumeOperator, spectral_window
from mpmsa.rng import CounterRng
from mpmsa import spectral
from mpmsa.spectral import (
    BallOperators,
    BallSpectra,
    SpectralData,
    boundary_profile,
    cluster_starts,
    dist_to_spectrum,
    efc,
    eigendecompose,
    green_row,
    gri_check,
    ns_flags,
    roundoff_floor,
)
from mpmsa.induction import EnergyIntervalCover, cover_from_profile, sup_min_functional

from helpers import (
    ZERO_INTERACTION,
    assemble_ball,
    boundary_functional,
    DenseOperator,
    clusters,
    edge_boundary,
    efc_test_function_value,
)

DIST = uniform_distribution(0, 1)


def _dense_op(graph, volume_configs, matrix):
    return DenseOperator(VolumeOperator(graph, volume_configs, ZERO_INTERACTION), matrix)


def _dense_spectrum(graph, volume_configs, matrix):
    return eigendecompose(_dense_op(graph, volume_configs, matrix), 0.0, None)


def test_diagonal_matrix_spectrum():
    g = build_graph("path:3")
    spec = _dense_spectrum(g, [(0,), (1,), (2,)], np.diag([3.0, -1.0, 2.0]))
    assert spec.eigenvalues == pytest.approx([-1.0, 2.0, 3.0])


def test_path3_laplacian_closed_form():
    # independent oracle: characteristic polynomial of the tridiagonal matrix
    # with diagonal (1,2,1) expands to -lam*(lam-1)*(lam-3), so {0, 1, 3}
    import sympy

    lam = sympy.symbols("lam")
    m = sympy.Matrix([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    roots = sympy.solve(sympy.det(m - lam * sympy.eye(3)), lam)
    expected = sorted(float(r) for r in roots)
    assert expected == pytest.approx([0.0, 1.0, 3.0])

    g = build_graph("path:3")
    op = VolumeOperator(g, [(i,) for i in range(3)], ZERO_INTERACTION)
    spec = eigendecompose(op, 0.0, sample_potential(DIST, g, 0))
    assert spec.eigenvalues == pytest.approx(expected, abs=1e-12)


def test_eigendecompose_contracts():
    g = build_graph("grid:3x3")
    ball = MultiBall(g, (4, 4), 2)
    smp = sample_potential(DIST, g, 5)
    op = VolumeOperator.from_ball(ball, InteractionPotential(1.0, 0.5))
    spec = eigendecompose(op, 2.0, smp)
    resid = np.abs(op.hamiltonian(2.0, smp) @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max()
    assert resid <= 1e-9 * max(spec.h_norm, 1.0)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(gram - np.eye(len(spec.volume))).max() <= 1e-10


def test_eigendecompose_rejects_nan_eigenvectors(monkeypatch):
    g = build_graph("path:3")
    op = _dense_op(g, [(0,), (1,), (2,)], np.diag([3.0, -1.0, 2.0]))
    real_eigh = np.linalg.eigh

    def eigh_with_nan(matrix):
        lam, vec = real_eigh(matrix)
        vec = vec.copy()
        vec[1, 2] = np.nan
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", eigh_with_nan)
    with pytest.raises(DataError):
        eigendecompose(op, 0.0, None)


CONTRACT_GRAPHS = ("path:7", "cycle:6", "grid:3x3", "tree:2x2")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(CONTRACT_GRAPHS),
    st.integers(1, 3),
    st.sampled_from(("ball", "full", "submatrix", "shifted", "weighted")),
    st.integers(0, 2**32 - 1),
)
def test_structured_residual_matches_dense_oracle(spec, n, kind, seed):
    """The residual from H's diagonal and off-diagonal runs equals the dense
    max |HV - V diag(lam)| to round-off, at the eigenpairs and at random (lam, V),
    on balls, full volumes (as in criterion 09), submatrices, H + t I and H
    with off-diagonal entries other than -1."""
    graph = build_graph(spec)
    rng = np.random.default_rng(seed)
    smp = sample_potential(DIST, graph, seed)
    interaction = InteractionPotential(1.0, 0.5)
    if kind == "ball":
        center = tuple(int(v) for v in rng.integers(graph.n_vertices, size=n))
        op = VolumeOperator.from_ball(MultiBall(graph, center, int(rng.integers(0, 3))), interaction)
    else:
        assume(graph.n_vertices**n <= 343)
        op = VolumeOperator(graph, itertools.product(range(graph.n_vertices), repeat=n), interaction)
    h = op.hamiltonian(3.0, smp)
    # runs read off the matrix are the operator's runs
    assert DenseOperator(op, h).runs == op.runs
    if kind == "submatrix":
        # a sub-volume with its own operator, as the GRI's W
        keep = rng.random(len(op)) < 0.6
        keep[rng.integers(len(op))] = True
        op = VolumeOperator(graph, [c for c, k in zip(op.configs, keep) if k], interaction)
    elif kind == "shifted":
        # a diagonal shift keeps the operator's runs
        shifted = DenseOperator(op, h + rng.uniform(-5, 5) * np.eye(len(op)))
        assert shifted.runs == op.runs
        op = shifted
    elif kind == "weighted":
        w = rng.choice([1.0, 0.5, -2.0], size=h.shape)
        w = np.triu(w) + np.triu(w, 1).T
        np.fill_diagonal(w, 1.0)
        op = DenseOperator(op, h * w)
    h = op.hamiltonian(3.0, smp)
    m = len(h)
    # the largest off-diagonal row sum, the degree when every entry is -1
    degree = np.abs(h - np.diag(np.diagonal(h))).sum(axis=1).max()
    spec = eigendecompose(op, 3.0, smp)
    for lam, vec in (
        (spec.eigenvalues, spec.eigenvectors),
        (rng.uniform(-10, 10, m), rng.uniform(-1, 1, (m, m))),
    ):
        oracle = np.abs(h @ vec - vec * lam).max()
        tol = roundoff_floor(m, np.abs(np.diagonal(h)).max() + np.abs(lam).max() + degree)
        assert abs(spectral._residual(np.diagonal(h), op.runs, lam, vec) - oracle) <= tol


def _two_particle_path(n_vertices: int, g: float, interaction=InteractionPotential(1.0, 0.5)):
    """The operator of the full two-particle volume of a path, its H at
    coupling g and the sample."""
    graph = build_graph(f"path:{n_vertices}")
    op = VolumeOperator(graph, itertools.product(range(n_vertices), repeat=2), interaction)
    smp = sample_potential(DIST, graph, 3)
    return op, op.hamiltonian(g, smp), smp


def test_operator_hamiltonians_share_its_runs():
    graph = build_graph("path:30")
    op = VolumeOperator(graph, itertools.product(range(30), repeat=2), InteractionPotential(1.0, 0.5))
    # x2 moves: 30 runs of 29 rows per direction; x1 moves: one run each
    assert len(op.runs) == 62
    assert sum(stop - start for start, stop, _, _ in op.runs) == len(op.edges[0]) == 3480
    h = op.hamiltonian(50.0, sample_potential(DIST, graph, 1))
    assert DenseOperator(op, h).runs == op.runs


def test_contracts_reject_nan_in_a_neighbour_row(monkeypatch):
    op, h, smp = _two_particle_path(12, 5.0)  # m = 144: 26 runs
    assert len(op.runs) == 26
    # the last row of the last run and its neighbour
    start, stop, offset, _ = op.runs[-1]
    i, j = stop - 1, stop - 1 + offset
    assert h[i, j] == -1.0

    lam, vec = np.linalg.eigh(h)
    vec[j, 5] = np.nan
    assert np.isnan(spectral._residual(np.diagonal(h), op.runs, lam, vec))
    real_eigh = np.linalg.eigh

    def eigh_with_nan(matrix):
        lam, vec = real_eigh(matrix)
        vec[j, 5] = np.nan
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", eigh_with_nan)
    with pytest.raises(DataError, match="residual"):
        eigendecompose(op, 5.0, smp)


def test_residual_contract_rejects_a_swapped_eigenvalue_pair(monkeypatch):
    op, h, smp = _two_particle_path(12, 5.0)
    real_eigh = np.linalg.eigh
    lam = real_eigh(h)[0]
    gaps = np.diff(lam)
    # the closest pair whose swap is still above the bound 1e-9 max(||H||, 1)
    k = int(np.argmin(np.where(gaps > 1e-7 * np.abs(lam).max(), gaps, np.inf)))

    def swapped(matrix):
        lam, vec = real_eigh(matrix)
        lam[[k, k + 1]] = lam[[k + 1, k]]
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", swapped)
    with pytest.raises(DataError, match="residual"):
        eigendecompose(op, 5.0, smp)


def test_gram_contract_rejects_a_non_orthogonal_mix(monkeypatch):
    # g = 0 and no interaction: the two-particle path Laplacian has
    # degenerate pairs, inside which any mix of eigenvectors passes the residual
    op, h, smp = _two_particle_path(12, 0.0, ZERO_INTERACTION)
    real_eigh = np.linalg.eigh
    lam = real_eigh(h)[0]
    k = int(np.argmin(np.diff(lam)))
    assert lam[k + 1] - lam[k] < 1e-12

    def mixed(matrix):
        lam, vec = real_eigh(matrix)
        vec[:, k + 1] = (vec[:, k] + vec[:, k + 1]) / np.sqrt(2.0)
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    with pytest.raises(DataError, match="gram"):
        eigendecompose(op, 0.0, smp)


def test_green_one_by_one():
    g = build_graph("path:3")
    spec = _dense_spectrum(g, [(1,)], [[2.5]])
    assert green_row(spec, 1.0, (1,))[0] == pytest.approx(1.0 / (2.5 - 1.0))


def test_green_two_by_two_closed_form():
    g = build_graph("path:2")
    m = np.array([[1.0, -1.0], [-1.0, 3.0]])
    spec = _dense_spectrum(g, [(0,), (1,)], m)
    e = 0.35
    inv = np.linalg.inv(m - e * np.eye(2))
    for i, x in enumerate([(0,), (1,)]):
        for j, y in enumerate([(0,), (1,)]):
            assert green_row(spec, e, x)[spec.volume.position(y)] == pytest.approx(inv[i, j], rel=1e-12)


def test_resolvent_identity_columnwise():
    g = build_graph("path:10")
    ball = MultiBall(g, (4,), 4)
    smp = sample_potential(DIST, g, 7)
    op = VolumeOperator.from_ball(ball, ZERO_INTERACTION)
    spec = eigendecompose(op, 1.5, smp)
    h = op.hamiltonian(1.5, smp)
    e = spec.eigenvalues.max() + 0.5
    for x in op.configs:
        col = green_row(spec, e, x)
        unit = np.zeros(len(op))
        unit[op.position(x)] = 1.0
        assert np.abs((h - e * np.eye(len(op))) @ col - unit).max() <= 1e-9


def test_resonance_guard():
    g = build_graph("path:3")
    spec = _dense_spectrum(g, [(0,), (1,), (2,)], np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ResonanceError) as err:
        green_row(spec, 2.0 + 1e-13, (0,))
    assert err.value.dist_to_spectrum <= 1e-12


def test_boundary_functional_prefactor_linearity_and_empty():
    g = build_graph("path:9")
    cert = certify_growth(g, 1.0, 8)
    smp = sample_potential(DIST, g, 2)
    ball = MultiBall(g, (4,), 2)
    spec = eigendecompose(VolumeOperator.from_ball(ball, ZERO_INTERACTION), 1.0, smp)
    e = spec.eigenvalues.max() + 1.0
    f1 = boundary_functional(spec, e, cert)
    doubled = certify_growth(g, 1.0, 8)
    doubled = type(doubled)(d=doubled.d, C=doubled.C * 2 ** 0.5, lmax=doubled.lmax)
    # prefactor C^2 L^d doubles when C grows by sqrt(2) at N=1
    assert boundary_functional(spec, e, doubled) == pytest.approx(2 * f1)

    whole = MultiBall(g, (4,), 8)
    spec_whole = eigendecompose(VolumeOperator.from_ball(whole, ZERO_INTERACTION), 1.0, smp)
    with pytest.raises(ContractViolation):
        boundary_functional(spec_whole, e, cert)


def test_boundary_functional_matches_direct_enumeration():
    g = build_graph("path:11")
    cert = certify_growth(g, 1.0, 10)
    smp = sample_potential(DIST, g, 3)
    ball = MultiBall(g, (5,), 3)
    spec = eigendecompose(VolumeOperator.from_ball(ball, ZERO_INTERACTION), 2.0, smp)
    e = 0.123
    row = green_row(spec, e, (5,))
    direct = max(abs(row[spec.volume.position(z)]) for z in [(2,), (8,)])
    pref = cert.C ** 2 * 3.0
    assert boundary_functional(spec, e, cert) == pytest.approx(pref * direct)


def test_efc_diagonal_and_bounds():
    g = build_graph("path:4")
    spec = _dense_spectrum(g, [(i,) for i in range(4)], np.diag([0.3, 1.2, 2.0, 5.5]))
    for i in range(4):
        for j in range(4):
            val = efc(spec, (i,), (j,))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_efc_sums_the_clusters_left_to_right():
    """The cluster magnitudes (1.0, 1e-16, 1e-16) add up to 1.0 left to
    right in double, on every Python version; a compensated sum (math.fsum,
    or the builtin `sum` of floats since Python 3.12) gives
    1.0000000000000002.  The spectrum is one in form only: efc reads the
    eigenvalues and the two rows psi_j(x), psi_j(y)."""
    g = build_graph("path:3")
    volume = VolumeOperator(g, [(0,), (1,), (2,)], ZERO_INTERACTION)
    vectors = np.asarray([[1.0, 1.0, 1.0], [1.0, 1e-16, 1e-16], [0.0, 0.0, 0.0]])
    spec = SpectralData(volume, np.asarray([0.0, 1.0, 2.0]), vectors, 2.0)
    assert efc(spec, (0,), (1,)) == 1.0


def test_efc_closed_form_dominates_random_functions():
    g = build_graph("path:6")
    smp = sample_potential(DIST, g, 11)
    spec = eigendecompose(VolumeOperator(g, [(i,) for i in range(6)], ZERO_INTERACTION), 2.0, smp)
    rng = CounterRng(99)
    x, y = (1,), (4,)
    closed = efc(spec, x, y)
    n_clusters = len(cluster_starts(spec.eigenvalues))
    for _ in range(2000):
        f_vals = np.asarray([rng.uniform(-1, 1) for _ in range(n_clusters)])
        assert efc_test_function_value(spec, x, y, f_vals) <= closed + 1e-12
    # the sign pattern of the projections attains the sup exactly
    per = spec.component(x) * spec.component(y)
    sign_vals = []
    for block in clusters(spec):
        s = per[block].sum()
        sign_vals.append(1.0 if s >= 0 else -1.0)
    attained = efc_test_function_value(spec, x, y, np.asarray(sign_vals))
    assert attained == pytest.approx(closed, abs=1e-10)
    assert closed <= 1.0 + 1e-12
    assert efc(spec, y, x) == pytest.approx(closed, abs=1e-12)
    assert efc(spec, x, x) == pytest.approx(1.0, abs=1e-10)


def test_gri_holds_on_random_instances():
    from mpmsa.experiments import off_spectrum_energy, random_gri_instance
    from mpmsa.hamiltonian import spectral_window

    u = InteractionPotential(1.0, 0.5)
    for graph_spec, n in [("path:12", 1), ("path:8", 2), ("cycle:9", 1), ("grid:3x4", 1)]:
        g = build_graph(graph_spec)
        window = spectral_window(g, n, 1.0, DIST.sup_abs, u)
        for i in range(25):
            rng = CounterRng(1000 * n + i)
            ball, sub, x, y = random_gri_instance(g, n, rng, max_volume=200)
            smp = sample_potential(DIST, g, 555 + i)
            spec_v = BallSpectra(BallOperators(g, u), smp, 1.0).spectrum(ball)
            spec_w = eigendecompose(VolumeOperator(g, sub, u), 1.0, smp)
            e = off_spectrum_energy((spec_v, spec_w), window, rng)
            *_, holds = gri_check(spec_v, spec_w, x, y, e)
            assert holds


def test_gri_degenerate_subset():
    # W = V minus a single boundary configuration
    g = build_graph("path:9")
    ball = MultiBall(g, (4,), 3)
    volume = ball.members()
    sub = volume[:-1]
    smp = sample_potential(DIST, g, 6)
    spec = eigendecompose(VolumeOperator.from_ball(ball, ZERO_INTERACTION), 1.0, smp)
    spec_w = eigendecompose(VolumeOperator(g, sub, ZERO_INTERACTION), 1.0, smp)
    e = spec.eigenvalues.max() + 0.8
    *_, holds = gri_check(spec, spec_w, sub[0], volume[-1], e)
    assert holds


def test_gri_boundary_sum_over_the_edge_boundary_oracle():
    """The rhs of gri_check, read off V's operator edges, is bit for bit the
    sum over edge_boundary in its order; a W outside V is refused."""
    from mpmsa.experiments import off_spectrum_energy, random_gri_instance
    from mpmsa.hamiltonian import spectral_window

    u = InteractionPotential(1.0, 0.5)
    for graph_spec, n in [("path:12", 1), ("path:8", 2), ("cycle:9", 1), ("grid:3x4", 1), ("tree:2x3", 2)]:
        g = build_graph(graph_spec)
        window = spectral_window(g, n, 1.0, DIST.sup_abs, u)
        for i in range(5):
            rng = CounterRng(7000 * n + i)
            ball, sub, x, y = random_gri_instance(g, n, rng, max_volume=200)
            smp = sample_potential(DIST, g, 90 + i)
            spec_v = BallSpectra(BallOperators(g, u), smp, 1.0).spectrum(ball)
            spec_w = eigendecompose(VolumeOperator(g, sub, u), 1.0, smp)
            e = off_spectrum_energy((spec_v, spec_w), window, rng)
            _, rhs, _ = gri_check(spec_v, spec_w, x, y, e)
            g_v, g_w = green_row(spec_v, e, y), green_row(spec_w, e, x)
            oracle = 0.0
            for a, b in edge_boundary(g, ball.members(), sub):
                oracle += abs(float(g_w[spec_w.volume.position(a)])) * abs(float(g_v[spec_v.volume.position(b)]))
            assert rhs == oracle, (graph_spec, i)
    far = next(c for c in itertools.product(range(g.n_vertices), repeat=n) if c not in spec_v.volume)
    outside = eigendecompose(VolumeOperator(g, [*sub, far], u), 1.0, smp)
    with pytest.raises(ContractViolation, match="subset"):
        gri_check(spec_v, outside, x, y, e)


@dataclass(frozen=True)
class EigenfunctionFit:
    center: Config
    mass: float
    amplitude: float
    residual: float
    n_points: int
    point_support: bool


@dataclass(frozen=True)
class LocalizationProfile:
    fits: tuple[EigenfunctionFit, ...]

    def masses(self) -> np.ndarray:
        return np.asarray([f.mass for f in self.fits])


def localization_profile(spec: SpectralData, floor: float = 1e-14) -> LocalizationProfile:
    """Per eigenfunction: localization center and least-squares decay mass.

    Fits log|psi(x)| = log(amplitude) - mass * rho_S(x, center) over entries
    above the floor; entries at or below the floor are treated as numerically
    zero, and fits with fewer than two distinct radii are flagged point_support.
    """
    vol = spec.volume
    if len(vol) < 2:
        raise ContractViolation("localization profile needs >= 2 configurations")
    g = vol.graph
    fits = []
    for j in range(spec.eigenvectors.shape[1]):
        psi = np.abs(spec.eigenvectors[:, j])
        center_idx = int(np.argmax(psi))  # argmax takes the smallest index on ties
        center = vol.configs[center_idx]
        mask = psi > floor
        radii = np.asarray([rho_s(g, center, c) for c in vol.configs], dtype=np.float64)
        r, v = radii[mask], np.log(psi[mask])
        if np.unique(r).size < 2:
            fits.append(EigenfunctionFit(center, float("nan"), float("nan"), 0.0, int(mask.sum()), True))
            continue
        coeffs, res = np.polyfit(r, v, 1, full=True)[:2]
        slope, intercept = coeffs
        residual = float(res[0]) if len(res) else 0.0
        fits.append(
            EigenfunctionFit(
                center=center,
                mass=float(-slope),
                amplitude=float(np.exp(intercept)),
                residual=residual,
                n_points=int(mask.sum()),
                point_support=False,
            )
        )
    return LocalizationProfile(fits=tuple(fits))


def test_localization_profile_strong_disorder():
    g = build_graph("path:20")
    smp = sample_potential(DIST, g, 31)
    spec = eigendecompose(VolumeOperator(g, [(i,) for i in range(20)], ZERO_INTERACTION), 1e3, smp)
    prof = localization_profile(spec)
    masses = prof.masses()
    assert np.all(masses[np.isfinite(masses)] > 0)
    assert sum(f.point_support for f in prof.fits) == 0


def test_localization_profile_point_support():
    g = build_graph("path:4")
    prof = localization_profile(_dense_spectrum(g, [(i,) for i in range(4)], np.diag([1.0, 2.0, 3.0, 4.0])))
    assert all(f.point_support for f in prof.fits)


def test_localization_profile_extended_state():
    g = build_graph("cycle:12")
    smp = sample_potential(DIST, g, 1)
    spec = eigendecompose(VolumeOperator(g, [(i,) for i in range(12)], ZERO_INTERACTION), 0.0, smp)
    prof = localization_profile(spec)
    ground = prof.fits[0]  # constant eigenfunction of the cycle Laplacian
    assert abs(ground.mass) < 1e-8


def test_parseval_per_configuration():
    g = build_graph("grid:3x3")
    ball = MultiBall(g, (4, 2), 1)
    smp = sample_potential(DIST, g, 8)
    spec = eigendecompose(VolumeOperator.from_ball(ball, InteractionPotential(0.5, 1.0)), 1.0, smp)
    sums = (spec.eigenvectors**2).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-10


def test_ball_spectra_solves_each_ball_once(monkeypatch):
    g = build_graph("path:12")
    smp = sample_potential(DIST, g, 4)
    solves = []

    def counting(op, g, sample):
        solves.append(op.configs)
        return eigendecompose(op, g, sample)

    monkeypatch.setattr(spectral, "eigendecompose", counting)
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), smp, 1.5)
    balls = [MultiBall(g, (5,), r) for r in (1, 2, 3)] + [MultiBall(g, (7,), 2)]
    first = [spectra.spectrum(b) for b in balls]
    again = [spectra.spectrum(MultiBall(g, b.center, b.radius)) for b in reversed(balls)]
    assert len(solves) == len(balls) == len(set(solves))
    assert all(a is b for a, b in zip(first, reversed(again)))
    direct = eigendecompose(VolumeOperator.from_ball(balls[1], ZERO_INTERACTION), 1.5, smp)
    assert np.array_equal(first[1].eigenvalues, direct.eigenvalues)
    assert np.array_equal(first[1].eigenvectors, direct.eigenvectors)
    with pytest.raises(ContractViolation):
        spectra.spectrum(MultiBall(build_graph("path:12"), (5,), 1))
    assert len(solves) == len(balls)


def test_ball_operators_shared_by_racing_threads():
    # more threads than cores and a short switch interval: two threads may
    # build the same operator, but every Hamiltonian formed from it is equal
    import sys
    from concurrent.futures import ThreadPoolExecutor

    g = build_graph("path:30")
    u = InteractionPotential(0.5, 1.0)
    balls = [MultiBall(g, (c, c + 3), 2) for c in (4, 10, 16)]
    samples = [sample_potential(DIST, g, seed) for seed in range(4)]
    expected = {
        (b.center, seed): assemble_ball(b, 1.5, smp, u) for b in balls for seed, smp in enumerate(samples)
    }
    operators = BallOperators(g, u)
    jobs = [(b, seed) for _ in range(8) for b in balls for seed in range(len(samples))]

    def one(job):
        ball, seed = job
        return operators.operator(ball).hamiltonian(1.5, samples[seed])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (ball, seed), h in zip(jobs, results):
        assert np.array_equal(h, expected[(ball.center, seed)])


def test_ns_flags_guard_and_empty_boundary():
    g = build_graph("path:9")
    cert = certify_growth(g, 1.0, 8)
    smp = sample_potential(DIST, g, 11)
    ball = MultiBall(g, (4,), 2)
    spec = eigendecompose(VolumeOperator.from_ball(ball, ZERO_INTERACTION), 1.0, smp)
    lam = spec.eigenvalues
    energies = np.asarray([lam[0], lam[0] + 1e-6, lam.max() + 1e6])
    ns, undetermined = ns_flags(spec, cert, energies, threshold=1e-3)
    assert undetermined.tolist() == [True, False, False]
    assert ns.tolist() == [False, False, True]
    whole = MultiBall(g, (4,), 8)  # exhausts the graph: no inner boundary
    spec_whole = eigendecompose(VolumeOperator.from_ball(whole, ZERO_INTERACTION), 1.0, smp)
    ns, undetermined = ns_flags(spec_whole, cert, spec_whole.eigenvalues[:2], 1e-3)
    assert ns.all() and not undetermined.any()


def test_ns_flags_rejects_a_spectrum_of_another_ball():
    g = build_graph("path:20")
    cert = certify_growth(g, 1.0, 8)
    spectra = BallSpectra(BallOperators(g, ZERO_INTERACTION), sample_potential(DIST, g, 3), 1.0)
    ball = MultiBall(g, (3,), 2)
    spec = spectra.spectrum(ball)
    energy = np.asarray([spec.eigenvalues[0] - 0.5])
    assert not ns_flags(spec, cert, energy, 1e-30)[0][0]
    # the spectrum of a volume that is not a ball, the GRI's W, has no
    # boundary functional
    from mpmsa.experiments import random_gri_instance

    _, sub, _, _ = random_gri_instance(g, 1, CounterRng(5))
    spec_w = eigendecompose(VolumeOperator(g, sub, ZERO_INTERACTION), 1.0, spectra.sample)
    assert spec_w.volume.ball is None
    with pytest.raises(ContractViolation, match="not one"):
        ns_flags(spec_w, cert, energy, 1e-30)
    # a radius-0 ball has a boundary but no boundary functional
    point = MultiBall(g, (3,), 0)
    with pytest.raises(ContractViolation):
        ns_flags(spectra.spectrum(point), cert, energy, 1e-30)


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _spectrum_and_energies(draw):
    lam = np.sort(np.asarray(draw(st.lists(_FINITE, min_size=1, max_size=12)), dtype=np.float64))
    if draw(st.booleans()):
        lam = np.sort(np.concatenate([lam, lam[: draw(st.integers(1, lam.size))]]))
    on = st.sampled_from(lam.tolist())
    midpoint = st.integers(0, lam.size - 1).map(lambda i: float(0.5 * (lam[i] + lam[i - 1])))
    energy = st.one_of(_FINITE, on, midpoint, st.sampled_from([np.inf, -np.inf]))
    return lam, np.asarray(draw(st.lists(energy, min_size=1, max_size=20)), dtype=np.float64)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_spectrum_and_energies())
def test_dist_to_spectrum_equals_the_broadcast_minimum(case):
    lam, energies = case
    got = dist_to_spectrum(lam, energies)
    want = np.abs(lam[None, :] - energies[:, None]).min(axis=1)
    assert got.tobytes() == want.tobytes()
    assert all(float(dist_to_spectrum(lam, e)) == w for e, w in zip(energies, want))


def _bits(value):
    """A result with every array and float as its bytes, so that == compares
    bit for bit (signed zeros and NaN payloads too)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, EnergyIntervalCover):
        return _bits(value.intervals), {kind: vars(counts) for kind, counts in value.roots.items()}
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


@pytest.mark.parametrize("graph_spec,n,g,centers,radius", [
    # g = 0: the ball's symmetries make degenerate clusters
    ("grid:5x5", 1, 0.0, ((12,), (3,)), 2),
    ("path:12", 2, 4.0, ((3, 5), (7, 8)), 2),
    # the balls of the bench's bridge workload, m = 169
    ("path:40", 2, 300.0, ((7, 9), (28, 31)), 6),
], ids=["one-particle", "two-particle", "bridge-169"])
def test_consumers_are_blind_to_eigenvector_signs(graph_spec, n, g, centers, radius):
    """Every consumer reads the eigenvectors only through products
    psi_j(x) psi_j(y) of one column: random column signs, as LAPACK may
    return them, leave every result bit for bit the same."""
    graph = build_graph(graph_spec)
    u = InteractionPotential(1.0, 0.5)
    cert = certify_growth(graph, 1.0, 12)
    smp = sample_potential(DIST, graph, 17)
    spectra = BallSpectra(BallOperators(graph, u), smp, g)
    spec_x, spec_y = (spectra.spectrum(MultiBall(graph, c, radius)) for c in centers)
    volume, lam = spec_x.volume.configs, spec_x.eigenvalues
    sub = volume[: len(volume) // 2]
    spec_w = eigendecompose(VolumeOperator(graph, sub, u), g, smp)
    x, y = sub[0], volume[-1]  # x in W, y in V \ W
    window = spectral_window(graph, n, g, DIST.sup_abs, u)
    grid = np.linspace(*window, 301)
    level = float(np.median(boundary_profile(spec_x, cert).evaluate(grid)))
    energies = np.concatenate((grid, lam[:3]))  # the guarded ones too
    gap = int(np.argmax(np.diff(lam)))
    energy = 0.5 * (lam[gap] + lam[gap + 1])
    rng = np.random.default_rng(len(volume))
    picks = [volume[i] for i in rng.choice(len(volume), 5, replace=False)] + [x, y]

    def results(sx, sy, sw):
        return (
            [efc(sx, a, b) for a in picks for b in picks],
            boundary_profile(sx, cert).coefficients,
            ns_flags(sx, cert, energies, level),
            [green_row(sx, energy, a) for a in picks],
            gri_check(sx, sw, x, y, energy),
            cover_from_profile(boundary_profile(sx, cert), level, window).intervals,
            sup_min_functional(sx, sy, cert, level, window),
        )

    want = _bits(results(spec_x, spec_y, spec_w))
    for _ in range(3):
        flipped = []
        for spec in (spec_x, spec_y, spec_w):
            signs = rng.choice([-1.0, 1.0], size=spec.eigenvalues.size)
            flipped.append(spec._replace(eigenvectors=spec.eigenvectors * signs))
        assert (flipped[0].eigenvectors != spec_x.eigenvectors).any()
        assert _bits(results(*flipped)) == want
