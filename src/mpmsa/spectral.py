"""Exact diagonalization, Green functions, the boundary functional, the
eigenfunction correlator and the geometric resolvent inequality check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configspace import Config, MultiBall, ball_inner_boundary, edge_boundary, rho_s
from .disorder import DisorderSample, InteractionPotential
from .errors import ContractViolation, DataError, ResonanceError
from .graphs import Graph, GrowthCertificate
from .hamiltonian import HamiltonianMatrix, VolumeIndex, assemble_ball

RESOLVENT_GUARD = 1e-12
DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    volume: VolumeIndex
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    h_norm: float

    def dist_to_spectrum(self, energy: float) -> float:
        return float(np.abs(self.eigenvalues - energy).min())

    def component(self, config: Config) -> np.ndarray:
        """Row of the eigenvector matrix at a configuration (values psi_j(x))."""
        return self.eigenvectors[self.volume.position(config), :]

    def clusters(self, gap: float = DEGENERACY_GAP) -> list[slice]:
        """Maximal runs of eigenvalues whose consecutive gaps are <= gap."""
        starts = cluster_starts(self.eigenvalues, gap)
        ends = np.append(starts[1:], self.eigenvalues.size)
        return [slice(int(a), int(b)) for a, b in zip(starts, ends)]


def cluster_starts(eigenvalues: np.ndarray, gap: float = DEGENERACY_GAP) -> np.ndarray:
    """First indices of the maximal runs of ascending eigenvalues whose
    consecutive gaps are <= gap (the numerically degenerate clusters)."""
    return np.concatenate(([0], np.flatnonzero(np.diff(eigenvalues) > gap) + 1))


def cluster_sums(
    eigenvalues: np.ndarray, values: np.ndarray, gap: float = DEGENERACY_GAP
) -> tuple[np.ndarray, np.ndarray]:
    """Mean eigenvalue of each cluster and the per-cluster sums of `values`
    along axis 0 (one row per eigenvalue)."""
    starts = cluster_starts(eigenvalues, gap)
    sizes = np.diff(starts, append=eigenvalues.size)
    return np.add.reduceat(eigenvalues, starts) / sizes, np.add.reduceat(values, starts, axis=0)


def eigendecompose(ham: HamiltonianMatrix) -> SpectralData:
    """Full spectrum with orthonormal eigenvectors and a fixed sign convention.

    Ordering is ascending; each eigenvector is flipped so its largest-magnitude
    entry (smallest index on ties) is positive.  Residual and orthonormality
    contracts are enforced here rather than trusted.
    """
    if not np.isfinite(ham.matrix).all():
        raise DataError("matrix has non-finite entries")
    lam, vec = np.linalg.eigh(ham.matrix)
    anchor = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[anchor, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    vec = vec * signs
    h_norm = float(np.abs(lam).max()) if lam.size else 0.0
    resid = np.abs(ham.matrix @ vec - vec * lam).max()
    if resid > 1e-9 * max(h_norm, 1.0):
        raise DataError(f"eigensolve residual {resid:.3e} too large")
    gram_err = np.abs(vec.T @ vec - np.eye(vec.shape[1])).max()
    if gram_err > 1e-10:
        raise DataError(f"eigenvector gram deviation {gram_err:.3e} too large")
    return SpectralData(volume=ham.volume, eigenvalues=lam, eigenvectors=vec, h_norm=h_norm)


@dataclass(eq=False)
class BallSpectra:
    """Hamiltonians and spectra of the balls of one graph under one disorder
    sample: the one path from (ball, sample) to spectral data.

    Each (center, radius) is diagonalized on first request and memoized: the
    multi-scale predicates and the domination check ask about the same balls
    at many energies, radii and predicates.  Hamiltonians are assembled on
    request and not kept.
    """

    graph: Graph
    sample: DisorderSample
    g: float
    interaction: InteractionPotential
    _solved: dict[tuple[Config, int], SpectralData] = field(
        default_factory=dict, init=False, repr=False
    )

    def hamiltonian(self, ball: MultiBall) -> HamiltonianMatrix:
        if ball.graph is not self.graph:
            raise ContractViolation("ball lies on another graph than its spectra")
        return assemble_ball(ball, self.g, self.sample, self.interaction)

    def spectrum(self, ball: MultiBall) -> SpectralData:
        if ball.graph is not self.graph:
            raise ContractViolation("ball lies on another graph than its spectra")
        key = (tuple(ball.center), ball.radius)
        spec = self._solved.get(key)
        if spec is None:
            spec = self._solved[key] = eigendecompose(self.hamiltonian(ball))
        return spec


def _check_resonance(spec: SpectralData, energy: float, guard: float) -> None:
    dist = spec.dist_to_spectrum(energy)
    if dist <= guard:
        raise ResonanceError(dist, guard)


def green(
    spec: SpectralData, energy: float, x: Config, y: Config, guard: float = RESOLVENT_GUARD
) -> float:
    """Matrix entry of (H - E I)^{-1}: sum_j psi_j(x) psi_j(y) / (lambda_j - E)."""
    _check_resonance(spec, energy, guard)
    cx = spec.component(x)
    cy = spec.component(y)
    return float(np.sum(cx * cy / (spec.eigenvalues - energy)))


def green_row(
    spec: SpectralData, energy: float, x: Config, guard: float = RESOLVENT_GUARD
) -> np.ndarray:
    """G(x, .; E) over the whole volume as one vector."""
    _check_resonance(spec, energy, guard)
    weights = spec.component(x) / (spec.eigenvalues - energy)
    return spec.eigenvectors @ weights


@dataclass(frozen=True)
class BoundaryProfile:
    """Reusable data for evaluating F_u(E) on many energies.

    F_u(E) = prefactor * max over boundary z of |sum_j c_j(z) / (lambda_j - E)|
    with c_j(z) = psi_j(u) psi_j(z).
    """

    eigenvalues: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)  # (n_eigs, n_boundary)
    boundary: tuple[Config, ...]
    prefactor: float
    center: Config

    def green_values(self, energies: np.ndarray) -> np.ndarray:
        """(n_energies, n_boundary) array of G(center, z; E); no resonance guard."""
        energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weights = 1.0 / (self.eigenvalues[None, :] - energies[:, None])
            return weights @ self.coefficients

    def evaluate(self, energies, guard: float = 0.0) -> np.ndarray:
        """F values per energy; energies within `guard` of a pole give +inf."""
        energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
        vals = self.prefactor * np.abs(self.green_values(energies)).max(axis=1)
        if guard > 0.0:
            dist = np.abs(self.eigenvalues[None, :] - energies[:, None]).min(axis=1)
            vals = np.where(dist <= guard, np.inf, vals)
        return vals


def boundary_profile(
    spec: SpectralData, ball: MultiBall, cert: GrowthCertificate
) -> BoundaryProfile:
    if ball.radius < 1:
        raise ContractViolation("boundary functional needs radius >= 1")
    boundary = ball_inner_boundary(ball)
    if not boundary:
        raise ContractViolation("ball has empty inner boundary (it exhausts the graph)")
    center_row = spec.component(ball.center)
    coeff = np.stack([center_row * spec.component(z) for z in boundary], axis=1)
    pref = cert.prefactor(ball.n_particles, ball.radius)
    return BoundaryProfile(
        eigenvalues=spec.eigenvalues,
        coefficients=coeff,
        boundary=tuple(boundary),
        prefactor=pref,
        center=ball.center,
    )


def boundary_functional(
    spec: SpectralData,
    ball: MultiBall,
    energy: float,
    cert: GrowthCertificate,
    guard: float = RESOLVENT_GUARD,
) -> float:
    """F_u(E) = C^(2N) L^(Nd) * max over inner-boundary z of |G_ball(u, z; E)|."""
    _check_resonance(spec, energy, guard)
    prof = boundary_profile(spec, ball, cert)
    return float(prof.evaluate(np.asarray([energy]))[0])


def ns_flags(
    spec: SpectralData,
    ball: MultiBall,
    cert: GrowthCertificate,
    energies: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Green-decay nonsingularity F_u(E) <= threshold at each energy.

    Returns boolean arrays (ns, undetermined).  An energy within the resolvent
    guard of the spectrum is undetermined and not NS; a ball without an inner
    boundary is vacuously NS at every energy.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    try:
        prof = boundary_profile(spec, ball, cert)
    except ContractViolation:
        return np.ones(energies.shape, dtype=bool), np.zeros(energies.shape, dtype=bool)
    dist = np.abs(spec.eigenvalues[None, :] - energies[:, None]).min(axis=1)
    undetermined = dist <= RESOLVENT_GUARD
    return (prof.evaluate(energies) <= threshold) & ~undetermined, undetermined


@dataclass(frozen=True)
class EfcResult:
    """Eigenfunction correlator sup over |f| <= 1 of |<1_y| f(H) |1_x>|."""

    value: float
    contributions: tuple[float, ...]  # |<1_y P_lambda 1_x>| per eigenvalue cluster
    cluster_energies: tuple[float, ...]


def efc(spec: SpectralData, x: Config, y: Config, gap: float = DEGENERACY_GAP) -> EfcResult:
    """Closed form: sum over distinct-eigenvalue clusters of |<1_y P 1_x>|.

    The sup over bounded test functions is attained by the sign pattern of the
    per-cluster projections, so no optimization is needed.
    """
    energies, sums = cluster_sums(spec.eigenvalues, spec.component(x) * spec.component(y), gap)
    contribs = [abs(float(v)) for v in sums]
    return EfcResult(
        value=float(sum(contribs)),
        contributions=tuple(contribs),
        cluster_energies=tuple(float(e) for e in energies),
    )


def efc_test_function_value(
    spec: SpectralData, x: Config, y: Config, f_values: np.ndarray, gap: float = DEGENERACY_GAP
) -> float:
    """|<1_y| f(H) |1_x>| for f given by its values on the cluster energies."""
    sums = cluster_sums(spec.eigenvalues, spec.component(x) * spec.component(y), gap)[1]
    total = 0.0
    for f_val, s in zip(f_values, sums):
        total += f_val * float(s)
    return abs(total)


@dataclass(frozen=True)
class GriReport:
    lhs: float
    rhs: float
    holds: bool
    n_boundary_edges: int


def gri_check(
    spec_big: SpectralData,
    spec_sub: SpectralData,
    x: Config,
    y: Config,
    energy: float,
    guard: float = RESOLVENT_GUARD,
    slack: float = 1e-9,
) -> GriReport:
    """Geometric resolvent inequality over (V, W):

        |G_V(x,y)| <= sum over boundary edges (u,v) of |G_W(x,u)| |G_V(v,y)|

    for x in W, y in V \\ W, E off both spectra, given the spectrum of H_V
    and of its principal submatrix over W.  The inequality is exact
    mathematics; a failure beyond the tolerance indicates an implementation
    bug.  Small Green values
    come out of strongly canceling spectral sums, so on near-equality
    instances the relative slack is topped up with a machine-noise floor
    proportional to the cancellation mass sum_j |psi_j(x) psi_j(y)| / |l_j - E|.
    """
    vol_big, vol_sub = spec_big.volume, spec_sub.volume
    if tuple(x) not in vol_sub:
        raise ContractViolation("x must lie in W")
    if tuple(y) in vol_sub or tuple(y) not in vol_big:
        raise ContractViolation("y must lie in V \\ W")
    edges = edge_boundary(vol_big.graph, vol_big.configs, vol_sub.configs)
    _check_resonance(spec_big, energy, guard)
    _check_resonance(spec_sub, energy, guard)

    g_big_y = green_row(spec_big, energy, y, guard)
    g_sub_x = green_row(spec_sub, energy, x, guard)
    lhs = abs(float(g_big_y[vol_big.position(x)]))
    rhs = 0.0
    for u, v in edges:
        rhs += abs(float(g_sub_x[vol_sub.position(u)])) * abs(
            float(g_big_y[vol_big.position(v)])
        )
    cancel_mass = float(
        np.sum(
            np.abs(spec_big.component(x) * spec_big.component(y))
            / np.abs(spec_big.eigenvalues - energy)
        )
    )
    noise_floor = 1e-12 * (1.0 + cancel_mass)
    return GriReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs * (1.0 + slack) + noise_floor,
        n_boundary_edges=len(edges),
    )


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


def localization_profile(
    spec: SpectralData, floor: float = 1e-14
) -> LocalizationProfile:
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
