"""Test-only helpers shared by several test modules."""

from dataclasses import dataclass

import numpy as np

from mpmsa.configspace import Config, MultiBall
from mpmsa.disorder import ZERO_INTERACTION, DisorderSample, InteractionPotential
from mpmsa.errors import ContractViolation
from mpmsa.graphs import GrowthCertificate
from mpmsa.hamiltonian import HamiltonianMatrix, VolumeIndex, VolumeOperator
from mpmsa.induction import EnergyIntervalCover, _reciprocals, cover_from_profile
from mpmsa.spectral import (
    DEGENERACY_GAP,
    RESOLVENT_GUARD,
    SpectralData,
    _check_resonance,
    boundary_profile,
    cluster_starts,
    cluster_sums,
)


def assemble(
    volume: VolumeIndex, g: float, sample: DisorderSample, interaction: InteractionPotential
) -> HamiltonianMatrix:
    return VolumeOperator(volume, interaction).hamiltonian(g, sample)


def assemble_ball(
    ball: MultiBall, g: float, sample: DisorderSample, interaction: InteractionPotential
) -> HamiltonianMatrix:
    return VolumeOperator.from_ball(ball, interaction).hamiltonian(g, sample)


def laplacian(volume: VolumeIndex) -> np.ndarray:
    """Graph Laplacian restricted to the volume, from the operator's edges and
    degrees: full-graph degree negated on the diagonal, +1 on each edge."""
    op = VolumeOperator(volume, ZERO_INTERACTION)
    out = np.zeros((len(volume), len(volume)))
    out[op.edges] = 1.0
    out[np.diag_indices(len(volume))] = -op.degree
    return out


def clusters(spec: SpectralData, gap: float = DEGENERACY_GAP) -> list[slice]:
    """Maximal runs of eigenvalues whose consecutive gaps are <= gap."""
    starts = cluster_starts(spec.eigenvalues, gap)
    ends = np.append(starts[1:], spec.eigenvalues.size)
    return [slice(int(a), int(b)) for a, b in zip(starts, ends)]


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


def sublevel_cover(
    spec: SpectralData,
    ball: MultiBall,
    cert: GrowthCertificate,
    level: float,
    window: tuple[float, float],
    xtol: float = 1e-12,
) -> EnergyIntervalCover:
    """Interval cover of {E in window : F_u(E) >= level} for a ball's Green data."""
    prof = boundary_profile(spec, ball, cert)
    return cover_from_profile(prof, level, window, len(spec.volume), xtol=xtol)


def rational_deriv(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j / (p_j - E)^2 at the energies, as the cover forms its slopes;
    a pole gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        recip = _reciprocals(es, poles)
        return np.square(recip, out=recip) @ w


@dataclass(frozen=True)
class MeanFluctuationSplit:
    """V restricted to Q decomposed as sample mean xi plus fluctuations eta."""

    vertices: tuple[int, ...]
    xi: float
    eta: dict[int, float]


def mean_fluctuation_split(sample: DisorderSample, vertices) -> MeanFluctuationSplit:
    verts = tuple(sorted(vertices))
    if not verts:
        raise ContractViolation("Q must be nonempty")
    vals = sample.values[np.asarray(verts, dtype=np.int64)]
    xi = float(vals.mean())
    return MeanFluctuationSplit(
        vertices=verts, xi=xi, eta={v: float(sample.values[v] - xi) for v in verts}
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
