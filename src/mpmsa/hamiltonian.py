"""Assembly of Dirichlet Laplacians and the interactive N-particle Hamiltonian.

The Dirichlet restriction keeps the full-graph degree on the diagonal
(1_V Delta 1_V) and restricts edges to the volume off the diagonal.  Many
codebases use the interior degree instead; the present convention makes the
Hamiltonian over a sub-volume an exact principal submatrix of the Hamiltonian
over any enclosing volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configspace import CanonicalSplit, Config, MultiBall, product_neighbors
from .disorder import DisorderSample, InteractionPotential
from .errors import BudgetExceeded, ContractViolation, DataError
from .graphs import Graph

VOLUME_BUDGET = 4000  # configurations of a dense Hamiltonian


class VolumeIndex:
    """Deterministic lexicographic enumeration of a finite set of configurations."""

    def __init__(self, graph: Graph, configs, label: str = "volume"):
        self.graph = graph
        self.configs: tuple[Config, ...] = tuple(sorted(set(map(tuple, configs))))
        if not self.configs:
            raise ContractViolation("volume must be nonempty")
        self.n_particles = len(self.configs[0])
        if any(len(c) != self.n_particles for c in self.configs):
            raise ContractViolation("volume mixes particle counts")
        self.index: dict[Config, int] = {c: i for i, c in enumerate(self.configs)}
        self.label = label

    def __len__(self) -> int:
        return len(self.configs)

    def __contains__(self, config) -> bool:
        return tuple(config) in self.index

    def position(self, config) -> int:
        try:
            return self.index[tuple(config)]
        except KeyError:
            raise ContractViolation(f"configuration {config} not in volume {self.label}") from None

    @classmethod
    def from_ball(cls, ball: MultiBall) -> "VolumeIndex":
        size = ball.size()
        if size > VOLUME_BUDGET:
            raise BudgetExceeded(f"ball has {size} configurations; dense budget is {VOLUME_BUDGET}")
        return cls(ball.graph, ball.members(), label=f"ball{ball.center}r{ball.radius}")

    def config_array(self) -> np.ndarray:
        return np.asarray(self.configs, dtype=np.int64)


@dataclass(frozen=True)
class Provenance:
    graph_name: str
    volume_label: str
    g: float
    seed: int
    distribution: str
    interaction: str


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense real symmetric Hamiltonian over an enumerated volume."""

    volume: VolumeIndex
    matrix: np.ndarray = field(repr=False)
    provenance: Provenance

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise DataError("Hamiltonian has non-finite entries")
        if np.abs(self.matrix - self.matrix.T).max() > 1e-14:
            raise DataError("Hamiltonian is not symmetric")

    @property
    def size(self) -> int:
        return len(self.volume)

    def submatrix(self, configs) -> "HamiltonianMatrix":
        """Principal submatrix over a sub-volume (exact, by the 1_V Delta 1_V rule).

        Laplacian diagonals keep the full-graph degree, so restriction only
        removes rows/columns and the edges leaving the sub-volume.
        """
        sub = VolumeIndex(self.volume.graph, configs, label=self.volume.label + "|sub")
        idx = np.asarray([self.volume.position(c) for c in sub.configs], dtype=np.int64)
        return HamiltonianMatrix(sub, self.matrix[np.ix_(idx, idx)], self.provenance)


def laplacian(volume: VolumeIndex) -> np.ndarray:
    """Graph Laplacian restricted to the volume: full-graph degree on the
    diagonal, +1 on product-graph edges inside the volume."""
    g = volume.graph
    m = len(volume)
    configs = volume.config_array()
    out = np.zeros((m, m))
    degrees = g.degree[configs].sum(axis=1).astype(np.float64)
    out[np.diag_indices(m)] = -degrees
    for i, x in enumerate(volume.configs):
        for y in product_neighbors(g, x):
            j = volume.index.get(y)
            if j is not None:
                out[i, j] = 1.0
    return out


def interaction_diagonal(volume: VolumeIndex, interaction: InteractionPotential) -> np.ndarray:
    """Sum of u(d(x_i, x_j)) over particle pairs i < j, per configuration."""
    configs = volume.config_array()
    n = volume.n_particles
    out = np.zeros(len(volume))
    for i in range(n):
        for j in range(i + 1, n):
            out += interaction.values(volume.graph.dist[configs[:, i], configs[:, j]])
    return out


def assemble(
    volume: VolumeIndex,
    g: float,
    sample: DisorderSample,
    interaction: InteractionPotential,
) -> HamiltonianMatrix:
    """H = -Laplacian + g * sum_j V(x_j) + sum_{i<j} u(d(x_i, x_j))."""
    if len(sample.values) < volume.graph.n_vertices:
        raise ContractViolation("sample does not cover the volume's graph")
    configs = volume.config_array()
    h = -laplacian(volume)
    diag = g * sample.values[configs].sum(axis=1) + interaction_diagonal(volume, interaction)
    h[np.diag_indices(len(volume))] += diag
    prov = Provenance(
        graph_name=volume.graph.name,
        volume_label=volume.label,
        g=float(g),
        seed=sample.seed,
        distribution=sample.distribution.spec,
        interaction=interaction.spec,
    )
    return HamiltonianMatrix(volume=volume, matrix=h, provenance=prov)


def assemble_ball(
    ball: MultiBall,
    g: float,
    sample: DisorderSample,
    interaction: InteractionPotential,
) -> HamiltonianMatrix:
    return assemble(VolumeIndex.from_ball(ball), g, sample, interaction)


class PreparedVolume:
    """Volume with the sample-independent parts of H prebuilt.

    Monte Carlo loops re-assemble thousands of Hamiltonians over one volume;
    only the g * sum_j V(x_j) diagonal changes between trials.
    """

    def __init__(self, volume: VolumeIndex, interaction: InteractionPotential):
        self.volume = volume
        self.base = -laplacian(volume)
        self.base[np.diag_indices(len(volume))] += interaction_diagonal(volume, interaction)
        self.configs = volume.config_array()

    @classmethod
    def from_ball(cls, ball: MultiBall, interaction: InteractionPotential) -> "PreparedVolume":
        return cls(VolumeIndex.from_ball(ball), interaction)

    def matrix(self, g: float, sample: DisorderSample) -> np.ndarray:
        m = self.base.copy()
        m[np.diag_indices(len(self.volume))] += g * sample.values[self.configs].sum(axis=1)
        return m

    def eigenvalues(self, g: float, sample: DisorderSample) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix(g, sample))


def norm_bound(
    graph: Graph, n_particles: int, g: float, sup_abs_potential: float,
    interaction: InteractionPotential,
) -> float:
    """Deterministic bound on ||H|| over any volume (Gershgorin row sums).

    2N*max_degree covers kinetic diagonal plus off-diagonal row sums; the
    potential term is bounded by |g| * N * sup|V| and the interaction by
    C_U * N(N-1)/2 since |u(r)| <= C_U at every distance.
    """
    n = n_particles
    return (
        2.0 * n * graph.max_degree
        + abs(g) * n * sup_abs_potential
        + n * (n - 1) / 2.0 * interaction.c_u
    )


def spectral_window(
    graph: Graph, n_particles: int, g: float, sup_abs_potential: float,
    interaction: InteractionPotential,
) -> tuple[float, float]:
    """The compact energy interval I*_g = [-bound, +bound] containing all spectra."""
    b = norm_bound(graph, n_particles, g, sup_abs_potential, interaction)
    return (-b, b)


@dataclass(frozen=True)
class DecoupledForm:
    """Exact tensor decomposition of a WI ball's Hamiltonian.

    In the kron enumeration (J-block configurations major, complement minor;
    `ordered_configs` lists the corresponding full configurations),
    reassembled() == kron(h_prime, I) + kron(I, h_second) + diag(coupling)
    equals the ball Hamiltonian reindexed by `permutation`, which maps kron
    positions to positions in the ball's lexicographic enumeration.
    """

    h_prime: HamiltonianMatrix
    h_second: HamiltonianMatrix
    coupling: np.ndarray = field(repr=False)
    ordered_configs: tuple[Config, ...]
    permutation: np.ndarray = field(repr=False)
    coupling_norm: float
    coupling_norm_bound: float

    def noninteracting_matrix(self) -> np.ndarray:
        eye_p = np.eye(self.h_prime.size)
        eye_s = np.eye(self.h_second.size)
        return np.kron(self.h_prime.matrix, eye_s) + np.kron(eye_p, self.h_second.matrix)

    def reassembled(self) -> np.ndarray:
        return self.noninteracting_matrix() + np.diag(self.coupling)


def decouple(
    ball: MultiBall,
    split: CanonicalSplit,
    g: float,
    sample: DisorderSample,
    interaction: InteractionPotential,
) -> DecoupledForm:
    """Split a WI ball's Hamiltonian into reduced Hamiltonians plus a diagonal
    cross-interaction whose norm is bounded by C_U * N^2 * exp(-L**zeta)."""
    graph = ball.graph
    j_idx = [j - 1 for j in split.J]
    jc_idx = [j - 1 for j in split.Jc]
    if not j_idx or not jc_idx:
        raise ContractViolation("split must be a nonempty proper decomposition")
    ball_p = MultiBall(graph, tuple(ball.center[i] for i in j_idx), ball.radius)
    ball_s = MultiBall(graph, tuple(ball.center[i] for i in jc_idx), ball.radius)
    h_prime = assemble_ball(ball_p, g, sample, interaction)
    h_second = assemble_ball(ball_s, g, sample, interaction)

    ordered: list[Config] = []
    for xp in h_prime.volume.configs:
        for xs in h_second.volume.configs:
            full = [0] * ball.n_particles
            for pos, j in enumerate(j_idx):
                full[j] = xp[pos]
            for pos, j in enumerate(jc_idx):
                full[j] = xs[pos]
            ordered.append(tuple(full))
    ball_volume = VolumeIndex.from_ball(ball)
    permutation = np.asarray([ball_volume.position(c) for c in ordered], dtype=np.int64)

    coupling = np.zeros(len(ordered))
    for pos, cfg in enumerate(ordered):
        total = 0.0
        for i in j_idx:
            for j in jc_idx:
                total += interaction.value(int(graph.dist[cfg[i], cfg[j]]))
        coupling[pos] = total
    norm = float(np.abs(coupling).max()) if coupling.size else 0.0
    bound = interaction.c_u * ball.n_particles**2 * float(np.exp(-float(ball.radius) ** interaction.zeta))
    return DecoupledForm(
        h_prime=h_prime,
        h_second=h_second,
        coupling=coupling,
        ordered_configs=tuple(ordered),
        permutation=permutation,
        coupling_norm=norm,
        coupling_norm_bound=bound,
    )
