"""Assembly of Dirichlet Laplacians and the interactive N-particle Hamiltonian.

The Dirichlet restriction keeps the full-graph degree on the diagonal
(1_V Delta 1_V) and restricts edges to the volume off the diagonal.  Many
codebases use the interior degree instead; the present convention makes the
Hamiltonian over a sub-volume an exact principal submatrix of the Hamiltonian
over any enclosing volume.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .configspace import Config, MultiBall, product_neighbors
from .disorder import DisorderSample, InteractionPotential
from .errors import BudgetExceeded, ContractViolation, DataError
from .graphs import Graph

VOLUME_BUDGET = 4000  # configurations of a dense Hamiltonian
MIN_BLOCK_ROWS = 16  # BFS layers are merged into blocks of at least this many rows


def row_runs(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> tuple:
    """Off-diagonal entries H[rows[k], cols[k]] = values[k] as maximal runs
    (start, stop, offset, value): H[i, i + offset] = value for start <= i < stop.
    In lexicographic order the edges of a product graph form few runs (the
    m = 900 two-particle path volume has 3,480 edges in 62 runs)."""
    offsets = cols - rows
    order = np.lexsort((rows, values, offsets))
    rows, offsets, values = rows[order], offsets[order], values[order]
    breaks = np.flatnonzero((np.diff(rows) != 1) | (np.diff(offsets) != 0) | (np.diff(values) != 0)) + 1
    starts, stops = np.concatenate(([0], breaks)), np.append(breaks, len(rows))
    return tuple(
        (int(rows[a]), int(rows[b - 1]) + 1, int(offsets[a]), float(values[a]))
        for a, b in zip(starts, stops) if b > a
    )


class VolumeOperator:
    """One finite volume V of N-particle configurations and the
    sample-independent part of H_V.

    H = -Laplacian + g * sum_j V(x_j) + sum_{i<j} u(d(x_i, x_j)), and only the
    g * sum_j V(x_j) diagonal depends on the coupling and the disorder sample.
    The volume is enumerated once in lexicographic order: the operator keeps
    its configurations, the product-graph edges inside it (also as the
    `row_runs` of H), and the two sample-independent diagonals (the
    full-graph degree and the interaction sum).  A ball's volume also keeps
    the ball and the ascending positions of its inner boundary.

    Every off-diagonal entry of H is -1 on an edge and 0 elsewhere, so H is
    symmetric exactly when the edge set is, which construction checks, and
    finite exactly when its diagonal is, which `diagonal` checks.
    """

    def __init__(self, graph: Graph, configs, interaction: InteractionPotential, ball: MultiBall | None = None):
        self.graph = graph
        self.ball = ball
        self.boundary = None if ball is None else ball.inner_boundary_positions()
        self.label = "volume" if ball is None else f"ball{ball.center}r{ball.radius}"
        self.configs: tuple[Config, ...] = tuple(sorted(set(map(tuple, configs))))
        if not self.configs:
            raise ContractViolation("volume must be nonempty")
        n = len(self.configs[0])
        if any(len(c) != n for c in self.configs):
            raise ContractViolation("volume mixes particle counts")
        self.index: dict[Config, int] = {c: i for i, c in enumerate(self.configs)}
        self.config_array = sites = np.asarray(self.configs, dtype=np.int64)
        self.degree = graph.degree[sites].sum(axis=1).astype(np.float64)
        self.interaction_sum = np.zeros(len(self))
        for i in range(n):
            for j in range(i + 1, n):
                self.interaction_sum += interaction.values(graph.dist[sites[:, i], sites[:, j]])
        rows, cols = [], []
        for i, x in enumerate(self.configs):
            for y in product_neighbors(graph, x):
                j = self.index.get(y)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if not np.array_equal(np.sort(rows * len(self) + cols), np.sort(cols * len(self) + rows)):
            raise DataError(f"edge set of {self.label} is not symmetric")
        self.edges = (rows, cols)
        self.runs = row_runs(rows, cols, np.full(len(rows), -1.0))
        self._partition: LayerPartition | None = None

    @classmethod
    def from_ball(cls, ball: MultiBall, interaction: InteractionPotential) -> "VolumeOperator":
        size = ball.size()
        if size > VOLUME_BUDGET:
            raise BudgetExceeded(f"ball has {size} configurations; dense budget is {VOLUME_BUDGET}")
        return cls(ball.graph, ball.members(), interaction, ball=ball)

    def __len__(self) -> int:
        return len(self.configs)

    def __contains__(self, config) -> bool:
        return tuple(config) in self.index

    def position(self, config) -> int:
        try:
            return self.index[tuple(config)]
        except KeyError:
            raise ContractViolation(f"configuration {config} not in volume {self.label}") from None

    def diagonal(self, g: float, sample: DisorderSample) -> np.ndarray:
        """Diagonal of H at coupling g under one disorder sample; every other
        entry of H is -1 on an edge and 0 elsewhere.  A non-finite entry,
        overflow included, raises DataError."""
        if len(sample.values) < self.graph.n_vertices:
            raise ContractViolation("sample does not cover the volume's graph")
        with np.errstate(over="ignore", invalid="ignore"):
            potential = g * sample.values[self.config_array].sum(axis=1)
            diagonal = self.degree + (potential + self.interaction_sum)
        if not np.isfinite(diagonal).all():
            raise DataError("Hamiltonian has non-finite entries")
        return diagonal

    def hamiltonian(self, g: float, sample: DisorderSample) -> np.ndarray:
        """H at coupling g under one disorder sample, a dense m x m array."""
        diagonal = self.diagonal(g, sample)
        m = len(self)
        h = np.zeros((m, m))
        h[self.edges] = -1.0
        h[np.diag_indices(m)] = diagonal
        return h

    def partition(self) -> "LayerPartition":
        """The layer partition, built on first use and kept.  Two threads may
        build it at once; the copies are equal."""
        if self._partition is None:
            self._partition = LayerPartition.of(self)
        return self._partition


class LayerPartition(NamedTuple):
    """A volume split into consecutive blocks of positions in which H is
    block tridiagonal: every edge joins a block to itself or to the next.

    `blocks[k]` holds ascending volume positions, `hopping[k]` is H off its
    diagonal on block k, and `coupling[k]` is the block of H between blocks
    k - 1 and k (`coupling[0]` has no rows).
    """

    blocks: tuple[np.ndarray, ...]
    hopping: tuple[np.ndarray, ...]
    coupling: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, op: VolumeOperator) -> "LayerPartition":
        """The blocks of `layer_blocks`, or a single block in volume order when
        they would cost more than one eigenvalue solve of the volume, 4/3 m**3.
        A block of b rows is costed as six eigensolves with vectors (the two
        shifts of a Wegner sample, measured and then bracketed), 9 b**3 each,
        with b taken 24 rows larger for the fixed cost of a small solve.  That
        fits inertia against eigvalsh on two-particle path balls (2 vCPUs, 1
        BLAS thread): 12 against 9 ms at m = 361 (17 layer blocks), which
        takes one block, 22 against 109 ms at m = 961 and 76 against 956 ms
        at m = 2025."""
        m = len(op)
        blocks = layer_blocks(op)
        if 6 * 9 * sum((len(b) + 24) ** 3 for b in blocks) > 4 / 3 * m**3:
            blocks = [np.arange(m)]
        return cls.from_blocks(op, blocks)

    @classmethod
    def from_blocks(cls, op: VolumeOperator, blocks) -> "LayerPartition":
        """The partition into `blocks`, which must keep H block tridiagonal."""
        m = len(op)
        rows, cols = op.edges
        block_of = np.empty(m, dtype=np.int64)
        local = np.empty(m, dtype=np.int64)
        for k, b in enumerate(blocks):
            block_of[b] = k
            local[b] = np.arange(len(b))
        row_block, col_block = block_of[rows], block_of[cols]
        hopping, coupling = [], []
        for k, b in enumerate(blocks):
            inside = (row_block == k) & (col_block == k)
            hop = np.zeros((len(b), len(b)))
            hop[local[rows[inside]], local[cols[inside]]] = -1.0
            hopping.append(hop)
            across = (row_block == k - 1) & (col_block == k)
            coup = np.zeros((len(blocks[k - 1]) if k else 0, len(b)))
            coup[local[rows[across]], local[cols[across]]] = -1.0
            coupling.append(coup)
        return cls(tuple(blocks), tuple(hopping), tuple(coupling))


def layer_blocks(op: VolumeOperator) -> list[np.ndarray]:
    """BFS layers of the product graph inside the volume, merged into
    consecutive blocks of at least MIN_BLOCK_ROWS rows (a short tail joins
    the last block), each in ascending position order."""
    rows, cols = op.edges
    layer = np.full(len(op), -1, dtype=np.int64)
    layers: list[np.ndarray] = []
    while (layer < 0).any():
        # a BFS from the first unreached position; a volume that is not
        # connected continues its layers component by component
        frontier = np.flatnonzero(layer < 0)[:1]
        while frontier.size:
            layer[frontier] = len(layers)
            layers.append(frontier)
            reached = cols[layer[rows] == len(layers) - 1]
            frontier = np.unique(reached[layer[reached] < 0])
    blocks: list[np.ndarray] = []
    for positions in layers:
        if blocks and len(blocks[-1]) < MIN_BLOCK_ROWS:
            blocks[-1] = np.concatenate((blocks[-1], positions))
        else:
            blocks.append(positions)
    if len(blocks) > 1 and len(blocks[-1]) < MIN_BLOCK_ROWS:
        blocks[-2:] = [np.concatenate(blocks[-2:])]
    return [np.sort(b) for b in blocks]


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
