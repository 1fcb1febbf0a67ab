"""Block LDL^T inertia counts against the eigvalsh oracle, and the layer
partition they run on."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mpmsa.configspace import MultiBall
from mpmsa.disorder import InteractionPotential, sample_potential, uniform_distribution
from mpmsa.graphs import build_graph
from mpmsa.hamiltonian import (
    MIN_BLOCK_ROWS,
    LayerPartition,
    VolumeOperator,
    layer_blocks,
)
from mpmsa.spectral import BallOperators, inertia

from helpers import ZERO_INTERACTION
from oracle import true_counts, true_eigenvalues

DIST = uniform_distribution(0, 1)
GRAPHS = ("path:12", "cycle:10", "grid:4x4", "tree:2x3")
INTERACTIONS = (ZERO_INTERACTION, InteractionPotential(1.0, 0.5))
# balls of 3 or more layer blocks: (graph, center, radius)
MULTI_BLOCK = (
    ("path:20", (10, 10), 6),
    ("grid:5x5", (12, 12), 2),
    ("cycle:10", (0, 3, 6), 2),
    ("tree:2x3", (1, 2), 3),
)


@lru_cache(maxsize=None)
def _graph(spec):
    return build_graph(spec)


def _operator(spec, center, radius, interaction=ZERO_INTERACTION, layered=False):
    """The ball's operator; `layered` gives it its layer blocks even where
    the cost rule of LayerPartition.of would count it whole."""
    graph = _graph(spec)
    op = BallOperators(graph, interaction).operator(MultiBall(graph, center, radius))
    if layered:
        op._partition = LayerPartition.from_blocks(op, layer_blocks(op))
    return op


def _blocks(op):
    """The number of blocks inertia runs on, 1 for a volume counted whole."""
    part = op.partition()
    return 1 if part is None else len(part.blocks)


def _oracle(op, g, sample, shifts):
    """Eigenvalues below each shift, from the full eigvalsh spectrum."""
    lam = np.linalg.eigvalsh(op.hamiltonian(g, sample))
    return lam, np.searchsorted(lam, shifts)


@st.composite
def _cases(draw):
    spec = draw(st.sampled_from(GRAPHS))
    graph = _graph(spec)
    n = draw(st.integers(1, 3))
    center = tuple(draw(st.integers(0, graph.n_vertices - 1)) for _ in range(n))
    radius = draw(st.integers(0, int(graph.dist.max())))
    assume(MultiBall(graph, center, radius).size() <= 400)
    interaction = draw(st.sampled_from(INTERACTIONS))
    g = draw(st.sampled_from([0.0, 0.5, 1.0, 5.0, 50.0]))
    seed = draw(st.integers(0, 2**31))
    picks = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(-1e-12, 1e-12)), min_size=1, max_size=4))
    layered = draw(st.booleans())
    return spec, center, radius, interaction, g, seed, picks, layered


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_counts_equal_eigvalsh_or_are_none(case):
    """Shifts within 1e-12 of an eigenvalue: every count, stacked or one
    shift at a time, equals the oracle's or is None, whether the partition
    is the cost rule's or the layer blocks."""
    spec, center, radius, interaction, g, seed, picks, layered = case
    op = _operator(spec, center, radius, interaction, layered)
    event(f"{min(_blocks(op), 3)}+ blocks")
    sample = sample_potential(DIST, op.graph, seed)
    lam, _ = _oracle(op, g, sample, [])
    shifts = [lam[min(int(u * len(lam)), len(lam) - 1)] + offset for u, offset in picks]
    _, oracle = _oracle(op, g, sample, shifts)
    counts = inertia(op, g, sample, shifts)
    assert counts is None or counts.tolist() == oracle.tolist()
    for shift, expected in zip(shifts, oracle):
        single = inertia(op, g, sample, [shift])
        assert single is None or single.tolist() == [expected]


@pytest.mark.parametrize("spec,center,radius", MULTI_BLOCK)
@pytest.mark.parametrize("g", [0.5, 5.0])
def test_multi_block_counts_near_eigenvalues(spec, center, radius, g):
    op = _operator(spec, center, radius, InteractionPotential(1.0, 0.5), layered=True)
    assert _blocks(op) >= 3
    sample = sample_potential(DIST, op.graph, 17)
    lam = np.linalg.eigvalsh(op.hamiltonian(g, sample))
    # half-way between neighbours the count is decided; within 1e-12 of an
    # eigenvalue it is the oracle's or undetermined
    gaps = np.diff(lam)
    mids = ((lam[:-1] + lam[1:])[gaps > 1e-6] / 2)[::3]
    decided = inertia(op, g, sample, mids)
    assert decided is not None
    assert decided.tolist() == _oracle(op, g, sample, mids)[1].tolist()
    for offset in (0.0, 1e-15, -1e-14, 1e-13, -1e-12):
        shifts = lam[::7] + offset
        counts = inertia(op, g, sample, shifts)
        assert counts is None or counts.tolist() == _oracle(op, g, sample, shifts)[1].tolist()


def test_single_block_volume_counts_its_eigvalsh_spectrum():
    op = _operator("path:9", (4,), 4)
    assert op.partition() is None
    sample = sample_potential(DIST, op.graph, 3)
    lam = np.linalg.eigvalsh(op.hamiltonian(1.0, sample))
    assert inertia(op, 1.0, sample, [lam[0] - 1.0, lam[4] + 1e-3, lam[-1] + 1.0]).tolist() == [0, 5, 9]
    assert inertia(op, 1.0, sample, [lam[4]]) is None


def _arrays(obj, seen=None):
    """Every ndarray reachable from an object through its attributes and
    through tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        yield from _arrays(vars(obj), seen)


def test_a_volume_counted_whole_keeps_no_square_array():
    """The cost rule counts the m = 169 ball whole: its counts come from
    eigvalsh of op.hamiltonian, and the operator keeps no m x m array (no
    hopping copy) after counting, while a layered operator does keep its
    blocks."""
    op = _operator("path:20", (10, 10), 6)
    m = len(op)
    sample = sample_potential(DIST, op.graph, 4)
    lam = np.linalg.eigvalsh(op.hamiltonian(1.0, sample))
    shifts = ((lam[:-1] + lam[1:]) / 2)[np.diff(lam) > 1e-6][::10]
    assert inertia(op, 1.0, sample, shifts).tolist() == np.searchsorted(lam, shifts).tolist()
    assert op.partition() is None
    assert max(a.size for a in _arrays(op)) < m * m
    layered = _operator("path:20", (10, 10), 6, layered=True)
    inertia(layered, 1.0, sample, shifts)
    assert sum(a.size for a in _arrays(layered.partition())) > 0


@pytest.mark.parametrize("layered", [False, True])
@pytest.mark.parametrize("spec,center,radius", MULTI_BLOCK + (("path:9", (4,), 4), ("grid:4x4", (5, 6), 1)))
def test_partition_covers_the_volume_and_is_block_tridiagonal(spec, center, radius, layered):
    op = _operator(spec, center, radius, layered=layered)
    part = op.partition()
    if part is None:
        # counted whole by the cost rule: H itself is the one block, formed
        # by op.hamiltonian, and its counts are its spectrum's
        assert not layered
        sample = sample_potential(DIST, op.graph, 1)
        lam = np.linalg.eigvalsh(op.hamiltonian(1.0, sample))
        mids = ((lam[:-1] + lam[1:]) / 2)[np.diff(lam) > 1e-6]
        assert inertia(op, 1.0, sample, mids).tolist() == np.searchsorted(lam, mids).tolist()
        return
    block_of = np.full(len(op), -1)
    for k, block in enumerate(part.blocks):
        assert (np.diff(block) > 0).all()
        assert (block_of[block] == -1).all()  # each position in one block only
        block_of[block] = k
    assert (block_of >= 0).all()
    rows, cols = op.edges
    assert (np.abs(block_of[rows] - block_of[cols]) <= 1).all()
    if len(part.blocks) > 1:
        assert min(map(len, part.blocks)) >= MIN_BLOCK_ROWS
    # the blocks put together are H off its diagonal
    h = op.hamiltonian(1.0, sample_potential(DIST, op.graph, 1))
    rebuilt = np.zeros_like(h)
    for k, block in enumerate(part.blocks):
        rebuilt[np.ix_(block, block)] = part.hopping[k]
        if k:
            rebuilt[np.ix_(part.blocks[k - 1], block)] = part.coupling[k]
            rebuilt[np.ix_(block, part.blocks[k - 1])] = part.coupling[k].T
    np.fill_diagonal(h, 0.0)
    assert np.array_equal(rebuilt, h)


def test_cost_rule_keeps_layers_only_for_large_volumes():
    # m = 169, 343 and 361 (17 layer blocks): one eigvalsh is cheaper;
    # m = 441, 961 and the m = 2025 ball of the Wegner benchmark: the layer
    # blocks are
    for spec, center, radius, blocks in (
        ("path:20", (10, 10), 6, 1),
        ("path:12", (6, 6, 6), 3, 1),
        ("path:19", (9, 9), 9, 1),
        ("path:25", (12, 12), 9, 1),
        ("path:30", (15, 15), 10, 21),
        ("path:31", (15, 15), 15, 41),
        ("path:45", (22, 22), 22, 69),
    ):
        op = _operator(spec, center, radius)
        assert _blocks(op) == blocks
        assert blocks == 1 or len(layer_blocks(op)) == blocks


def test_partition_of_a_disconnected_volume():
    graph = _graph("path:40")
    configs = [(x,) for x in list(range(0, 20)) + list(range(22, 40))]
    op = VolumeOperator(graph, configs, ZERO_INTERACTION)
    op._partition = LayerPartition.from_blocks(op, layer_blocks(op))
    part = op.partition()
    assert len(part.blocks) == 2
    assert sorted(np.concatenate(part.blocks).tolist()) == list(range(len(configs)))
    sample = sample_potential(DIST, graph, 2)
    lam = np.linalg.eigvalsh(op.hamiltonian(1.0, sample))
    mids = (lam[:-1] + lam[1:]) / 2
    assert inertia(op, 1.0, sample, mids).tolist() == list(range(1, len(lam)))


def test_partition_is_built_once_per_operator(monkeypatch):
    calls = []
    build = LayerPartition.of.__func__

    def counting(cls, op):
        calls.append(op)
        return build(cls, op)

    monkeypatch.setattr(LayerPartition, "of", classmethod(counting))
    op = _operator("path:20", (10, 10), 6)
    sample = sample_potential(DIST, op.graph, 1)
    for shift in (0.5, 1.5):
        inertia(op, 1.0, sample, [shift])
    assert op.partition() is op.partition()
    assert len(calls) == 1


def test_concurrent_first_use_gives_the_serial_counts():
    """Worker threads share one operator; the first calls race to build its
    partition, and every count must still be the serial one."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    graph = _graph("path:30")
    samples = [sample_potential(DIST, graph, seed) for seed in range(16)]
    serial_op = _operator("path:30", (15, 15), 10)
    expected = [inertia(serial_op, 1.0, s, [1.5, 2.5]) for s in samples]
    shared = _operator("path:30", (15, 15), 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: inertia(shared, 1.0, s, [1.5, 2.5]), samples))
    finally:
        sys.setswitchinterval(interval)
    assert [None if c is None else c.tolist() for c in got] == [
        None if c is None else c.tolist() for c in expected
    ]


# (graph, center, radius) of at most 49 configurations: a two-particle ball
# on the diagonal (swap-symmetric, with near-degenerate doublets), one off
# it, and an N = 1 ball of 37 vertices
ORACLE_VOLUMES = (("path:12", (5, 5), 3), ("path:12", (3, 6), 3), ("grid:7x7", (24,), 4))
ORACLE_OFFSETS = (0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8)


@pytest.mark.parametrize("layered", [False, True])
@pytest.mark.parametrize("spec,center,radius", ORACLE_VOLUMES)
def test_counts_equal_the_40_digit_truth(spec, center, radius, layered):
    """Shifts at every eigenvalue and 1e-14 to 1e-8 off it, one inertia call
    each, counted whole (the cost rule's choice at this size) and on forced
    layer blocks: every count that is not None equals the number of true
    eigenvalues below the shift, from a 40-digit eigsy of the same float H.
    A count may be None within 1e-12 of an eigenvalue (about m eps |H| for
    the whole volume, more for the pivots), never 1e-10 or more away, nor
    for the midpoints of the gaps in one stacked call.  Measured: 3 m of the
    9 m near shifts are None counted whole (offsets 0 and +-1e-14), and
    82, 82 and 14 more on the layer blocks (offsets +-1e-12)."""
    op = _operator(spec, center, radius, InteractionPotential(1.0, 0.5), layered)
    assert len(op) <= 49 and (op.partition() is None) != layered
    assert not layered or len(op.partition().blocks) >= 2
    sample = sample_potential(DIST, op.graph, 23)
    truth = true_eigenvalues(op.hamiltonian(2.0, sample))
    for offset in ORACLE_OFFSETS:
        shifts = [float(lam) + offset for lam in truth]
        for shift, expected in zip(shifts, true_counts(truth, shifts)):
            count = inertia(op, 2.0, sample, [shift])
            assert count is None or count.tolist() == [expected], (shift, count, expected)
            assert count is not None or abs(offset) < 1e-10, (shift, offset)
    mids = [float((a + b) / 2) for a, b in zip(truth, truth[1:])]
    counts = inertia(op, 2.0, sample, mids)
    assert counts is not None and counts.tolist() == true_counts(truth, mids)
