"""Geometry of N-particle configurations over a single-particle graph.

Particles are distinguishable; the state space is the Cartesian power of the
vertex set with the product-graph edge relation (exactly one coordinate moves
along an edge).  The max-metric rho and its permutation-symmetrized variant
rho_S live here, together with product balls, boundaries, supports and the
weak-interactivity / weak-separation geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .graphs import Graph

Config = tuple[int, ...]


def rho(graph: Graph, x: Config, y: Config) -> int:
    """Max over coordinates of the single-particle graph distance."""
    if len(x) != len(y):
        raise ContractViolation("configurations have different particle counts")
    return int(max(graph.dist[a, b] for a, b in zip(x, y)))


def rho_s(graph: Graph, x: Config, y: Config) -> int:
    """rho minimized over all permutations of y's coordinates (pseudo-metric)."""
    if len(x) != len(y):
        raise ContractViolation("configurations have different particle counts")
    best = None
    for perm in itertools.permutations(y):
        m = max(graph.dist[a, b] for a, b in zip(x, perm))
        if best is None or m < best:
            best = m
            if best == 0:
                break
    return int(best)


def product_neighbors(graph: Graph, x: Config):
    """Product-graph neighbors of x: exactly one coordinate moves along an edge."""
    for j, v in enumerate(x):
        for w in graph.neighbors[v]:
            yield x[:j] + (w,) + x[j + 1 :]


def rho_one_neighbors(graph: Graph, x: Config):
    """All configurations y != x with rho(x, y) = 1 (every coordinate moves <= 1)."""
    options = [(v, *graph.neighbors[v]) for v in x]
    for combo in itertools.product(*options):
        if combo != x:
            yield combo


@dataclass(frozen=True)
class MultiBall:
    """Product ball B(center, radius) = X_j B(center_j, radius) in the max-metric."""

    graph: Graph
    center: Config
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ContractViolation("ball radius must be >= 0")
        if len(self.center) < 1:
            raise ContractViolation("configuration needs at least one particle")

    @property
    def n_particles(self) -> int:
        return len(self.center)

    def vertex_balls(self) -> list[np.ndarray]:
        return [self.graph.ball(v, self.radius) for v in self.center]

    def members(self) -> list[Config]:
        """Lexicographic enumeration of the Cartesian product of vertex balls."""
        return [tuple(c) for c in itertools.product(*[b.tolist() for b in self.vertex_balls()])]

    def size(self) -> int:
        out = 1
        for b in self.vertex_balls():
            out *= len(b)
        return out

    def concentric(self, radius: int) -> "MultiBall":
        return MultiBall(self.graph, self.center, radius)


def support(graph: Graph, x: Config, subset=None) -> frozenset[int]:
    """Union of coordinates of x restricted to a particle subset (1-based indices)."""
    if subset is None:
        subset = range(1, len(x) + 1)
    return frozenset(x[j - 1] for j in subset)


def ball_support(ball: MultiBall, subset=None) -> frozenset[int]:
    """Union of the single-particle balls of the selected particles."""
    if subset is None:
        subset = range(1, ball.n_particles + 1)
    out: set[int] = set()
    for j in subset:
        out.update(ball.graph.ball(ball.center[j - 1], ball.radius).tolist())
    return frozenset(out)


def supports(graph: Graph, x: Config, subset, radius: int):
    """Full and partial supports of a configuration and its ball, plus diam.

    Returns (support(x), support_J(x), support(ball), support_J(ball), diam).
    The empty subset yields empty partial supports.
    """
    ball = MultiBall(graph, x, radius)
    full = support(graph, x)
    part = support(graph, x, subset) if subset else frozenset()
    bfull = ball_support(ball)
    bpart = ball_support(ball, subset) if subset else frozenset()
    diam = graph.diameter_of(full)
    return full, part, bfull, bpart, diam


def edge_boundary(graph: Graph, volume, subset) -> list[tuple[Config, Config]]:
    """Ordered pairs (u, v): u in W, v in V \\ W, u<->v a product-graph edge."""
    vol = set(volume)
    sub = set(subset)
    if not sub <= vol:
        raise ContractViolation("W must be a subset of V")
    out = []
    for u in sorted(sub):
        for v in product_neighbors(graph, u):
            if v in vol and v not in sub:
                out.append((u, v))
    return out


def inner_boundary(graph: Graph, volume) -> list[Config]:
    """{u in V : rho(u, complement of V in the full product graph) = 1}."""
    vol = set(volume)
    out = []
    for u in sorted(vol):
        if any(v not in vol for v in rho_one_neighbors(graph, u)):
            out.append(u)
    return out


def ball_inner_boundary(ball: MultiBall) -> list[Config]:
    """Inner boundary of a product ball, computed coordinate-wise.

    For product sets, a rho-1 step exits iff some single coordinate can exit its
    own vertex ball, so u is boundary iff some u_j has a neighbor outside
    B(center_j, radius).  Cross-checked against inner_boundary in the tests.
    """
    g = ball.graph
    balls = [set(b.tolist()) for b in ball.vertex_balls()]
    exit_flags = []
    for j, bset in enumerate(balls):
        flags = {v: any(w not in bset for w in g.neighbors[v]) for v in bset}
        exit_flags.append(flags)
    out = []
    for x in ball.members():
        if any(exit_flags[j][v] for j, v in enumerate(x)):
            out.append(x)
    return out


def boundaries(graph: Graph, volume, subset):
    """(inner boundary of V, edge boundary of W in V) per the product-graph rules."""
    return inner_boundary(graph, volume), edge_boundary(graph, volume, subset)


@dataclass(frozen=True)
class CanonicalSplit:
    """Deterministic decomposition of a weakly interactive ball's particles.

    J is 1-based, contains particle 1 and is the lexicographically smallest
    subset whose partial ball supports are more than `radius` apart.
    """

    J: tuple[int, ...]
    Jc: tuple[int, ...]
    separation: int


def _subsets_containing_one(n: int):
    """Nonempty proper subsets of {1..n} containing 1, lexicographic by sorted tuple."""
    rest = list(range(2, n + 1))
    combos = []
    for k in range(0, n - 1):  # proper subset: exclude the full set
        combos.extend(itertools.combinations(rest, k))
    combos.sort()
    for extra in combos:
        yield (1, *extra)


def classify_interactivity(ball: MultiBall) -> tuple[str, CanonicalSplit | None]:
    """'WI' with a canonical split when diam(support of center) > 3*N*L, else 'SI'.

    A valid split always exists for WI balls: two vertex balls of radius 3L/2
    intersect only if their centers are within 3L, and the particle graph with
    edges d(u_i, u_j) <= 3L must be disconnected when the diameter exceeds 3NL.
    """
    n = ball.n_particles
    if n < 2:
        raise ContractViolation("interactivity is undefined for a single particle")
    g = ball.graph
    diam = g.diameter_of(set(ball.center))
    if diam <= 3 * n * ball.radius:
        return "SI", None
    for j_set in _subsets_containing_one(n):
        jc = tuple(j for j in range(1, n + 1) if j not in j_set)
        sep = g.set_distance(ball_support(ball, j_set), ball_support(ball, jc))
        if sep > ball.radius:
            return "WI", CanonicalSplit(J=j_set, Jc=jc, separation=sep)
    raise AssertionError("WI ball without a valid split; the diameter bound is contradicted")


@dataclass(frozen=True)
class SeparationCertificate:
    """Witness that one ball is weakly separated from another.

    The single-particle ball B = B(center, radius) captures the vertex balls of
    particles J1 of the primary ball and J2 of the secondary ball; all other
    vertex balls avoid B entirely, and #J1 > #J2.  `primary` records which
    argument of weak_separation plays the J1 role ('x' or 'y').
    """

    center: int
    radius: int
    J1: tuple[int, ...]
    J2: tuple[int, ...]
    primary: str = "x"

    @property
    def n1(self) -> int:
        return len(self.J1)

    @property
    def n2(self) -> int:
        return len(self.J2)


def vertex_ball_mask(graph: Graph, v: int, radius: int) -> int:
    """Bitmask (arbitrary-size int) of the single-particle ball B(v, radius)."""
    mask = 0
    for u in graph.ball(v, radius):
        mask |= 1 << int(u)
    return mask


def separation_candidates(graph: Graph, n: int, radius: int) -> list[tuple[int, int, int]]:
    """Candidate capturing balls (center, radius, vertex mask) in the
    documented deterministic order: center index, then radius ascending,
    keeping radii 0..2NL and diameters <= 2NL."""
    max_diam = 2 * n * radius
    out = []
    for c in range(graph.n_vertices):
        for r in range(0, max_diam + 1):
            verts = graph.ball(c, r)
            if r > 0 and graph.diameter_of(verts) > max_diam:
                break  # diameters only grow with r
            out.append((c, r, vertex_ball_mask(graph, c, r)))
    return out


def _capture_split(ball_masks: list[int], b_mask: int) -> tuple[int, ...] | None:
    """Particles whose vertex balls lie inside the mask, if every other vertex
    ball avoids it entirely; None when some ball straddles the boundary."""
    inside = []
    for j, pb in enumerate(ball_masks, start=1):
        if pb & ~b_mask == 0:
            inside.append(j)
        elif pb & b_mask:
            return None
    return tuple(inside)


def weak_separation(
    ballx: MultiBall,
    bally: MultiBall,
    candidates: list[tuple[int, int, int]] | None = None,
) -> SeparationCertificate | None:
    """Search for a weak-separation certificate, or None.

    The first candidate ball (see separation_candidates for the order) that
    captures strictly more particles of one ball than of the other wins.
    Precomputed candidates may be passed in when scanning many pairs.
    """
    if ballx.n_particles != bally.n_particles or ballx.radius != bally.radius:
        raise ContractViolation("weak separation needs equal N and L")
    g = ballx.graph
    n, radius = ballx.n_particles, ballx.radius
    if candidates is None:
        candidates = separation_candidates(g, n, radius)
    masks_x = [vertex_ball_mask(g, v, radius) for v in ballx.center]
    masks_y = [vertex_ball_mask(g, v, radius) for v in bally.center]
    for c, r, b_mask in candidates:
        jx = _capture_split(masks_x, b_mask)
        if jx is None:
            continue
        jy = _capture_split(masks_y, b_mask)
        if jy is None:
            continue
        if len(jx) > len(jy):
            return SeparationCertificate(center=c, radius=r, J1=jx, J2=jy, primary="x")
        if len(jy) > len(jx):
            return SeparationCertificate(center=c, radius=r, J1=jy, J2=jx, primary="y")
    return None
