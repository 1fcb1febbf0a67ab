"""Geometry of N-particle configurations over a single-particle graph.

Particles are distinguishable; the state space is the Cartesian power of the
vertex set with the product-graph edge relation (exactly one coordinate moves
along an edge).  The max-metric rho and its permutation-symmetrized variant
rho_S live here, together with product balls, boundaries and the
weak-interactivity / weak-separation geometry.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

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


class MultiBall(NamedTuple("MultiBall", [("graph", Graph), ("center", Config), ("radius", int)])):
    """Product ball B(center, radius) = X_j B(center_j, radius) in the max-metric."""

    __slots__ = ()

    def __new__(cls, graph: Graph, center: Config, radius: int):
        if radius < 0:
            raise ContractViolation("ball radius must be >= 0")
        if len(center) < 1:
            raise ContractViolation("configuration needs at least one particle")
        return super().__new__(cls, graph, center, radius)

    @property
    def n_particles(self) -> int:
        return len(self.center)

    def vertex_balls(self) -> list[np.ndarray]:
        return [self.graph.ball(v, self.radius) for v in self.center]

    def members(self) -> list[Config]:
        """Lexicographic enumeration of the Cartesian product of vertex balls."""
        return [tuple(c) for c in itertools.product(*[b.tolist() for b in self.vertex_balls()])]

    def inner_boundary_positions(self) -> np.ndarray:
        """Ascending positions in members() of the inner boundary: a rho-1 step
        leaves a product set iff some coordinate can leave its vertex ball, so
        the boundary flags are an OR over particles on the product grid."""
        g, balls = self.graph, self.vertex_balls()
        on_boundary = np.zeros([len(b) for b in balls], dtype=bool)
        for j, (c, b) in enumerate(zip(self.center, balls)):
            leaves = [any(g.dist[c, w] > self.radius for w in g.neighbors[v]) for v in b]
            shape = [1] * len(balls)
            shape[j] = -1
            on_boundary |= np.asarray(leaves, dtype=bool).reshape(shape)
        return np.flatnonzero(on_boundary)

    def size(self) -> int:
        out = 1
        for b in self.vertex_balls():
            out *= len(b)
        return out

    def concentric(self, radius: int) -> "MultiBall":
        return MultiBall(self.graph, self.center, radius)


def weakly_interactive(ball: MultiBall) -> bool:
    """Weakly interactive (WI): diam(support of center) > 3*N*L; otherwise
    strongly interactive.

    A WI ball always splits its particles into two groups whose partial ball
    supports are more than L apart: two vertex balls of radius 3L/2 intersect
    only if their centers are within 3L, and the particle graph with edges
    d(u_i, u_j) <= 3L must be disconnected when the diameter exceeds 3NL.
    """
    if ball.n_particles < 2:
        raise ContractViolation("interactivity is undefined for a single particle")
    return ball.graph.diameter_of(set(ball.center)) > 3 * ball.n_particles * ball.radius


class SeparationCertificate(NamedTuple):
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


@functools.lru_cache(maxsize=16)
def vertex_ball_masks(graph: Graph, radius: int) -> tuple[int, ...]:
    """vertex_ball_mask of every vertex at one radius, formed once per
    (graph, radius) for the many pairs a run scans."""
    return tuple(vertex_ball_mask(graph, v, radius) for v in range(graph.n_vertices))


@functools.lru_cache(maxsize=16)
def separation_candidates(graph: Graph, n: int, radius: int) -> tuple[tuple[int, int, int], ...]:
    """Candidate capturing balls (center, radius, vertex mask) in the
    documented deterministic order: center index, then radius ascending,
    keeping radii 0..2NL and diameters <= 2NL.  They depend on (graph, N, L)
    alone, so the last few are kept for the many pairs a run scans."""
    max_diam = 2 * n * radius
    out = []
    for c in range(graph.n_vertices):
        for r in range(0, max_diam + 1):
            verts = graph.ball(c, r)
            if r > 0 and graph.diameter_of(verts) > max_diam:
                break  # diameters only grow with r
            out.append((c, r, vertex_ball_mask(graph, c, r)))
    return tuple(out)


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


def weak_separation(ballx: MultiBall, bally: MultiBall) -> SeparationCertificate | None:
    """Search for a weak-separation certificate, or None.

    The first candidate ball (see separation_candidates for the order) that
    captures strictly more particles of one ball than of the other wins.
    """
    if ballx.n_particles != bally.n_particles or ballx.radius != bally.radius:
        raise ContractViolation("weak separation needs equal N and L")
    g, radius = ballx.graph, ballx.radius
    masks = vertex_ball_masks(g, radius)
    masks_x = [masks[v] for v in ballx.center]
    masks_y = [masks[v] for v in bally.center]
    for c, r, b_mask in separation_candidates(g, ballx.n_particles, radius):
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
