"""Finite connected single-particle graphs with a cached distance oracle.

Supported families: path(n), cycle(n), grid(w,h), balanced-tree(b,depth).
All-pairs distances are stored densely, so construction is capped by a
fixed vertex budget (storage is quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, ConfigurationError

VERTEX_BUDGET = 5000  # vertices of a dense distance table


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """Undirected connected graph on vertices 0..n-1 with no self-loops; compared by identity."""

    name: str
    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    dist: np.ndarray  # (n, n) int32 shortest-path distances

    @property
    def degree(self) -> np.ndarray:
        return np.asarray([len(nb) for nb in self.neighbors], dtype=np.int64)

    @property
    def max_degree(self) -> int:
        return int(self.degree.max())

    def ball(self, x: int, radius: int) -> np.ndarray:
        """Vertices at distance <= radius from x, ascending."""
        return np.nonzero(self.dist[x] <= radius)[0]

    def diameter_of(self, vertices) -> int:
        """Max pairwise distance within a vertex set (0 for singletons)."""
        idx = np.asarray(sorted(vertices), dtype=np.int64)
        if idx.size <= 1:
            return 0
        return int(self.dist[np.ix_(idx, idx)].max())


class GrowthCertificate(NamedTuple):
    """Certified polynomial ball growth: #B(x,L) <= C * L**d for 1 <= L <= lmax."""

    d: float
    C: float
    lmax: int

    def prefactor(self, n_particles: int, radius: int) -> float:
        """The scale factor C^(2N) * L^(N d) used by decay thresholds (L >= 1)."""
        if radius < 1:
            raise ValueError("prefactor defined for radius >= 1")
        return self.C ** (2 * n_particles) * float(radius) ** (n_particles * self.d)


def _bfs_all_pairs(n: int, neighbors: list[list[int]]) -> np.ndarray:
    dist = np.full((n, n), -1, dtype=np.int32)
    for src in range(n):
        row = dist[src]
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if row[v] < 0:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
    if (dist < 0).any():
        raise ConfigurationError("graph is not connected")
    return dist


def _family_edges(family: str, sizes: tuple[int, ...]) -> tuple[int, list[tuple[int, int]], str]:
    if family == "path":
        (n,) = sizes
        if n < 2:
            raise ConfigurationError("path needs n >= 2")
        return n, [(i, i + 1) for i in range(n - 1)], f"path:{n}"
    if family == "cycle":
        (n,) = sizes
        if n < 3:
            raise ConfigurationError("cycle needs n >= 3 (no duplicate edges)")
        return n, [(i, (i + 1) % n) for i in range(n)], f"cycle:{n}"
    if family == "grid":
        w, h = sizes
        if w < 2 or h < 2:
            raise ConfigurationError("grid needs w, h >= 2")
        edges = []
        for r in range(h):
            for c in range(w):
                v = r * w + c
                if c + 1 < w:
                    edges.append((v, v + 1))
                if r + 1 < h:
                    edges.append((v, v + w))
        return w * h, edges, f"grid:{w}x{h}"
    if family == "tree":
        b, depth = sizes
        if b < 2 or depth < 1:
            raise ConfigurationError("tree needs branching >= 2 and depth >= 1")
        n = (b ** (depth + 1) - 1) // (b - 1)
        edges = [(v, b * v + 1 + c) for v in range(n) for c in range(b) if b * v + 1 + c < n]
        return n, edges, f"tree:{b}x{depth}"
    raise ConfigurationError(f"unknown graph family '{family}'")


def build_graph(spec: str) -> Graph:
    """Build a graph from a spec string: 'path:5', 'cycle:6', 'grid:9x9', 'tree:2x4'."""
    family, sizes = parse_graph_spec(spec)
    n, edges, name = _family_edges(family, sizes)
    if n > VERTEX_BUDGET:
        raise BudgetExceeded(f"{name} has {n} vertices; dense distance table capped at {VERTEX_BUDGET}")
    neighbors: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for a, b in edges:
        if a == b:
            raise ConfigurationError("cyclic edge x<->x not allowed")
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        neighbors[a].append(b)
        neighbors[b].append(a)
    neighbors = [sorted(nb) for nb in neighbors]
    dist = _bfs_all_pairs(n, neighbors)
    return Graph(
        name=name,
        n_vertices=n,
        edges=tuple(sorted(seen)),
        neighbors=tuple(tuple(nb) for nb in neighbors),
        dist=dist,
    )


def parse_graph_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    parts = spec.strip().split(":")
    if len(parts) != 2 or not parts[1]:
        raise ConfigurationError(f"bad graph spec '{spec}'")
    family, arg = parts[0].strip().lower(), parts[1].strip()
    try:
        if family in ("grid", "tree"):
            a, b = arg.lower().split("x")
            return family, (int(a), int(b))
        return family, (int(arg),)
    except ValueError as exc:
        raise ConfigurationError(f"bad graph spec '{spec}': {exc}") from exc


def certify_growth(graph: Graph, d: float, lmax: int) -> GrowthCertificate:
    """Minimal C with #B(x,L) <= C L**d over all x and 1 <= L <= lmax."""
    if d <= 0:
        raise ConfigurationError("growth exponent d must be positive")
    if lmax < 1:
        raise ConfigurationError("lmax must be >= 1")
    c_min = 0.0
    for radius in range(1, lmax + 1):
        sizes = (graph.dist <= radius).sum(axis=1)
        c_min = max(c_min, float(sizes.max()) / float(radius) ** d)
    return GrowthCertificate(d=d, C=c_min, lmax=lmax)
