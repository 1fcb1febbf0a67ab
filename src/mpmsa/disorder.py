"""IID external potential and the two-body interaction.

Per-vertex draws come from a counter-based stream (see rng.mix64), so a sample
is a pure function of (seed, distribution, vertex index): sampling order,
chunking and thread counts cannot change values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .graphs import Graph
from .quantiles import normal_cdf, normal_quantile
from .rng import uniform01


class PotentialDistribution(NamedTuple):
    """Bounded-support marginal with density bounds and a derivative bound.

    kind 'uniform' on [a, b]; kind 'tgauss' is a Gaussian(mu, sigma) truncated
    to [a, b] and renormalized (C^1 on its support).  p_lower/p_upper bound the
    density on the support and deriv_bound bounds |p'| there; for tgauss they
    are computed numerically at construction.  The degenerate case a == b is
    allowed for deterministic controls and carries no density bounds.
    """

    kind: str
    a: float
    b: float
    mu: float = 0.0
    sigma: float = 1.0
    p_lower: float = 0.0
    p_upper: float = 0.0
    deriv_bound: float = 0.0

    @property
    def sup_abs(self) -> float:
        return max(abs(self.a), abs(self.b))

    def sample_values(self, seed: int, count: int) -> np.ndarray:
        u = np.asarray(uniform01(seed, np.arange(count, dtype=np.uint64)))
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        lo = normal_cdf((self.a - self.mu) / self.sigma)
        hi = normal_cdf((self.b - self.mu) / self.sigma)
        return self.mu + self.sigma * normal_quantile(lo + u * (hi - lo))


def uniform_distribution(a: float, b: float) -> PotentialDistribution:
    if b < a:
        raise ConfigurationError("uniform needs a <= b")
    if b == a:
        return PotentialDistribution("uniform", a, b, p_lower=math.inf, p_upper=math.inf)
    dens = 1.0 / (b - a)
    return PotentialDistribution("uniform", a, b, p_lower=dens, p_upper=dens, deriv_bound=0.0)


def truncated_gaussian(mu: float, sigma: float, a: float, b: float) -> PotentialDistribution:
    if sigma <= 0:
        raise ConfigurationError("tgauss needs sigma > 0")
    if b <= a:
        raise ConfigurationError("tgauss needs a < b")
    mass = normal_cdf((b - mu) / sigma) - normal_cdf((a - mu) / sigma)
    grid = np.linspace(a, b, 4001)
    pdf = np.exp(-0.5 * ((grid - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi) * mass)
    dpdf = np.abs(pdf * (grid - mu) / sigma**2)
    return PotentialDistribution(
        "tgauss", a, b, mu=mu, sigma=sigma,
        p_lower=float(pdf.min()), p_upper=float(pdf.max()), deriv_bound=float(dpdf.max()),
    )


def parse_distribution_spec(spec: str) -> PotentialDistribution:
    """'uniform:a:b' or 'tgauss:mu:sigma:a:b', every number finite."""
    kind, *fields = spec.strip().split(":")
    arity, build = {"uniform": (2, uniform_distribution), "tgauss": (4, truncated_gaussian)}.get(kind, (-1, None))
    if len(fields) != arity:
        raise ConfigurationError(f"bad distribution spec '{spec}'")
    try:
        numbers = [float(f) for f in fields]
    except ValueError as exc:
        raise ConfigurationError(f"bad distribution spec '{spec}': {exc}") from exc
    if not all(map(math.isfinite, numbers)):
        raise ConfigurationError(f"bad distribution spec '{spec}': every number must be finite")
    return build(*numbers)


def sample_potential(dist: PotentialDistribution, graph: Graph, seed: int) -> np.ndarray:
    """One independent draw per vertex of the graph: a disorder sample is
    the array of the potential's values."""
    return dist.sample_values(seed, graph.n_vertices)


class InteractionPotential(
    NamedTuple("InteractionPotential", [("c_u", float), ("zeta", float), ("truncation_radius", float)])
):
    """Two-body potential u(r) = C_U * exp(-r**zeta) for r >= 1, u(0) = C_U.

    The bound defines u only for r >= 1; two distinguishable particles can
    share a vertex, so u(0) extends the bound by continuity.  Values vanish
    beyond truncation_radius (math.inf keeps the full range).  C_U and zeta
    must be finite.
    """

    __slots__ = ()

    def __new__(cls, c_u: float, zeta: float, truncation_radius: float = math.inf):
        if not (0 <= c_u < math.inf and 0 < zeta < math.inf and truncation_radius >= 0):
            raise ConfigurationError("interaction needs finite C_U >= 0, finite zeta > 0 and rcut >= 0")
        return super().__new__(cls, c_u, zeta, truncation_radius)

    def values(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if (r < 0).any():
            raise ContractViolation("interaction distance must be >= 0")
        out = self.c_u * np.exp(-np.where(r == 0, 0.0, r) ** self.zeta)
        out[r == 0] = self.c_u
        out[r > self.truncation_radius] = 0.0
        return out


def parse_interaction_spec(spec: str) -> InteractionPotential:
    """'u:C=<C_U>:zeta=<zeta>[:rcut=<radius>]', rcut infinite by default."""
    parts = spec.strip().split(":")
    if not parts or parts[0] != "u":
        raise ConfigurationError(f"bad interaction spec '{spec}'")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigurationError(f"bad interaction spec '{spec}'")
        key, val = part.split("=", 1)
        fields[key.strip().lower()] = val.strip()
    try:
        c_u = float(fields.pop("c"))
        zeta = float(fields.pop("zeta"))
        rcut = float(fields.pop("rcut", "inf"))
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"bad interaction spec '{spec}': {exc}") from exc
    if fields:
        raise ConfigurationError(f"unknown interaction fields {sorted(fields)} in '{spec}'")
    try:
        return InteractionPotential(c_u=c_u, zeta=zeta, truncation_radius=rcut)
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad interaction spec '{spec}': {exc}") from exc
