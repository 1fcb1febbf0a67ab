"""Dominated decay along regular spherical layers.

A nonnegative function on a product ball is pushed down geometrically: points
whose value is beaten by q times the max over a slightly larger ball are
regular, fully regular layers let the bound jump outward by ell+1, and
singular points confined to a thin union of annuli only shave off its width.
Layers are rho-spheres of the ball's own max-metric, and all sups are taken
over the function's domain (balls clip to it).  The value 0 is maximally
regular (the -ln 0 = +inf convention).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .configspace import Config, MultiBall, rho
from .errors import ContractViolation
from .graphs import GrowthCertificate
from .msa import MassSchedule, ParameterSet, ScaleSchedule, classify
from .spectral import BallSpectra, dist_to_spectrum


class DominationContext(NamedTuple("DominationContext", [
    ("graph", object), ("center", Config), ("radius", int), ("ell", int), ("q", float),
    ("f", dict), ("xi", frozenset),
])):
    """A function over (at least) the ball B(center, radius), with parameters."""

    __slots__ = ()

    def __new__(cls, graph, center: Config, radius: int, ell: int, q: float,
                f: dict[Config, float], xi: frozenset[Config] = frozenset()):
        if not 0 < q < 1:
            raise ContractViolation("q must lie in (0,1)")
        if not 0 <= ell <= radius:
            raise ContractViolation("need 0 <= ell <= radius")
        missing = [c for c in MultiBall(graph, center, radius).members() if c not in f]
        if missing:
            raise ContractViolation(f"f undefined on {len(missing)} points of B(u, L)")
        bad = [c for c, v in f.items() if not (v >= 0.0 and math.isfinite(v))]
        if bad:
            raise ContractViolation("f must be finite and nonnegative")
        return super().__new__(cls, graph, center, radius, ell, q, f, xi)

    def sup_over_ball(self, center: Config, radius: int) -> float:
        """Max of f over B(center, radius) clipped to f's domain."""
        vals = [self.f[c] for c in MultiBall(self.graph, center, radius).members()
                if c in self.f]
        return max(vals)

    def layer(self, r: int) -> list[Config]:
        if r == 0:
            return [self.center]
        inner = set(MultiBall(self.graph, self.center, r - 1).members())
        return [c for c in MultiBall(self.graph, self.center, r).members() if c not in inner]


class RegularPartition(NamedTuple):
    regular: frozenset[Config]
    singular: frozenset[Config]
    layer_regular: tuple[bool, ...]  # index r = 0 .. radius - ell


def regular_set(ctx: DominationContext) -> RegularPartition:
    """Pointwise test over B(u, L-ell): f(x) <= q * max f over B(x, ell+1);
    a layer is regular iff it lies entirely inside the regular set."""
    reg: set[Config] = set()
    sing: set[Config] = set()
    for x in MultiBall(ctx.graph, ctx.center, ctx.radius - ctx.ell).members():
        if ctx.f[x] <= ctx.q * ctx.sup_over_ball(x, ctx.ell + 1):
            reg.add(x)
        else:
            sing.add(x)
    flags = [all(c in reg for c in ctx.layer(r)) for r in range(0, ctx.radius - ctx.ell + 1)]
    return RegularPartition(
        regular=frozenset(reg), singular=frozenset(sing), layer_regular=tuple(flags)
    )


def radius_function(
    ctx: DominationContext, x: Config, partition: RegularPartition | None = None
) -> float:
    """R_f(x) = (least regular layer radius >= rho(u,x)) + ell, or +inf."""
    part = partition if partition is not None else regular_set(ctx)
    start = rho(ctx.graph, ctx.center, x)
    if start > ctx.radius - ctx.ell:
        raise ContractViolation("x must lie in B(u, L - ell)")
    for r in range(start, ctx.radius - ctx.ell + 1):
        if part.layer_regular[r]:
            return float(r + ctx.ell)
    return math.inf


def is_dominated(
    ctx: DominationContext, partition: RegularPartition | None = None
) -> tuple[bool, list[str]]:
    """Definition check: singular points inside Xi, and at every point with a
    finite radius function, f(x) <= q * max f over B(u, R_f(x))."""
    part = partition if partition is not None else regular_set(ctx)
    failures: list[str] = []
    stray = part.singular - ctx.xi
    if stray:
        failures.append(f"{len(stray)} singular points outside Xi (e.g. {sorted(stray)[0]})")
    for x in MultiBall(ctx.graph, ctx.center, ctx.radius - ctx.ell).members():
        r_f = radius_function(ctx, x, part)
        if math.isinf(r_f):
            continue
        bound = ctx.q * ctx.sup_over_ball(ctx.center, int(r_f))
        if ctx.f[x] > bound * (1 + 1e-12):
            failures.append(f"jump bound fails at {x}: f={ctx.f[x]:.3e} > {bound:.3e}")
    return not failures, failures


class AnnulusCover(NamedTuple):
    """Concentric annuli [a_j, b_j] (inclusive radii); width is sum(b - a + 1)."""

    bounds: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return sum(b - a + 1 for a, b in self.bounds)

    def covers(self, ctx: DominationContext, points) -> bool:
        for c in points:
            r = rho(ctx.graph, ctx.center, c)
            if not any(a <= r <= b for a, b in self.bounds):
                return False
        return True


class DominationBound(NamedTuple):
    W: float
    bound: float
    f_center: float
    sup_enclosing: float
    holds: bool
    precondition_failures: tuple[str, ...]


def domination_bound(ctx: DominationContext, annuli: AnnulusCover) -> DominationBound:
    """f(u) <= q**W * (max f over B(u, L+1)) with W = (L+1-w)/(ell+1).

    Callers supply the annuli (this module does not choose coverings); when a
    precondition fails the result reports it and claims no bound.
    """
    failures: list[str] = []
    part = regular_set(ctx)
    ok, def_failures = is_dominated(ctx, part)
    if not ok:
        failures.extend(def_failures)
    if not annuli.covers(ctx, part.singular):
        failures.append("annuli do not cover the singular set")
    if annuli.width > ctx.radius - ctx.ell:
        failures.append(f"annulus width {annuli.width} exceeds L - ell = {ctx.radius - ctx.ell}")
    sup_all = ctx.sup_over_ball(ctx.center, ctx.radius + 1)
    w_exp = (ctx.radius + 1 - annuli.width) / (ctx.ell + 1)
    bound = ctx.q**w_exp * sup_all
    f_u = ctx.f[ctx.center]
    return DominationBound(
        W=w_exp,
        bound=bound,
        f_center=f_u,
        sup_enclosing=sup_all,
        holds=(not failures) and f_u <= bound * (1 + 1e-12),
        precondition_failures=tuple(failures),
    )


def gf_domination_check(
    spectra: BallSpectra,
    ball: MultiBall,
    energy: float,
    ell: int,
    xi,
    params: ParameterSet,
    mass: MassSchedule,
    cert: GrowthCertificate,
    schedule: ScaleSchedule,
) -> tuple[float, tuple[str, ...], dict[Config, DominationBound]]:
    """Green functions of a completely non-resonant ball are dominated.

    Hypotheses checked by name: the ball is (E,beta)-CNR, m * ell**delta >
    2 * L**beta, and every radius-ell sub-ball centered in B(u, L-ell)
    outside Xi is nonsingular (the regular-point domain; each point's
    certificate is its own sub-ball).  When they hold, f = |G(., y; E)| over
    the ball's own volume is verified to be (ell, q, Xi)-dominated for each
    inner-boundary y, with q = exp(-m' ell**delta), m' = m - 2 ell**(-delta)
    L**beta.

    Returns q, the failed hypotheses, and per inner-boundary y the
    domination_bound of its map without annuli (none when a hypothesis
    fails).  The definition check is among the bound's preconditions, so with
    Xi empty a bound without precondition failures is a map verified
    dominated.
    """
    failures: list[str] = []
    graph, center, radius = ball.graph, ball.center, ball.radius
    xi = frozenset(map(tuple, xi))
    m = mass.m(ball.n_particles)

    if not m * float(ell) ** params.delta > 2.0 * float(radius) ** params.beta:
        failures.append("m * ell^delta > 2 L^beta")
    m_prime = m - 2.0 * float(ell) ** (-params.delta) * float(radius) ** params.beta if ell > 0 else -math.inf
    q = math.exp(-m_prime * float(ell) ** params.delta) if m_prime > 0 else 0.5

    cnr = classify(ball, energy, params, mass, spectra, cert, schedule=schedule)[3]
    if cnr is None or not cnr[0]:
        failures.append("ball is (E,beta)-CNR")

    if radius - ell >= 0:
        for v in MultiBall(graph, center, radius - ell).members():
            if v in xi:
                continue
            if not classify(MultiBall(graph, v, ell), energy, params, mass, spectra, cert)[1][0]:
                failures.append(f"sub-ball at {v} outside Xi is not (E,delta,m)-NS")
                break

    if failures:
        return q, tuple(failures), {}
    bounds = {
        y: domination_bound(
            DominationContext(graph=graph, center=center, radius=radius, ell=ell, q=q, f=f_map, xi=xi),
            AnnulusCover(bounds=()),
        )
        for y, f_map in green_magnitude_maps(spectra, ball, energy).items()
    }
    return q, (), bounds


def green_magnitude_maps(spectra: BallSpectra, ball: MultiBall, energy: float) -> dict:
    """|G(., y; E)| per inner-boundary y, fit for domination contexts.

    Columns come from one factorized solve of (H - E) over all inner-boundary
    columns rather than the spectral sum: in the strong-decay regimes this
    machinery probes, (H - E) is diagonally dominant and the solve is
    componentwise accurate where the sum drowns in eigenvector rotation noise.
    Entries below the accumulated roundoff floor (set by the ball's memoized
    spectrum) carry no information and are returned as exact zeros, which the
    -ln 0 = +inf convention makes maximally regular.
    """
    spec = spectra.spectrum(ball)
    op = spec.volume
    eps = float(np.finfo(float).eps)
    dist = float(dist_to_spectrum(spec.eigenvalues, energy))
    n_vol = len(op)
    noise_floor = 64.0 * n_vol * eps * eps * max(1.0, spec.h_norm) * (1.0 + 1.0 / max(dist, eps))
    h = op.hamiltonian(spectra.g, spectra.sample)
    cols = np.abs(np.linalg.solve(h - energy * np.eye(n_vol), np.eye(n_vol)[:, op.boundary]))
    cols[cols < noise_floor] = 0.0
    configs = op.configs
    return {configs[y]: dict(zip(configs, col)) for y, col in zip(op.boundary, cols.T.tolist())}
