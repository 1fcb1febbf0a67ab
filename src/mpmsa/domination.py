"""Dominated decay of a nonnegative function on a product ball.

The package checks the dominated-decay lemma in the form its runners use, with
no singular set Xi and no annuli.  Then f, given over a domain holding
B(u, L), is dominated when every x in B(u, L-ell) is regular,
f(x) <= q * max f over B(x, ell+1), and meets its jump bound,
f(x) <= q * max f over B(u, rho(u,x)+ell); it follows that
f(u) <= q**W * max f over B(u, L+1) with W = (L+1)/(ell+1).  Balls are those
of the max-metric rho, every sup clips to the domain, and the value 0 is
maximally regular (the -ln 0 = +inf convention).  The general lemma, whose
singular points lie in Xi and whose covering annuli shave their width off W,
lives with the tests as the oracle of this check.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .configspace import MultiBall
from .errors import ContractViolation
from .graphs import GrowthCertificate
from .msa import MassSchedule, ParameterSet, ScaleSchedule, classify
from .spectral import BallSpectra, dist_to_spectrum


class DominationBound(NamedTuple):
    W: float
    bound: float
    f_center: float
    sup_enclosing: float
    holds: bool
    precondition_failures: tuple[str, ...]


class DistanceArrays(NamedTuple):
    """The distances every sup of domination_bound reads, over the domain's
    members() order."""

    to_center: np.ndarray  # rho(u, x) per member
    inner: np.ndarray  # positions of B(u, L - ell)
    near: np.ndarray  # (inner x members) mask of rho(x, y) <= ell + 1


@functools.lru_cache(maxsize=8)
def distance_arrays(domain: MultiBall, radius: int, ell: int) -> DistanceArrays:
    """DistanceArrays of one domain at (L, ell), formed once for all its maps."""
    sites = np.asarray(domain.members(), dtype=np.intp)
    dist = domain.graph.dist
    to_center = dist[np.asarray(domain.center), sites].max(axis=1)
    inner = np.flatnonzero(to_center <= radius - ell)
    near = dist[sites[inner, None, :], sites[None, :, :]].max(axis=2) <= ell + 1
    for a in (to_center, inner, near):
        a.setflags(write=False)
    return DistanceArrays(to_center, inner, near)


def domination_bound(domain: MultiBall, radius: int, ell: int, q: float, f) -> DominationBound:
    """f(u) <= q**W * (max f over B(u, L+1)) with W = (L+1)/(ell+1).

    f holds one value per member of `domain` (a ball around u of radius >= L),
    in members() order.  When f is not dominated the result reports it and
    claims no bound.
    """
    if not 0 < q < 1:
        raise ContractViolation("q must lie in (0,1)")
    if not 0 <= ell <= radius:
        raise ContractViolation("need 0 <= ell <= radius")
    if domain.radius < radius:
        raise ContractViolation("f undefined on B(u, L): its domain is smaller")
    d = distance_arrays(domain, radius, ell)
    f = np.asarray(f, dtype=float)
    if f.shape != d.to_center.shape:
        raise ContractViolation(f"f has shape {f.shape}, its domain {len(d.to_center)} points")
    if not (np.isfinite(f).all() and (f >= 0.0).all()):
        raise ContractViolation("f must be finite and nonnegative")
    # max f over B(u, r), r = 0 .. domain radius: a running max of the layer maxima
    ball_sup = np.zeros(domain.radius + 1)
    np.maximum.at(ball_sup, d.to_center, f)
    ball_sup = np.maximum.accumulate(ball_sup)

    f_inner = f[d.inner]
    failures: list[str] = []
    singular = int((f_inner > q * np.where(d.near, f, 0.0).max(axis=1)).sum())
    if singular:
        failures.append(f"{singular} singular points in B(u, L - ell)")
    jump = q * ball_sup[d.to_center[d.inner] + ell]
    over = int((f_inner > jump * (1 + 1e-12)).sum())
    if over:
        failures.append(f"jump bound fails at {over} points")
    sup_all = float(ball_sup[min(radius + 1, domain.radius)])
    w_exp = (radius + 1) / (ell + 1)
    bound = q**w_exp * sup_all
    f_u = float(f[np.argmin(d.to_center)])
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
    params: ParameterSet,
    mass: MassSchedule,
    cert: GrowthCertificate,
    schedule: ScaleSchedule,
) -> tuple[float, tuple[str, ...], tuple[DominationBound, ...]]:
    """Green functions of a completely non-resonant ball are dominated.

    Hypotheses checked by name: the ball is (E,beta)-CNR, m * ell**delta >
    2 * L**beta, and every radius-ell sub-ball centered in B(u, L-ell) is
    nonsingular (the lemma's "outside Xi", with Xi empty).  When they hold,
    f = |G(., y; E)| over the ball's own volume is checked to be
    (ell, q)-dominated for each inner-boundary y, with q = exp(-m' ell**delta),
    m' = m - 2 ell**(-delta) L**beta.

    Returns q, the failed hypotheses, and the domination_bound of each map in
    inner-boundary order (none when a hypothesis fails); a bound without
    precondition failures is a map verified dominated.
    """
    failures: list[str] = []
    graph, center, radius = ball.graph, ball.center, ball.radius
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
            if not classify(MultiBall(graph, v, ell), energy, params, mass, spectra, cert)[1][0]:
                failures.append(f"sub-ball at {v} outside Xi is not (E,delta,m)-NS")
                break

    if failures:
        return q, tuple(failures), ()
    maps = green_magnitude_maps(spectra, ball, energy)
    return q, (), tuple(domination_bound(ball, radius, ell, q, f) for f in maps.T)


def green_magnitude_maps(spectra: BallSpectra, ball: MultiBall, energy: float) -> np.ndarray:
    """|G(x, y; E)| as a (volume x inner boundary) array: rows in the ball's
    members() order, one column per inner-boundary y in ascending order.

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
    return cols
