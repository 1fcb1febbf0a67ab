"""Multi-scale classification predicates and parameter schedules.

Two modes share one parameter record: 'subexp' drives geometric length scales
L_{k+1} = B L_k with sub-exponential Green-decay thresholds, 'exp' drives
super-exponential scales L_{k+1} = floor(L_k**alpha) with exponential ones.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .configspace import MultiBall, weakly_interactive
from .errors import ConfigurationError
from .graphs import GrowthCertificate
from .spectral import BallSpectra, dist_to_spectrum, ns_flags


class ParameterSet(NamedTuple):
    """Parameters of the two scaling schemes with their consistency inequalities."""

    mode: str  # 'subexp' | 'exp'
    n_star: int
    d: float  # growth exponent of the certified graph family
    zeta: float
    kappa: float
    beta: float
    delta: float
    m_star: float
    nu_star: float
    K: int
    L0: int
    B: int = 2
    alpha: float = 1.5
    tau: float = 1.0
    P_star: float = 1.0


def validate(params: ParameterSet) -> list[str]:
    """Every table inequality for the active mode; violations name the inequality."""
    p = params
    out: list[str] = []
    if p.mode not in ("subexp", "exp"):
        return [f"mode must be 'subexp' or 'exp', got '{p.mode}'"]
    if p.n_star < 1:
        out.append("N* >= 1")
    if p.d <= 0:
        out.append("d > 0")
    if p.zeta <= 0:
        out.append("zeta > 0")
    if p.L0 < 2:
        out.append("L0 >= 2")
    if p.m_star < 1:
        out.append("m* >= 1")
    if not 0 < p.beta < 1:
        out.append("0 < beta < 1")
    if p.mode == "subexp":
        if not 0 < p.kappa < p.zeta:
            out.append("0 < kappa < zeta")
        if not p.beta < p.delta < min(p.zeta, 1.0):
            out.append("beta < delta < zeta AND 1")
        if p.B < 2:
            out.append("B >= 2")
        elif p.L0 >= 2:
            lhs = p.beta + math.log(8 * p.B) / math.log(p.L0)
            if not lhs < p.delta:
                out.append("beta + ln(8B)/ln(L0) < delta")
            if not p.delta < 1 - math.log(12) / math.log(p.B):
                out.append("delta < 1 - ln(12)/ln(B)")
        if p.nu_star < 1:
            out.append("nu* >= 1")
        if p.K < 0:
            out.append("K >= 0")
        if p.B < 24 * p.n_star * p.K:
            out.append("B >= 24*N**K")
    else:
        if not p.beta < min(p.zeta, 1.0):
            out.append("beta < zeta AND 1")
        if p.L0 >= 2:
            tau_floor = max(1.0 / p.zeta, 1.0 + math.log(3 * p.n_star) / math.log(p.L0))
            if not p.tau > tau_floor:
                out.append("tau > max(1/zeta, 1 + ln(3N)/ln(L0))")
        if not max(p.tau, 1.5) < p.alpha < 7.0 / (8.0 * p.beta):
            out.append("max(tau, 3/2) < alpha < 7/(8 beta)")
        if not p.P_star > 4 * p.n_star * p.d * p.alpha:
            out.append("P* > 4*N**d*alpha")
        if not p.beta < p.delta <= 1.0:
            out.append("beta < delta <= 1 (mass recursion)")
    return out


class ScaleSchedule(NamedTuple):
    mode: str
    levels: tuple[int, ...]
    truncated: bool = False

    def index_of(self, radius: int) -> int | None:
        try:
            return self.levels.index(radius)
        except ValueError:
            return None


def scales(params: ParameterSet, kmax: int, lmax: int | None = None) -> ScaleSchedule:
    """L_0, ..., L_kmax; geometric (L*B) or power (floor(L**alpha)) per mode.

    A non-increasing power schedule is a configuration error; levels above
    lmax are dropped and the schedule flagged truncated.
    """
    if kmax < 0:
        raise ConfigurationError("kmax must be >= 0")
    levels = [params.L0]
    for _ in range(kmax):
        cur = levels[-1]
        nxt = cur * params.B if params.mode == "subexp" else int(math.floor(cur**params.alpha))
        if nxt <= cur:
            raise ConfigurationError(f"non-increasing schedule: L={cur} -> {nxt}")
        levels.append(nxt)
    truncated = False
    if lmax is not None:
        kept = [l for l in levels if l <= lmax]
        truncated = len(kept) < len(levels)
        if not kept:
            raise ConfigurationError(f"L0={params.L0} already above the budget {lmax}")
        levels = kept
    return ScaleSchedule(mode=params.mode, levels=tuple(levels), truncated=truncated)


class MassSchedule(NamedTuple("MassSchedule", [("params", ParameterSet)])):
    """Per-particle-number decay masses and singularity-probability exponents."""

    __slots__ = ()

    def __new__(cls, params: ParameterSet):
        # the mass recursion takes L0 to a negative power; the parameter
        # waiver admits other table violations but never this one
        if params.L0 < 1:
            raise ConfigurationError(f"L0 must be >= 1, got {params.L0}")
        return super().__new__(cls, params)

    def m(self, n: int) -> float:
        p = self.params
        return p.m_star * (1.0 + 4.0 * p.L0 ** (p.beta - p.delta)) ** (p.n_star - n + 1)

    def nu(self, n: int) -> float:
        p = self.params
        return p.nu_star * (2.0 * p.B**p.kappa) ** (p.n_star - n + 1)

    def p_exponent(self, n: int) -> float:
        p = self.params
        return p.P_star * (2.0 * p.alpha) ** (p.n_star - n + 1)

    @staticmethod
    def gamma(m: float, radius: int) -> float:
        return m * (1.0 + float(radius) ** (-1.0 / 8.0))

    def singularity_target(self, n: int, radius: int) -> float:
        """e^(-nu_n L^kappa) in subexp mode, L^(-P(n)) in exp mode."""
        if self.params.mode == "subexp":
            return float(np.exp(-self.nu(n) * float(radius) ** self.params.kappa))
        return float(radius) ** (-self.p_exponent(n))


def resonance_radius(radius: int, beta: float) -> float:
    """Half-width 2 exp(-L**beta) of the resonance window of a radius-L ball."""
    return 2.0 * math.exp(-float(radius) ** beta)


def resonant(eigenvalues: np.ndarray, energies, radius: int, beta: float):
    """(E, beta)-resonance of a radius-L ball at each energy:
    dist(E, spectrum) < resonance_radius(L, beta)."""
    return dist_to_spectrum(eigenvalues, energies) < resonance_radius(radius, beta)


def ns_threshold(params: ParameterSet, mass: float, radius: int) -> float:
    """Threshold on F_u(E) = prefactor * max boundary |G|; mode-dependent.

    Both Green-decay definitions normalize by the same prefactor, so testing
    F against this value is equivalent to the entrywise bounds.
    """
    if params.mode == "subexp":
        return math.exp(-mass * float(radius) ** params.delta)
    return math.exp(-MassSchedule.gamma(mass, radius) * float(radius))


def classify(
    ball: MultiBall,
    energies,
    params: ParameterSet,
    mass: MassSchedule,
    spectra: BallSpectra,
    cert: GrowthCertificate,
    schedule: ScaleSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, bool | None]:
    """Resonance, Green-decay nonsingularity and (optionally) CNR flags of
    one ball at each energy, and its WI flag.

    Returns (resonant, nonsingular, undetermined, cnr, weakly_interactive):
    boolean arrays over the energies, except that cnr is None unless the
    radius is some L_k with k >= 1 and weakly_interactive is a bool, None for
    one particle.  NS needs radius >= 1, so a radius-0 ball is undetermined at
    every energy; an energy within the resolvent guard of the spectrum is
    undetermined and not NS (see ns_flags).  Completely non-resonant (CNR)
    means non-resonant at every integer radius in [L_{k-1}, L_k]; the radii
    are scanned upward only while some energy is still CNR.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    spec = spectra.spectrum(ball)
    res = resonant(spec.eigenvalues, energies, ball.radius, params.beta)
    wi = weakly_interactive(ball) if ball.n_particles >= 2 else None
    if ball.radius >= 1:
        threshold = ns_threshold(params, mass.m(ball.n_particles), ball.radius)
        ns, undetermined = ns_flags(spec, cert, energies, threshold)
    else:
        ns, undetermined = np.zeros(energies.shape, dtype=bool), np.ones(energies.shape, dtype=bool)
    k = None if schedule is None else schedule.index_of(ball.radius)
    cnr = None
    if k is not None and k >= 1:
        cnr = np.ones(energies.shape, dtype=bool)
        for ell in range(schedule.levels[k - 1], ball.radius + 1):
            cnr &= ~resonant(spectra.spectrum(ball.concentric(ell)).eigenvalues, energies, ell, params.beta)
            if not cnr.any():
                break
    return res, ns, undetermined, cnr, wi
