"""Multi-scale classification predicates and parameter schedules.

Two modes share one parameter record: 'subexp' drives geometric length scales
L_{k+1} = B L_k with sub-exponential Green-decay thresholds, 'exp' drives
super-exponential scales L_{k+1} = floor(L_k**alpha) with exponential ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configspace import CanonicalSplit, MultiBall, classify_interactivity
from .errors import ConfigurationError, ContractViolation
from .graphs import GrowthCertificate
from .spectral import BallSpectra, dist_to_spectrum, ns_flags


@dataclass(frozen=True)
class ParameterSet:
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


@dataclass(frozen=True)
class ScaleSchedule:
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


@dataclass(frozen=True)
class MassSchedule:
    """Per-particle-number decay masses and singularity-probability exponents."""

    params: ParameterSet

    def __post_init__(self):
        # the mass recursion takes L0 to a negative power; the parameter
        # waiver admits other table violations but never this one
        if self.params.L0 < 1:
            raise ConfigurationError(f"L0 must be >= 1, got {self.params.L0}")

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


@dataclass
class BallClassification:
    """Flags for one ball at one energy; None marks not-applicable/undetermined."""

    radius: int
    n_particles: int
    resonant: bool | None = None
    nonsingular: bool | None = None
    cnr: bool | None = None
    weakly_interactive: bool | None = None
    split: CanonicalSplit | None = None
    witnesses: dict = field(default_factory=dict)


def _is_cnr(
    ball: MultiBall,
    energy: float,
    params: ParameterSet,
    schedule: ScaleSchedule,
    spectra: BallSpectra,
) -> tuple[bool, dict]:
    """Completely non-resonant: NR at every integer radius in [L_{k-1}, L_k]."""
    k = schedule.index_of(ball.radius)
    if k is None or k < 1:
        raise ContractViolation("CNR needs radius equal to some L_k with k >= 1")
    lo, hi = schedule.levels[k - 1], schedule.levels[k]
    for ell in range(lo, hi + 1):
        if resonant(spectra.spectrum(ball.concentric(ell)).eigenvalues, energy, ell, params.beta):
            return False, {"cnr_failed_radius": ell}
    return True, {}


def classify(
    ball: MultiBall,
    energy: float,
    params: ParameterSet,
    mass: MassSchedule,
    spectra: BallSpectra,
    cert: GrowthCertificate,
    schedule: ScaleSchedule | None = None,
) -> BallClassification:
    """Resonance, Green-decay singularity, WI/SI and (optionally) CNR flags.

    NS needs radius >= 1 and a nonempty inner boundary; a ball that exhausts
    the graph is vacuously nonsingular.  When the energy sits inside the
    resolvent guard, the ball is reported resonant with NS undetermined.
    """
    out = BallClassification(radius=ball.radius, n_particles=ball.n_particles)
    spec = spectra.spectrum(ball)
    out.resonant = bool(resonant(spec.eigenvalues, energy, ball.radius, params.beta))
    out.witnesses["dist_to_spectrum"] = float(dist_to_spectrum(spec.eigenvalues, energy))

    if ball.n_particles >= 2:
        kind, split = classify_interactivity(ball)
        out.weakly_interactive = kind == "WI"
        out.split = split

    if ball.radius >= 1:
        threshold = ns_threshold(params, mass.m(ball.n_particles), ball.radius)
        ns, undetermined = ns_flags(spec, ball, cert, np.asarray([energy]), threshold)
        out.witnesses["ns_threshold"] = threshold
        if undetermined[0]:
            out.witnesses["ns_undetermined"] = "resolvent guard tripped"
        else:
            out.nonsingular = bool(ns[0])

    if schedule is not None:
        k = schedule.index_of(ball.radius)
        if k is not None and k >= 1:
            flag, extra = _is_cnr(ball, energy, params, schedule, spectra)
            out.cnr = flag
            out.witnesses.update(extra)
    return out
