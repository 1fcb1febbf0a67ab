"""Test-only helpers shared by several test modules: oracles and
constructions the tests check the package against."""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from mpmsa.configspace import Config, MultiBall, product_neighbors, weakly_interactive
from mpmsa.disorder import InteractionPotential
from mpmsa.domination import DominationBound
from mpmsa.errors import ContractViolation
from mpmsa.graphs import Graph, GrowthCertificate
from mpmsa.hamiltonian import VolumeOperator, row_runs
from mpmsa.induction import EnergyIntervalCover, cover_from_profile
from mpmsa.spectral import (
    SpectralData,
    _check_resonance,
    _reciprocals,
    boundary_profile,
    cluster_starts,
    cluster_sums,
)

ZERO_INTERACTION = InteractionPotential(c_u=0.0, zeta=1.0)


def interaction_value(u: InteractionPotential, r: int | float) -> float:
    """u(r) at one distance, the scalar oracle of InteractionPotential.values."""
    if r < 0:
        raise ContractViolation("interaction distance must be >= 0")
    if r > u.truncation_radius:
        return 0.0
    if r == 0:
        return u.c_u
    return u.c_u * math.exp(-float(r) ** u.zeta)


def rho(graph: Graph, x: Config, y: Config) -> int:
    """Max over coordinates of the single-particle graph distance: the
    max-metric, the scalar oracle of the distances domination reads."""
    if len(x) != len(y):
        raise ContractViolation("configurations have different particle counts")
    return int(max(graph.dist[a, b] for a, b in zip(x, y)))


def rho_one_neighbors(graph: Graph, x: Config):
    """All configurations y != x with rho(x, y) = 1 (every coordinate moves <= 1)."""
    options = [(v, *graph.neighbors[v]) for v in x]
    for combo in itertools.product(*options):
        if combo != x:
            yield combo


def inner_boundary(graph: Graph, volume) -> list[Config]:
    """{u in V : rho(u, complement of V in the full product graph) = 1}, the
    oracle of MultiBall.inner_boundary_positions."""
    vol = set(volume)
    out = []
    for u in sorted(vol):
        if any(v not in vol for v in rho_one_neighbors(graph, u)):
            out.append(u)
    return out


def edge_boundary(graph: Graph, volume, subset) -> list[tuple[Config, Config]]:
    """Ordered pairs (u, v): u in W, v in V \\ W, u<->v a product-graph edge,
    u ascending; the oracle of the boundary edges gri_check reads off V's
    operator."""
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


def assemble(
    graph: Graph, configs, g: float, sample: np.ndarray, interaction: InteractionPotential
) -> np.ndarray:
    """H over a volume of configurations, from the volume's own operator."""
    return VolumeOperator(graph, configs, interaction).hamiltonian(g, sample)


def assemble_ball(
    ball: MultiBall, g: float, sample: np.ndarray, interaction: InteractionPotential
) -> np.ndarray:
    return VolumeOperator.from_ball(ball, interaction).hamiltonian(g, sample)


class DenseOperator(VolumeOperator):
    """Operator-shaped stand-in whose H is a given dense symmetric matrix
    over the volume of `op`, whatever the coupling and sample: its runs are
    read off the matrix's off-diagonal entries.  Every other attribute is
    that of `op`, so only eigendecompose may be given it.  Each call of
    `hamiltonian` returns a fresh copy, as `VolumeOperator.hamiltonian`
    forms a fresh H: the solve overwrites the array it is given."""

    def __init__(self, op: VolumeOperator, matrix):
        self.__dict__.update(op.__dict__)
        self.matrix = matrix = np.asarray(matrix, dtype=np.float64)
        rows, cols = np.nonzero(matrix)
        off = rows != cols
        rows, cols = rows[off], cols[off]
        self.runs = row_runs(rows, cols, matrix[rows, cols])

    def hamiltonian(self, g, sample) -> np.ndarray:
        return self.matrix.copy()


def laplacian(op: VolumeOperator) -> np.ndarray:
    """Graph Laplacian restricted to the operator's volume, from its edges
    and degrees: full-graph degree negated on the diagonal, +1 on each edge."""
    out = np.zeros((len(op), len(op)))
    out[op.edges] = 1.0
    out[np.diag_indices(len(op))] = -op.degree
    return out


def clusters(spec: SpectralData) -> list[slice]:
    """Maximal runs of eigenvalues whose consecutive gaps are <= DEGENERACY_GAP."""
    starts = cluster_starts(spec.eigenvalues)
    ends = np.append(starts[1:], spec.eigenvalues.size)
    return [slice(int(a), int(b)) for a, b in zip(starts, ends)]


def boundary_functional(spec: SpectralData, energy: float, cert: GrowthCertificate) -> float:
    """F_u(E) = C^(2N) L^(Nd) * max over inner-boundary z of |G_ball(u, z; E)|
    for the ball of the spectrum."""
    _check_resonance(spec, energy)
    prof = boundary_profile(spec, cert)
    return float(prof.evaluate(np.asarray([energy]))[0])


def sublevel_cover(
    spec: SpectralData, cert: GrowthCertificate, level: float, window: tuple[float, float]
) -> EnergyIntervalCover:
    """Interval cover of {E in window : F_u(E) >= level} for the Green data
    of the ball of the spectrum."""
    return cover_from_profile(boundary_profile(spec, cert), level, window)


def covered(cover: EnergyIntervalCover, energies: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Per energy, whether some interval of the cover, widened by slack, holds it."""
    energies = np.asarray(energies, dtype=np.float64)
    mask = np.zeros(energies.shape, dtype=bool)
    for a, b in cover.intervals:
        mask |= (energies >= a - slack) & (energies <= b + slack)
    return mask


def total_length(cover: EnergyIntervalCover) -> float:
    return float(sum(b - a for a, b in cover.intervals))


def _rational(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j / (p_j - E) at the energies, as the cover forms its sample
    values; a pole gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _reciprocals(es, poles) @ w


def rational_deriv(es: np.ndarray, poles: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j / (p_j - E)^2 at the energies, as the cover forms its slopes;
    a pole gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        recip = _reciprocals(es, poles)
        return np.square(recip, out=recip) @ w


@dataclass(frozen=True)
class MeanFluctuationSplit:
    """V restricted to Q decomposed as sample mean xi plus fluctuations eta."""

    vertices: tuple[int, ...]
    xi: float
    eta: dict[int, float]


def mean_fluctuation_split(sample: np.ndarray, vertices) -> MeanFluctuationSplit:
    verts = tuple(sorted(vertices))
    if not verts:
        raise ContractViolation("Q must be nonempty")
    vals = sample[np.asarray(verts, dtype=np.int64)]
    xi = float(vals.mean())
    return MeanFluctuationSplit(
        vertices=verts, xi=xi, eta={v: float(sample[v] - xi) for v in verts}
    )


def efc_test_function_value(spec: SpectralData, x: Config, y: Config, f_values: np.ndarray) -> float:
    """|<1_y| f(H) |1_x>| for f given by its values on the cluster energies."""
    sums = cluster_sums(spec.eigenvalues, spec.component(x) * spec.component(y))[1]
    total = 0.0
    for f_val, s in zip(f_values, sums):
        total += f_val * float(s)
    return abs(total)


def set_distance(graph: Graph, a, b) -> int:
    """Min distance between two nonempty vertex sets."""
    ia = np.asarray(sorted(a), dtype=np.int64)
    ib = np.asarray(sorted(b), dtype=np.int64)
    if ia.size == 0 or ib.size == 0:
        raise ValueError("set_distance needs nonempty sets")
    return int(graph.dist[np.ix_(ia, ib)].min())


def ball_support(ball: MultiBall, subset=None) -> frozenset[int]:
    """Union of the single-particle balls of the selected particles."""
    if subset is None:
        subset = range(1, ball.n_particles + 1)
    out: set[int] = set()
    for j in subset:
        out.update(ball.graph.ball(ball.center[j - 1], ball.radius).tolist())
    return frozenset(out)


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
    """'WI' with its canonical split when mpmsa's weakly_interactive holds,
    else ('SI', None).  The search checks the diameter argument behind that
    test: every WI ball has a split with separation > L."""
    if not weakly_interactive(ball):
        return "SI", None
    n = ball.n_particles
    for j_set in _subsets_containing_one(n):
        jc = tuple(j for j in range(1, n + 1) if j not in j_set)
        sep = set_distance(ball.graph, ball_support(ball, j_set), ball_support(ball, jc))
        if sep > ball.radius:
            return "WI", CanonicalSplit(J=j_set, Jc=jc, separation=sep)
    raise AssertionError("WI ball without a valid split; the diameter bound is contradicted")


@dataclass(frozen=True)
class DecoupledForm:
    """Exact tensor decomposition of a WI ball's Hamiltonian.

    In the kron enumeration (J-block configurations major, complement minor;
    `ordered_configs` lists the corresponding full configurations),
    reassembled() == kron(h_prime, I) + kron(I, h_second) + diag(coupling)
    equals the ball Hamiltonian reindexed by `permutation`, which maps kron
    positions to positions in the ball's lexicographic enumeration.
    """

    h_prime: np.ndarray = field(repr=False)
    h_second: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    ordered_configs: tuple[Config, ...]
    permutation: np.ndarray = field(repr=False)
    coupling_norm: float
    coupling_norm_bound: float

    def noninteracting_matrix(self) -> np.ndarray:
        eye_p = np.eye(len(self.h_prime))
        eye_s = np.eye(len(self.h_second))
        return np.kron(self.h_prime, eye_s) + np.kron(eye_p, self.h_second)

    def reassembled(self) -> np.ndarray:
        return self.noninteracting_matrix() + np.diag(self.coupling)


def decouple(
    ball: MultiBall, split: CanonicalSplit, g: float, sample: np.ndarray, interaction: InteractionPotential
) -> DecoupledForm:
    """Split a WI ball's Hamiltonian into reduced Hamiltonians plus a diagonal
    cross-interaction whose norm is bounded by C_U * N^2 * exp(-L**zeta)."""
    graph = ball.graph
    j_idx = [j - 1 for j in split.J]
    jc_idx = [j - 1 for j in split.Jc]
    if not j_idx or not jc_idx:
        raise ContractViolation("split must be a nonempty proper decomposition")
    ball_p = MultiBall(graph, tuple(ball.center[i] for i in j_idx), ball.radius)
    ball_s = MultiBall(graph, tuple(ball.center[i] for i in jc_idx), ball.radius)
    op_p = VolumeOperator.from_ball(ball_p, interaction)
    op_s = VolumeOperator.from_ball(ball_s, interaction)

    ordered: list[Config] = []
    for xp in op_p.configs:
        for xs in op_s.configs:
            full = [0] * ball.n_particles
            for pos, j in enumerate(j_idx):
                full[j] = xp[pos]
            for pos, j in enumerate(jc_idx):
                full[j] = xs[pos]
            ordered.append(tuple(full))
    ball_volume = VolumeOperator.from_ball(ball, interaction)
    permutation = np.asarray([ball_volume.position(c) for c in ordered], dtype=np.int64)

    coupling = np.zeros(len(ordered))
    for pos, cfg in enumerate(ordered):
        total = 0.0
        for i in j_idx:
            for j in jc_idx:
                total += interaction_value(interaction, int(graph.dist[cfg[i], cfg[j]]))
        coupling[pos] = total
    norm = float(np.abs(coupling).max()) if coupling.size else 0.0
    bound = interaction.c_u * ball.n_particles**2 * float(np.exp(-float(ball.radius) ** interaction.zeta))
    return DecoupledForm(
        h_prime=op_p.hamiltonian(g, sample),
        h_second=op_s.hamiltonian(g, sample),
        coupling=coupling,
        ordered_configs=tuple(ordered),
        permutation=permutation,
        coupling_norm=norm,
        coupling_norm_bound=bound,
    )


# The dominated-decay lemma in its general form: singular points confined to a
# set Xi, covered by annuli whose width comes off the exponent.  The package
# checks the Xi-free form (mpmsa.domination); this is its oracle.


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
