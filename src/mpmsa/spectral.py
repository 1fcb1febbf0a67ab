"""Exact diagonalization, Green functions, the boundary functional, the
eigenfunction correlator and the geometric resolvent inequality check.

A spectrum keeps the eigenvectors as LAPACK returns them, each column's sign
arbitrary.  Every quantity derived here reads them only through products
psi_j(x) psi_j(y) of one column, which a sign flip leaves bit for bit the
same: the Green function, the boundary functional and its covers, the
eigenfunction correlator and the GRI.
"""

from __future__ import annotations

import ctypes
import functools
from typing import NamedTuple

import numpy as np

from .configspace import Config, MultiBall
from .disorder import InteractionPotential
from .errors import ContractViolation, DataError, ResonanceError
from .graphs import Graph, GrowthCertificate
from .hamiltonian import VolumeOperator

RESOLVENT_GUARD = 1e-12
DEGENERACY_GAP = 1e-10
GRI_SLACK = 1e-9  # relative tolerance of the geometric resolvent inequality
EPS = float(np.finfo(np.float64).eps)
PROFILE_ROWS = 512  # energies per block of reciprocals when a profile is evaluated


def roundoff_floor(n: int, scale):
    """n * eps * scale: the round-off level of a value computed in an
    n-dimensional problem from terms of magnitude up to `scale`.  A value
    whose magnitude does not exceed its floor has no reliable sign."""
    return n * EPS * scale


def dist_to_spectrum(eigenvalues: np.ndarray, energies):
    """min_j |lambda_j - E| per energy, for ascending eigenvalues: rounded
    subtraction is monotone, so the nearer neighbour of E attains the minimum."""
    energies = np.asarray(energies, dtype=np.float64)
    i = np.searchsorted(eigenvalues, energies)
    below = eigenvalues[np.maximum(i - 1, 0)]
    above = eigenvalues[np.minimum(i, eigenvalues.size - 1)]
    return np.minimum(np.abs(energies - below), np.abs(above - energies))


def _difference_factors(es: np.ndarray, poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors [1, E] (energies x 2) and [p_j, -1] (2 x poles) whose
    product is the matrix p_j - E: each entry is one rounding of the exact
    difference, the bits of a subtraction, and BLAS forms them in place some
    4x faster than a broadcast subtraction allocates them.  One case
    differs: p_j = -0.0 at E = +0.0 gives +0.0 (the product starts from
    +0.0), where the subtraction gives -0.0, so its reciprocal is +inf, not
    -inf."""
    ones = np.ones((es.size, 2))
    ones[:, 1] = es
    return ones, np.stack((poles, -np.ones(poles.size)))


def _differences(es: np.ndarray, poles: np.ndarray, out=None) -> np.ndarray:
    """(energies x poles) matrix p_j - E, formed in `out` if given, as the
    rank-2 product of `_difference_factors`."""
    return np.matmul(*_difference_factors(es, poles), out=out)


def _reciprocals(es: np.ndarray, poles: np.ndarray, out=None) -> np.ndarray:
    """(energies x poles) matrix 1 / (p_j - E), formed in `out` if given,
    from `_differences`; a pole gives inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _differences(es, poles, out)
        return np.divide(1.0, out, out=out)


class SpectralData(NamedTuple):
    """Ascending eigenvalues with orthonormal eigenvector columns of H over
    the volume of an operator."""

    volume: VolumeOperator
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    h_norm: float

    def component(self, config: Config) -> np.ndarray:
        """Row of the eigenvector matrix at a configuration (values psi_j(x))."""
        return self.eigenvectors[self.volume.position(config), :]


def cluster_starts(eigenvalues: np.ndarray) -> np.ndarray:
    """First indices of the maximal runs of ascending eigenvalues whose
    consecutive gaps are <= DEGENERACY_GAP (the numerically degenerate
    clusters)."""
    return np.concatenate(([0], np.flatnonzero(np.diff(eigenvalues) > DEGENERACY_GAP) + 1))


def cluster_sums(eigenvalues: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean eigenvalue of each cluster and the per-cluster sums of `values`
    along axis 0 (one row per eigenvalue)."""
    starts = cluster_starts(eigenvalues)
    sizes = np.diff(starts, append=eigenvalues.size)
    return np.add.reduceat(eigenvalues, starts) / sizes, np.add.reduceat(values, starts, axis=0)


@functools.cache
def _dsyevd():
    """LAPACK dsyevd as numpy's own `eigh` calls it: the ILP64 symbol of the
    OpenBLAS that numpy's linalg extension links, resolved through that
    extension's handle, or None where it does not export one."""
    from numpy.linalg import _umath_linalg

    try:
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (OSError, AttributeError):
        return None
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
    fn.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9
    fn.restype = None
    return fn


def _syevd(h: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the exactly symmetric H, with its orthonormal
    eigenvector columns (C order) when `vectors`: `np.linalg.eigh` or
    `eigvalsh` bit for bit, solved in H's own buffer, which it consumes.

    numpy copies H into a Fortran buffer and has LAPACK read its lower
    triangle; here the C buffer is read as Fortran, H transposed, whose lower
    triangle is H's upper one, the same numbers.  One workspace query, then
    one call with the optimal workspace (2 m**2 + 6 m + 1 doubles with
    vectors, 2 m + 1 without), as numpy makes them; the eigenvectors are
    copied to C order after the workspace is freed, so a solve with vectors
    peaks at 3 m**2 doubles, H included, against numpy's 5.  Where numpy's
    OpenBLAS exports no `scipy_dsyevd_64_`, numpy solves it.
    """
    if not (h.ndim == 2 and h.shape[0] == h.shape[1] and h.dtype == np.float64):
        raise ContractViolation(f"dsyevd needs a square float64 matrix, not {h.dtype} {h.shape}")
    if not (h.flags.c_contiguous and h.flags.writeable):
        raise ContractViolation("dsyevd solves in place: H must be C-contiguous and writeable")
    fn = _dsyevd()
    if fn is None:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    m = h.shape[0]
    w = np.empty(m)
    n, lda, info = ctypes.c_int64(m), ctypes.c_int64(max(m, 1)), ctypes.c_int64(0)

    def call(lwork: int, liwork: int) -> tuple[int, int]:
        # -1, -1 asks for the optimal sizes, returned in work[0] and iwork[0]
        work, iwork = np.empty(max(lwork, 1)), np.empty(max(liwork, 1), dtype=np.int64)
        fn(b"V" if vectors else b"N", b"L", ctypes.byref(n), h.ctypes.data, ctypes.byref(lda), w.ctypes.data,
           work.ctypes.data, ctypes.byref(ctypes.c_int64(lwork)), iwork.ctypes.data,
           ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info))
        return int(work[0]), int(iwork[0])

    sizes = call(-1, -1)
    if not info.value:
        call(*sizes)
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return (w, np.ascontiguousarray(h.T)) if vectors else w


def eigendecompose(op: VolumeOperator, g: float, sample: np.ndarray) -> SpectralData:
    """Full spectrum of H over the volume of `op` at coupling g under one
    disorder sample: ascending eigenvalues and orthonormal eigenvectors from
    one in-place dsyevd (`_syevd`), signs as LAPACK returns them.

    Residual and orthonormality contracts are enforced here rather than
    trusted: max |HV - V diag(lam)| <= 1e-9 max(||H||, 1), formed from H's
    diagonal and the operator's runs (`_residual`), and max |V^T V - I| <=
    1e-10, one symmetric product.
    """
    h = op.hamiltonian(g, sample)
    diagonal = h.diagonal().copy()
    lam, vec = _syevd(h, vectors=True)
    del h  # the solve's buffer, not H any more
    h_norm = float(np.abs(lam).max()) if lam.size else 0.0
    resid = _residual(diagonal, op.runs, lam, vec)
    # `not <=` so that a NaN residual or Gram deviation fails the contract
    if not resid <= 1e-9 * max(h_norm, 1.0):
        raise DataError(f"eigensolve residual {resid:.3e} too large")
    # vec.T @ vec keeps numpy's symmetric-product path
    gram = vec.T @ vec
    gram.flat[:: len(gram) + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max()
    if not gram_err <= 1e-10:
        raise DataError(f"eigenvector gram deviation {gram_err:.3e} too large")
    return SpectralData(op, lam, vec, h_norm)


def volume_eigenvalues(op: VolumeOperator, g: float, sample: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H over the volume of `op`, `np.linalg.eigvalsh`
    bit for bit, solved in place in the one m x m array formed."""
    return _syevd(op.hamiltonian(g, sample), vectors=False)


def _residual(diagonal: np.ndarray, runs: tuple, lam: np.ndarray, vec: np.ndarray) -> float:
    """max |HV - V diag(lam)| from H's diagonal and its off-diagonal runs:
    (d_i - lam_j) V_ij, then one in-place slice update per run, in O(edges m)
    and one m x m array.  A NaN anywhere in V makes the result NaN."""
    r = np.subtract.outer(diagonal, lam)
    r *= vec
    for start, stop, offset, value in runs:
        neighbours = vec[start + offset:stop + offset]
        if value == -1.0:  # every operator's hopping: no temporary
            r[start:stop] -= neighbours
        else:
            r[start:stop] += value * neighbours
    return float(np.abs(r, out=r).max())


class BallOperators:
    """Sample-independent operators of the balls of one graph and interaction.

    Each (center, radius) is enumerated on first request and kept, so every
    disorder sample, coupling and pool thread of a run shares one operator
    per ball.  Two threads may build the same operator at once; the copies
    are equal, so the race costs work but never changes a value.
    """

    def __init__(self, graph: Graph, interaction: InteractionPotential):
        self.graph, self.interaction = graph, interaction
        self._built: dict[tuple[Config, int], VolumeOperator] = {}

    def operator(self, ball: MultiBall) -> VolumeOperator:
        if ball.graph is not self.graph:
            raise ContractViolation("ball lies on another graph than its operators")
        key = (tuple(ball.center), ball.radius)
        op = self._built.get(key)
        if op is None:
            op = self._built[key] = VolumeOperator.from_ball(ball, self.interaction)
        return op


class BallSpectra:
    """Spectra of the balls of one graph under one disorder sample and one
    coupling: the one path from (ball, sample) to spectral data.

    Each (center, radius) is diagonalized on first request and memoized: the
    multi-scale predicates and the domination check ask about the same balls
    at many energies, radii and predicates.  Hamiltonians are formed from the
    shared operators when a ball is solved and not kept.
    """

    def __init__(self, operators: BallOperators, sample: np.ndarray, g: float):
        self.operators, self.sample, self.g = operators, sample, g
        self._solved: dict[tuple[Config, int], SpectralData] = {}

    def spectrum(self, ball: MultiBall) -> SpectralData:
        op = self.operators.operator(ball)
        key = (tuple(ball.center), ball.radius)
        spec = self._solved.get(key)
        if spec is None:
            spec = self._solved[key] = eigendecompose(op, self.g, self.sample)
        return spec


def inertia(op: VolumeOperator, g: float, sample: np.ndarray, sigmas) -> np.ndarray | None:
    """Number of eigenvalues of H below each shift sigma, or None when a
    count is not above round-off.

    By Sylvester's law of inertia the count is the number of negative
    eigenvalues of H - sigma, and by Haynsworth's inertia additivity it is
    the sum of the negative counts of the pivot blocks of a block LDL^T
    factorisation in the block tridiagonal order of `op.partition()`:
    D_0 = A_0 - sigma and D_k = A_k - sigma - B_k^T D_{k-1}^{-1} B_k.  The
    first block is diagonalised once for every shift; later pivot blocks are
    diagonalised per shift, all shifts in one stacked call.  A volume
    counted whole (no partition) costs one `volume_eigenvalues` solve of H,
    whose counts are taken at sigma -/+ 3 delta.

    The computed pivots are exact for H + E, E block diagonal with block k
    at most the roundoff_floor of the entries that formed D_k (scale
    |A_k| + max |sigma| + |B_k^T| |D_{k-1}^{-1}| |B_k|); `err` is the
    largest.  A first factorisation at sigma measures err, and each count
    is then taken at sigma - w and sigma + w, w = 2 err + delta, with delta
    the round-off of an eigvalsh spectrum of H.  When both counts agree and
    the bracket's own err' is at most w - delta, no eigenvalue of H lies
    within delta of sigma and the count is the one an eigvalsh spectrum
    gives; a bracket whose err' is larger is retried with err = err', three
    brackets at most.  The result is None when the two counts disagree,
    when no bracket holds, or when some pivot eigenvalue lies within its
    floor of 0.
    """
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=np.float64))
    diagonal = op.diagonal(g, sample)
    part = op.partition()
    # |A_k - sigma| <= max |diagonal| + max |sigma| + the largest row count
    # of -1 entries, which the full-graph degree bounds
    base = float(op.degree.max()) + float(np.abs(sigmas).max())
    delta = roundoff_floor(len(diagonal), base + float(np.abs(diagonal).max()))
    if part is None:
        lam = volume_eigenvalues(op, g, sample)
        width = 3.0 * delta
        below = np.searchsorted(lam, sigmas - width)
        return below if np.array_equal(below, np.searchsorted(lam, sigmas + width)) else None
    first = np.linalg.eigh(_block(part, diagonal, 0))
    measured = _pivot_counts(part, diagonal, first, sigmas, base)
    if measured is None:
        return None
    err = measured[1]
    for _ in range(3):
        width = 2.0 * err + delta
        bracket = _pivot_counts(part, diagonal, first, np.concatenate((sigmas - width, sigmas + width)), base)
        if bracket is None:
            return None
        negative, err = bracket
        if err <= width - delta:
            below, above = np.split(negative, 2)
            return below if np.array_equal(below, above) else None
    return None


def _block(part, diagonal: np.ndarray, k: int) -> np.ndarray:
    a = part.hopping[k].copy()
    a[np.diag_indices(len(a))] = diagonal[part.blocks[k]]
    return a


def _pivot_counts(part, diagonal, first, sigmas, base) -> tuple[np.ndarray, float] | None:
    """Negative counts of the pivot blocks per shift and the largest pivot
    floor, or None when a pivot eigenvalue lies within its floor of 0."""
    m, last = len(diagonal), len(part.blocks) - 1
    mu, q = first
    pivots = mu - sigmas[:, None]
    negative = np.zeros(sigmas.shape, dtype=np.int64)
    err = 0.0
    for k in range(last + 1):
        block = diagonal[part.blocks[k]]
        scale = base + float(np.abs(block).max())
        if k:
            inv = 1.0 / pivots
            scale += float((np.abs(inv) * np.square(w).sum(axis=-1)).sum(axis=1).max())
            d = _block(part, diagonal, k) - np.swapaxes(w, -1, -2) @ (inv[:, :, None] * w)
            rows = np.arange(len(block))
            d[:, rows, rows] -= sigmas[:, None]
            pivots, q = np.linalg.eigh(d)
        floor = roundoff_floor(m, scale)
        if np.abs(pivots).min() <= floor:
            return None
        err = max(err, floor)
        negative += np.count_nonzero(pivots < 0, axis=1)
        if k < last:
            w = np.swapaxes(q, -1, -2) @ part.coupling[k + 1]
    return negative, err


def _check_resonance(spec: SpectralData, energy: float) -> None:
    dist = float(dist_to_spectrum(spec.eigenvalues, energy))
    if dist <= RESOLVENT_GUARD:
        raise ResonanceError(dist, RESOLVENT_GUARD)


def green_row(spec: SpectralData, energy: float, x: Config) -> np.ndarray:
    """G(x, .; E) over the whole volume as one vector, sum_j psi_j(x) psi_j(.)
    / (lambda_j - E); an energy within RESOLVENT_GUARD of the spectrum raises
    ResonanceError."""
    _check_resonance(spec, energy)
    weights = spec.component(x) / (spec.eigenvalues - energy)
    return spec.eigenvectors @ weights


class BoundaryProfile(NamedTuple):
    """Reusable data for evaluating F_u(E) on many energies.

    F_u(E) = prefactor * max over boundary z of |sum_j c_j(z) / (lambda_j - E)|
    with c_j(z) = psi_j(u) psi_j(z).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray  # (n_eigs, n_boundary), C order
    prefactor: float

    def evaluate(self, energies, guard: float = 0.0) -> np.ndarray:
        """F values per energy; energies within `guard` of a pole give +inf.
        G(center, z; E) is formed PROFILE_ROWS energies at a time, the
        reciprocals 1 / (lambda_j - E) in one buffer and their product with
        the coefficients in another, and each block is reduced to its
        maximum over z at once: no (energies x boundary) array is formed."""
        energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
        vals = np.empty(energies.size)
        rows = min(energies.size, PROFILE_ROWS)
        recip_buf, green = np.empty((rows, self.eigenvalues.size)), np.empty((rows, self.coefficients.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, energies.size, PROFILE_ROWS):
                part = energies[s : s + PROFILE_ROWS]
                recip = _reciprocals(part, self.eigenvalues, recip_buf[: part.size])
                g = np.matmul(recip, self.coefficients, out=green[: part.size])
                np.abs(g, out=g).max(axis=1, out=vals[s : s + part.size])
        vals *= self.prefactor
        if guard > 0.0:
            vals[dist_to_spectrum(self.eigenvalues, energies) <= guard] = np.inf
        return vals


def boundary_profile(spec: SpectralData, cert: GrowthCertificate) -> BoundaryProfile:
    """F_u data of the ball of `spec`, to be evaluated at many energies: a
    classification forms one per ball.  The spectrum of a volume that is not
    a ball raises ContractViolation."""
    ball, boundary = spec.volume.ball, spec.volume.boundary
    if ball is None:
        raise ContractViolation(f"boundary functional needs a ball; {spec.volume.label} is not one")
    if ball.radius < 1:
        raise ContractViolation("boundary functional needs radius >= 1")
    if not boundary.size:
        raise ContractViolation("ball has empty inner boundary (it exhausts the graph)")
    # C order keeps the summation order of the cover's matrix products
    coeff = np.multiply(spec.component(ball.center)[:, None], spec.eigenvectors[boundary].T, order="C")
    return BoundaryProfile(
        eigenvalues=spec.eigenvalues,
        coefficients=coeff,
        prefactor=cert.prefactor(ball.n_particles, ball.radius),
    )


def ns_flags(
    spec: SpectralData, cert: GrowthCertificate, energies: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Green-decay nonsingularity F_u(E) <= threshold at each energy, for the
    ball of `spec`.

    Returns boolean arrays (ns, undetermined).  An energy within the resolvent
    guard of the spectrum is undetermined and not NS; a ball without an inner
    boundary is vacuously NS at every energy.  The spectrum of a volume that
    is not a ball and a radius-0 ball with a boundary raise ContractViolation.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    boundary = spec.volume.boundary
    if boundary is not None and not boundary.size:
        return np.ones(energies.shape, dtype=bool), np.zeros(energies.shape, dtype=bool)
    prof = boundary_profile(spec, cert)
    undetermined = dist_to_spectrum(spec.eigenvalues, energies) <= RESOLVENT_GUARD
    return (prof.evaluate(energies) <= threshold) & ~undetermined, undetermined


def efc(spec: SpectralData, x: Config, y: Config) -> float:
    """Eigenfunction correlator sup over |f| <= 1 of |<1_y| f(H) |1_x>|, in
    closed form: the sum over distinct-eigenvalue clusters of |<1_y P 1_x>|,
    taken left to right in double (the builtin `sum` of floats compensates
    since Python 3.12, which would move the last bit with the version).

    The sup over bounded test functions is attained by the sign pattern of the
    per-cluster projections, so no optimization is needed.
    """
    _, sums = cluster_sums(spec.eigenvalues, spec.component(x) * spec.component(y))
    total = 0.0
    for v in np.abs(sums).tolist():
        total += v
    return total


def gri_check(
    spec_big: SpectralData,
    spec_sub: SpectralData,
    x: Config,
    y: Config,
    energy: float,
) -> tuple[float, float, bool]:
    """Geometric resolvent inequality over (V, W):

        |G_V(x,y)| <= sum over boundary edges (u,v) of |G_W(x,u)| |G_V(v,y)|

    for x in W, y in V \\ W, E off both spectra (RESOLVENT_GUARD), given the
    spectrum of H_V and of its principal submatrix over W.  The inequality is
    exact mathematics; a failure beyond the tolerance (relative GRI_SLACK)
    indicates an implementation bug.  Small Green values come out of strongly
    canceling spectral sums, so on near-equality instances the relative slack
    is topped up with a machine-noise floor proportional to the cancellation
    mass sum_j |psi_j(x) psi_j(y)| / |l_j - E|.  Returns (lhs, rhs, holds).
    """
    vol_big, vol_sub = spec_big.volume, spec_sub.volume
    in_sub = np.asarray([c in vol_sub for c in vol_big.configs])
    if in_sub.sum() != len(vol_sub):
        raise ContractViolation("W must be a subset of V")
    if tuple(x) not in vol_sub:
        raise ContractViolation("x must lie in W")
    if tuple(y) in vol_sub or tuple(y) not in vol_big:
        raise ContractViolation("y must lie in V \\ W")
    g_big_y = green_row(spec_big, energy, y)
    g_sub_x = green_row(spec_sub, energy, x)
    lhs = abs(float(g_big_y[vol_big.position(x)]))
    rhs = 0.0
    # the boundary edges in the order of V's edges: u ascending in V
    for u, v in zip(*(e.tolist() for e in vol_big.edges)):
        if in_sub[u] and not in_sub[v]:
            rhs += abs(float(g_sub_x[vol_sub.position(vol_big.configs[u])])) * abs(float(g_big_y[v]))
    cancel_mass = float(
        np.sum(
            np.abs(spec_big.component(x) * spec_big.component(y))
            / np.abs(spec_big.eigenvalues - energy)
        )
    )
    noise_floor = 1e-12 * (1.0 + cancel_mass)
    return lhs, rhs, lhs <= rhs * (1.0 + GRI_SLACK) + noise_floor
