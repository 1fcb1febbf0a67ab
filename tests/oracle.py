"""A 40-digit truth for the float Hamiltonians the package forms.

`true_eigenvalues` runs mpmath's `eigsy` at 40 significant digits on H's
entries taken at their exact binary values (a double converts to an mpf
without rounding).  The result is the spectrum of the matrix the package
actually solves, with an error far below any double round-off, so a decision
the package reports as determined can be checked against it.  `eigsy` costs
about 0.5 s at m = 49 (eigenvalues only), so tier-1 volumes stay small.
"""

from __future__ import annotations

import mpmath

DIGITS = 40


def true_eigenvalues(h) -> list:
    """Ascending eigenvalues of the symmetric float matrix h, as mpf at
    DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        a = mpmath.matrix(h.tolist())
        return sorted(mpmath.eigsy(a, eigvals_only=True))


def true_counts(eigenvalues: list, sigmas) -> list[int]:
    """Number of true eigenvalues strictly below each float shift."""
    with mpmath.workdps(DIGITS):
        return [sum(1 for lam in eigenvalues if lam < mpmath.mpf(float(s))) for s in sigmas]
