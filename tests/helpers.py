"""Test-only helpers shared by several test modules."""

import numpy as np

from mpmsa.configspace import Config
from mpmsa.spectral import DEGENERACY_GAP, SpectralData, cluster_sums


def efc_test_function_value(
    spec: SpectralData, x: Config, y: Config, f_values: np.ndarray, gap: float = DEGENERACY_GAP
) -> float:
    """|<1_y| f(H) |1_x>| for f given by its values on the cluster energies."""
    sums = cluster_sums(spec.eigenvalues, spec.component(x) * spec.component(y), gap)[1]
    total = 0.0
    for f_val, s in zip(f_values, sums):
        total += f_val * float(s)
    return abs(total)
