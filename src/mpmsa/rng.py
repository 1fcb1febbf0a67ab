"""Counter-based random streams.

Every random draw in the package is a pure function of (seed, counter), so
sampling order, chunking and worker counts can never change results.  The
mixing function is SplitMix64 (Steele/Lea/Flood 2014), applied to
seed + counter * GOLDEN_GAMMA.
"""

from __future__ import annotations

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO53 = float(1 << 53)


def mix64(seed: int, counter: int | np.ndarray) -> np.ndarray | int:
    """SplitMix64 output for stream `seed` at position `counter` (vectorized)."""
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.asarray(counter, dtype=np.uint64) * _GAMMA) & _MASK
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
        z = z ^ (z >> _S31)
    if np.isscalar(counter) or np.ndim(counter) == 0:
        return int(z)
    return z


def uniform01(seed: int, counter: int | np.ndarray) -> np.ndarray | float:
    """Uniform double in [0, 1) built from the top 53 bits of mix64."""
    z = mix64(seed, counter)
    if isinstance(z, int):
        return (z >> 11) / _TWO53
    return (z >> _S11).astype(np.float64) / _TWO53


def substream(seed: int, index: int) -> int:
    """Derive a 64-bit child seed (used for per-trial streams)."""
    out = mix64(seed, index)
    assert isinstance(out, int)
    return out


class CounterRng:
    """Tiny deterministic generator over a SplitMix64 stream.

    Used for instance generation (random volumes, centers, energies) where
    numpy vectorization is overkill; every draw advances a counter.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.counter = 0

    def next_uniform(self) -> float:
        u = uniform01(self.seed, self.counter)
        self.counter += 1
        return float(u)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + int(self.next_uniform() * (hi - lo + 1))

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
