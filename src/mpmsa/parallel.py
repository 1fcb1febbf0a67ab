"""Deterministic worker pool over independent trials.

MPMSA_THREADS sets the worker count (default 1), capped at the CPU count and
the number of trials.  Each trial is a pure function of
(substream(master_seed, index), index) and results land in a per-index slot,
so any schedule produces identical output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .errors import ConfigurationError
from .rng import substream

T = TypeVar("T")

ENV_THREADS = "MPMSA_THREADS"


def thread_count(n_trials: int | None = None) -> int:
    """Pool size: MPMSA_THREADS capped at the CPU count and at n_trials if given."""
    raw = os.environ.get(ENV_THREADS, "1").strip()
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigurationError(f"{ENV_THREADS} must be an integer >= 1, got '{raw}'")
    cap = os.cpu_count() or 1
    if n_trials is not None:
        cap = min(cap, n_trials)
    return max(1, min(int(raw), cap))


def run_trials(fn: Callable[[int, int], T], n_trials: int, master_seed: int) -> list[T]:
    """results[i] = fn(trial_seed_i, i); reduction is by trial index."""
    seeds = [substream(master_seed, i) for i in range(n_trials)]
    workers = thread_count(n_trials)
    results: list[T] = [None] * n_trials  # type: ignore[list-item]
    if workers == 1:
        for i, s in enumerate(seeds):
            results[i] = fn(s, i)
        return results
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, s, i): i for i, s in enumerate(seeds)}
        for fut, i in futures.items():
            results[i] = fut.result()
    return results

