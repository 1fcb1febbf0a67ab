"""Deterministic worker pool over independent trials.

MPMSA_THREADS sets the worker count (default 1), capped at the CPU count and
the number of trials.  Each trial is a pure function of its seed
substream(master_seed, index) and results land in a per-index slot, so any
schedule produces identical output.
"""

from __future__ import annotations

import os
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


def run_trials(fn: Callable[[int], T], n_trials: int, master_seed: int) -> list[T]:
    """results[i] = fn(substream(master_seed, i)); reduction is by trial index."""
    seeds = [substream(master_seed, i) for i in range(n_trials)]
    workers = thread_count(n_trials)
    if workers == 1:
        return [fn(s) for s in seeds]
    # imported here: the pool and the logging it loads cost start-up of every
    # process, and the default of one worker never uses them
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))
