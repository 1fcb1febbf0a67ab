"""Replay the energy-interval covers of the benchmark's bridge balls in process.

    python tools/cover_replay.py [--tree DIR] [--replays N]

The bridge-covers part of the benchmark (bench/workloads.py) has 8 variants
with two balls each.  This script forms the 16 boundary profiles once, with
the package of DIR/src (default: this checkout), and then covers every ball
N times (default 7), all 16 balls per replay.  It prints per ball:

  - the median time of `induction._ball_union` over the replays;
  - the bisection batches (`induction._bisect_batch` calls) and the
    reciprocal rows (`EnergyIntervalCover.roots`) of one cover;
  - the number of intervals;
  - the peak of the memory one `cover_from_profile` allocates, in MB, as
    tracemalloc sees it, from a pass of its own before the timed replays,
    so that tracing slows none of them;

then the mean of those per ball, and one SHA-256 over every interval tuple
(the hex of both ends, ball by ball), so that two trees can be compared:
equal hashes mean bit-identical covers.  Run it with BLAS pinned to one
thread (OPENBLAS_NUM_THREADS=1) for steady times; compare trees only by
alternating runs, since the speed of a shared host drifts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def profiles():
    """(label, profile, level, window) of both balls of every bridge-covers
    variant, as `experiments_induction.run_bridge` forms them."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import PARTS, POOL

    from mpmsa.config import parse_config_text
    from mpmsa.configspace import MultiBall
    from mpmsa.disorder import sample_potential
    from mpmsa.experiments import certificate_for, configuration_at, model_from_config, params_from_config, seed_trials
    from mpmsa.hamiltonian import spectral_window
    from mpmsa.msa import MassSchedule
    from mpmsa.rng import substream
    from mpmsa.spectral import BallOperators, BallSpectra, boundary_profile

    out = []
    for variant in range(POOL):
        config = parse_config_text(PARTS["bridge-covers"].make_config(variant, "unused"))
        graph, n, dist, interaction, g = model_from_config(config)
        params = params_from_config(config)
        cert = certificate_for(graph, params)
        seed, _ = seed_trials(config)
        radius = config.get_int("run", "radius")
        window = spectral_window(graph, n, g, dist.sup_abs, interaction)
        level = math.exp(-MassSchedule(params).m(n) * float(radius) ** params.delta)
        spectra = BallSpectra(BallOperators(graph, interaction), sample_potential(dist, graph, substream(seed, 0)), g)
        for side in ("x", "y"):
            ball = MultiBall(graph, configuration_at(config, f"center_{side}", graph, n), radius)
            out.append((f"{variant} {side}", boundary_profile(spectra.spectrum(ball), cert), level, window))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout whose src/ is replayed")
    parser.add_argument("--replays", type=int, default=7, help="covers of every ball (>= 1)")
    args = parser.parse_args()
    if args.replays < 1:
        parser.error("--replays must be >= 1")
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from mpmsa import induction

    balls = profiles()
    peaks = []
    for _, prof, level, window in balls:
        tracemalloc.start()
        induction.cover_from_profile(prof, level, window)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()

    union, batch = induction._ball_union, induction._bisect_batch
    timing, batches = [], [0]

    def timed_union(*a, **k):
        start = time.perf_counter()
        try:
            return union(*a, **k)
        finally:
            timing.append(time.perf_counter() - start)

    def counted_batch(*a, **k):
        batches[0] += 1
        return batch(*a, **k)

    induction._ball_union, induction._bisect_batch = timed_union, counted_batch
    times = [[] for _ in balls]
    work = []
    for replay in range(args.replays):
        for i, (_, prof, level, window) in enumerate(balls):
            batches[0] = 0
            cover = induction.cover_from_profile(prof, level, window)
            times[i].append(timing.pop())
            if replay == 0:
                rows = sum(counts.rows for counts in cover.roots.values())
                work.append((batches[0], rows, cover.intervals))

    digest = hashlib.sha256()
    print(f"{'ball':<6} {'union ms':>9} {'batches':>8} {'rows':>8} {'intervals':>9} {'peak MB':>8}")
    for (label, *_), t, (n_batches, rows, intervals), peak in zip(balls, times, work, peaks):
        print(f"{label:<6} {1e3 * statistics.median(t):>9.2f} {n_batches:>8} {rows:>8} {len(intervals):>9} {peak:>8.2f}")
        digest.update(f"{label}:{','.join(f'{a.hex()}/{b.hex()}' for a, b in intervals)};".encode())
    n = len(balls)
    print(f"per ball (mean of {n}, median of {args.replays} replays): "
          f"_ball_union {1e3 * sum(statistics.median(t) for t in times) / n:.2f} ms, "
          f"{sum(w[0] for w in work) / n:.2f} bisection batches, {sum(w[1] for w in work) / n:.0f} rows, "
          f"{sum(len(w[2]) for w in work) / n:.2f} intervals, {sum(peaks) / n:.2f} MB peak")
    print(f"sha256 of the intervals: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
