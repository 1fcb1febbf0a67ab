"""mpmsa benchmark: fresh CLI processes in a closed loop, one at a time.

    python3 bench/run.py --workload efc-wegner --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  A workload is a round of parts; each part
is one process ``python -m mpmsa.cli <kind> --config <generated.cfg>`` with
BLAS, OpenMP and MPMSA_THREADS pinned to 1.  The next process starts when
the previous one has exited, and rounds repeat until the next one would end
after --seconds.  Every process is checked against the stored reference.

--trace 0 prints the end-to-end metrics, medians over the rounds of a
round's total:
  wall_s       spawn to exit, summed over the round's processes
  setup_s      wall_s minus the runner time the program reports
               (interpreter start, imports, config parsing, report writing)
  items_per_s  rounds per second of runner time
  peak_rss_mb  peak resident set, summed over the round's processes
--trace 1 runs untraced, traced, untraced, traced on one variant of each
part and prints the per-layer metrics (bench/tracer.py) of one round, the
tracing overhead, and checks that both traced runs of a part give identical
exact counters and that all four runs of a part write byte-identical CSVs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 when correct is true.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Part, Workload, compare, load_reference, read_output, variant_order

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_runs"
CHILD_TIMEOUT_S = 120.0
MIN_ROUNDS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MPMSA_THREADS")
# counters that must repeat exactly between two traced runs
EXACT_COUNTERS = (
    "spectral.eigh_calls", "spectral.eigh_distinct", "hamiltonian.assemblies",
    "induction.cover_intervals", "induction.supmin_evals", "reporting.bytes",
)
# per-layer metrics of a round that are the largest over its parts, and
# rates that are recomputed from the round's summed work and time; the rest
# are sums over the parts
MAX_LAYERS = ("spectral.eigh_m_max", "parallel.workers")
RATE_LAYERS = {
    "spectral.eigh_gflops": ("spectral.eigh_gflop", "spectral.eigh_s"),
    "evc.eigvalsh_gflops": ("evc.eigvalsh_gflop", "evc.eigvalsh_s"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(seed: int) -> dict:
    """What each result is recorded with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mpmsa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: v for k, v in sorted(env.items()) if "THREAD" in k},
    }


class Child:
    """One finished program run: timings, resource use and checked outputs."""

    def __init__(self, part: Part, variant: int, run_dir: Path, traced: bool,
                 check: bool = True):
        self.out_dir = run_dir / "out"
        cfg = run_dir / "run.cfg"
        run_dir.mkdir(parents=True)
        cfg.write_text(part.make_config(variant, str(self.out_dir)))
        cmd = [sys.executable, "-m", "mpmsa.cli", part.kind, "--config", str(cfg)]
        if traced:
            self.metrics_path = run_dir / "layers.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(self.metrics_path), *cmd[3:]]
        with open(run_dir / "log.txt", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        try:
            self.output = read_output(self.out_dir, proc.returncode)
        except (OSError, ValueError, KeyError) as exc:
            self.output = None
            self.problems = [f"exit code {proc.returncode}, no readable output: {exc}"]
        else:
            self.problems = []
            if check:
                reference = load_reference(part)["variants"][str(variant)]
                self.problems = compare(part, self.output, reference)
        if self.problems:
            print(f"{run_dir.name}: FAILED: " + "; ".join(self.problems[:5]), file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def runtime_s(self) -> float:
        return self.output["runtime_seconds"]

    def csv_bytes(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.glob("*.csv"))}

    def layers(self) -> dict:
        metrics = json.loads(self.metrics_path.read_text())
        metrics["reporting.bytes"] = sum(len(b) for b in self.csv_bytes().values())
        return metrics


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path):
    """Closed loop of rounds until the next round would end after `seconds`."""
    order = variant_order(seed)
    rounds: list[list[Child]] = []
    start = time.perf_counter()
    while True:
        i = len(rounds)
        rounds.append([
            Child(part, order[i % len(order)], work / f"r{i:03d}-{part.name}", traced=False)
            for part in workload.parts
        ])
        elapsed = time.perf_counter() - start
        if i + 1 >= MIN_ROUNDS and elapsed + sum(c.wall_s for c in rounds[-1]) > seconds:
            break
    good = [r for r in rounds if all(c.ok for c in r)]
    metrics = {}
    if good:
        def median(value) -> float:
            return statistics.median(sum(value(c) for c in r) for r in good)
        metrics = {
            "wall_s": (median(lambda c: c.wall_s), "s"),
            "setup_s": (median(lambda c: c.wall_s - c.runtime_s), "s"),
            "items_per_s": (statistics.median(1.0 / sum(c.runtime_s for c in r) for r in good),
                            "1/s"),
            "peak_rss_mb": (median(lambda c: c.peak_rss_mb), "MB"),
        }
    return [c for r in rounds for c in r], metrics, []


def traced(workload: Workload, seed: int, work: Path):
    """Untraced, traced, untraced, traced on the run's first variant of each part."""
    variant = variant_order(seed)[0]
    children, problems, parts = [], [], []
    for part in workload.parts:
        runs = [
            Child(part, variant, work / f"{part.name}-{tag}{i}", traced=(tag == "t"))
            for i in range(2) for tag in ("u", "t")
        ]
        children += runs
        if not all(c.ok for c in runs):
            continue
        plain, tracedc = runs[0::2], runs[1::2]
        layers = [c.layers() for c in tracedc]
        for key in EXACT_COUNTERS:
            if layers[0][key] != layers[1][key]:
                problems.append(f"{part.name}: {key} differs between traced runs: "
                                f"{layers[0][key]} vs {layers[1][key]}")
        csvs = [c.csv_bytes() for c in runs]
        if any(c != csvs[0] for c in csvs[1:]):
            problems.append(f"{part.name}: traced and untraced CSV bytes differ")
        # timings: mean of the two traced runs; counts: the first one
        merged = {
            key: statistics.fmean(layer[key] for layer in layers)
            if key.endswith(("_s", ".s")) else value
            for key, value in layers[0].items()
        }
        merged["trace.plain_wall_s"] = sum(c.wall_s for c in plain)
        merged["trace.traced_wall_s"] = sum(c.wall_s for c in tracedc)
        parts.append(merged)
        print(f"{part.name} layer call counts: " + json.dumps(layers[0]["trace.calls"]),
              file=sys.stderr)
    metrics = {}
    if len(parts) == len(workload.parts):
        def total(key: str) -> float:
            return sum(layer[key] for layer in parts)
        for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            name, unit = spec["name"], spec["unit"]
            if name == "trace.overhead_frac":
                value = total("trace.traced_wall_s") / total("trace.plain_wall_s") - 1.0
            elif name in MAX_LAYERS:
                value = max(layer[name] for layer in parts)
            elif name in RATE_LAYERS:
                work_key, time_key = RATE_LAYERS[name]
                value = total(work_key) / total(time_key) if total(time_key) > 0 else 0.0
            else:
                value = total(name)
            metrics[name] = (value, unit)
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    return children, metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mpmsa" / "cli.py").is_file():
        print(f"no mpmsa sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    compileall.compile_dir(SRC, quiet=1)  # the first process must not pay for bytecode
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        children, metrics, problems = traced(workload, args.seed, work)
    else:
        children, metrics, problems = end_to_end(workload, args.seed, args.seconds, work)
    failed = sum(not c.ok for c in children)
    correct = failed == 0 and not problems and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {failed / len(children):.6g} ({failed}/{len(children)})")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
