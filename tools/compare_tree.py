"""Compare the outputs of this working tree with those of a commit.

    python tools/compare_tree.py <commit>

Run from anywhere inside a checkout.  The commit's files are extracted
with `git archive` into a temporary directory, which is removed at the end;
the repository's git metadata is not touched.  Both trees then run,
each as fresh `python -m mpmsa.cli` processes with BLAS, OpenMP and MKL
pinned to 1 thread:

  - every shipped configs/*.cfg, at MPMSA_THREADS=1 and at 2;
  - every variant of every benchmark part (bench/workloads.py), at
    MPMSA_THREADS=1.

Both trees run the same config files, those of this tree.  Per run the
script compares the bytes of every CSV file, the exit code, and the pass
flags and results of summary.json, and prints one table with a row per run,
then the dotted paths (such as results.cover_roots.level.rows) at which the
results of a run differ.  The exit code is 0 when every run is identical in
all four, else 1.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 600


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def config_kind(config_text: str) -> str:
    """The `kind` of a config file's text: the subcommand that runs it."""
    return next(line.split("=", 1)[1].strip() for line in config_text.splitlines()
                if line.split("=", 1)[0].strip() == "kind")


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()


def differing_leaves(a, b, where: str = "", tol: tuple[float, float] | None = None) -> list[tuple]:
    """(path, a value, b value) at each dotted path ([i] for list items) at
    which two JSON values differ; a key on one side only differs, with the
    other side <missing>.  Values compare exactly, NaN equal to NaN, except
    that with tol = (rtol, atol) two floats, b finite, agree when
    |a - b| <= rtol |b| + atol."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [leaf for key in sorted(a.keys() | b.keys())
                for leaf in differing_leaves(a.get(key, _MISSING), b.get(key, _MISSING),
                                             f"{where}.{key}" if where else key, tol)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [leaf for i, (x, y) in enumerate(zip(a, b)) for leaf in differing_leaves(x, y, f"{where}[{i}]", tol)]
    if tol is not None and isinstance(a, float) and isinstance(b, float) and math.isfinite(b):
        same = abs(a - b) <= tol[0] * abs(b) + tol[1]
    else:
        same = type(a) is type(b) and (a == b or (a != a and b != b))
    return [] if same else [(where, a, b)]


def differing_paths(a, b, where: str = "", tol: tuple[float, float] | None = None) -> list[str]:
    """The paths of `differing_leaves`."""
    return [path for path, _, _ in differing_leaves(a, b, where, tol)]


def cases() -> list[tuple[str, str, str]]:
    """(label, MPMSA_THREADS, config text) for every run, the config's output
    directory left as the placeholder {out}."""
    runs = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        for threads in ("1", "2"):
            runs.append((f"{path.stem} @{threads}", threads, path.read_text()))
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import PARTS, POOL

    for name, part in sorted(PARTS.items()):
        for variant in range(POOL):
            runs.append((f"{name}/{variant}", "1", part.make_config(variant, "{out}")))
    return runs


def run(tree: Path, side: str, label: str, threads: str, text: str, work: Path) -> dict:
    """One CLI process of `tree` on the config, its files under work/side;
    its exit code and outputs."""
    slug = label.replace(" @", "-").replace("/", "-")
    out = work / side / slug
    cfg = work / side / f"{slug}.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(text.replace("{out}", str(out)))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), MPMSA_THREADS=threads)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "mpmsa.cli", config_kind(text), "--config", str(cfg), "--out", str(out)],
        cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S,
    )
    summary = out / "summary.json"
    report = json.loads(summary.read_text()) if summary.exists() else {}
    return {
        "exit": proc.returncode,
        "csv": {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))},
        "flags": report.get("pass_flags"),
        "results": report.get("results"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit", help="the commit to compare this working tree with")
    args = parser.parse_args()
    commit = _git("rev-parse", "--verify", f"{args.commit}^{{commit}}").strip()
    with tempfile.TemporaryDirectory(prefix="compare_tree-") as tmp:
        work = Path(tmp)
        base = work / "base"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        rows, same = [], 0
        for label, threads, text in cases():
            print(f"running {label}", file=sys.stderr)
            a = run(base, "base", label, threads, text, work / "out")
            b = run(ROOT, "head", label, threads, text, work / "out")
            paths = differing_paths(a["results"], b["results"], "results")
            checks = {key: a[key] == b[key] for key in ("csv", "exit", "flags")}
            checks["results"] = not paths
            same += all(checks.values())
            rows.append((label, f"{a['exit']}/{b['exit']}", len(b["csv"]), checks, paths))
    print(f"this tree against {commit[:12]}, BLAS at 1 thread")
    print(f"{'run':<22} {'exit':>5} {'CSVs':>4}  {'bytes':<5} {'exit':<5} {'flags':<5} {'results':<7}")
    for label, exits, n_csv, checks, _ in rows:
        marks = ["same" if checks[key] else "DIFF" for key in ("csv", "exit", "flags", "results")]
        print(f"{label:<22} {exits:>5} {n_csv:>4}  {marks[0]:<5} {marks[1]:<5} {marks[2]:<5} {marks[3]:<7}")
    for label, *_, paths in rows:
        if paths:
            print(f"{label}: {', '.join(paths)} differ")
    print(f"{same} of {len(rows)} runs identical in CSV bytes, exit code, pass flags and results")
    return 0 if same == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
