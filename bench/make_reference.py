"""Regenerate the stored reference outputs, one file per workload part.

    python3 bench/make_reference.py [part ...]

Run from the root of a checkout at the commit whose outputs are the
reference.  Each variant of the pool runs once with the benchmark's pinned
environment; its exit code, pass flags and CSV tables are stored.  Only
regenerate when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, Child, environment
from workloads import PARTS, POOL, reference_path


def main(names: list[str]) -> int:
    for name in names or sorted(PARTS):
        part = PARTS[name]
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        variants = {}
        for v in range(POOL):
            child = Child(part, v, work / f"v{v}", traced=False, check=False)
            if not child.ok:
                return 1
            out = dict(child.output)
            del out["runtime_seconds"]
            variants[str(v)] = out
            print(f"{name} variant {v}: exit {out['exit_code']}, {child.wall_s:.2f} s")
        env = environment(seed=0)
        del env["seed"]
        reference_path(part).parent.mkdir(exist_ok=True)
        reference_path(part).write_text(
            json.dumps({"part": name, "environment": env, "variants": variants},
                       indent=1, sort_keys=True) + "\n"
        )
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
