"""Stored outputs of the shipped configs, and how to compare a run with them.

    python tests/reference/shipped/shipped_reference.py

run from the root of a checkout, regenerates one <config>.json per
configs/<config>.cfg next to this script.  Each config runs in process at
MPMSA_THREADS=1; its file holds the exit code, the pass flags, the results of
summary.json and the CSV tables, each with its '#' header lines.  Only
regenerate when a change is meant to alter these outputs, and say so.

The comparison uses the cell rules of bench/workloads.py (read only): exact
integer, boolean, empty and non-finite cells, the bench tolerances for
floats.  The '#' headers, the column names and the row counts are exact, so a
schema change fails.  Floats in the results compare at DEFAULT_TOL.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))
from workloads import DEFAULT_TOL, Part, compare, read_tables  # noqa: E402


def run_config(name: str, out: Path) -> dict:
    """Run configs/<name>.cfg in process with its output in `out`."""
    from mpmsa.cli import main

    path = CONFIGS / f"{name}.cfg"
    kind = next(line.split("=", 1)[1].strip() for line in path.read_text().splitlines()
                if line.split("=", 1)[0].strip() == "kind")
    code = main([kind, "--config", str(path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    return {
        "kind": kind,
        "exit_code": code,
        "pass_flags": summary["pass_flags"],
        "results": summary["results"],
        "headers": {
            csv.stem: [line for line in csv.read_text().splitlines() if line.startswith("#")]
            for csv in sorted(out.glob("*.csv"))
        },
        "tables": read_tables(out),
    }


def _results_differ(got, ref, where: str) -> list[str]:
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [p for key in ref for p in _results_differ(got[key], ref[key], f"{where}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(got, ref)) for p in _results_differ(a, b, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float) and math.isfinite(ref):
        rtol, atol = DEFAULT_TOL
        ok = abs(got - ref) <= rtol * abs(ref) + atol
    else:
        ok = type(got) is type(ref) and (got == ref or (got != got and ref != ref))
    return [] if ok else [f"{where}: {got!r} vs reference {ref!r}"]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return cell == ""
    return True


def _text_cells(tables: dict) -> tuple[dict, list]:
    """The tables with every text cell (a label such as 'synthetic', which
    the bench's numeric rules do not know) blanked, and those cells by
    position: they compare exactly."""
    blanked, text = {}, []
    for name, lines in tables.items():
        blanked[name] = lines[:1]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            text += [(name, i, j, c) for j, c in enumerate(cells) if not _is_number(c)]
            blanked[name].append(",".join(c if _is_number(c) else "" for c in cells))
    return blanked, text


def differences(name: str, got: dict, ref: dict) -> list[str]:
    """Mismatches between one run of a shipped config and its reference."""
    got_tables, got_text = _text_cells(got["tables"])
    ref_tables, ref_text = _text_cells(ref["tables"])
    problems = compare(Part(name, ref["kind"], None), {**got, "tables": got_tables}, {**ref, "tables": ref_tables})
    if got_text != ref_text:
        problems.append(f"text cells {sorted(set(got_text) ^ set(ref_text))} differ")
    if got["headers"] != ref["headers"]:
        problems.append(f"'#' headers {got['headers']} != {ref['headers']}")
    return problems + _results_differ(got["results"], ref["results"], "results")


def names() -> list[str]:
    return sorted(path.stem for path in CONFIGS.glob("*.cfg"))


def main() -> int:
    import tempfile

    os.environ["MPMSA_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names():
            got = run_config(name, Path(tmp) / name)
            (HERE / f"{name}.json").write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
            print(f"{name}: exit {got['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
