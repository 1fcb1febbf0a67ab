"""Workload definitions, generated configs and the reference check.

A workload is a round of parts run one after the other; a part is one kind
of CLI process.  Each part has a pool of POOL variants.  A variant is one
config file, fully determined by (part, variant index); the workload seed
only picks the order in which a run visits the pool.  The stored reference
holds, per part and variant, the exit code, the pass flags and the CSV
tables of the seed commit, so every variant the benchmark can run has a
reference.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 8
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
EPS = float(np.finfo(np.float64).eps)

# u(r) = C_U exp(-r^zeta), as in acceptance criterion 09
INTERACTION = "u:C=1:zeta=0.5:rcut=inf"
EFC_PAIRS = [((5, 7), (5 + r, 7 + r)) for r in (2, 4, 6, 8, 10, 12)]
EFC_KAPPA = 0.5


def _config(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    return "\n".join(lines)


def _efc_dense(v: int, out: str) -> str:
    pairs = ";".join(f"{x[0]},{x[1]}|{y[0]},{y[1]}" for x, y in EFC_PAIRS)
    return _config({
        "experiment": {"kind": "efc", "trials": 8, "seed": 1100 + v, "out": out},
        "model": {"graph": "path:30", "particles": 2, "distribution": "uniform:0:1",
                  "interaction": INTERACTION, "g": 50},
        "params": {"kappa": EFC_KAPPA},
        "run": {"pairs": pairs, "g_grid": 50, "batches": 4},
    })


def _wegner_large(v: int, out: str) -> str:
    energy = random.Random(f"wegner-large/{v}").uniform(1.0, 3.0)
    return _config({
        "experiment": {"kind": "wegner", "trials": 1, "seed": 2100 + v, "out": out},
        "model": {"graph": "path:45", "particles": 2, "distribution": "uniform:0:1",
                  "interaction": INTERACTION, "g": 1.0},
        "params": {"beta": 0.7},
        "run": {"center": "22,22", "radius": 22, "energy": repr(energy), "g_grid": 1.0},
    })


CLASSIFY_ENERGIES = 120


def _classify_sweep(v: int, out: str) -> str:
    rng = random.Random(f"classify-sweep/{v}")
    energies = ",".join(repr(rng.uniform(0.0, 2000.0)) for _ in range(CLASSIFY_ENERGIES))
    return _config({
        "experiment": {"kind": "classify", "seed": 3100 + v, "out": out},
        "model": {"graph": "path:40", "particles": 2, "distribution": "uniform:0:1",
                  "interaction": INTERACTION, "g": 1000},
        "params": {"mode": "subexp", "nstar": 2, "l0": 3, "b": 2},
        "run": {"center": "8,30", "radius": 6, "kmax": 1, "energy": energies},
    })


def _bridge_covers(v: int, out: str) -> str:
    # nustar = 20 makes the bridge precondition hold (exit code 0); it does
    # not change the cover level, which depends on mstar only
    return _config({
        "experiment": {"kind": "bridge", "trials": 1, "seed": 4100 + v, "out": out},
        "model": {"graph": "path:40", "particles": 2, "distribution": "uniform:0:1",
                  "interaction": INTERACTION, "g": 300},
        "params": {"mode": "subexp", "nstar": 2, "nustar": 20, "l0": 3, "b": 2},
        "run": {"radius": 6, "center_x": "7,9", "center_y": "28,31", "kmax": 1},
    })


# (table, column) -> (rtol, atol); other float columns use DEFAULT_TOL.
# Absolute floors are round-off scales m * eps * |H| of the matrices behind
# the column, so values at round-off level are compared against the floor.
DEFAULT_TOL = (1e-9, 0.0)
TOLERANCES = {
    # mean EFC over 8 samples on the m = 900 volume; the rho_S = 10 and 12
    # means sit near 1e-15, at the round-off floor
    ("efc", "mean_efc"): (1e-8, 900 * EPS),
    # the mass is fitted partly to those floor values, so the fit columns
    # move by a few percent under any last-bit change (up to 2.2 % between
    # 1 and 2 BLAS threads over the pool); the mass is also checked against
    # a refit of the reported means below
    ("efc_fit", "mass"): (0.1, 0.0),
    ("efc_fit", "ci_low"): (0.1, 0.0),
    ("efc_fit", "ci_high"): (0.1, 0.0),
    # m = 169, |H| <= 2009 on the classify ball
    ("classification", "dist_to_spectrum"): (1e-8, 169 * EPS * 2009),
    # a grid maximum whose refinement points sit at cover endpoints
    ("bridge", "sup_min"): (1e-6, 0.0),
    ("bridge", "argmax_energy"): (1e-9, 0.0),
}


def _efc_mass_matches_means(tables: dict[str, list[str]]) -> list[str]:
    """The reported mass must be the fit of the reported means."""
    header, *rows = (line.split(",") for line in tables["efc"])
    rho = np.asarray([float(r[header.index("rho_s")]) for r in rows])
    mean = np.asarray([float(r[header.index("mean_efc")]) for r in rows])
    slope = np.polyfit(rho**EFC_KAPPA, -np.log(np.maximum(mean, 1e-300)), 1)[0]
    fit_header, fit = (line.split(",") for line in tables["efc_fit"])
    mass = float(fit[fit_header.index("mass")])
    if not math.isclose(mass, slope, rel_tol=1e-9):
        return [f"efc_fit.mass {mass!r} is not the fit {slope!r} of the reported means"]
    return []


@dataclass(frozen=True)
class Part:
    name: str
    kind: str
    make_config: Callable[[int, str], str]
    extra_check: Callable[[dict], list[str]] | None = None


EFC_DENSE = Part("efc-dense", "efc", _efc_dense, _efc_mass_matches_means)
WEGNER_LARGE = Part("wegner-large", "wegner", _wegner_large)
CLASSIFY_SWEEP = Part("classify-sweep", "classify", _classify_sweep)
BRIDGE_COVERS = Part("bridge-covers", "bridge", _bridge_covers)
PARTS = {p.name: p for p in (EFC_DENSE, WEGNER_LARGE, CLASSIFY_SWEEP, BRIDGE_COVERS)}


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]


# Two workloads of two parts each, so that a run can last long enough to
# average over the minutes-long speed phases of a shared host.  The split
# keeps the swap-symmetric volumes (efc, wegner) apart from the balls that
# are not swap-symmetric (classify, bridge).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("efc-wegner", (EFC_DENSE, WEGNER_LARGE)),
        Workload("classify-bridge", (CLASSIFY_SWEEP, BRIDGE_COVERS)),
    )
}


def variant_order(seed: int) -> list[int]:
    """The order in which a run with this workload seed visits the pool."""
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Outputs and their comparison


def read_tables(out_dir: Path) -> dict[str, list[str]]:
    """CSV lines of one run per table, '#' comment lines dropped."""
    return {
        path.stem: [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for path in sorted(out_dir.glob("*.csv"))
    }


def read_output(out_dir: Path, exit_code: int) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text())
    return {
        "exit_code": exit_code,
        "pass_flags": summary["pass_flags"],
        "runtime_seconds": summary["runtime_seconds"],
        "tables": read_tables(out_dir),
    }


_INT = re.compile(r"-?\d+$")


def _exact(ref: str) -> bool:
    return ref in ("true", "false", "", "nan", "inf", "-inf") or bool(_INT.match(ref))


def compare(part: Part, got: dict, ref: dict) -> list[str]:
    """Mismatches between one run's output and its stored reference."""
    problems = []
    if got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != {ref['exit_code']}")
    if got["pass_flags"] != ref["pass_flags"]:
        problems.append(f"pass flags {got['pass_flags']} != {ref['pass_flags']}")
    if sorted(got["tables"]) != sorted(ref["tables"]):
        return problems + [f"tables {sorted(got['tables'])} != {sorted(ref['tables'])}"]
    for name, ref_lines in ref["tables"].items():
        rows = [line.split(",") for line in got["tables"][name]]
        ref_rows = [line.split(",") for line in ref_lines]
        if rows[:1] != ref_rows[:1] or len(rows) != len(ref_rows):
            problems.append(f"{name}: header or row count differs")
            continue
        header = ref_rows[0]
        for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:])):
            for col, a, b in zip(header, row, ref_row):
                if _exact(b):
                    ok = a == b
                else:
                    rtol, atol = TOLERANCES.get((name, col), DEFAULT_TOL)
                    try:
                        ok = abs(float(a) - float(b)) <= rtol * abs(float(b)) + atol
                    except ValueError:
                        ok = False
                if not ok:
                    problems.append(f"{name}[{i}].{col}: {a} vs reference {b}")
    if not problems and part.extra_check is not None:
        problems += part.extra_check(got["tables"])
    return problems


def reference_path(part: Part) -> Path:
    return REFERENCE_DIR / f"{part.name}.json"


def load_reference(part: Part) -> dict:
    return json.loads(reference_path(part).read_text())
