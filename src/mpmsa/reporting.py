"""Report emission: one summary.json plus CSV detail tables per experiment.

Floats are written with 17 significant digits (round-trip exact) and every
numeric column carries a '#' header comment.  CSV bytes are a pure function
of (config, seed); wall-clock runtimes live only in summary.json under
'runtime_seconds' and are excluded from the determinism contract.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


class CsvTable:
    def __init__(self, name: str, columns: tuple[str, ...], descriptions: tuple[str, ...]):
        self.name, self.columns, self.descriptions = name, columns, descriptions
        self.rows: list[tuple] = []

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row width {len(values)} != {len(self.columns)}")
        self.rows.append(values)

    def render(self) -> str:
        lines = [f"# {name}: {desc}" for name, desc in zip(self.columns, self.descriptions)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"


class Report:
    def __init__(self, experiment: str, config_echo: dict):
        self.experiment, self.config_echo = experiment, config_echo
        self.results: dict = {}
        self.pass_flags: dict = {}
        self.tables: list[CsvTable] = []
        self.runtime_seconds = 0.0

    @property
    def all_pass(self) -> bool:
        return all(bool(v) for v in self.pass_flags.values())

    def table(self, name: str, columns, descriptions) -> CsvTable:
        tbl = CsvTable(name=name, columns=tuple(columns), descriptions=tuple(descriptions))
        self.tables.append(tbl)
        return tbl

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = {
            "experiment": self.experiment,
            "config": self.config_echo,
            "results": _jsonable(self.results),
            "pass_flags": self.pass_flags,
            "pass": self.all_pass,
            "runtime_seconds": self.runtime_seconds,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        for tbl in self.tables:
            (out / f"{tbl.name}.csv").write_text(tbl.render())
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if hasattr(obj, "item") and not isinstance(obj, (int, str, bool)):
        return obj.item()
    return obj
