"""Flat key-value experiment configuration with sections.

The file format is deliberately plain so every key can be echoed verbatim
into reports:

    [experiment]
    kind = wegner
    trials = 2000

Unknown sections or keys are rejected by name; values are kept as raw strings
and parsed at the point of use.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigurationError

KNOWN_KEYS: dict[str, tuple[str, ...]] = {
    "experiment": ("kind", "trials", "seed", "out"),
    "model": ("graph", "particles", "distribution", "interaction", "g"),
    "params": (
        "mode", "nstar", "d", "zeta", "kappa", "beta", "delta",
        "mstar", "nustar", "k", "l0", "b", "alpha", "tau", "pstar",
    ),
    "run": (
        "energy", "energy_policy", "radius", "center", "center_x", "center_y",
        "s_grid", "q_sizes", "kmax", "pairs", "t", "level", "ell", "g_grid",
        "theta_floor", "energies_per_instance", "batches", "allow_param_violations",
    ),
}


class ExperimentConfig:
    """Raw section/key/value table plus typed accessors."""

    def __init__(self, table: dict[str, dict[str, str]]):
        self.table = table

    # -- raw access ---------------------------------------------------------
    def get(self, section: str, key: str, default: str | None = None) -> str:
        try:
            return self.table[section][key]
        except KeyError:
            if default is not None:
                return default
            raise ConfigurationError(f"missing config key [{section}] {key}") from None

    def has(self, section: str, key: str) -> bool:
        return key in self.table.get(section, {})

    def set(self, section: str, key: str, value: str) -> None:
        if section not in KNOWN_KEYS or key not in KNOWN_KEYS[section]:
            raise ConfigurationError(f"unknown config key [{section}] {key}")
        self.table.setdefault(section, {})[key] = value

    # -- typed accessors ----------------------------------------------------
    def get_int(self, section: str, key: str, default: str | None = None) -> int:
        raw = self.get(section, key, default)
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(f"[{section}] {key} = '{raw}' is not an integer") from None

    def get_float(self, section: str, key: str, default: str | None = None) -> float:
        raw = self.get(section, key, default)
        return _finite(section, key, raw, [raw])[0]

    def get_bool(self, section: str, key: str, default: str = "false") -> bool:
        raw = self.get(section, key, default).strip().lower()
        if raw in ("true", "1", "yes"):
            return True
        if raw in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"[{section}] {key} = '{raw}' is not a boolean")

    def get_floats(self, section: str, key: str, default: str | None = None) -> list[float]:
        raw = self.get(section, key, default)
        return _finite(section, key, raw, _items(section, key, raw))

    def get_ints(self, section: str, key: str, default: str | None = None) -> list[int]:
        raw = self.get(section, key, default)
        try:
            return [int(p) for p in _items(section, key, raw)]
        except ValueError:
            raise ConfigurationError(f"[{section}] {key} = '{raw}' is not an int list") from None

    def get_config_tuple(self, section: str, key: str, default: str | None = None) -> tuple[int, ...]:
        return tuple(self.get_ints(section, key, default))

    def get_pairs(self, section: str, key: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """'0,2|5,7;1,1|9,9' -> [((0,2),(5,7)), ((1,1),(9,9))]."""
        raw = self.get(section, key)
        out = []
        try:
            for chunk in raw.split(";"):
                if not chunk.strip():
                    continue
                left, right = chunk.split("|")
                out.append(
                    (tuple(int(v) for v in left.split(",")), tuple(int(v) for v in right.split(",")))
                )
        except ValueError:
            raise ConfigurationError(f"[{section}] {key} = '{raw}' is not a pair list") from None
        return out

    def flat(self) -> dict[str, str]:
        return {f"{sec}.{key}": val for sec, kv in sorted(self.table.items()) for key, val in sorted(kv.items())}


def _items(section: str, key: str, raw: str) -> list[str]:
    """The non-empty comma-separated parts of [section] key = raw; a list
    without any is refused."""
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"[{section}] {key} is an empty list")
    return parts


def _finite(section: str, key: str, raw: str, parts: list[str]) -> list[float]:
    """The parts of [section] key = raw as floats, each finite: nan and +-inf
    are refused like text that is not a number."""
    try:
        values = [float(p) for p in parts]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ConfigurationError(f"[{section}] {key} = '{raw}' is not a finite number or list of them")


def parse_config_text(text: str) -> ExperimentConfig:
    table: dict[str, dict[str, str]] = {}
    section: str | None = None
    unknown: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in KNOWN_KEYS:
                unknown.append(f"section [{section}]")
            table.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if section in KNOWN_KEYS and key not in KNOWN_KEYS[section]:
            unknown.append(f"[{section}] {key}")
        if key in table[section]:
            raise ConfigurationError(f"line {lineno}: [{section}] {key} given twice")
        table[section][key] = value
    if unknown:
        raise ConfigurationError("unknown config keys: " + ", ".join(unknown))
    return ExperimentConfig(table=table)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        return parse_config_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from None
