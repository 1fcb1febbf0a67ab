"""Configuration-driven command-line front end.

    mpmsa <subcommand> --config experiment.cfg [--seed N] [--trials N] [--out DIR]

Every subcommand maps one-to-one onto a module operation; reports land in
<out>/summary.json plus one CSV per detail table.  Exit codes: 0 all pass
flags true, 1 some pass flag false, 2 invalid config or usage or an out
directory that cannot be written, 3 volume or vertex budget exceeded.
MPMSA_THREADS sets the worker count without changing any output byte; a
value that is not an integer >= 1 exits 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import time

from .config import ExperimentConfig, load_config
from .errors import BudgetExceeded, ConfigurationError, ContractViolation, DataError
from .parallel import thread_count
from .reporting import Report

# subcommand -> "module:function" of its runner; the runner modules are
# grouped by what they import, and a process imports only its own
RUNNERS = {
    "validate-params": "experiments:run_validate_params",
    "classify": "experiments:run_classify",
    "gri": "experiments:run_gri",
    "wegner": "experiments_evc:run_wegner",
    "evc2": "experiments_evc:run_evc2",
    "rcm": "experiments_evc:run_rcm",
    "shift": "experiments_evc:run_shift",
    "induction": "experiments_induction:run_induction",
    "bridge": "experiments_induction:run_bridge",
    "efc": "experiments_induction:run_efc",
    "dominate": "experiments_domination:run_dominate",
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpmsa",
        description="multi-particle disordered-Hamiltonian experiment suite",
    )
    sub = parser.add_subparsers(dest="kind")
    for kind in RUNNERS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
        p.add_argument("--trials", type=int, default=None, help="override [experiment] trials")
        p.add_argument("--out", default=None, help="override [experiment] out directory")
    return parser


def run_kind(kind: str, config: ExperimentConfig) -> tuple[int, Report]:
    module, name = RUNNERS[kind].split(":")
    runner = getattr(importlib.import_module(f".{module}", __package__), name)  # off the clock
    report = Report(experiment=kind, config_echo=config.flat())
    start = time.perf_counter()
    runner(config, report)
    report.runtime_seconds = time.perf_counter() - start
    code = EXIT_PASS if report.all_pass else EXIT_FAIL
    if kind == "validate-params" and not report.all_pass:
        code = EXIT_CONFIG  # violations are reported as the constraint list
    return code, report


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra or args.kind is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(args.config)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        thread_count()  # rejects a malformed MPMSA_THREADS before any work
        for key in ("seed", "trials", "out"):
            if getattr(args, key) is not None:
                config.set("experiment", key, str(getattr(args, key)))
        declared = config.get("experiment", "kind", args.kind)
        if declared != args.kind:
            raise ConfigurationError(
                f"config declares kind '{declared}' but subcommand is '{args.kind}'"
            )
        if config.get_int("experiment", "trials", "100") < 1:
            raise ConfigurationError("trials must be >= 1")
        if not 0 <= config.get_int("experiment", "seed", "1") < 2**64:
            raise ConfigurationError("seed must be in [0, 2**64)")
        code, report = run_kind(args.kind, config)
    except (ConfigurationError, ContractViolation, DataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    out_dir = config.get("experiment", "out", "runs/out")
    try:
        report.write(out_dir)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    flags = ", ".join(f"{k}={v}" for k, v in report.pass_flags.items()) or "none"
    print(f"{args.kind}: pass={report.all_pass} ({flags}) -> {out_dir}")
    return code


def entry() -> None:
    """Process entry point: main(), then exit with its code.  Freezing the
    heap first spares interpreter shutdown a full collection over every
    object of numpy and mpmsa, whose memory the OS reclaims anyway; main()
    itself does not freeze, as the tests call it in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
