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
import sys
import time

from .config import KINDS, ExperimentConfig, load_config
from .errors import BudgetExceeded, ConfigurationError, ContractViolation, DataError
from .experiments import RUNNERS
from .parallel import thread_count
from .reporting import Report

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
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
        p.add_argument("--trials", type=int, default=None, help="override [experiment] trials")
        p.add_argument("--out", default=None, help="override [experiment] out directory")
    return parser


def run_kind(kind: str, config: ExperimentConfig) -> tuple[int, Report]:
    report = Report(experiment=kind, config_echo=config.flat())
    start = time.perf_counter()
    RUNNERS[kind](config, report)
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
        if args.seed is not None:
            config.set("experiment", "seed", str(args.seed))
        if args.trials is not None:
            config.set("experiment", "trials", str(args.trials))
        if args.out is not None:
            config.set("experiment", "out", args.out)
        declared = config.get("experiment", "kind", args.kind)
        if declared != args.kind:
            raise ConfigurationError(
                f"config declares kind '{declared}' but subcommand is '{args.kind}'"
            )
        trials = config.get_int("experiment", "trials", "100")
        if trials < 1:
            raise ConfigurationError("trials must be >= 1")
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


if __name__ == "__main__":
    raise SystemExit(main())
