"""Command line interface.

Verbs: run (any registered experiment, phase portraits included; ``portrait``
is an alias), compare, list-experiments (each with its solver rows), selftest.
Exit codes: 0 pass, 2 tolerance failure, 1 error.
Set SEMILIND_OUTPUT_ROOT to redirect all artifact output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import compare_dirs
from .config import ConfigError, load_config
from .experiments import EXPERIMENTS, default_config, run_experiment
from .selftest import run_selftest

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semilind",
        description="Gaussian and superposition propagators for open-system "
        "phase-space dynamics, with exact Fock-basis reference solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", aliases=["portrait"],
                           help="run a registered experiment from a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_cmp = sub.add_parser("compare", help="compare observables.csv of two solver dirs")
    p_cmp.add_argument("dir_a", type=Path)
    p_cmp.add_argument("dir_b", type=Path)
    p_cmp.add_argument("--tol", type=Path, required=True,
                       help="JSON file {observable: {sup: x, rms: y}}")

    p_list = sub.add_parser("list-experiments", help="list registered experiments")
    p_list.add_argument("name", nargs="?", help="print the default config of one experiment")

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "portrait"):
            config = load_config(args.config)
            if args.seed is not None:
                config = config.with_seed(args.seed)
            report, outdir = run_experiment(config)
            print(f"artifacts in {outdir}")
            for entry in report.entries:
                status = "PASS" if entry.get("passed", True) else "FAIL"
                print(f"{status} {entry.get('check', entry.get('observable', '?'))}")
            return 0 if report.passed else 2

        if args.command == "compare":
            with open(args.tol) as fh:
                tolerances = json.load(fh)
            report = compare_dirs(args.dir_a, args.dir_b, tolerances)
            print(report.to_json())
            return 0 if report.passed else 2

        if args.command == "list-experiments":
            if args.name:
                print(json.dumps(default_config(args.name), indent=2, sort_keys=True))
            else:
                for name, exp in sorted(EXPERIMENTS.items()):
                    print(f"{name} [{', '.join(exp.solvers)}]\n    {exp.description}")
            return 0

        if args.command == "selftest":
            return 0 if run_selftest() else 2
    except (ConfigError, ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
