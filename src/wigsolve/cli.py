"""Command line entry point.

    wigsolve run <config>

parses a ``key = value`` config file, runs it with evolve (2-D or 4-D phase
space) and prints the resolved config (config_echo), which is itself a valid
config file, followed by the final total mass as a comment.  A config that
does not parse or does not validate prints one ``wigsolve: ...`` line on
stderr and exits with status 2; a run that stops after the echo (the field
diverges, the grid exceeds the memory budget, or a special function misses
its tolerance) prints one such line and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys

from .config import build_simulation_config, config_echo, load_config
from .dynamics import evolve
from .errors import AccuracyError, CapacityError, DivergenceError, ParameterError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wigsolve")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one config file")
    run.add_argument("config", help="key = value config file")
    args = parser.parse_args(argv)

    try:
        cfg = build_simulation_config(load_config(args.config))
    except (OSError, ParameterError) as exc:
        print(f"wigsolve: {exc}", file=sys.stderr)
        return 2
    for key, value in config_echo(cfg).items():
        print(f"{key} = {value}")
    try:
        _, series = evolve(cfg)
    except (DivergenceError, CapacityError, AccuracyError) as exc:
        print(f"wigsolve: {exc}", file=sys.stderr)
        return 1
    print(f"# total_mass at t = {series.t[-1]!r}: {series.total_mass[-1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
