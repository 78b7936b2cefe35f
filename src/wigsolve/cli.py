"""Command line entry point.

    wigsolve run <config>

parses a ``key = value`` config file, runs it with evolve (2-D phase space)
or evolve_4d (4-D) and prints the resolved config (config_echo), which is
itself a valid config file, followed by the final total mass as a comment.
"""

from __future__ import annotations

import argparse
import sys

from .config import build_simulation_config, config_echo, load_config
from .dynamics import evolve, evolve_4d
from .errors import ParameterError


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
    _, series = evolve(cfg) if cfg.spatial_dims == 1 else evolve_4d(cfg)
    if len(series):
        print(f"# total_mass at t = {series.t[-1]!r}: {series.total_mass[-1]!r}")
    else:
        print("# total_mass not recorded (observables.record = 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
