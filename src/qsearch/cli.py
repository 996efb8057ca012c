"""Command-line entry point.

qsearch <mode> --config <file.json> [--out DIR] [--force]

Exit codes: 0 success, 2 configuration error, 3 validity refusal
(bypass with --force), 4 numerical failure (linear algebra, or any
ArithmeticError: the bath's closed forms overflow at g = 1e200).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractViolationError,
    DenseLimitError,
    InvalidParameterError,
    ValidityError,
)
from .experiments import MODES, load_config, run

EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsearch",
        description="Analog search on graphs with static disorder and a thermal bath.",
    )
    parser.add_argument("mode", choices=MODES, help="experiment mode; must match the config")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument(
        "--force", action="store_true",
        help="run even when a validity bound fails hard",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.mode != args.mode:
            raise ConfigError(
                f"config declares mode {cfg.mode!r} but the command line says {args.mode!r}"
            )
        files, _ = run(cfg, out_dir=args.out, force=args.force)
    except (ConfigError, InvalidParameterError, DenseLimitError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as exc:
        print(f"validity: {exc}; pass --force to override", file=sys.stderr)
        return EXIT_VALIDITY
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
