"""Command line front end.

Exit codes: 0 success, 1 numeric or training failure, 2 usage or IO
error.  Flags override config file values; the command checks the result.
"""

from __future__ import annotations

import argparse
import sys

from .config import STRATEGIES, parse_config
from .errors import FormatError, KfepruneError
from .pipeline import (
    cmd_decompose,
    cmd_eval,
    cmd_finetune,
    cmd_iterate,
    cmd_prune,
    cmd_train,
)

COMMANDS = {
    "train": cmd_train,
    "prune": cmd_prune,
    "iterate": cmd_iterate,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "decompose": cmd_decompose,
}

_OVERRIDES = ("seed", "strategy", "ratio", "cap", "iterations", "damping", "out")

_SUMMARY_SKIP = {"schema_version", "command", "rounds", "layers", "per_layer_remaining"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfeprune",
        description="Train, prune, and compress small networks with "
        "curvature-aware criteria.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to key = value file")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--strategy", choices=STRATEGIES, help="pruning strategy")
    parser.add_argument("--ratio", type=float, help="target removal fraction")
    parser.add_argument("--cap", type=float, help="per-layer removal cap")
    parser.add_argument("--iterations", type=int, help="prune/finetune rounds")
    parser.add_argument("--damping", type=float, help="factor damping strength")
    parser.add_argument("--out", help="output directory")
    return parser


def _print_summary(command: str, record: dict):
    print(f"{command} finished")
    for key in sorted(record):
        value = record[key]
        if key in _SUMMARY_SKIP or isinstance(value, (dict, list)):
            continue
        if isinstance(value, float):
            print(f"  {key} = {value:.6g}")
        else:
            print(f"  {key} = {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        cfg = parse_config(args.config)
        for name in _OVERRIDES:
            value = getattr(args, name)
            if value is not None:
                setattr(cfg, name, value)
        record = COMMANDS[args.command](cfg)
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KfepruneError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_summary(args.command, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
