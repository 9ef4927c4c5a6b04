"""Command-line entry points.

qlapeig run --config <file> [--verify-only] [--target L|Ls|Lr|W] [--seed N]
            [--out <file>] [--dump-state <file>]
qlapeig verify --sizes small|medium [--out <file>]

Exit codes, for ``run`` and ``verify`` alike: 0 ok, 1 verification failure
(a failed check, or a ``SimError`` or fixed-point ``OverflowError`` raised by a
stage or check), 2 I/O or configuration error (``verify``: an unknown suite
size), 3 internal error (any other exception; the traceback goes to stderr and
no report is written).
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, RunConfig, run, verify_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlapeig",
        description="Graph-Laplacian spectral extraction simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one pipeline run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--verify-only", action="store_true",
                       help="run the graph-model and block-encoding stages "
                            "with their verification records, plus the small "
                            "check battery; skip simulation and QPE")
    p_run.add_argument("--target", choices=["L", "Ls", "Lr", "W"])
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--dump-state", default="",
                       help="write the weight-state branches to this JSON file")

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--sizes", choices=["small", "medium"], default="small")
    p_ver.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return verify_suite(args.sizes, args.out)
    try:
        config = RunConfig.from_file(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}")
        return 2
    if args.target:
        config.target = args.target
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.output = args.out
    return run(config, verify_only=args.verify_only, dump_state=args.dump_state)


if __name__ == "__main__":
    sys.exit(main())
