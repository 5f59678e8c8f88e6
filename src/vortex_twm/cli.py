"""Command-line front end.

Subcommands: fields, figure, sweep, verify.  Exit codes: 0 on
success, 1 for invalid configuration or arguments, 2 for I/O failures,
3 when verification fails.  Argument errors are routed through the same
invalid-config path so the exit-code contract holds for malformed command
lines too.
"""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import InvalidConfigError, VerificationError, VortexTwmError
from .figures import FIGURE_IDS, SWEEP_PARAMS, reproduce_figure, run_sweep
from .runner import run_config
from .verify import ensure_passing, print_report, run_verify


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() owns the exit-code mapping."""

    def error(self, message):
        raise InvalidConfigError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            # argparse drops a "--" given as a value (--values=--) and leaves []
            if isinstance(value, list):
                self.error(f"argument {name}: '--' is not a value")
        return parsed


def _parse_values(raw: str) -> list[float]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise InvalidConfigError("--values needs a comma-separated list of numbers")
    try:
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise InvalidConfigError(f"--values: {exc}") from None


def _cmd_fields(args) -> int:
    cfg = load_config(args.config)
    manifest = run_config(cfg, args.out)
    print(f"wrote {len(manifest['files'])} files to {args.out}")
    return 0


def _cmd_figure(args) -> int:
    manifest = reproduce_figure(args.id, args.out)
    print(f"{args.id}: wrote {len(manifest['files'])} files to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = _parse_values(args.values)
    manifest = run_sweep(cfg, args.param, values, args.out)
    print(
        f"sweep {args.param} over {len(values)} values: "
        f"wrote {len(manifest['files'])} files to {args.out}"
    )
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(args.level)
    print_report(results)
    ensure_passing(results)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="vortex-twm", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_fields = sub.add_parser("fields", help="run one configuration into a directory")
    p_fields.add_argument("--config", required=True, help="JSON run configuration")
    p_fields.add_argument("--out", required=True, help="output directory")
    p_fields.set_defaults(handler=_cmd_fields)

    p_figure = sub.add_parser("figure", help="reproduce a preset figure suite")
    p_figure.add_argument("id", help=f"one of {', '.join(FIGURE_IDS)}")
    p_figure.add_argument("--out", required=True, help="output directory")
    p_figure.set_defaults(handler=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="re-run a config across one parameter axis")
    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(SWEEP_PARAMS)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--config", required=True, help="JSON run configuration")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle self-check suites")
    p_verify.add_argument("--level", default="fast", help="fast or full")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_help()
            return 1
        return args.handler(args)
    except SystemExit as exc:  # -h/--help printed its text
        return exc.code
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VortexTwmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
