"""Command-line entry point.

Subcommands: report, check-map, bb-solve, prolong, examples.  --trunc
overrides the series truncation of report, check-map and examples;
bb-solve takes its solve order from --order or its file, and prolong
reads both from its file.  Exit codes: 0 success, 1 validation failure
or usage error, 2 exact-invariant violation, 3 parse error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import InvariantViolation, ParseError, ValidationError
from .parsing import MAX_TRUNC
from .report import (bb_report, examples_report, hypersurface_report,
                     load_bb_system, load_hypersurface, load_map,
                     load_prolonged_system, map_report, prolong_report,
                     summary_table, to_json)


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error (an unknown flag, a missing input): argparse
    exits 2, the code of an exact-invariant violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="crgeom",
        description="Invariants of infinite-type hypersurfaces, CR-map "
                    "verification, and singular ODE solving.")
    sub = ap.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None, help="write report to a file")
        p.add_argument("--json", action="store_true",
                       help="force JSON output (default for most commands)")

    def common(p):
        p.add_argument("--trunc", type=int, default=None,
                       help=f"series truncation override, 1..{MAX_TRUNC}")
        output(p)

    p = sub.add_parser("report", help="hypersurface invariant report")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("check-map", help="verify a holomorphic map between "
                                         "hypersurfaces")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("bb-solve", help="solve a singular system t*y' = f(t,y)")
    p.add_argument("input")
    p.add_argument("--order", type=int, default=None,
                   help=f"solve order K, 1..{MAX_TRUNC}")
    p.add_argument("--oracle", type=float, default=None, metavar="T0",
                   help="run the numeric oracle from t0 = +/-T0")
    output(p)

    p = sub.add_parser("prolong", help="assemble and solve a prolonged "
                                       "contact system")
    p.add_argument("input")
    output(p)

    p = sub.add_parser("examples", help="run the built-in example corpus")
    common(p)
    return ap


def run(args) -> int:
    for flag in ("trunc", "order"):
        value = getattr(args, flag, None)
        if value is not None and not 1 <= value <= MAX_TRUNC:
            raise ValidationError(
                f"--{flag} {value} is outside 1..{MAX_TRUNC}")
    oracle = getattr(args, "oracle", None)
    if oracle is not None and not math.isfinite(oracle):
        raise ValidationError(f"--oracle {oracle} is not a finite number")
    if args.command == "report":
        rep = hypersurface_report(load_hypersurface(args.input, args.trunc))
        text = to_json(rep)
    elif args.command == "check-map":
        f, src, tgt = load_map(args.input, args.trunc)
        rep = map_report(f, src, tgt)
        text = to_json(rep)
    elif args.command == "bb-solve":
        sys_ = load_bb_system(args.input, args.order)
        rep = bb_report(sys_, oracle_t0=args.oracle)
        text = to_json(rep)
    elif args.command == "prolong":
        ps, order = load_prolonged_system(args.input)
        rep = prolong_report(ps, order)
        text = to_json(rep)
    else:  # examples
        rep = examples_report(args.trunc)
        text = to_json(rep) if args.json else summary_table(rep)
        if not rep["all_ok"]:
            _emit(text, args.out)
            return 2
    _emit(text, args.out)
    return 0


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(
                f"{out_path}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
