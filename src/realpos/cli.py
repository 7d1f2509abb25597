"""Command-line interface: numerical-range exports, fractional powers,
verification suites, and seeded random instance generation.

Exit codes: 0 success (and every verification passed), 1 verification
failure (reports are still written), 2 usage error or malformed input,
3 numeric failure, 4 precondition violation, 5 method disagreement.
All file output is deterministic for fixed inputs and seeds: floats are
written with 17 significant digits, keys in fixed order, LF newlines,
and no timestamps.
"""
from __future__ import annotations

import argparse
import sys

from .calculus import (
    power_all_methods,
    power_balakrishnan,
    power_series,
    power_shifted,
)
from .cones import full_context
from .errors import (
    InputError,
    MethodDisagreementError,
    NumericError,
    PreconditionError,
    RealposError,
)
from .linalg import (
    Tolerances,
    random_accretive,
    random_contraction,
    random_idempotent,
)
from .numrange import abscissa, boundary, sectorial_angle
from .serialize import (
    boundary_csv,
    boundary_svg,
    dump_json,
    dumps_stable,
    matrix_to_obj,
    read_matrix,
    report_file_obj,
)
from .suites import SUITE_ORDER, run_suites

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4
EXIT_DISAGREEMENT = 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="realpos",
        description="Real-positivity computations on matrix algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    np_ap = sub.add_parser("nrange", help="numerical range boundary exports")
    np_ap.add_argument("matrix", help="path to a JSON matrix file")
    np_ap.add_argument("--m", type=int, default=256, help="boundary sample count")
    np_ap.add_argument("--csv", help="write theta,h_theta,re,im rows here")
    np_ap.add_argument("--svg", help="write a static SVG plot here")

    pw = sub.add_parser("power", help="fractional powers of accretive matrices")
    pw.add_argument("matrix", help="path to a JSON matrix file")
    pw.add_argument("--r", type=float, required=True, help="exponent in (0, 1]")
    pw.add_argument("--method", default="cross",
                    choices=("series", "shifted", "balakrishnan", "cross"))
    pw.add_argument("--out", help="write the result JSON here (default: stdout)")

    vf = sub.add_parser("verify", help="seeded verification suites")
    vf.add_argument("suite", choices=SUITE_ORDER + ("all",))
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=int, default=50)
    vf.add_argument("--n", type=int, default=4)
    vf.add_argument("--report", help="write the JSON report file here")

    rd = sub.add_parser("random", help="seeded instance generation")
    rd.add_argument("kind", choices=("accretive", "contraction", "idempotent"))
    rd.add_argument("--n", type=int, default=4)
    rd.add_argument("--seed", type=int, default=0)
    rd.add_argument("--out", help="write the JSON here (default: stdout)")
    return ap


def _cmd_nrange(args) -> int:
    x = read_matrix(args.matrix)
    rb = boundary(x, m=args.m)
    if args.csv:
        boundary_csv(rb, args.csv)
    if args.svg:
        boundary_svg(rb, args.svg)
    ang = sectorial_angle(x).angle
    print(f"abscissa: {abscissa(x):.12g}")
    print("sectorial angle: " + ("undefined (0 is interior)" if ang is None
                                 else f"{ang:.12g}"))
    if not args.csv and not args.svg:
        print("no --csv or --svg given; nothing written")
    return EXIT_OK


def _cmd_power(args) -> int:
    x = read_matrix(args.matrix)
    ctx = full_context(x.shape[0])
    if args.method == "cross":
        value, candidates, deviations, skipped = power_all_methods(x, args.r, ctx)
        obj = {
            "r": float(args.r),
            "method": "cross",
            "value": matrix_to_obj(value),
            "methods_run": sorted(candidates),
            "deviations": {k: float(v) for k, v in sorted(deviations.items())},
            "skipped": {k: str(v) for k, v in sorted(skipped.items())},
        }
    else:
        fn = {"series": power_series, "shifted": power_shifted,
              "balakrishnan": power_balakrishnan}[args.method]
        value = fn(x, args.r, ctx)
        obj = {"r": float(args.r), "method": args.method,
               "value": matrix_to_obj(value)}
    if args.out:
        dump_json(obj, args.out)
        print(f"wrote {args.out}")
    else:
        print(dumps_stable(obj))
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = Tolerances()
    reports, ok = run_suites([args.suite], seed=args.seed, count=args.count,
                             n=args.n, tol=tol)
    for name in SUITE_ORDER:
        passed = [r.passed for r in reports if r.check == name]
        if passed:
            print(f"{name}: {sum(passed)}/{len(passed)} passed")
    if args.report:
        cmd = (f"verify {args.suite} --seed {args.seed} "
               f"--count {args.count} --n {args.n}")
        dump_json(report_file_obj(cmd, args.seed, tol.as_dict(), reports),
                  args.report)
        print(f"report: {args.report}")
    if not ok:
        failed = [r.instance for r in reports if not r.passed]
        print(f"FAILED ({len(failed)} instances):")
        for inst in failed[:20]:
            print(f"  {inst}")
        if len(failed) > 20:
            print(f"  ... and {len(failed) - 20} more")
        return EXIT_VERIFY_FAILED
    print("ALL PASSED")
    return EXIT_OK


def _cmd_random(args) -> int:
    gen = {"accretive": random_accretive, "contraction": random_contraction,
           "idempotent": random_idempotent}[args.kind]
    obj = matrix_to_obj(gen(args.n, args.seed))
    if args.out:
        dump_json(obj, args.out)
        print(f"wrote {args.out}")
    else:
        print(dumps_stable(obj))
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "nrange":
            return _cmd_nrange(args)
        if args.command == "power":
            return _cmd_power(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "random":
            return _cmd_random(args)
        raise InputError(f"unknown command {args.command!r}")
    except MethodDisagreementError as exc:
        print(f"error: method disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RealposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
