"""Command-line front end.

Subcommands: check, hl2, hhs1, verify, catalog.  Exit codes are stable:
0 success / verification passed, 1 axiom violations or a failed verification,
2 unreadable or malformed input (including a modulus that is not an integer,
an unknown builtin, a non-unital dialgebra where a bar-unit is needed, a
zero-dimensional dialgebra for hhs1 and verify, a --dialgebra file that
violates the axioms, a negative --m or --n, and a modulus too large to test
for primality), 3 size guard exceeded,
4 unclassified (m, n) case, 5 internal invariant breach (a bug, not bad
input; this includes any KeyError or ValueError from the computation).  For
hl2, hhs1 and verify the size guard is applied as soon as the dialgebra is
read, from m, n and its dimension alone, so exit 3 comes before exit 2: before
the axioms of a --dialgebra file are checked, and before a missing bar-unit
is reported.  JSON output is byte-identical for identical inputs and seed
(the per-stage timings and block sizes are only printed in text mode); the
seed is only recorded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chain import DEFAULT_SIZE_GUARD, SizeGuardExceededError, hl
from .exactlin import NotASubmoduleError, UnsupportedRingError
from .hochschild import NoBarUnitBasisError, hhs1
from .leibniz import sl
from .superdialg import (
    DialgebraFormatError,
    InvalidInputError,
    builtin_dialgebra,
    catalog_entries,
    catalog_names,
    load_dialgebra_file,
    validate,
)
from .theorems import (
    CaseLabel,
    UnclassifiedCaseError,
    default_cases,
    verify_case,
    verify_dialgebra,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_UNCLASSIFIED = 4
EXIT_INTERNAL = 5


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _check_lines(d, issues):
    return [f"{d.name}: {'valid' if not issues else 'INVALID'}"] + [
        f"  - {v}" for v in issues
    ]


def _load_source(args):
    """(dialgebra, label) from --builtin or --dialgebra, size-guarded by
    ``_preflight_guard`` before a file is validated; a file's axiom
    violations raise InvalidInputError, listed as check lists them."""
    if getattr(args, "builtin", None):
        try:
            d = builtin_dialgebra(args.builtin)
        except KeyError as e:
            raise InvalidInputError(e.args[0]) from None
        _preflight_guard(args, d)
        return d, args.builtin
    d = load_dialgebra_file(args.dialgebra)
    _preflight_guard(args, d)
    issues = validate(d)
    if issues:
        raise InvalidInputError("\n".join(_check_lines(d, issues)))
    return d, d.name


def _preflight_guard(args, d):
    """Reject hopeless cases before anything is built, reading only m, n
    and dim D: hhs1 needs D^(x)3 and D^(x)2; for hl2 and verify, sl has at
    least dim gl - dim D generators, and degree-2 homology touches the
    third tensor power."""
    if args.command == "hhs1":
        what, total = f"HHS_1({d.name})", d.dim ** 3 + d.dim ** 2
    else:
        low = (args.m + args.n) ** 2 * d.dim - d.dim
        what, total = f"sl({args.m},{args.n},{d.name})", low ** 3 + low ** 2 + low
    if total > args.guard:
        raise SizeGuardExceededError(
            f"{what} needs a total tensor dimension of at least {total}, "
            f"over the guard {args.guard}"
        )


def cmd_check(args) -> int:
    try:
        if args.source in catalog_names():
            d = builtin_dialgebra(args.source)
        else:
            d = load_dialgebra_file(args.source)
    except DialgebraFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    issues = validate(d)
    payload = {"name": d.name, "valid": not issues, "violations": issues}
    _emit(payload, args.format, _check_lines(d, issues))
    return EXIT_OK if not issues else EXIT_FAIL


def cmd_hl2(args) -> int:
    d, label = _load_source(args)
    slalg = sl(args.m, args.n, d)
    inv = hl(slalg.algebra, 2, args.guard)
    payload = {
        "case": {"m": args.m, "n": args.n, "dialgebra": label},
        "hl2": inv.to_json(),
    }
    _emit(payload, args.format, [f"HL_2(sl({args.m},{args.n},{label})) = {inv.describe()}"])
    return EXIT_OK


def cmd_hhs1(args) -> int:
    d, label = _load_source(args)
    inv = hhs1(d, args.guard)
    payload = {"dialgebra": label, "hhs1": inv.to_json()}
    _emit(payload, args.format, [f"HHS_1({label}) = {inv.describe()}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.all:
        cases = default_cases()
        reports = []
        for case in cases:
            reports.append(verify_case(case, args.guard))
        payload = {
            "seed": args.seed,
            "reports": [r.to_json() for r in reports],
            "pass": all(r.passed for r in reports),
        }
        if args.format != "json":
            lines = [line for r in reports for line in _report_lines(r)]
            lines.append(f"overall: {'pass' if payload['pass'] else 'FAIL'}")
            _emit(payload, args.format, lines)
        else:
            for r in payload["reports"]:
                r.pop("elapsed_ms", None)
            _emit(payload, args.format, [])
        return EXIT_OK if payload["pass"] else EXIT_FAIL

    case = CaseLabel(args.m, args.n, args.builtin or "loaded")
    d, _ = _load_source(args)
    report = verify_dialgebra(case, d, args.guard)
    payload = {"seed": args.seed, "report": report.to_json(), "pass": report.passed}
    if args.format == "json":
        payload["report"].pop("elapsed_ms", None)
        _emit(payload, args.format, [])
    else:
        _emit(payload, args.format, _report_lines(report))
    return EXIT_OK if report.passed else EXIT_FAIL


def _report_lines(report) -> list:
    """Text-mode verify output: the verdict with the total time, then the
    time per stage and the (weight, parity) blocks of L (x) L."""
    total = sum(report.elapsed_ms.values())
    stages = ", ".join(f"{k} {v:.0f} ms" for k, v in report.elapsed_ms.items())
    blocks = report.square_blocks
    return [
        report.describe() + f"  [{total:.0f} ms]",
        f"    {stages}; L(x)L: {len(blocks)} blocks, largest "
        f"{max(blocks, default=0)} of {sum(blocks)}",
    ]


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    lines = [
        f"{e['name']:18s} dim={e['dim']} odd={e['odd_dim']} "
        f"ring={e['ring']} unital={e['unital']}"
        for e in entries
    ]
    _emit({"catalog": entries}, args.format, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    is, and each subcommand's function looks up what it calls at call
    time."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--guard", type=int, default=DEFAULT_SIZE_GUARD,
                        help="max total tensor dimension (default %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports (property suites live in the test suite)")
    p = argparse.ArgumentParser(
        prog="uce-lab",
        description="Exact homology of matrix Leibniz superalgebras over superdialgebras",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)
    # the common flags are accepted before or after the subcommand; the
    # subparser copy only overrides when actually given
    sub_common = argparse.ArgumentParser(add_help=False)
    for flag, kw in (
        ("--format", {"choices": ("text", "json")}),
        ("--guard", {"type": int}),
        ("--seed", {"type": int}),
    ):
        sub_common.add_argument(flag, default=argparse.SUPPRESS, **kw)

    c = sub.add_parser("check", parents=[sub_common],
                       help="validate a dialgebra file or builtin")
    c.add_argument("source", help="path to a dialgebra JSON file, or a builtin name")
    c.set_defaults(func=cmd_check)

    def add_source(sp, need_mn):
        if need_mn:
            sp.add_argument("--m", type=int, required=True)
            sp.add_argument("--n", type=int, required=True)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--builtin", help="builtin dialgebra name")
        g.add_argument("--dialgebra", help="path to a dialgebra JSON file")

    h = sub.add_parser("hl2", parents=[sub_common], help="degree-2 homology of sl(m,n,D)")
    add_source(h, need_mn=True)
    h.set_defaults(func=cmd_hl2)

    hh = sub.add_parser("hhs1", parents=[sub_common], help="degree-1 Hochschild homology of D")
    add_source(hh, need_mn=False)
    hh.set_defaults(func=cmd_hhs1)

    v = sub.add_parser("verify", parents=[sub_common], help="verify HL_2 = HHS_1 + W for a case")
    v.add_argument("--m", type=int)
    v.add_argument("--n", type=int)
    g = v.add_mutually_exclusive_group()
    g.add_argument("--builtin")
    g.add_argument("--dialgebra")
    v.add_argument("--all", action="store_true",
                   help="run the default verification battery")
    v.set_defaults(func=cmd_verify)

    cat = sub.add_parser("catalog", parents=[sub_common], help="list builtin dialgebras")
    cat.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.guard <= 0:
        print("the size guard must be positive", file=sys.stderr)
        return EXIT_PARSE
    if args.command == "verify" and not args.all:
        if args.m is None or args.n is None or not (args.builtin or args.dialgebra):
            print("verify needs --m, --n and a dialgebra source (or --all)",
                  file=sys.stderr)
            return EXIT_PARSE
        if args.m + args.n < 3:
            print("theorem commands need m + n >= 3", file=sys.stderr)
            return EXIT_PARSE
    if args.command in ("hl2", "verify") and not getattr(args, "all", False):
        if args.m < 0 or args.n < 0:
            print("--m and --n must be nonnegative", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except DialgebraFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardExceededError as e:
        print(f"size guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except UnclassifiedCaseError as e:
        print(f"unclassified case: {e}", file=sys.stderr)
        return EXIT_UNCLASSIFIED
    except (UnsupportedRingError, NoBarUnitBasisError, InvalidInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (RuntimeError, NotASubmoduleError, KeyError, ValueError) as e:
        # input errors were raised as the types above; these are bugs
        print(f"internal invariant breach: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
