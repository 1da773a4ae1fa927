"""Command-line interface.

Thin veneer: every subcommand maps to one library operation plus
serialization.  Exit codes: 0 verified/success, 1 verification failure,
2 usage or input error, 3 internal error (a crash, never reported as a
failed verification).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, identity, intertwine
from .derivops import Derivation, kernel_member
from .dixmier import cayley_closed, cayley_constructive
from .polyring import Poly, json_text

_FAMILY = {"fib": families.FIBONACCI, "lucas": families.LUCAS, "appell": families.APPELL}


def _read_poly(source: str) -> Poly:
    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON: nested too deeply") from exc
    return Poly.from_json(doc)


def _print_json(doc) -> None:
    print(json_text(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiblucas",
        description="Exact verification of Fibonacci/Lucas polynomial identities "
        "via derivation kernels and intertwining maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="apply a derivation (power) to a polynomial")
    p.add_argument("--family", required=True, choices=["fib", "lucas", "appell"])
    p.add_argument("--input", required=True, help="polynomial JSON file, or - for stdin")
    p.add_argument("--power", type=int, default=1, help="number of applications (default 1)")

    p = sub.add_parser("cayley", help="emit a Cayley kernel element")
    p.add_argument("--family", required=True, choices=["fib", "lucas"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--route", choices=["closed", "constructive", "both"], default="closed")

    p = sub.add_parser("kernel-check", help="test kernel membership")
    p.add_argument("--family", required=True, choices=["fib", "lucas", "appell"])
    p.add_argument("--input", required=True)

    p = sub.add_parser("identity", help="substitute a family and report the identity")
    p.add_argument("--family", required=True, choices=["fib", "lucas"])
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["json", "latex"], default="json")

    p = sub.add_parser("scan", help="scan Cayley-element constants against the expected pattern")
    p.add_argument("--family", required=True, choices=["fib", "lucas"])
    p.add_argument("--max", required=True, type=int)

    p = sub.add_parser("intertwine", help="build an intertwining map and verify it")
    p.add_argument("--kind", required=True, choices=["AL", "AF"])
    p.add_argument("--max", required=True, type=int)
    p.add_argument(
        "--route", choices=["recurrence", "beta", "series", "all"], default="all"
    )

    p = sub.add_parser("demo", help="run a staged demonstration")
    p.add_argument("topic", choices=["discriminant"])

    return parser


def _cmd_derive(args) -> int:
    d = Derivation(_FAMILY[args.family])
    if args.power < 0:
        raise ValueError("--power must be >= 0")
    result = d.power(_read_poly(args.input), args.power)
    _print_json(result.to_json())
    return 0


def _cmd_cayley(args) -> int:
    if args.route != "both":
        build = cayley_closed if args.route == "closed" else cayley_constructive
        _print_json(build(_FAMILY[args.family], args.n).to_json())
        return 0
    closed = cayley_closed(_FAMILY[args.family], args.n)
    constructive = cayley_constructive(_FAMILY[args.family], args.n)
    if closed == constructive:
        _print_json(closed.to_json())
        return 0
    _print_json(
        {
            "error": "route mismatch",
            "closed": closed.to_json(),
            "constructive": constructive.to_json(),
        }
    )
    return 1


def _cmd_kernel_check(args) -> int:
    member = kernel_member(Derivation(_FAMILY[args.family]), _read_poly(args.input))
    _print_json({"in_kernel": member})
    return 0 if member else 1


def _cmd_identity(args) -> int:
    report = identity.verify_identity(_read_poly(args.input), _FAMILY[args.family])
    print(identity.emit(report, args.format))
    return 0 if report.is_constant else 1


def _cmd_scan(args) -> int:
    result = identity.conjecture_scan(_FAMILY[args.family], args.max)
    for row in result["rows"]:
        constant = row["constant"] if row["is_constant"] else "non-constant"
        if row["boundary"]:
            print(f"n={row['n']:<3d} constant={constant:<6s} boundary (not scored)")
        else:
            verdict = "ok" if row["ok"] else "VIOLATION"
            print(
                f"n={row['n']:<3d} constant={constant:<6s} "
                f"expected={row['expected']:<3s} {verdict}"
            )
    scored_from = 3 if result["family"] == families.FIBONACCI else 2
    verdict = "PASS" if result["ok"] else "FAIL"
    print(f"conjecture ({result['family']}, n={scored_from}..{result['n_max']}): {verdict}")
    return 0 if result["ok"] else 1


def _cmd_intertwine(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be >= 0")
    routes_agree = True
    if args.route == "all":
        s_top = max(1, (args.max - 1) // 2)
        tables = [intertwine.alpha_rows(args.kind, s_top, args.max, r) for r in intertwine.ROUTES]
        routes_agree = len(set(tables)) == 1
        # psi's images from the beta table already built, as psi would
        beta = tables[intertwine.ROUTES.index(intertwine.ROUTE_BETA)]
        sub = intertwine._psi_from_rows(args.kind, args.max, beta)
    else:
        sub = intertwine.psi(args.kind, args.max, route=args.route)
    from_d = Derivation.appell()
    to_d = Derivation.lucas() if args.kind == intertwine.AL else Derivation.fibonacci()
    report = intertwine.check_intertwining(sub, from_d, to_d, args.max, kind=args.kind)
    if args.route == "all":
        report["routes_agree"] = routes_agree
    _print_json(report)
    return 0 if report["ok"] and routes_agree else 1


def _cmd_demo(args) -> int:
    report = identity.discriminant_demo()
    _print_json(report)
    return 0 if report["ok"] else 1


_DISPATCH = {
    "derive": _cmd_derive,
    "cayley": _cmd_cayley,
    "kernel-check": _cmd_kernel_check,
    "identity": _cmd_identity,
    "scan": _cmd_scan,
    "intertwine": _cmd_intertwine,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a fixed message: formatting a traceback may need memory too
        print("internal error: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only on a crash, so normal runs skip its import time

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
