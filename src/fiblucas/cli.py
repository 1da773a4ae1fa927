"""Command-line interface.

Thin veneer: every subcommand maps to one library operation plus
serialization.  Each _cmd_* returns (text, verified) and writes nothing;
main alone writes the text to stdout, every error line to stderr, both
through the one writer _write, and picks the exit code: 0 verified/success,
1 verification failure, 2 usage or input error or unwritable stdout,
3 internal error (a crash, never reported as a failed verification).
"""

from __future__ import annotations

import argparse
import json
import os
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
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a JSON number has more than {limit} decimal digits, "
                         "the limit on JSON numbers") from None
    return Poly.from_json(doc)


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


def _cmd_derive(args) -> tuple[str, bool]:
    d = Derivation(_FAMILY[args.family])
    if args.power < 0:
        raise ValueError("--power must be >= 0")
    return json_text(d.power(_read_poly(args.input), args.power)), True


def _cmd_cayley(args) -> tuple[str, bool]:
    if args.route != "both":
        build = cayley_closed if args.route == "closed" else cayley_constructive
        return json_text(build(_FAMILY[args.family], args.n)), True
    closed = cayley_closed(_FAMILY[args.family], args.n)
    constructive = cayley_constructive(_FAMILY[args.family], args.n)
    if closed == constructive:
        return json_text(closed), True
    mismatch = {"error": "route mismatch", "closed": closed, "constructive": constructive}
    return json_text(mismatch), False


def _cmd_kernel_check(args) -> tuple[str, bool]:
    member = kernel_member(Derivation(_FAMILY[args.family]), _read_poly(args.input))
    return json_text({"in_kernel": member}), member


def _cmd_identity(args) -> tuple[str, bool]:
    report = identity.verify_identity(_read_poly(args.input), _FAMILY[args.family])
    return identity.emit(report, args.format), report.is_constant


def _cmd_scan(args) -> tuple[str, bool]:
    result = identity.conjecture_scan(_FAMILY[args.family], args.max)
    lines = []
    for row in result["rows"]:
        constant = row["constant"] if row["is_constant"] else "non-constant"
        if row["boundary"]:
            lines.append(f"n={row['n']:<3d} constant={constant:<6s} boundary (not scored)")
        else:
            verdict = "ok" if row["ok"] else "VIOLATION"
            lines.append(
                f"n={row['n']:<3d} constant={constant:<6s} "
                f"expected={row['expected']:<3s} {verdict}"
            )
    scored_from = next(row["n"] for row in result["rows"] if not row["boundary"])
    verdict = "PASS" if result["ok"] else "FAIL"
    lines.append(f"conjecture ({result['family']}, n={scored_from}..{result['n_max']}): {verdict}")
    return "\n".join(lines), result["ok"]


def _cmd_intertwine(args) -> tuple[str, bool]:
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
    return json_text(report), report["ok"] and routes_agree


def _cmd_demo(args) -> tuple[str, bool]:
    report = identity.discriminant_demo()
    return json_text(report), report["ok"]


_DISPATCH = {
    "derive": _cmd_derive,
    "cayley": _cmd_cayley,
    "kernel-check": _cmd_kernel_check,
    "identity": _cmd_identity,
    "scan": _cmd_scan,
    "intertwine": _cmd_intertwine,
    "demo": _cmd_demo,
}


def _write(text: str, stream) -> OSError | None:
    """Write text and a newline to stream and flush it; the OSError doing so, if any, after
    which the process's own stdout or stderr writes to /dev/null, so the exit flush cannot fail."""
    try:  # one write: unbuffered (python -u), print would write the newline apart
        stream.write(text + "\n")
        stream.flush()
    except OSError as exc:
        if stream is sys.__stdout__ or stream is sys.__stderr__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, verified = _DISPATCH[args.command](args)
        if error := _write(text, sys.stdout):
            raise ValueError(f"cannot write output: {error.strerror or error}")
        return 0 if verified else 1
    except ValueError as exc:
        message, code = f"error: {exc}", 2
    except MemoryError:  # a fixed message: formatting a traceback may need memory too
        message, code = "internal error: out of memory", 3
    except Exception as exc:
        import traceback  # only on a crash, so normal runs skip its import time

        message, code = f"{traceback.format_exc()}internal error: {type(exc).__name__}: {exc}", 3
    # an unwritable stderr keeps the error's code: it must not turn into exit 1
    _write(message, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
