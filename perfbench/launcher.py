"""Run one `fiblucas` CLI job with spans around every module boundary.

Usage: python3 launcher.py SPANS_JSON -- CLI_ARGS...

The launcher imports the package, wraps from outside the public calls
that cross from one module into another, calls `fiblucas.cli.main`,
and writes the span aggregates to SPANS_JSON when the job ends.  The
package's source is not touched.  Spans are kept in memory and
aggregated by (name, parent name): calls, total seconds and self
seconds (total minus the time covered by child spans).

`from .x import y` binds `y` in the importing module at import time,
so each function is wrapped where it is looked up, not where it is
defined.  Memo statistics come from the original `lru_cache` objects.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # stack of [name, start, seconds covered by child spans]
        self.stack: list[list] = [["root", 0.0, 0.0]]
        # (name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span called `name`; `count(*args)` feeds counters."""
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += dur
                agg = spans.get((name, parent[0]))
                if agg is None:
                    agg = spans[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]

        return traced

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


def install(tracer: Tracer) -> dict:
    """Wrap the package's module boundaries; returns the memo objects
    whose `cache_info()` the report reads."""
    from fiblucas import cli, derivops, dixmier, exactnum, families, identity, intertwine, polyring

    wrap = tracer.wrap
    Poly = polyring.Poly

    def count_mul(a, b):
        tracer.add("polyring.mul_term_pairs", len(a) * (len(b) if isinstance(b, Poly) else 1))

    # Poly methods are class attributes, so every module sees one patch.
    # The reflected aliases are separate class slots and get the same span.
    mul = wrap("polyring.mul", Poly.__mul__, count_mul)
    add = wrap("polyring.add", Poly.__add__)
    Poly.__mul__ = Poly.__rmul__ = mul
    Poly.__add__ = Poly.__radd__ = add
    Poly.__eq__ = wrap("polyring.eq", Poly.__eq__)
    Poly.substitute = wrap("polyring.substitute", Poly.substitute)
    Poly.to_json = wrap("polyring.to_json", Poly.to_json)
    Poly.from_json = classmethod(wrap("polyring.from_json", Poly.from_json.__func__))

    Derivation = derivops.Derivation
    Derivation.__call__ = wrap(
        "derivops.call", Derivation.__call__, lambda d, p: tracer.add("derivops.terms_in", len(p))
    )
    Derivation.image = wrap("derivops.image", Derivation.image)
    exactnum.TruncatedSeries.reciprocal = wrap(
        "exactnum.reciprocal", exactnum.TruncatedSeries.reciprocal
    )

    # Module functions are wrapped where they are looked up: in every
    # module that imported them, and on their own module when the CLI
    # reaches them through a module attribute or the module calls itself.
    for mod, names in (
        (cli, ("cayley_closed", "cayley_constructive", "kernel_member")),
        (identity, ("family_poly", "cayley_closed", "kernel_member", "psi",
                    "conjecture_scan", "verify_identity", "phi_subst", "emit")),
        (dixmier, ("binomial",)),
        (intertwine, ("falling_factorial", "bessel_j0_series", "bessel_j1_series",
                      "alpha", "psi", "check_intertwining")),
    ):
        for attr in names:
            fn = getattr(mod, attr)
            setattr(mod, attr, wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{attr}", fn))
    cli.main = wrap("cli.main", cli.main)

    return {
        "families.family_poly": families.family_poly,
        "derivops.builtin_image": derivops.builtin_image,
        "intertwine.recurrence_rows": intertwine._recurrence_rows,
        "intertwine.beta_rows": intertwine._beta_rows,
        "intertwine.b_coeffs": intertwine._b_coeffs,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    memos = install(tracer)
    from fiblucas import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        report = {
            "spans": [[name, parent, *agg] for (name, parent), agg in tracer.spans.items()],
            "counters": tracer.counters,
            "memos": {name: list(memo.cache_info()) for name, memo in memos.items()},
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
