"""Linear maps intertwining the Appell derivation with Lucas/Fibonacci.

A substitution psi with psi o D_appell = D_target o psi transports
kernel elements of the Appell derivation to kernel elements of the
target derivation.  The two maps built here are

    AL:  x_n -> x_n     + sum_s alpha_n^(s) x_{n-2s}
    AF:  x_n -> x_{n+1} + sum_s alpha_n^(s) x_{n+1-2s}

with s = 1..floor((n-1)/2).  The coefficients come as whole tables,
alpha_rows(kind, s_max, n_max, route)[s][n], which alpha, psi and the
CLI read.  Each table can be computed three independent ways, and all
three must agree:

recurrence ("direct") route.  Matching coefficients in the intertwining
condition gives, per diagonal s and with a = 2s, a first-order
recurrence with boundary alpha_a^(s) = 0:

    AL:  (n-a) alpha_n^(s) = n (alpha_{n-1}^(s) + alpha_{n-1}^(s-1))
    AF:  (n-a) T_n^(s)     = n alpha_{n-1}^(s),
         alpha^(s) = T^(s) + T^(s-1),  T^(0) = 1

The route steps it in ints, forward for n > a and backward below a
(alpha_{n-1} from alpha_n); the AF form has no pole at n = a-2, where
dividing alpha^(s-1) by n-a+2 would.

beta route.  Writing alpha in the falling-factorial basis,

    AL:  alpha_n^(s) = sum_{i=0..s} beta_i^(s) n^{falling s+i}
    AF:  alpha_n^(s) = (n-2s+1) sum_{i=0..s} beta_i^(s) n^{falling s-1+i}

the recurrences collapse to beta_i^(s) = -beta_i^(s-1)/(s-i) for i < s,
with beta_s^(s) =: b_s fixed by the boundary condition:

    AL:  b_s = -sum_{i<s} beta_i^(s)/(s-i)!
    AF:  b_s = -sum_{i<s} beta_i^(s)/(s-i+1)!

series route.  The same b_s are the coefficients of the reciprocal of a
Bessel-type series (beta_i^(s) = (-1)^{s-i} b_i / (s-i)!):

    AL:  sum b_s z^s = 1 / J_0(2 sqrt z)
    AF:  sum b_s z^s = sqrt z / J_1(2 sqrt z)

Every alpha_n^(s) is an integer, and every route checks it: all three
tables hold ints.  The beta and series routes supply the row beta_i^(s)
over its lcm denominator den, as integer numerators B_i.  A cell is then
summed in ints: the first falling factorial n^{falling a} (a = s for AL,
s-1 for AF) comes from falling_factorial, each next one from the last by
a factor n-a-i, and the AF lead n-2s+1 multiplies the sum.  That sum
over den, and every recurrence step, is divided in one place,
_exact_div; a nonzero remainder is an internal error (ArithmeticError,
not ValueError), never a result.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .derivops import Derivation
from .exactnum import bessel_j0_series, bessel_j1_series, falling_factorial
from .families import _check_kind
from .polyring import Poly, X, var_name

__all__ = [
    "AL",
    "AF",
    "ROUTE_RECURRENCE",
    "ROUTE_BETA",
    "ROUTE_SERIES",
    "ROUTES",
    "b_sequence",
    "alpha_rows",
    "alpha",
    "LinearSubstitution",
    "psi",
    "check_intertwining",
]

AL = "AL"
AF = "AF"
_KINDS = (AL, AF)

ROUTE_RECURRENCE = "recurrence"
ROUTE_BETA = "beta"
ROUTE_SERIES = "series"
ROUTES = (ROUTE_RECURRENCE, ROUTE_BETA, ROUTE_SERIES)

# Bound on each table memo: scalar alpha calls key one table per (kind, s).
_MEMO_SIZE = 32
# Size limit on every table, scalar entry points included, rejected up
# front rather than run for minutes: n <= 100 and 2s <= 100.
# `intertwine --max 100 --route all` takes about 0.3 s for either kind
# on CPython 3.11 and a 2-vCPU x86-64 VM.
_MAX_INTERTWINE_N = 100


def _check_args(kind: str, route: str = ROUTE_BETA, n: int = 0, s: int = 0) -> None:
    """Validate kind and route, and the size limit that every entry
    point goes through: n <= _MAX_INTERTWINE_N and 2s <= _MAX_INTERTWINE_N."""
    _check_kind(kind, _KINDS)
    if route not in ROUTES:
        raise ValueError(f"unknown route: {route!r}")
    if max(n, 2 * s) > _MAX_INTERTWINE_N:
        raise ValueError(
            f"intertwining tables are limited to n <= {_MAX_INTERTWINE_N} and "
            f"s <= {_MAX_INTERTWINE_N // 2}, got n = {n}, s = {s}"
        )


@lru_cache(maxsize=_MEMO_SIZE)
def _b_coeffs(kind: str, count: int) -> tuple[Fraction, ...]:
    series = bessel_j0_series(count) if kind == AL else bessel_j1_series(count)
    return series.reciprocal().coeffs


def b_sequence(kind: str, count: int) -> list[Fraction]:
    """First ``count`` coefficients of the reciprocal Bessel-type series
    (b_0 = 1 in both kinds): b_s for s < count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_args(kind, s=count - 1)
    return list(_b_coeffs(kind, count))


@lru_cache(maxsize=_MEMO_SIZE)
def _beta_rows(kind: str, s_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """beta_i^(s) for 0 <= i <= s <= s_max, from the beta recurrences."""
    rows: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    closure_shift = 0 if kind == AL else 1
    for s in range(1, s_max + 1):
        prev = rows[s - 1]
        row = [-prev[i] / (s - i) for i in range(s)]
        b_s = -sum(
            (row[i] / factorial(s - i + closure_shift) for i in range(s)),
            Fraction(0),
        )
        row.append(b_s)
        rows.append(tuple(row))
    return tuple(rows)


def _exact_div(num: int, den: int, kind: str, n: int, s: int) -> int:
    """num / den for a step of alpha_n^(s); every route divides here.  A
    nonzero remainder is an internal error (ArithmeticError, not
    ValueError), never a result."""
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{kind} alpha_{n}^({s}): {num}/{den} is not an integer")
    return value


@lru_cache(maxsize=_MEMO_SIZE)
def _recurrence_rows(kind: str, s_max: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """alpha_n^(s) tables (rows indexed by s, columns by n) stepped from
    the recurrences in ints: forward from alpha_{2s}^(s) = 0, then
    backward below n = 2s."""
    n_eff = max(n_max, 2 * s_max)
    ones = (1,) * (n_eff + 1)
    rows = [ones]
    t_prev = ones  # AF only: T^(s-1)
    for s in range(1, s_max + 1):
        a = 2 * s
        row = [0] * (n_eff + 1)
        if kind == AL:
            prev = rows[s - 1]
            for n in range(a + 1, n_eff + 1):
                row[n] = _exact_div(n * (row[n - 1] + prev[n - 1]), n - a, kind, n, s)
            for m in range(a - 1, -1, -1):
                row[m] = _exact_div((m + 1 - a) * row[m + 1], m + 1, kind, m, s) - prev[m]
        else:
            t = [0] * (n_eff + 1)  # T^(s) = alpha^(s) - T^(s-1); alpha_a^(s) = 0
            t[a] = -t_prev[a]
            for n in range(a + 1, n_eff + 1):
                t[n] = _exact_div(n * row[n - 1], n - a, kind, n, s)
                row[n] = t[n] + t_prev[n]
            for m in range(a - 1, -1, -1):
                row[m] = _exact_div((m + 1 - a) * t[m + 1], m + 1, kind, m, s)
                t[m] = row[m] - t_prev[m]
            t_prev = t
        rows.append(tuple(row))
    return tuple(rows)


def _beta_row(kind: str, route: str, s: int, s_max: int) -> tuple[list[int], int]:
    """beta_i^(s), i = 0..s, by the beta or series route, as integer
    numerators over their lcm denominator: (B_i, den).  Read from the
    memo sized for s_max (its first rows do not depend on s_max)."""
    if route == ROUTE_BETA:
        row = _beta_rows(kind, s_max)[s]
    else:
        b = _b_coeffs(kind, s_max + 1)
        row = [(-1) ** (s - i) * b[i] / factorial(s - i) for i in range(s + 1)]
    den = lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row], den


def _alpha_from_beta(kind: str, row: tuple[list[int], int], n: int, s: int) -> int:
    """alpha_n^(s) from the integer row (B_i, den) of _beta_row; the one
    cell evaluator of the beta and series routes."""
    nums, den = row
    a = s if kind == AL else s - 1
    f = falling_factorial(n, a)
    total = 0
    for i, b in enumerate(nums):
        total += b * f
        f *= n - a - i
    if kind == AF:
        total *= n - 2 * s + 1
    return _exact_div(total, den, kind, n, s)


def alpha_rows(
    kind: str, s_max: int, n_max: int, route: str = ROUTE_BETA
) -> tuple[tuple[int, ...], ...]:
    """alpha_n^(s) by one route as rows[s][n] of ints: s = 0..s_max (row 0
    is all ones), n = 0..max(n_max, 2*s_max); no route reads another's
    table, and every division goes through the one exact check."""
    if s_max < 0 or n_max < 0:
        raise ValueError("s_max and n_max must be >= 0")
    _check_args(kind, route, n_max, s_max)
    if route == ROUTE_RECURRENCE:
        return _recurrence_rows(kind, s_max, n_max)
    columns = range(max(n_max, 2 * s_max) + 1)
    rows = [(1,) * len(columns)]
    for s in range(1, s_max + 1):
        beta = _beta_row(kind, route, s, s_max)
        rows.append(tuple(_alpha_from_beta(kind, beta, n, s) for n in columns))
    return tuple(rows)


def alpha(kind: str, n: int, s: int, route: str = ROUTE_BETA) -> int:
    """The intertwining coefficient alpha_n^(s) by the requested route;
    the beta and series routes evaluate the one cell, the recurrence
    route reads the table of s sized to the limit."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_args(kind, route, n, s)
    if route == ROUTE_RECURRENCE:
        return _recurrence_rows(kind, s, _MAX_INTERTWINE_N)[s][n]
    return _alpha_from_beta(kind, _beta_row(kind, route, s, s), n, s)


class LinearSubstitution:
    """A map x_n -> rational linear combination of generators."""

    __slots__ = ("_images",)

    def __init__(self, images: Mapping[int, Poly]) -> None:
        for n, img in images.items():
            for mono in img.numerators()[0]:
                if len(mono) != 1 or mono[0][1] != 1 or mono[0][0] == X:
                    raise ValueError(
                        f"image of {var_name(n)} must be homogeneous of degree 1 in the generators"
                    )
        self._images = dict(images)

    def image(self, n: int) -> Poly:
        try:
            return self._images[n]
        except KeyError:
            raise ValueError(f"no image for generator {var_name(n)}") from None

    def apply(self, p: Poly) -> Poly:
        return p.substitute(self._images)


def psi(kind: str, n_max: int, route: str = ROUTE_BETA) -> LinearSubstitution:
    """The intertwining substitution with images for x_0..x_{n_max}.

    AF images shift indices up by one, so the generator universe grows
    to x_{n_max+1} internally.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _psi_from_rows(kind, n_max, alpha_rows(kind, max(1, (n_max - 1) // 2), n_max, route))


def _psi_from_rows(kind: str, n_max: int, rows) -> LinearSubstitution:
    """psi from an alpha_rows table covering s <= (n_max-1)//2, n <= n_max."""
    images: dict[int, Poly] = {}
    for n in range(n_max + 1):
        lead = n if kind == AL else n + 1
        # ((v, 1),) is the monomial x_v; from_terms drops zero coefficients
        images[n] = Poly.from_terms(
            [(((lead, 1),), 1)]
            + [(((lead - 2 * s, 1),), rows[s][n]) for s in range(1, (n - 1) // 2 + 1)]
        )
    return LinearSubstitution(images)


def check_intertwining(
    sub: LinearSubstitution, from_d: Derivation, to_d: Derivation, n_max: int, kind: str
) -> dict:
    """Compare sub(from_d(x_n)) against to_d(sub(x_n)) for n <= n_max.

    Returns a report dict; a mismatch is an outcome, not an error.
    """
    report = dict(kind=kind, n_max=n_max, ok=True, first_mismatch=None, lhs=None, rhs=None)
    for n in range(n_max + 1):
        lhs = sub.apply(from_d.image(n))
        rhs = to_d(sub.image(n))
        if lhs != rhs:
            return dict(report, ok=False, first_mismatch=n, lhs=lhs.to_json(), rhs=rhs.to_json())
    return report
