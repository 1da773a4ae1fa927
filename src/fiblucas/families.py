"""Fibonacci, Lucas and power-basis Appell polynomial families.

Conventions, fixed once for the whole package by the generating
functions t/(1 - x*t - t^2) and (1 + t^2)/(1 - x*t - t^2):

    F_0 = 0, F_1 = 1,                F_n = x*F_{n-1} + F_{n-2}
    L_0 = 1, L_1 = x, L_2 = x^2 + 2, L_n = x*L_{n-1} + L_{n-2}  (n >= 3)

Note L_0 = 1, not the classical 2: that is what the generating function
expands to, and it is the unique value making the closed derivative
identity (below) hold at every order, starting with d/dx L_1 = L_0.

The Appell family is A_n = x^n, the simplest one with A_n' = n*A_{n-1}.

FIBONACCI, LUCAS and APPELL name the families here and the matching
derivations everywhere else in the package.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .exactnum import TruncatedSeries
from .polyring import Poly, _check_index

__all__ = [
    "FIBONACCI",
    "LUCAS",
    "APPELL",
    "family_poly",
    "family_values",
    "derivative_terms",
    "derivative_rhs",
    "verify_derivative_formula",
    "generating_function_coeffs",
]

FIBONACCI = "fibonacci"
LUCAS = "lucas"
APPELL = "appell"

_FAMILIES = (FIBONACCI, LUCAS, APPELL)


def _check_kind(kind: str, allowed=_FAMILIES) -> None:
    if kind not in allowed:
        raise ValueError(f"unknown family kind: {kind!r}")


@lru_cache(maxsize=None)
def family_poly(kind: str, n: int) -> Poly:
    """The n-th member of the family, a polynomial in x."""
    _check_kind(kind)
    _check_index(n)
    x = Poly.x()
    if kind == APPELL:
        return x ** n
    if kind == FIBONACCI and n < 2:
        return Poly.constant(n)
    if kind == LUCAS and n < 3:
        return (Poly.one(), x, x * x + 2)[n]
    # fill the memo bottom-up so a cold call never recurses deeply
    for m in range(3, n - 1):
        family_poly(kind, m)
    return x * family_poly(kind, n - 1) + family_poly(kind, n - 2)


def family_values(kind: str, b: int, wanted: Iterable[int]) -> dict[int, int]:
    """{v: P_v(2^b)} for v in wanted, P the Fibonacci or Lucas family, from
    the recurrence in ints, where x*P is P << b.  At b = 0 this is P_v(1),
    the sum of P_v's absolute coefficients, as none of them is negative."""
    _check_kind(kind, (FIBONACCI, LUCAS))
    wanted, out = set(wanted), {}
    top = max(map(_check_index, wanted), default=-1)
    # from the classical L_0 = 2 the recurrence gives L_2 = x^2 + 2
    low, high = (0, 1) if kind == FIBONACCI else (2, 1 << b)
    for n in range(top + 1):
        if n in wanted:
            out[n] = 1 if kind == LUCAS and n == 0 else low
        low, high = high, (high << b) + low
    return out


def derivative_terms(kind: str, n: int) -> list[tuple[int, int]]:
    """(i, c) pairs of the closed derivative identity d/dx P_n = sum c P_i,
    which also gives the built-in derivation images D(x_n) = sum c x_i.
    With i = n-1-2k for k = 0..floor((n-1)/2):

        fibonacci: c = (-1)^k (n-1-2k)    lucas: c = (-1)^k n
        appell:    c = n, i = n-1 only
    """
    if kind == APPELL:
        return [(n - 1, n)] if n else []
    return [
        (i, (-1) ** k * (i if kind == FIBONACCI else n))
        for k, i in enumerate(range(n - 1, -1, -2))
    ]


def derivative_rhs(kind: str, n: int) -> Poly:
    """Right-hand side sum c P_i of the closed derivative identity."""
    _check_kind(kind, (FIBONACCI, LUCAS))
    if n < 1:
        raise ValueError("derivative identity needs n >= 1")
    return sum((c * family_poly(kind, i) for i, c in derivative_terms(kind, n)), Poly.zero())


def verify_derivative_formula(kind: str, n: int) -> bool:
    """True iff the formal derivative of the n-th family polynomial
    equals the closed-sum right-hand side assembled from lower members."""
    return family_poly(kind, n).diff_x() == derivative_rhs(kind, n)


def generating_function_coeffs(kind: str, order: int) -> list[Poly]:
    """First ``order`` t-coefficients of the family generating function.

    Computed by genuine truncated-series arithmetic over polynomial
    coefficients (series reciprocal of 1 - x*t - t^2, then product with
    the numerator), independent of the recurrences in family_poly; used
    to cross-check them.
    """
    _check_kind(kind, (FIBONACCI, LUCAS))
    if order < 1:
        raise ValueError("order must be >= 1")

    def series(head: list) -> TruncatedSeries:
        return TruncatedSeries((head + [0] * order)[:order])

    numer = series([0, 1] if kind == FIBONACCI else [1, 0, 1])
    denom = series([1, -Poly.x(), -1])  # 1 - x*t - t^2
    # entries that never meet x stay Fraction; adding Poly.zero() lifts them
    return [c + Poly.zero() for c in (numer * denom.reciprocal()).coeffs]
