"""Exact rational arithmetic helpers and truncated formal power series.

Every coefficient in this package is an int or a reduced Fraction;
Poly keeps integer numerators over one denominator (see polyring).
This module adds the combinatorial helpers (generalized binomial,
falling factorial) and a fixed-order truncated series type used for
generating-function work.  No floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import comb, factorial

__all__ = [
    "binomial",
    "falling_factorial",
    "TruncatedSeries",
    "bessel_j0_series",
    "bessel_j1_series",
]


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k).

    C(n, k) = n(n-1)...(n-k+1) / k! for k >= 0 and any integer n
    (negative n included), and C(n, k) = 0 for k < 0.  The value is
    always an integer.  For 0 <= n < k the falling factorial crosses
    zero, so the usual C(n, k) = 0 comes out of the same definition.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    num = 1
    for j in range(k):
        num *= n - j
    # product of k consecutive integers is divisible by k!
    return num // factorial(k)


def falling_factorial(n: int, a: int) -> int:
    """Falling factorial n(n-1)...(n-a+1); empty product 1 for a = 0."""
    if a < 0:
        raise ValueError("falling_factorial: a must be >= 0")
    out = 1
    for j in range(a):
        out *= n - j
    return out


class TruncatedSeries:
    """A power series truncated at a fixed order.

    ``coeffs[i]`` is the coefficient of z^i and ``order == len(coeffs)``
    (at least 1).  Coefficients are Fractions (ints are converted) or
    any exact ring elements that mix with them, such as ``Poly``;
    floats are rejected.
    Arithmetic never reads beyond index order-1, and both operands of
    a product must share the same order.  Instances are immutable and
    safe to share.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        cs = tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)
        if any(isinstance(c, float) for c in cs):
            raise TypeError("series coefficients must be exact, not float")
        if not cs:
            raise ValueError("TruncatedSeries requires order >= 1")
        self._coeffs = cs

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        """The multiplicative unit 1 + 0*z + ... at the given order."""
        return cls([1] + [0] * (order - 1))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return self._coeffs[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the common order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} != {other.order}"
            )
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other._coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the series order.

        Standard triangular recurrence: with a_0 invertible,
        r_0 = 1/a_0 and r_n = -(sum_{k=1..n} a_k r_{n-k}) / a_0.
        """
        a = self._coeffs
        if a[0] == 0:
            raise ValueError("series not invertible: zero constant term")
        n = self.order
        r = [Fraction(0)] * n
        r[0] = 1 / a[0]
        for m in range(1, n):
            s = Fraction(0)
            for k in range(1, m + 1):
                if a[k] != 0:
                    s += a[k] * r[m - k]
            r[m] = -s / a[0]
        return TruncatedSeries(r)


def bessel_j0_series(order: int) -> TruncatedSeries:
    """Series of J_0(2*sqrt(z)) in z: sum_n (-1)^n z^n / (n!)^2."""
    return TruncatedSeries(
        Fraction((-1) ** n, factorial(n) ** 2) for n in range(order)
    )


def bessel_j1_series(order: int) -> TruncatedSeries:
    """Series of J_1(2*sqrt(z))/sqrt(z) in z: sum_n (-1)^n z^n / (n!(n+1)!)."""
    return TruncatedSeries(
        Fraction((-1) ** n, factorial(n) * factorial(n + 1))
        for n in range(order)
    )
