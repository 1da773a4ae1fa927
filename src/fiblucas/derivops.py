"""Derivation operators on the generator ring.

A derivation is the Leibniz-linear extension of a generator-image
table x_n -> D(x_n).  The three built-ins are:

    fibonacci:  D(x_0) = D(x_1) = 0,
                D(x_n) = sum_k (-1)^k (n-1-2k) x_{n-1-2k}
    lucas:      D(x_0) = 0,
                D(x_n) = n * sum_k (-1)^k x_{n-1-2k}
    appell:     D(x_n) = n x_{n-1}

with k running over 0..floor((n-1)/2).  All three are triangular
(the image of x_n involves only smaller indices), hence locally
nilpotent.  Note the Lucas images reach down to x_0 for odd n; the
Fibonacci ones never contain x_0 because its coefficient n-1-2k
vanishes there.

Applying a derivation to the distinguished indeterminate x is an
error: the generator ring and the x ring are never mixed silently.

Closed forms for the iterated images D^k(x_n) live in dixmier, next
to the Cayley elements built from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping

from .families import APPELL, FIBONACCI, LUCAS
from .polyring import Mono, Poly, mono_decrement, mono_mul, var_name

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

CUSTOM = "custom"

_BUILTINS = (FIBONACCI, LUCAS, APPELL)


@lru_cache(maxsize=None)
def builtin_image(kind: str, n: int) -> Poly:
    """Generator image D(x_n) for one of the built-in derivations."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown derivation kind: {kind!r}")
    if n < 0:
        raise ValueError("generator index must be >= 0")
    if n == 0:
        return Poly.zero()
    if kind == APPELL:
        return n * Poly.gen(n - 1)
    out = Poly.zero()
    for k in range((n - 1) // 2 + 1):
        sub = n - 1 - 2 * k
        coeff = (-1) ** k * (sub if kind == FIBONACCI else n)
        if coeff:
            out = out + Poly.term(coeff, {sub: 1})
    return out


class Derivation:
    """A derivation given by kind or an explicit generator-image table.

    Custom tables are not checked for nilpotency (deciding that in
    general is out of scope); operations that need termination check it
    empirically.  Instances are immutable; built-in images are memoized
    process-wide.
    """

    __slots__ = ("kind", "_images")

    def __init__(
        self, kind: str, images: Mapping[int, Poly] | None = None
    ) -> None:
        if kind in _BUILTINS:
            if images is not None:
                raise ValueError("built-in derivations take no image table")
            self._images = None
        elif kind == CUSTOM:
            if images is None:
                raise ValueError("custom derivation needs an image table")
            for n, img in images.items():
                if img.contains_x:
                    raise ValueError(
                        f"image of x{n} may not contain the indeterminate x"
                    )
            self._images = dict(images)
        else:
            raise ValueError(f"unknown derivation kind: {kind!r}")
        self.kind = kind

    @classmethod
    def fibonacci(cls) -> "Derivation":
        return cls(FIBONACCI)

    @classmethod
    def lucas(cls) -> "Derivation":
        return cls(LUCAS)

    @classmethod
    def appell(cls) -> "Derivation":
        return cls(APPELL)

    @classmethod
    def custom(cls, images: Mapping[int, Poly]) -> "Derivation":
        return cls(CUSTOM, images)

    def __repr__(self) -> str:
        return f"Derivation({self.kind!r})"

    def image(self, n: int) -> Poly:
        if self._images is None:
            return builtin_image(self.kind, n)
        try:
            return self._images[n]
        except KeyError:
            raise ValueError(
                f"derivation has no image for generator {var_name(n)}"
            ) from None

    def __call__(self, p: Poly) -> Poly:
        """Apply the Leibniz-linear extension to a generator polynomial.

        One pass over integer numerators: with den the common
        denominator of p, every product c*den * e * (image coefficient)
        is summed per monomial, and each sum is divided by den once at
        the end.  Built-in images have integer coefficients, so the sums
        stay ints; a custom table with Fraction images stays exact.
        """
        if p.contains_x:
            raise ValueError(
                "derivations act on generator polynomials; found x"
            )
        den = lcm(*(c.denominator for _, c in p.items()))
        images: dict[int, list[tuple[Mono, int | Fraction]]] = {}
        acc: dict[Mono, int | Fraction] = {}
        for mono, c in p.items():
            num = c.numerator * (den // c.denominator)
            for v, e in mono:
                img = images.get(v)
                if img is None:
                    img = images[v] = [
                        (m, c2.numerator if c2.denominator == 1 else c2)
                        for m, c2 in self.image(v).items()
                    ]
                if not img:
                    continue
                rest = mono_decrement(mono, v)
                f = num * e
                for m2, c2 in img:
                    m = mono_mul(rest, m2)
                    s = acc.get(m, 0) + f * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        for m, s in acc.items():
            acc[m] = Fraction(s, den)
        return Poly._make(acc)

    def power(self, p: Poly, k: int) -> Poly:
        """k-fold application; k = 0 returns p unchanged."""
        if k < 0:
            raise ValueError("power must be >= 0")
        out = p
        for _ in range(k):
            if out.is_zero():
                break
            out = self(out)
        return out


def kernel_member(d: Derivation, p: Poly) -> bool:
    """True iff the derivation annihilates p."""
    return d(p).is_zero()
