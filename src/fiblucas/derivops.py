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
from typing import Mapping

from .families import APPELL, FIBONACCI, LUCAS, derivative_terms
from .polyring import Mono, Poly, mono_decrement, mul_into, var_name

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

CUSTOM = "custom"

_BUILTINS = (FIBONACCI, LUCAS, APPELL)


# Largest generator index a built-in derivation accepts, the same bound
# as the family index limit of identity.phi_subst.  D(x_n) has about n/2
# terms.  On CPython 3.11 and a 2-vCPU x86-64 VM, `kernel-check` on the
# sum x_0 + ... + x_1000 takes about 2 s, most of it building the 1001
# images, which the memo (1024 entries) then holds in about 60 MB.
_MAX_DERIVATION_INDEX = 1000


@lru_cache(maxsize=1024)
def builtin_image(kind: str, n: int) -> Poly:
    """Generator image D(x_n) for one of the built-in derivations."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown derivation kind: {kind!r}")
    if n < 0:
        raise ValueError("generator index must be >= 0")
    if n > _MAX_DERIVATION_INDEX:
        raise ValueError(
            f"generator x{n} is past the derivation index limit {_MAX_DERIVATION_INDEX}"
        )
    return Poly.from_terms((((i, 1),), c) for i, c in derivative_terms(kind, n))


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
        terms, den = p.numerators()
        images: dict[int, list[tuple[Mono, int | Fraction]]] = {}
        acc: dict[Mono, int | Fraction] = {}
        for mono, num in terms:
            for v, e in mono:
                img = images.get(v)
                if img is None:
                    img = images[v] = [
                        (m, c2.numerator if c2.denominator == 1 else c2)
                        for m, c2 in self.image(v).items()
                    ]
                if img:
                    mul_into(acc, ((mono_decrement(mono, v), num * e),), img)
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
