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

from functools import lru_cache
from math import lcm
from typing import Mapping

from .families import _MAX_FAMILY_INDEX, APPELL, FIBONACCI, LUCAS, derivative_terms
from .polyring import Mono, Poly, clip, mono_decrement, mul_into, var_name

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

CUSTOM = "custom"

_BUILTINS = (FIBONACCI, LUCAS, APPELL)


# the memo holds every image up to the index limit, about 50 MB at 1000
@lru_cache(maxsize=1024)
def builtin_image(kind: str, n: int) -> Poly:
    """Generator image D(x_n) for one of the built-in derivations."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown derivation kind: {kind!r}")
    if n < 0:
        raise ValueError("generator index must be >= 0")
    if n > _MAX_FAMILY_INDEX:
        raise ValueError(
            f"generator {clip(var_name(n), str)} is past the derivation index limit "
            f"{_MAX_FAMILY_INDEX}"
        )
    return Poly.from_terms((((i, 1),), c) for i, c in derivative_terms(kind, n))


class Derivation:
    """A derivation given by kind or an explicit generator-image table.

    Custom tables are not checked for nilpotency (deciding that in
    general is out of scope); operations that need termination check it
    empirically.  Instances are immutable; built-in images are memoized
    process-wide.
    """

    __slots__ = ("kind", "_images", "_den")

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
        # the lcm of the image denominators; built-in images are integral
        self._den = lcm(*(img.numerators()[1] for img in (self._images or {}).values()))

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

        One pass over the stored integer numerators of p and of the
        images.  An image over denominator d is read scaled by den/d,
        den the lcm of the table's denominators (1 for the built-ins),
        so the sums stay ints and the result is over den times p's.
        """
        if p.contains_x:
            raise ValueError(
                "derivations act on generator polynomials; found x"
            )
        nums, p_den = p.numerators()
        images: dict[int, tuple] = {}  # v -> (image numerators, scale)
        acc: dict[Mono, int] = {}
        for mono, num in nums.items():
            for v, e in mono:
                img = images.get(v)
                if img is None:
                    img_nums, img_den = self.image(v).numerators()
                    img = images[v] = (img_nums.items(), self._den // img_den)
                if img[0]:
                    mul_into(acc, ((mono_decrement(mono, v), num * e * img[1]),), img[0])
        return Poly._make(acc, p_den * self._den)

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
