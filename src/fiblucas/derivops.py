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

Derivations run over packed monomial keys: x_v's exponent sits in a
``bits``-wide field at ``bits * rank(v)``, so the monomial of a Leibniz
pair is one int addition.  rank(v) is v for the built-ins, and for a
custom table the position of v among its keys and image variables (a key
x_(10**100) costs nothing extra).  ``bits`` covers every exponent of the
input and the result, so no field carries.  Each instance keeps one
packed image table, repacked only when a call needs wider fields.

Closed forms for the iterated images D^k(x_n) live in dixmier, next
to the Cayley elements built from them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from math import lcm

from .families import _MAX_FAMILY_INDEX, APPELL, FIBONACCI, LUCAS, derivative_terms
from .polyring import X, Poly, clip, var_name

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

CUSTOM = "custom"

_BUILTINS = (FIBONACCI, LUCAS, APPELL)

# Size limit on one application in `power`: the (term, image term) pairs
# it would touch, counted first.  At the limit, on CPython 3.11 and a
# 2-vCPU x86-64 VM, applying D to terms of D(x1000 x999^2) takes 1.1-1.3 s
# (3.3-4.0 s times x1000^4096, 7.3-7.7 s times x1000^(2^30): wider keys);
# C_150, at 149 075 pairs, takes about 0.1 s.
_MAX_LEIBNIZ_PAIRS = 250_000


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
    empirically.  Instances are immutable apart from their table of
    packed images; built-in images are memoized process-wide.
    """

    __slots__ = ("kind", "_images", "_den", "_order", "_top", "_bits", "_keys", "_packed")

    def __init__(
        self, kind: str, images: Mapping[int, Poly] | None = None
    ) -> None:
        # packed keys: rank(v) = bisect_left(_order, v); _top = max image degree - 1, or 0
        if kind in _BUILTINS:
            if images is not None:
                raise ValueError("built-in derivations take no image table")
            self._images, self._order, self._top = None, range(_MAX_FAMILY_INDEX + 1), 0
        elif kind == CUSTOM:
            if images is None:
                raise ValueError("custom derivation needs an image table")
            for n, img in images.items():
                if img.contains_x:
                    raise ValueError(
                        f"image of x{n} may not contain the indeterminate x"
                    )
            self._images = dict(images)
            self._order = sorted(set(images).union(*map(Poly.variables, images.values())))
            self._top = max([1, *map(Poly.degree, images.values())]) - 1
        else:
            raise ValueError(f"unknown derivation kind: {kind!r}")
        self.kind = kind
        # the lcm of the image denominators; built-in images are integral
        self._den = lcm(*(img.numerators()[1] for img in (self._images or {}).values()))
        self._bits = -1  # the field width; the first call sets it, _keys and _packed

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

        Each (term, image term) pair adds num * e * c at the packed key
        key(m) - unit(v) + key(image monomial) (see the module docstring);
        the nonzero sums are unpacked once.  Images over d are read scaled
        by den/d, den the lcm of the table's denominators (1 for the
        built-ins), so the result is over den times p's.
        """
        if p.contains_x:
            raise ValueError(
                "derivations act on generator polynomials; found x"
            )
        nums, p_den = p.numerators()
        if (bits := (p.degree() + self._top).bit_length()) > self._bits:  # fields <= deg + _top
            # _keys: monomial -> key; _packed: v -> (unit key of x_v, image keys, numerators)
            self._bits, self._keys, self._packed = bits, {}, {}
        bits, keys, order, table = self._bits, self._keys, self._order, self._packed
        # every new generator's image is fetched, which checks its index, before any shift
        fresh = [(v, self.image(v).numerators())
                 for v in dict.fromkeys(v for m in nums for v, _ in m) if v not in table]
        for v, (img, den) in fresh:  # one key int per monomial, shared by the images
            keys.update((m, sum(e << bits * bisect_left(order, w) for w, e in m))
                        for m in (((v, 1),), *img) if m not in keys)
            scale = self._den // den  # 1 shares the image's own ints
            coeffs = tuple(img.values() if scale == 1 else (c * scale for c in img.values()))
            table[v] = keys[((v, 1),)], tuple(map(keys.__getitem__, img)), coeffs
        acc: dict[int, int] = {}
        get = acc.get
        for mono, num in nums.items():
            key = sum(e * table[v][0] for v, e in mono)
            for v, e in mono:
                unit, img_keys, coeffs = table[v]
                base, f = key - unit, num * e
                for k, c in zip(img_keys, coeffs):
                    k += base
                    acc[k] = get(k, 0) + f * c
        mask, out = (1 << bits) - 1, {}
        for k, c in acc.items():
            if c:
                factors = []
                while k:  # one step per factor: the field of the lowest set bit
                    shift = ((k & -k).bit_length() - 1) // bits * bits
                    factors.append((order[shift // bits], k >> shift & mask))
                    k -= factors[-1][1] << shift
                out[tuple(factors)] = c
        return Poly._make(out, p_den * self._den)

    def power(self, p: Poly, k: int) -> Poly:
        """k-fold application; k = 0 returns p unchanged.  An application that
        would touch more than _MAX_LEIBNIZ_PAIRS pairs raises ValueError first."""
        if k < 0:
            raise ValueError("power must be >= 0")
        out = p
        for _ in range(k):
            if out.is_zero():
                break
            # x is skipped: __call__ rejects it with its own message
            pairs = sum(len(self.image(v)) for m in out.numerators()[0] for v, _ in m if v != X)
            if pairs > _MAX_LEIBNIZ_PAIRS:
                raise ValueError(
                    f"the next application would touch {pairs} (term, image term) pairs, "
                    f"past the derivation pair limit {_MAX_LEIBNIZ_PAIRS}"
                )
            out = self(out)
        return out


def kernel_member(d: Derivation, p: Poly) -> bool:
    """True iff the derivation annihilates p."""
    return d(p).is_zero()
