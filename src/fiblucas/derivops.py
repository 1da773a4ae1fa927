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
``bits``-wide field at ``bits * v``, so the monomial of a Leibniz pair is
one int addition.  Images are linear, so ``bits`` covers the input's
degree and with it every exponent of the input and the result: no field
carries.  It is never a multiple of 61.  Each instance keeps one packed
table (bits, keys, images), read once per call; a call that needs wider
fields fills new dicts and replaces it whole, so no call mixes two widths.
Keys past _MAX_KEY_SIZE are refused before one is built.

Closed forms for the iterated images D^k(x_n) live in dixmier, next
to the Cayley elements built from them.
"""

from __future__ import annotations

from functools import lru_cache

from .families import APPELL, FIBONACCI, LUCAS, derivative_terms
from .polyring import X, Poly, _check_index

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

_BUILTINS = (FIBONACCI, LUCAS, APPELL)

# Size limit on one call of `power`: the (term, image term) pairs of all
# its applications, summed and checked before each one runs.  At the
# limit, on CPython 3.11 and a 2-vCPU x86-64 VM, applying D to terms of
# D(x1000 x999^2) takes 1.1-1.3 s (3.3-4.0 s times x1000^4096: wider
# keys); C_150, at 149 075 pairs, takes about 0.1 s.
_MAX_LEIBNIZ_PAIRS = 250_000

# Size limit on the packed keys of one call, checked where the field width
# or the table is set up: fields^2 * bits, fields the generators up to the
# highest.  A built-in image of x_v has about v/2 terms, so this is about
# twice the key bits one input term yields.  x1000 takes exponents below
# 2^16.  In a slower run on the same kind of VM, D at the pair limit on
# terms of D(x1000 x999^2) took 2.1 s and 170 MiB, times x1000^(2^15)
# 6.3-6.9 s and 570 MiB; one call on the 40 terms x_i x1000^(2^60), at
# 62 million, took 1.2 s and 183 MiB.
_MAX_KEY_SIZE = 2**24


# the memo holds every image up to the index limit, about 50 MB at 1000
@lru_cache(maxsize=1024)
def builtin_image(kind: str, n: int) -> Poly:
    """Generator image D(x_n) for one of the built-in derivations."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown derivation kind: {kind!r}")
    return Poly.from_terms((((i, 1),), c) for i, c in derivative_terms(kind, _check_index(n)))


def _pack(monos, bits: int) -> dict:
    """monomial -> packed key, x_v's exponent in the bits-wide field at bits * v."""
    return {m: sum(e << bits * v for v, e in m) for m in monos}


class Derivation:
    """One of the three built-in derivations, by kind.  Instances are immutable
    apart from their packed table; images are memoized process-wide."""

    __slots__ = ("kind", "_table")

    def __init__(self, kind: str) -> None:
        if kind not in _BUILTINS:
            raise ValueError(f"unknown derivation kind: {kind!r}")
        self.kind = kind
        # (bits, monomial -> key, v -> (unit key of x_v, image keys, coefficients))
        self._table = (0, {}, {})

    @classmethod
    def fibonacci(cls) -> "Derivation":
        return cls(FIBONACCI)

    @classmethod
    def lucas(cls) -> "Derivation":
        return cls(LUCAS)

    @classmethod
    def appell(cls) -> "Derivation":
        return cls(APPELL)

    def __repr__(self) -> str:
        return f"Derivation({self.kind!r})"

    def image(self, n: int) -> Poly:
        return builtin_image(self.kind, n)

    def __call__(self, p: Poly) -> Poly:
        """Apply the Leibniz-linear extension to a generator polynomial.

        Each (term, image term) pair adds num * e * c at the packed key
        key(m) - unit(v) + key(image monomial) (see the module docstring);
        the nonzero sums are unpacked once, over p's denominator.
        """
        if p.contains_x:
            raise ValueError(
                "derivations act on generator polynomials; found x"
            )
        nums, den = p.numerators()
        bits = p.degree().bit_length()
        # CPython hashes an int modulo 2^61 - 1, in which 2^61 = 1: at a width that
        # is a multiple of 61 every field weighs 1, and each key hashes to its degree
        bits += bits % 61 == 0
        table = self._table  # read once: another call may replace it meanwhile
        grow = bits > table[0]
        bits, keys, packed = (bits, {}, {}) if grow else table
        # every new generator's image is fetched, which checks its index, and the
        # key size is checked, before any key is built
        fresh = [(v, self.image(v).numerators()[0])
                 for v in dict.fromkeys(v for m in nums for v, _ in m) if v not in packed]
        # one field per generator up to the highest new one: an image lowers the index
        fields = max((v for v, _ in fresh), default=-1) + 1
        if (size := fields * fields * bits) > _MAX_KEY_SIZE:
            raise ValueError(
                f"packed monomial keys of {fields} fields of {bits} bits measure "
                f"fields^2 * bits = {size}, past the derivation key limit {_MAX_KEY_SIZE}"
            )
        for v, img in fresh:  # one key int per monomial, shared by the images
            keys.update(_pack([m for m in (((v, 1),), *img) if m not in keys], bits))
            packed[v] = keys[((v, 1),)], tuple(map(keys.__getitem__, img)), tuple(img.values())
        if grow:
            self._table = bits, keys, packed
        acc: dict[int, int] = {}
        get = acc.get
        for mono, num in nums.items():
            key = sum(e * packed[v][0] for v, e in mono)
            for v, e in mono:
                unit, img_keys, coeffs = packed[v]
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
                    factors.append((shift // bits, k >> shift & mask))
                    k -= factors[-1][1] << shift
                out[tuple(factors)] = c
        return Poly._make(out, den)

    def power(self, p: Poly, k: int) -> Poly:
        """k-fold application; k = 0 returns p unchanged.  An application that
        would take this call's pairs past _MAX_LEIBNIZ_PAIRS raises ValueError first."""
        if k < 0:
            raise ValueError("power must be >= 0")
        out, total = p, 0
        for _ in range(k):
            if out.is_zero():
                break
            # x is skipped: __call__ rejects it with its own message
            total += sum(len(self.image(v)) for m in out.numerators()[0] for v, _ in m if v != X)
            if total > _MAX_LEIBNIZ_PAIRS:
                raise ValueError(
                    f"the next application would bring the (term, image term) pairs of "
                    f"this power to {total}, past the derivation pair limit {_MAX_LEIBNIZ_PAIRS}"
                )
            out = self(out)
        return out


def kernel_member(d: Derivation, p: Poly) -> bool:
    """True iff the derivation annihilates p."""
    return d(p).is_zero()
