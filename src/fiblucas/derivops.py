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
``bits``-wide field at ``bits * v``, wide enough for the input's degree
and so, as images are linear, for every exponent of the result; ``bits``
is never a multiple of 61.  D(p) = sum_v dp/dx_v D(x_v) is applied by
cofactor: each (term, generator) pair adds num * e at x_v to the linear
form of m / x_v, keyed key(m) - key(x_v).  Each image is an alternating
sum down one parity, so D of a form is a walk down each parity of u:

    lucas:      G_u at x_{u-1},        G_u = u a_u - G_{u+2}
    fibonacci:  (u-1) S_u at x_{u-1},  S_u = a_u - S_{u+2}
    appell:     u a_u at x_{u-1}, one step per v in the form

A call, power and the Dixmier map's powers D^k(x_n) all run one chain,
Derivation._chain, on one layout: images are linear and lower every index,
so the fields and width that hold p hold every D^k(p).  p is read once, for
its top and lowest index and its degree; every index, then the key size, is
checked before any key is built, and p's keys are packed once.  Each step
decodes its keys to monomials and hands both to the next.  The walk steps
(one per u walked, one per Appell pair) of each application, or with power
of all of them so far, are checked once the forms are grouped, before any walk.

Closed forms for the iterated images D^k(x_n) live in dixmier, next
to the Cayley elements built from them.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .families import APPELL, FIBONACCI, LUCAS, _check_kind, derivative_terms
from .polyring import Poly, X, _check_index

__all__ = [
    "Derivation",
    "builtin_image",
    "kernel_member",
]

# Work limit on one call of `__call__`, on each power D^k(x_n) of the Dixmier map,
# or on all the applications of `power`, in walk steps (see the module docstring).  At the limit, on CPython 3.11 and a
# 2-vCPU x86-64 VM, Lucas or Fibonacci D on the 499 terms x_i x1000 (2002-bit
# keys) takes 2.1-2.2 s and 140 MiB peak RSS; times x1000^(2^15) (16 016-bit
# keys), 10.5-11.1 s and 580 MiB.
_MAX_WALK_STEPS = 250_000

# Size limit on the packed keys of one call, checked before any key is
# built: fields^2 * bits, fields the generators up to the highest.  A walk
# from x_v writes about v/2 keys, so this is about twice the key bits one
# input term yields; x1000 takes exponents below 2^16, as in the 16 016-bit
# keys above.  D on the 40 terms x_i x1000^(2^60), at 62 million, takes
# 0.9-1.1 s and 185 MiB.
_MAX_KEY_SIZE = 2**24


# only Derivation.image fills the memo: every image up to the index limit is about 50 MB
@lru_cache(maxsize=1024, typed=True)  # typed: True and 2.0 miss, and reach the index check
def builtin_image(kind: str, n: int) -> Poly:
    """Generator image D(x_n) for one of the built-in derivations."""
    terms = derivative_terms(_check_kind(kind), _check_index(n))
    return Poly.from_terms((((i, 1),), c) for i, c in terms)


def _pack(monos, bits: int) -> dict:
    """monomial -> packed key, x_v's exponent in the bits-wide field at bits * v."""
    return {m: sum(e << bits * v for v, e in m) for m in monos}


def _walk(kind: str, form: dict, us, base: int, units, acc: dict) -> None:
    """Add D of the linear form sum a_v x_v (form) at the cofactor key base
    into acc, over the indices us (see the module docstring)."""
    fib, carry = kind == FIBONACCI, 0 if kind == APPELL else -1
    c = 0  # -G_{u+2} (-S_{u+2}) on entering step u; Appell carries nothing
    for u in us:
        if u in form:
            c += form[u] if fib else u * form[u]
        k = base + units[u - 1]
        acc[k] = acc.get(k, 0) + ((u - 1) * c if fib else c)
        c *= carry


def _images(kind: str, nums: dict, keys: dict, units, spent: int) -> tuple[dict, int]:
    """(packed key -> numerator of D(sum num * m) over nums, spent plus this
    call's walk steps), form by form; keys holds each monomial's key and units
    each generator's.  Past _MAX_WALK_STEPS it raises before any walk runs."""
    forms: dict[tuple[int, int], dict[int, int]] = {}  # (cofactor key, parity of v) -> {v: a_v}
    fib = kind == FIBONACCI
    low = 2 if fib else 1  # the images of lower generators are 0
    for mono, num in nums.items():
        key = keys[mono]
        for v, e in mono:
            if v >= low:
                forms.setdefault((key - units[v], v & 1), {})[v] = num * e
    # a walk runs down one parity to the last nonzero image; Appell's, one step per pair
    walks = [
        (form, form if kind == APPELL else range(max(form), parity if fib else -parity, -2), base)
        for (base, parity), form in forms.items()
    ]
    if (total := spent + sum(len(us) for _, us, _ in walks)) > _MAX_WALK_STEPS:
        raise ValueError(
            f"the derivation would take {total} walk steps in this call, "
            f"past the derivation step limit {_MAX_WALK_STEPS}"
        )
    acc: dict[int, int] = {}
    for form, us, base in walks:
        _walk(kind, form, us, base, units, acc)
    return acc, total


class Derivation:
    """One of the three built-in derivations, by kind.  Instances are immutable
    and hold no other state; images are memoized process-wide."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = _check_kind(kind)

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
        """Apply the Leibniz-linear extension to a generator polynomial, form by form."""
        return next(self._chain(p))[0]

    def _chain(self, p: Poly, cumulative: bool = False) -> Iterator[tuple[Poly, int]]:
        """D(p), D^2(p), ... to the first zero, each with its walk steps, on one key
        layout: images are linear and lower every index, so the fields and widths
        that hold p hold every power.  p is read once, for its top and lowest index
        and its degree; each power's monomials and keys feed the next application.
        Each application is held to _MAX_WALK_STEPS, or with cumulative all of them."""
        nums, den = p.numerators()
        top, low, degree = -1, 0, -1  # low stays 0 unless an index is negative
        for m in nums:
            if m:
                if m[-1][0] > top:
                    top = m[-1][0]
                if m[0][0] < low:
                    low = m[0][0]
                e = 0
                for _, f in m:
                    e += f
                if e > degree:
                    degree = e
            elif degree < 0:
                degree = 0
        if top == X:  # x has the largest id
            raise ValueError("derivations act on generator polynomials; found x")
        bits = degree.bit_length()
        # CPython hashes an int modulo 2^61 - 1, in which 2^61 = 1: at a width that
        # is a multiple of 61 every field weighs 1, and each key hashes to its degree
        bits += bits % 61 == 0
        # every index, then the key size, is checked before any key is built;
        # one field per generator up to the highest: an image lowers the index
        _check_index(low)
        fields = _check_index(top) + 1 if top >= 0 else 0
        if (size := fields * fields * bits) > _MAX_KEY_SIZE:
            raise ValueError(
                f"packed monomial keys of {fields} fields of {bits} bits measure "
                f"fields^2 * bits = {size}, past the derivation key limit {_MAX_KEY_SIZE}"
            )
        keys = _pack(nums, bits)
        units = [1 << bits * v for v in range(fields)]
        mask, spent = (1 << bits) - 1, 0
        while True:
            acc, total = _images(self.kind, nums, keys, units, spent)
            nums, keys = {}, {}
            for k, c in acc.items():
                if c:
                    factors, key = [], k
                    while k:  # one step per factor: the field of the lowest set bit
                        shift = ((k & -k).bit_length() - 1) // bits * bits
                        factors.append((shift // bits, k >> shift & mask))
                        k -= factors[-1][1] << shift
                    m = tuple(factors)
                    nums[m], keys[m] = c, key
            power = Poly._make(nums, den)
            yield power, total - spent
            if not nums:
                return
            nums, den = power.numerators()
            if cumulative:
                spent = total

    def power(self, p: Poly, k: int) -> Poly:
        """k-fold application, k steps of one chain; k = 0 returns p unchanged.
        The application that would take the walk steps of all of them past
        _MAX_WALK_STEPS raises ValueError before it walks."""
        if k < 0:
            raise ValueError("power must be >= 0")
        out = p
        for _, (out, _) in zip(range(k), self._chain(p, cumulative=True)):
            pass
        return out


def kernel_member(d: Derivation, p: Poly) -> bool:
    """True iff the derivation annihilates p."""
    return d(p).is_zero()
