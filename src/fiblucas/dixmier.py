"""Kernel elements of the Fibonacci and Lucas derivations.

Two independent constructions of the same polynomials are provided.

Constructive route: a slice is a polynomial h with D(h) != 0 and
D^2(h) = 0; with lambda = -h/D(h) the map

    sigma(x_n) = sum_k D^k(x_n) * lambda^k / k!

(a finite sum, by local nilpotency) lands in the kernel of D extended
to the localization at D(h).  The slices used here are h = x_2 for the
Fibonacci derivation (D(x_2) = x_1) and h = x_1 for the Lucas one
(D(x_1) = x_0), so sigma(x_n) is a polynomial divided by a power of a
single generator.  Clearing that power (x_1^{n-2}, resp. x_0^{n-1})
yields the Cayley element C_n.

Closed route: the same Dixmier sum with every D^k(x_n) read off the
closed binomial formula (k >= 1)

    fibonacci: D^k(x_n) = (k-1)! * sum_i (-1)^i (n-k-2i)
                  C(i+k-1, k-1) C(n-i-1, k-1) x_{n-k-2i}
    lucas:     D^k(x_n) = n (k-1)! * sum_i (-1)^i
                  C(i+k-1, k-1) C(n-i-1, k-1) x_{n-k-2i}

(i runs over the subscripts that stay valid: >= 1 for fibonacci, >= 0
for lucas) and D^0(x_n) = x_n, instead of iterating D:

    C_n = sum_{k=0..t+1} D^k(x_n) (-h)^k g^{t-k} / k!

with h = x_2, g = x_1, t = n-2 (fibonacci, n >= 3) and h = x_1,
g = x_0, t = n-1 (lucas, n >= 2; C_1 = x_0 is the degenerate case).
At k = t+1 the only subscript is g's own, so every g exponent is >= 0.

The closed route sums integer numerators per monomial: (k-1)! cancels
against k!, so the k-th term has denominator k, and all terms are
scaled by L = lcm(1..t+1) and handed to Poly over L.  The constructive
route is plain Poly arithmetic, which is integer arithmetic inside.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, lcm

from .derivops import Derivation
from .exactnum import binomial
from .families import FIBONACCI, LUCAS
from .polyring import Poly, var_name

__all__ = [
    "closed_power_on_generator",
    "Slice",
    "LocalizedPoly",
    "fibonacci_slice",
    "lucas_slice",
    "dixmier_sigma",
    "cayley_closed",
    "cayley_constructive",
]

_NILPOTENCY_CAP = 512  # iterations before giving up on termination
# Size limit, rejected up front rather than run for minutes.  C_n has
# about n^2/4 terms.  At the limit, on CPython 3.11 and a 2-vCPU x86-64
# VM, `cayley --route both` takes about 0.4 s and `scan` about 3.5 s.
# C_n uses generators up to x_n, so every Cayley element stays within
# the family index limit and within identity's substituted degree
# limit: the substituted C_n has degree at most n.
_MAX_CAYLEY_N = 150


class Slice(namedtuple("Slice", "h image")):
    """A polynomial h together with image = D(h), where D^2(h) = 0;
    an immutable named tuple of two `Poly`s."""

    __slots__ = ()


def fibonacci_slice() -> Slice:
    return Slice(Poly.gen(2), Poly.gen(1))


def lucas_slice() -> Slice:
    return Slice(Poly.gen(1), Poly.gen(0))


class LocalizedPoly(namedtuple("LocalizedPoly", "numerator denom_var denom_power")):
    """numerator / x_{denom_var}^denom_power, with the power minimal;
    an immutable named tuple of a `Poly` and two ints."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.denom_power == 0:
            return str(self.numerator)
        power = f"^{self.denom_power}" if self.denom_power > 1 else ""
        return f"({self.numerator}) / {var_name(self.denom_var)}{power}"


def dixmier_sigma(d: Derivation, s: Slice, n: int) -> LocalizedPoly:
    """sigma(x_n) = sum_k D^k(x_n) lambda^k / k!, lambda = -h/D(h).

    Returned over a minimal power of the slice's denominator generator.
    Requires the slice invariant (D(h) = image != 0, D(image) = 0) and
    an image c * x_j, a rational multiple of a single generator.  The
    sum x_j^kmax sigma = sum_k D^k(x_n) (-h)^k x_j^(kmax-k) / (k! c^k)
    is built from Poly products; x_j is then stripped in one pass.
    """
    if s.image.is_zero() or d(s.h) != s.image or not d(s.image).is_zero():
        raise ValueError("slice invariant violated: need D(h) = image != 0 and D(image) = 0")
    terms = list(s.image.items())
    if len(terms) != 1 or len(terms[0][0]) != 1 or terms[0][0][0][1] != 1:
        raise ValueError("slice image must be a rational multiple of a single generator")
    (((j, _),), c) = terms[0]

    powers = [Poly.gen(n)]
    while not powers[-1].is_zero():
        if len(powers) > _NILPOTENCY_CAP:
            raise ValueError(f"derivation does not look locally nilpotent on x{n}")
        powers.append(d(powers[-1]))
    kmax = len(powers) - 2  # last nonzero index

    neg_h = -s.h
    total, weight = Poly.zero(), Poly.one()  # weight = (-h)^k / (k! c^k)
    for k in range(kmax + 1):
        if k:
            weight = weight * neg_h / (k * c)
        total = total + powers[k] * (weight * Poly.term(1, {j: kmax - k}))

    # strip the power of x_j that divides every term, at most kmax, in one pass
    nums, den = total.numerators()
    strip = min(kmax, min((dict(m).get(j, 0) for m in nums), default=kmax))
    numerator = Poly._make({
        tuple((v, e - strip) if v == j else (v, e) for v, e in m if v != j or e > strip): t
        for m, t in nums.items()
    }, den)
    return LocalizedPoly(numerator, j, kmax - strip)


def _closed_power_terms(kind: str, n: int, k: int):
    """(subscript, integer coefficient) pairs of D^k(x_n) / (k-1)!, k >= 1."""
    lowest = 1 if kind == FIBONACCI else 0
    pref = n if kind == LUCAS else 1
    a, b = 1, binomial(n - 1, k - 1)  # C(i+k-1, k-1) and C(n-i-1, k-1), updated with i
    for i in range((n - k - lowest) // 2 + 1):
        if i:
            a, b = a * (i + k - 1) // i, b * (n - i - k + 1) // (n - i)
        sub = n - k - 2 * i
        coeff = pref * (-1) ** i * (sub if kind == FIBONACCI else 1) * a * b
        if coeff:
            yield sub, coeff


def closed_power_on_generator(kind: str, n: int, k: int) -> Poly:
    """D^k(x_n) straight from the closed formula (k >= 1)."""
    if kind not in (FIBONACCI, LUCAS):
        raise ValueError(f"closed power formula needs fibonacci or lucas, got {kind!r}")
    if k < 1:
        raise ValueError("closed power formula needs k >= 1")
    if n < 0:
        raise ValueError("generator index must be >= 0")
    return Poly.from_terms(
        (((sub, 1),), factorial(k - 1) * c) for sub, c in _closed_power_terms(kind, n, k)
    )


def _check_cayley_args(kind: str, n: int) -> None:
    first = {FIBONACCI: 3, LUCAS: 1}.get(kind)
    if first is None:
        raise ValueError(f"Cayley elements exist for fibonacci or lucas, got {kind!r}")
    if n < first:
        raise ValueError(f"{kind} Cayley elements start at n = {first}")
    if n > _MAX_CAYLEY_N:
        raise ValueError(f"Cayley elements are limited to n <= {_MAX_CAYLEY_N}, got n = {n}")


def cayley_closed(kind: str, n: int) -> Poly:
    """The Cayley kernel element C_n from its closed formula."""
    _check_cayley_args(kind, n)
    if kind == LUCAS and n == 1:
        return Poly.gen(0)
    h, g = (2, 1) if kind == FIBONACCI else (1, 0)
    t = n - h  # n-2 (fibonacci), n-1 (lucas)
    scale = lcm(*range(1, t + 2))  # L
    # canonical monomials x_g^(t-k) x_h^k x_sub, written as tuples; only a
    # subscript g or h can meet another term's monomial
    acc = {((g, t), (n, 1)): scale}  # k = 0: x_n g^t
    for k in range(1, t + 2):
        step = (-1) ** k * (scale // k)
        base = ((g, t - k), (h, k))  # sub > h only occurs for k < t
        for sub, c in _closed_power_terms(kind, n, k):
            if sub > h:
                acc[base + ((sub, 1),)] = step * c
            else:
                eg, eh = t - k + (sub == g), k + (sub == h)
                m = ((g, eg), (h, eh)) if eg else ((h, eh),)
                acc[m] = acc.get(m, 0) + step * c
    return Poly._make({m: s for m, s in acc.items() if s}, scale)


def cayley_constructive(kind: str, n: int) -> Poly:
    """C_n as the numerator of sigma(x_n), whose denominator is exactly
    the normalization x_1^{n-2} (fibonacci) or x_0^{n-1} (lucas)."""
    _check_cayley_args(kind, n)
    if kind == LUCAS and n == 1:
        return Poly.gen(0)  # sigma(x_1) degenerates to 0
    s = fibonacci_slice() if kind == FIBONACCI else lucas_slice()
    sig = dixmier_sigma(Derivation(kind), s, n)
    target = n - 2 if kind == FIBONACCI else n - 1
    if sig.denom_power != target:
        raise ArithmeticError(f"sigma(x{n}) has denominator power {sig.denom_power}, not {target}")
    return sig.numerator
