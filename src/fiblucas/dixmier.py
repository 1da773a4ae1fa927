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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .derivops import Derivation
from .exactnum import binomial
from .families import FIBONACCI, LUCAS
from .polyring import Poly, divide_by_generator, mono_from_exps, var_name

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
# Size limits, rejected up front rather than run for minutes.  C_n has
# about n^2/4 terms.  At the limits, on CPython 3.11 and a 2-vCPU x86-64
# VM, `cayley --route both` takes about 2 s, `scan` about 7 s, and
# `identity` on x_1000 about 4 s, nearly all of it building the family
# polynomial.  C_n uses generators up to x_n, so every Cayley element
# stays within the index limit that identity.phi_subst enforces, and
# within its degree limit: the substituted C_n has degree at most n.
_MAX_CAYLEY_N = 150
_MAX_FAMILY_INDEX = 1000
_MAX_SUBST_DEGREE = 1000


@dataclass(frozen=True)
class Slice:
    """A polynomial h together with image = D(h), where D^2(h) = 0."""

    h: Poly
    image: Poly


def fibonacci_slice() -> Slice:
    return Slice(Poly.gen(2), Poly.gen(1))


def lucas_slice() -> Slice:
    return Slice(Poly.gen(1), Poly.gen(0))


@dataclass(frozen=True)
class LocalizedPoly:
    """numerator / x_{denom_var}^denom_power, with the power minimal."""

    numerator: Poly
    denom_var: int
    denom_power: int

    def __str__(self) -> str:
        if self.denom_power == 0:
            return str(self.numerator)
        denom = var_name(self.denom_var)
        if self.denom_power > 1:
            denom = f"{denom}^{self.denom_power}"
        return f"({self.numerator}) / {denom}"


def _single_generator_term(p: Poly) -> tuple[Fraction, int] | None:
    """Decompose p as c * x_j (exponent exactly one), else None."""
    terms = list(p.items())
    if len(terms) != 1:
        return None
    (mono, c) = terms[0]
    if len(mono) != 1:
        return None
    (v, e) = mono[0]
    if e != 1 or v < 0:
        return None
    return c, v


def dixmier_sigma(d: Derivation, s: Slice, n: int) -> LocalizedPoly:
    """sigma(x_n) = sum_k D^k(x_n) lambda^k / k!, lambda = -h/D(h).

    Returned over a minimal power of the slice's denominator generator.
    Requires the slice invariant (D(h) = image != 0, D(image) = 0) and
    an image that is a rational multiple of a single generator.
    """
    if s.image.is_zero() or d(s.h) != s.image or not d(s.image).is_zero():
        raise ValueError("slice invariant violated: need D(h) = image != 0 and D(image) = 0")
    decomp = _single_generator_term(s.image)
    if decomp is None:
        raise ValueError("slice image must be a rational multiple of a single generator")
    c, j = decomp

    powers = [Poly.gen(n)]
    while not powers[-1].is_zero():
        if len(powers) > _NILPOTENCY_CAP:
            raise ValueError(f"derivation does not look locally nilpotent on x{n}")
        powers.append(d(powers[-1]))
    kmax = len(powers) - 2  # last nonzero index

    neg_h = -s.h
    xj = Poly.gen(j)
    num = Poly.zero()
    for k in range(kmax + 1):
        scale = Fraction(1, factorial(k)) / (c ** k)
        num = num + scale * powers[k] * neg_h ** k * xj ** (kmax - k)

    power = kmax
    while power > 0:
        reduced = divide_by_generator(num, j)
        if reduced is None:
            break
        num = reduced
        power -= 1
    return LocalizedPoly(num, j, power)


def _closed_power_terms(kind: str, n: int, k: int):
    """(subscript, integer coefficient) pairs of D^k(x_n), k >= 0."""
    if k == 0:
        yield n, 1
        return
    lowest = 1 if kind == FIBONACCI else 0
    pref = factorial(k - 1) * (n if kind == LUCAS else 1)
    for i in range((n - k - lowest) // 2 + 1):
        sub = n - k - 2 * i
        coeff = (
            pref
            * (-1) ** i
            * (sub if kind == FIBONACCI else 1)
            * binomial(i + k - 1, k - 1)
            * binomial(n - i - 1, k - 1)
        )
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
    return Poly.from_terms((((sub, 1),), c) for sub, c in _closed_power_terms(kind, n, k))


def _check_cayley_args(kind: str, n: int) -> None:
    if kind == FIBONACCI:
        if n < 3:
            raise ValueError("fibonacci Cayley elements start at n = 3")
    elif kind == LUCAS:
        if n < 1:
            raise ValueError("lucas Cayley elements start at n = 1")
    else:
        raise ValueError(f"Cayley elements exist for fibonacci or lucas, got {kind!r}")
    if n > _MAX_CAYLEY_N:
        raise ValueError(f"Cayley elements are limited to n <= {_MAX_CAYLEY_N}, got n = {n}")


def cayley_closed(kind: str, n: int) -> Poly:
    """The Cayley kernel element C_n from its closed formula."""
    _check_cayley_args(kind, n)
    if kind == LUCAS and n == 1:
        return Poly.gen(0)
    h, g = (2, 1) if kind == FIBONACCI else (1, 0)
    t = n - h  # n-2 (fibonacci), n-1 (lucas)
    terms = []
    for k in range(t + 2):
        scale = Fraction((-1) ** k, factorial(k))
        for sub, c in _closed_power_terms(kind, n, k):
            exps = {h: k, g: t - k}
            exps[sub] = exps.get(sub, 0) + 1
            terms.append((mono_from_exps(exps), scale * c))
    return Poly.from_terms(terms)


def cayley_constructive(kind: str, n: int) -> Poly:
    """C_n built by clearing denominators of sigma(x_n).

    Multiplies by the fixed normalization x_1^{n-2} (fibonacci) or
    x_0^{n-1} (lucas) so the result matches cayley_closed exactly.
    """
    _check_cayley_args(kind, n)
    if kind == FIBONACCI:
        sig = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), n)
        target = n - 2
    else:
        if n == 1:
            return Poly.gen(0)  # sigma(x_1) degenerates to 0
        sig = dixmier_sigma(Derivation.lucas(), lucas_slice(), n)
        target = n - 1
    if sig.denom_power > target:
        raise ValueError(
            f"sigma denominator x{sig.denom_var}^{sig.denom_power} exceeds normalization {target}"
        )
    return sig.numerator * Poly.gen(sig.denom_var) ** (target - sig.denom_power)
