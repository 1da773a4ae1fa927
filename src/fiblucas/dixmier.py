"""Kernel elements of the Fibonacci and Lucas derivations.

Two independent constructions of the same polynomials are provided.

Constructive route: a slice is a polynomial h with D(h) != 0 and
D^2(h) = 0; with lambda = -h/D(h) the map

    sigma(x_n) = sum_k D^k(x_n) * lambda^k / k!

(a finite sum, by local nilpotency) lands in the kernel of D extended
to the localization at D(h).  A slice is passed as the one Poly h:
dixmier_sigma computes D(h) itself and takes h when D(h) = c x_j, a
rational multiple of a single generator, so that sigma(x_n) is a
polynomial over a power of x_j.  The slices used here are h = x_2 for
the Fibonacci derivation (D(x_2) = x_1) and h = x_1 for the Lucas one
(D(x_1) = x_0).  Clearing the power (x_1^{n-2}, resp. x_0^{n-1})
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

The closed route is one walk, _cayley_groups, that yields C_n as Horner
groups of integer numerators: cayley_closed merges them into one Poly,
and the conjecture scan substitutes them as they are.  The constructive
route is plain Poly arithmetic, which is integer arithmetic inside.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, gcd, lcm

from .derivops import Derivation
from .exactnum import binomial
from .families import FIBONACCI, LUCAS, _check_kind
from .polyring import Poly, _check_index, divide_by_generator, mono_mul, mul_into

__all__ = [
    "closed_power_on_generator",
    "LocalizedPoly",
    "dixmier_sigma",
    "cayley_closed",
    "cayley_constructive",
]

# Size limit, rejected up front rather than run for minutes.  C_n has
# about n^2/4 terms.  At the limit, on CPython 3.11 and a 2-vCPU x86-64
# VM, `cayley --route both` takes about 0.25 s and `scan` about 1.5 s.
# C_n uses generators up to x_n, so every Cayley element stays within
# the index limit and within identity's substituted degree limit: the
# substituted C_n has degree at most n.
_MAX_CAYLEY_N = 150


class LocalizedPoly(namedtuple("LocalizedPoly", "numerator denom_var denom_power")):
    """numerator / x_{denom_var}^denom_power, with the power minimal;
    an immutable named tuple of a `Poly` and two ints."""

    __slots__ = ()


def dixmier_sigma(d: Derivation, h: Poly, n: int) -> LocalizedPoly:
    """sigma(x_n) = sum_k D^k(x_n) lambda^k / k!, lambda = -h/D(h).

    h must be a slice whose image is a rational multiple of a single
    generator: D(h) = c * x_j != 0 and D^2(h) = 0.  Returned over a
    minimal power of x_j.  The sum
    x_j^kmax sigma = sum_k D^k(x_n) (-h)^k x_j^(kmax-k) / (k! c^k)
    is accumulated into one dict over one denominator; x_j is then divided
    out once, to the least power it has in any term (at most kmax).
    """
    image = d(h)
    if image.is_zero() or not d(image).is_zero():
        raise ValueError("slice invariant violated: need D(h) != 0 and D^2(h) = 0")
    terms = list(image.items())
    if len(terms) != 1 or len(terms[0][0]) != 1 or terms[0][0][0][1] != 1:
        raise ValueError("slice image must be a rational multiple of a single generator")
    (((j, _),), c) = terms[0]

    # an image lowers every index, so D^(n+1)(x_n) = 0 ends the powers
    powers = [Poly.gen(n)]
    while not powers[-1].is_zero():
        powers.append(d(powers[-1]))
    kmax = len(powers) - 2  # last nonzero index

    neg_h = -h
    parts, weight = [], Poly.one()  # weight = (-h)^k / (k! c^k)
    for k in range(kmax + 1):
        if k:
            weight = weight * neg_h / (k * c)
        (wn, wd), (pn, pd) = weight.numerators(), powers[k].numerators()
        shift = ((j, kmax - k),) if k < kmax else ()
        parts.append((pn, [(mono_mul(m, shift), a) for m, a in wn.items()], pd * wd))
    den = lcm(*(part_den for _, _, part_den in parts))
    total = {}
    for pn, wterms, part_den in parts:
        scale = den // part_den
        mul_into(total, pn.items(), [(m, a * scale) for m, a in wterms])

    strip = min([kmax, *(next((e for v, e in m if v == j), 0) for m in total)])
    total = Poly._make(total, den)
    return LocalizedPoly(divide_by_generator(total, j, strip) if strip else total, j, kmax - strip)


def _closed_power_terms(kind: str, n: int, k: int) -> list[int]:
    """The integer coefficients of x_{n-k}, x_{n-k-2}, ... in D^k(x_n) / (k-1)!
    (k >= 1), down to the lowest valid subscript.  None is zero: the
    binomials are positive, and so is sub (fibonacci) or n (lucas; n = 0
    has no terms)."""
    lowest = 1 if kind == FIBONACCI else 0
    # C(i+k-1, k-1) C(n-i-1, k-1), times n for lucas, updated with i
    ab = binomial(n - 1, k - 1) * (n if kind == LUCAS else 1)
    coeffs = []
    for i in range((n - k - lowest) // 2 + 1):
        if i:
            ab = ab * ((i + k - 1) * (n - i - k + 1)) // (i * (n - i))
        c = ab * (n - k - 2 * i) if kind == FIBONACCI else ab
        coeffs.append(-c if i & 1 else c)
    return coeffs


def closed_power_on_generator(kind: str, n: int, k: int) -> Poly:
    """D^k(x_n) straight from the closed formula (k >= 1)."""
    _check_kind(kind, (FIBONACCI, LUCAS))
    if k < 1:
        raise ValueError("closed power formula needs k >= 1")
    _check_index(n)
    if k > n:  # every image lowers the index
        return Poly.zero()
    return Poly.from_terms(
        (((n - k - 2 * i, 1),), factorial(k - 1) * c)
        for i, c in enumerate(_closed_power_terms(kind, n, k))
    )


def _check_cayley_args(kind: str, n: int) -> None:
    first = {FIBONACCI: 3, LUCAS: 1}[_check_kind(kind, (FIBONACCI, LUCAS))]
    if n < first:
        raise ValueError(f"{kind} Cayley elements start at n = {first}")
    if n > _MAX_CAYLEY_N:
        raise ValueError(f"Cayley elements are limited to n <= {_MAX_CAYLEY_N}, got n = {n}")


def _cayley_groups(kind: str, n: int) -> tuple[list, int]:
    """C_n from its closed formula as Horner groups over one denominator.

    Returns (groups, den) with C_n = sum prefix * factors[i] * coeffs[i] / den
    over the groups (prefix, factors, coeffs); each prefix + factor is a
    distinct canonical monomial.  Group k >= 0 has the prefix x_g^(t-k) x_h^k
    and the linear form of D^k(x_n) in the x_sub, sub > h.  The last
    subscript of each D^k(x_n) (k >= 1) is g or h, and folds into the pure
    slice monomial x_g^(t+1-j) x_h^j, the group (x_g^(t+1-j), [x_h^j], [c]).
    (k-1)! cancels against k!, so over L = lcm(1..t+1) the k-th term's
    numerators are (-1)^k (L/k) c, c in D^k(x_n)/(k-1)!; den is L over the
    gcd of L and all of them, so each c is divided by k once, never scaled
    by L.  Expects arguments that passed _check_cayley_args.
    """
    if kind == LUCAS and n == 1:
        return [((), [((0, 1),)], [1])], 1
    h, g = (2, 1) if kind == FIBONACCI else (1, 0)
    t = n - h  # n-2 (fibonacci), n-1 (lucas)
    scale = common = lcm(*range(1, t + 2))  # L, and the gcd of L and every numerator
    slices = [0] * (t + 2)  # the numerator over L of x_g^(t+1-j) x_h^j at j
    linear = []  # per k, the coefficients of the x_sub, sub > h, in D^k(x_n)/(k-1)!
    for k in range(1, t + 2):
        coeffs = _closed_power_terms(kind, n, k)
        last = n - k - 2 * (len(coeffs) - 1)
        slices[k + (last == h)] += (-1) ** k * (scale // k) * coeffs.pop()
        if coeffs:  # only for k < t, so t-k > 0
            common = gcd(common, scale // k * gcd(*coeffs))
        linear.append(coeffs)
    common = gcd(common, *slices)
    den = scale // common
    factor = [((sub, 1),) for sub in range(n + 1)]  # x_sub, one tuple per subscript
    groups = [(((g, t),), [factor[n]], [den])]  # k = 0: x_g^t x_n
    for k, coeffs in enumerate(linear, 1):
        if coeffs:  # (-1)^k (L/k) c / common = (-1)^k c den / k, exactly
            sign_den = (-1) ** k * den
            groups.append((((g, t - k), (h, k)), factor[n - k:h:-2],
                           [c * sign_den // k for c in coeffs]))
    groups += [(((g, t + 1 - j),) if j <= t else (), [((h, j),)], [c // common])
               for j, c in enumerate(slices) if c]
    return groups, den


def cayley_closed(kind: str, n: int) -> Poly:
    """The Cayley kernel element C_n from its closed formula: the
    Horner groups of _cayley_groups, merged into one Poly."""
    _check_cayley_args(kind, n)
    groups, den = _cayley_groups(kind, n)
    return Poly._make({prefix + f: c for prefix, factors, coeffs in groups
                       for f, c in zip(factors, coeffs)}, den)


def cayley_constructive(kind: str, n: int) -> Poly:
    """C_n as the numerator of sigma(x_n), whose denominator is exactly
    the normalization x_1^{n-2} (fibonacci) or x_0^{n-1} (lucas)."""
    _check_cayley_args(kind, n)
    if kind == LUCAS and n == 1:
        return Poly.gen(0)  # sigma(x_1) degenerates to 0
    sig = dixmier_sigma(Derivation(kind), Poly.gen(2 if kind == FIBONACCI else 1), n)
    target = n - 2 if kind == FIBONACCI else n - 1
    if sig.denom_power != target:
        raise ArithmeticError(f"sigma(x{n}) has denominator power {sig.denom_power}, not {target}")
    return sig.numerator
