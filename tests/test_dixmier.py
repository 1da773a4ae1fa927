from fractions import Fraction
from math import comb, factorial, gcd
from time import perf_counter

import pytest

from fiblucas.derivops import Derivation, kernel_member
from fiblucas.dixmier import (
    _MAX_CAYLEY_N,
    LocalizedPoly,
    _cayley_groups,
    cayley_closed,
    cayley_constructive,
    dixmier_sigma,
)
from fiblucas.polyring import Poly, divide_by_generator, mono_from_exps


def g(n):
    return Poly.gen(n)


def t(c, exps):
    return Poly.term(c, exps)


def test_sigma_fibonacci_first_nontrivial():
    sig = dixmier_sigma(Derivation.fibonacci(), g(2), 3)
    assert sig.numerator == g(3) * g(1) - g(2) ** 2
    assert sig.denom_var == 1
    assert sig.denom_power == 1


def test_sigma_lucas_first_nontrivial():
    sig = dixmier_sigma(Derivation.lucas(), g(1), 2)
    assert sig.numerator == g(2) * g(0) - g(1) ** 2
    assert sig.denom_var == 0
    assert sig.denom_power == 1


def test_sigma_fixes_kernel_generators():
    for d, h, n in [
        (Derivation.fibonacci(), g(2), 0),
        (Derivation.fibonacci(), g(2), 1),
        (Derivation.lucas(), g(1), 0),
    ]:
        sig = dixmier_sigma(d, h, n)
        assert sig.numerator == g(n)
        assert sig.denom_power == 0


def test_sigma_numerator_lies_in_kernel():
    # the slice denominators x_1 / x_0 are themselves killed, so the
    # kernel property of sigma passes to the cleared numerator
    for d, h in [
        (Derivation.fibonacci(), g(2)),
        (Derivation.lucas(), g(1)),
    ]:
        for n in range(11):
            assert kernel_member(d, dixmier_sigma(d, h, n).numerator), n


@pytest.mark.parametrize("n", [512, 1000])
def test_sigma_builtin_powers_run_past_the_custom_cap(n):
    # a built-in image lowers every index, so D^(n+1)(x_n) = 0 ends the powers
    # however large n is; D_A^n(x_n) = n! x_0, so sigma(x_n) is over x_0^(n-1)
    d = Derivation.appell()
    t0 = perf_counter()
    sig = dixmier_sigma(d, g(1), n)
    assert kernel_member(d, sig.numerator)
    assert perf_counter() - t0 < 1.0
    assert (sig.denom_var, sig.denom_power) == (0, n - 1)


def test_sigma_rejects_invalid_slices():
    d = Derivation.fibonacci()
    with pytest.raises(ValueError, match="slice invariant"):
        dixmier_sigma(d, g(3), 4)  # D^2(x_3) != 0
    with pytest.raises(ValueError, match="slice invariant"):
        dixmier_sigma(d, g(1), 4)  # D(x_1) = 0


def test_sigma_rejects_composite_slice_image():
    # h = x1 x2 + x2 is a Fibonacci slice, D(h) = x1^2 + x1 and D^2(h) = 0,
    # but its image is no multiple of a single generator
    d = Derivation.fibonacci()
    h = g(1) * g(2) + g(2)
    assert d(h) == g(1) ** 2 + g(1) and d.power(h, 2).is_zero()
    with pytest.raises(ValueError, match="single generator"):
        dixmier_sigma(d, h, 5)


def test_cayley_closed_fibonacci_golden_values():
    assert cayley_closed("fibonacci", 3) == -t(1, {2: 2}) + t(1, {3: 1, 1: 1})
    assert cayley_closed("fibonacci", 4) == (
        t(2, {2: 3}) - t(3, {2: 1, 3: 1, 1: 1}) + t(1, {1: 2, 2: 1}) + t(1, {4: 1, 1: 2})
    )
    assert cayley_closed("fibonacci", 5) == (
        t(-3, {2: 4})
        + t(6, {2: 2, 3: 1, 1: 1})
        - t(1, {1: 2, 2: 2})
        - t(4, {2: 1, 4: 1, 1: 2})
        + t(1, {5: 1, 1: 3})
    )
    assert cayley_closed("fibonacci", 6) == (
        t(4, {2: 5})
        - t(10, {2: 3, 3: 1, 1: 1})
        - t(2, {1: 2, 2: 3})
        + t(10, {2: 2, 4: 1, 1: 2})
        - t(5, {2: 1, 5: 1, 1: 3})
        + t(3, {1: 3, 2: 1, 3: 1})
        - t(1, {1: 4, 2: 1})
        + t(1, {6: 1, 1: 4})
    )


def test_cayley_closed_lucas_golden_values():
    assert cayley_closed("lucas", 1) == g(0)
    assert cayley_closed("lucas", 2) == t(1, {2: 1, 0: 1}) - t(1, {1: 2})
    assert cayley_closed("lucas", 3) == (
        t(2, {1: 3}) + t(3, {1: 1, 0: 2}) - t(3, {1: 1, 2: 1, 0: 1}) + t(1, {3: 1, 0: 2})
    )
    assert cayley_closed("lucas", 4) == (
        t(-3, {1: 4})
        - t(4, {1: 2, 0: 2})
        + t(6, {1: 2, 2: 1, 0: 1})
        - t(4, {1: 1, 3: 1, 0: 2})
        + t(1, {4: 1, 0: 3})
    )
    assert cayley_closed("lucas", 5) == (
        t(4, {1: 5})
        + t(10, {1: 2, 3: 1, 0: 2})
        - t(5, {1: 1, 0: 4})
        - t(5, {1: 1, 4: 1, 0: 3})
        - t(10, {1: 3, 2: 1, 0: 1})
        + t(5, {1: 1, 2: 1, 0: 3})
        + t(1, {5: 1, 0: 4})
    )


def test_constructive_route_matches_closed_route():
    for kind, lo in (("fibonacci", 3), ("lucas", 1)):
        for n in [*range(lo, 16), 30, 40]:
            assert cayley_constructive(kind, n) == cayley_closed(kind, n), (kind, n)


def test_cayley_groups_are_the_constructive_element():
    # the closed formula's Horner groups, read as terms independently of
    # cayley_closed: canonical monomials, none twice, no zero numerator, a
    # reduced denominator, and the constructive route's C_n
    for kind, ns in (("fibonacci", [3, 4, 5, 6, 17, 40, 61, 120]),
                     ("lucas", [1, 2, 3, 4, 5, 18, 41, 120])):
        for n in ns:
            groups, den = _cayley_groups(kind, n)
            terms = [(prefix + f, c) for prefix, factors, coeffs in groups
                     for f, c in zip(factors, coeffs)]
            monos = [m for m, _ in terms]
            assert all(m == mono_from_exps(dict(m)) for m in monos), (kind, n)
            assert len(set(monos)) == len(monos), (kind, n)
            assert all(c for _, c in terms) and gcd(den, *(c for _, c in terms)) == 1
            built = Poly.from_terms((m, Fraction(c, den)) for m, c in terms)
            assert built == cayley_constructive(kind, n), (kind, n)


def test_cayley_elements_lie_in_kernel():
    for kind, lo in (("fibonacci", 3), ("lucas", 1)):
        d = Derivation(kind)
        for n in range(lo, 16):
            assert kernel_member(d, cayley_closed(kind, n)), (kind, n)


def test_cayley_leading_structure():
    for n in range(3, 16):
        assert cayley_closed("fibonacci", n).coefficient({n: 1, 1: n - 2}) == 1
    for n in range(2, 16):
        assert cayley_closed("lucas", n).coefficient({n: 1, 0: n - 1}) == 1


def test_cayley_bounds_rejected():
    with pytest.raises(ValueError):
        cayley_closed("fibonacci", 2)
    with pytest.raises(ValueError):
        cayley_closed("lucas", 0)
    with pytest.raises(ValueError):
        cayley_constructive("fibonacci", 1)
    with pytest.raises(ValueError):
        cayley_closed("appell", 3)


def test_cayley_size_limit():
    for kind in ("fibonacci", "lucas"):
        for build in (cayley_closed, cayley_constructive):
            with pytest.raises(ValueError, match="limited to n <= "):
                build(kind, _MAX_CAYLEY_N + 1)
    # the largest size the benchmark builds stays inside the limit
    assert _MAX_CAYLEY_N > 120


def test_localized_poly_record():
    # an immutable named tuple: keyword or positional construction, equality
    # and hashing by fields, no field assignment, the Name(field=value) repr
    loc = LocalizedPoly(numerator=g(3) - g(1) / 2, denom_var=1, denom_power=2)
    assert loc == LocalizedPoly(g(3) - g(1) / 2, 1, 2)
    assert loc != LocalizedPoly(g(3) - g(1) / 2, 1, 3)
    assert hash(loc) == hash(LocalizedPoly(g(3) - g(1) / 2, 1, 2))
    assert repr(loc) == "LocalizedPoly(numerator=Poly(-1/2*x1 + x3), denom_var=1, denom_power=2)"
    assert len({loc, LocalizedPoly(g(3) - g(1) / 2, 1, 2)}) == 1
    with pytest.raises(AttributeError):
        loc.denom_power = 0


# ---- references for the integer Cayley builders ------------------------
#
# Plainer forms of both routes, with the Dixmier weights and the closed
# coefficients written as Fractions: every value must agree exactly.
# They run on the same integer-numerator Poly; the oracle independent of
# Poly is the Fraction-dict one in test_polyring.


def reference_dixmier_sigma(d, h, n):
    """The Dixmier sum with Fraction weights 1/(k! c^k), x_j stripped
    one power at a time."""
    (mono, c), = d(h).items()
    ((j, _),) = mono
    powers = [g(n)]
    while not powers[-1].is_zero():
        powers.append(d(powers[-1]))
    kmax = len(powers) - 2
    num = Poly.zero()
    for k in range(kmax + 1):
        scale = Fraction(1, factorial(k)) / (c ** k)
        num = num + scale * powers[k] * (-h) ** k * g(j) ** (kmax - k)
    power = kmax
    while power > 0:
        reduced = divide_by_generator(num, j)
        if reduced is None:
            break
        num = reduced
        power -= 1
    return LocalizedPoly(num, j, power)


def reference_cayley_closed(kind, n):
    """C_n = sum_k D^k(x_n) (-h)^k g^(t-k) / k! as Fraction terms merged
    by Poly.from_terms, with D^k(x_n) from the closed binomial formula."""
    if kind == "lucas" and n == 1:
        return g(0)
    h, gen = (2, 1) if kind == "fibonacci" else (1, 0)
    t = n - h
    terms = [(mono_from_exps({n: 1, gen: t}), Fraction(1))]
    lowest = 1 if kind == "fibonacci" else 0
    for k in range(1, t + 2):
        scale = Fraction((-1) ** k, factorial(k))
        pref = factorial(k - 1) * (n if kind == "lucas" else 1)
        for i in range((n - k - lowest) // 2 + 1):
            sub = n - k - 2 * i
            coeff = (pref * (-1) ** i * (sub if kind == "fibonacci" else 1)
                     * comb(i + k - 1, k - 1) * comb(n - i - 1, k - 1))
            exps = {h: k, gen: t - k}
            exps[sub] = exps.get(sub, 0) + 1
            terms.append((mono_from_exps(exps), scale * coeff))
    return Poly.from_terms(terms)


def assert_minimal(sig):
    """The denominator power is minimal: zero, or some numerator term
    lacks x_j."""
    assert sig.denom_power >= 0
    if sig.denom_power:
        assert any(all(v != sig.denom_var for v, _ in m) for m, _ in sig.numerator.items())


@pytest.mark.parametrize("kind", ["fibonacci", "lucas"])
def test_cayley_closed_matches_fraction_reference(kind):
    for n in range(3 if kind == "fibonacci" else 1, _MAX_CAYLEY_N + 1):
        assert cayley_closed(kind, n) == reference_cayley_closed(kind, n), (kind, n)


SMALL = range(41)
# (derivation, slice h, n values): the Fibonacci, Lucas and Appell pairs
# up to n = 40 and at n = 120, and slices whose h has several terms or
# whose image is a non-unit or rational multiple of x_j
SIGMA_CASES = {
    "fibonacci": (Derivation.fibonacci(), g(2), [*SMALL, 120]),
    "lucas": (Derivation.lucas(), g(1), [*SMALL, 120]),
    "appell": (Derivation.appell(), g(1), [*SMALL, 120]),
    "appell-x1/3": (Derivation.appell(), g(1) / 3, [*SMALL, 120]),
    "appell-x1+x0": (Derivation.appell(), g(1) + g(0), SMALL),
    "appell-3x1+7x0": (Derivation.appell(), 3 * g(1) + 7 * g(0), SMALL),
    "fibonacci-x2/2+x1": (Derivation.fibonacci(), g(2) / 2 + g(1), range(25)),
    "lucas-5x1-x0/4": (Derivation.lucas(), 5 * g(1) - g(0) / 4, range(25)),
}


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_dixmier_sigma_matches_fraction_reference(case):
    d, h, ns = SIGMA_CASES[case]
    for n in ns:
        sig = dixmier_sigma(d, h, n)
        assert sig == reference_dixmier_sigma(d, h, n), (case, n)
        assert_minimal(sig)


def test_dixmier_sigma_on_rational_custom_derivations():
    # rational slices of the built-ins: lambda = -h/D(h) has a rational
    # coefficient, so every term of the sum has its own denominator
    fib, lucas, appell = Derivation.fibonacci(), Derivation.lucas(), Derivation.appell()
    for d, h in (
        (fib, Fraction(3, 5) * g(2)),
        (fib, Fraction(3, 5) * g(2) - Fraction(1, 3) * g(1)),
        (lucas, Fraction(-2, 7) * g(1)),
        (lucas, Fraction(-2, 7) * g(1) + Fraction(5, 2) * g(0)),
        (appell, Fraction(7, 4) * g(1) - Fraction(1, 9) * g(0)),
    ):
        for n in range(13):
            sig = dixmier_sigma(d, h, n)
            assert sig == reference_dixmier_sigma(d, h, n), (d, h, n)
            assert_minimal(sig)
            assert kernel_member(d, sig.numerator)


def test_dixmier_sigma_zero_sum():
    # sigma(x_1) = x_1 - D(x_1) x_1 / x_0 = 0 on the Lucas slice
    sig = dixmier_sigma(Derivation.lucas(), g(1), 1)
    assert sig == LocalizedPoly(Poly.zero(), 0, 0)
    assert sig == reference_dixmier_sigma(Derivation.lucas(), g(1), 1)


def test_dixmier_sigma_keeps_x_j_factors_past_the_denominator():
    # sigma(x_0) = x_0 on the Lucas slice: the numerator is divisible by
    # x_0, but the denominator power cannot go below zero
    sig = dixmier_sigma(Derivation.lucas(), g(1), 0)
    assert sig == LocalizedPoly(g(0), 0, 0)
