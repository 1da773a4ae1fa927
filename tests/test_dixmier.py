import random
from fractions import Fraction
from math import comb, factorial

import pytest

from fiblucas.derivops import Derivation, kernel_member
from fiblucas.dixmier import (
    _MAX_CAYLEY_N,
    LocalizedPoly,
    Slice,
    cayley_closed,
    cayley_constructive,
    dixmier_sigma,
    fibonacci_slice,
    lucas_slice,
)
from fiblucas.polyring import Poly, divide_by_generator, mono_from_exps


def g(n):
    return Poly.gen(n)


def t(c, exps):
    return Poly.term(c, exps)


def test_sigma_fibonacci_first_nontrivial():
    sig = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), 3)
    assert sig.numerator == g(3) * g(1) - g(2) ** 2
    assert sig.denom_var == 1
    assert sig.denom_power == 1


def test_sigma_lucas_first_nontrivial():
    sig = dixmier_sigma(Derivation.lucas(), lucas_slice(), 2)
    assert sig.numerator == g(2) * g(0) - g(1) ** 2
    assert sig.denom_var == 0
    assert sig.denom_power == 1


def test_sigma_fixes_kernel_generators():
    for d, s, n in [
        (Derivation.fibonacci(), fibonacci_slice(), 0),
        (Derivation.fibonacci(), fibonacci_slice(), 1),
        (Derivation.lucas(), lucas_slice(), 0),
    ]:
        sig = dixmier_sigma(d, s, n)
        assert sig.numerator == g(n)
        assert sig.denom_power == 0


def test_sigma_numerator_lies_in_kernel():
    # the slice denominators x_1 / x_0 are themselves killed, so the
    # kernel property of sigma passes to the cleared numerator
    for d, s in [
        (Derivation.fibonacci(), fibonacci_slice()),
        (Derivation.lucas(), lucas_slice()),
    ]:
        for n in range(11):
            assert kernel_member(d, dixmier_sigma(d, s, n).numerator), n


def test_sigma_rejects_invalid_slices():
    d = Derivation.fibonacci()
    with pytest.raises(ValueError, match="slice invariant"):
        dixmier_sigma(d, Slice(g(3), d.image(3)), 4)  # D^2(x_3) != 0
    with pytest.raises(ValueError, match="slice invariant"):
        dixmier_sigma(d, Slice(g(2), g(5)), 4)  # image mismatch


def test_sigma_rejects_composite_slice_image():
    d = Derivation.custom({0: Poly.zero(), 1: Poly.zero(), 5: g(0) + g(1)})
    with pytest.raises(ValueError, match="single generator"):
        dixmier_sigma(d, Slice(g(5), g(0) + g(1)), 5)


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


def test_slice_and_localized_poly_records():
    # immutable named tuples: keyword or positional construction, equality
    # and hashing by fields, no field assignment, the Name(field=value) repr
    s = Slice(h=g(2), image=g(1))
    assert s == Slice(g(2), g(1)) == fibonacci_slice()
    assert s != lucas_slice()
    assert hash(s) == hash(fibonacci_slice())
    assert repr(s) == "Slice(h=Poly(x2), image=Poly(x1))"
    loc = LocalizedPoly(numerator=g(3) - g(1) / 2, denom_var=1, denom_power=2)
    assert loc == LocalizedPoly(g(3) - g(1) / 2, 1, 2)
    assert loc != LocalizedPoly(g(3) - g(1) / 2, 1, 3)
    assert hash(loc) == hash(LocalizedPoly(g(3) - g(1) / 2, 1, 2))
    assert repr(loc) == "LocalizedPoly(numerator=Poly(-1/2*x1 + x3), denom_var=1, denom_power=2)"
    assert len({s, fibonacci_slice(), loc}) == 2
    with pytest.raises(AttributeError):
        s.h = g(3)
    with pytest.raises(AttributeError):
        loc.denom_power = 0


def test_localized_poly_str():
    sig = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), 3)
    assert str(sig) == "(x1*x3 - x2^2) / x1"
    triv = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), 1)
    assert str(triv) == "x1"


# ---- references for the integer Cayley builders ------------------------
#
# Plainer forms of both routes, with the Dixmier weights and the closed
# coefficients written as Fractions: every value must agree exactly.
# They run on the same integer-numerator Poly; the oracle independent of
# Poly is the Fraction-dict one in test_polyring.


def reference_dixmier_sigma(d, s, n):
    """The Dixmier sum with Fraction weights 1/(k! c^k), x_j stripped
    one power at a time."""
    (mono, c), = s.image.items()
    ((j, _),) = mono
    powers = [g(n)]
    while not powers[-1].is_zero():
        powers.append(d(powers[-1]))
    kmax = len(powers) - 2
    num = Poly.zero()
    for k in range(kmax + 1):
        scale = Fraction(1, factorial(k)) / (c ** k)
        num = num + scale * powers[k] * (-s.h) ** k * g(j) ** (kmax - k)
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


def _slice(h):
    return Slice(h, Derivation.appell()(h))


SMALL = range(41)
# (derivation, slice, n values): the Fibonacci, Lucas and Appell pairs
# up to n = 40 and at n = 120, and slices whose h has several terms or
# whose image is a non-unit or rational multiple of x_j
SIGMA_CASES = {
    "fibonacci": (Derivation.fibonacci(), fibonacci_slice(), [*SMALL, 120]),
    "lucas": (Derivation.lucas(), lucas_slice(), [*SMALL, 120]),
    "appell": (Derivation.appell(), lucas_slice(), [*SMALL, 120]),
    "appell-x1/3": (Derivation.appell(), _slice(g(1) / 3), [*SMALL, 120]),
    "appell-x1+x0": (Derivation.appell(), _slice(g(1) + g(0)), SMALL),
    "appell-3x1+7x0": (Derivation.appell(), _slice(3 * g(1) + 7 * g(0)), SMALL),
    "fibonacci-x2/2+x1": (Derivation.fibonacci(), Slice(g(2) / 2 + g(1), g(1) / 2), range(25)),
    "lucas-5x1-x0/4": (Derivation.lucas(), Slice(5 * g(1) - g(0) / 4, 5 * g(0)), range(25)),
}


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_dixmier_sigma_matches_fraction_reference(case):
    d, s, ns = SIGMA_CASES[case]
    for n in ns:
        sig = dixmier_sigma(d, s, n)
        assert sig == reference_dixmier_sigma(d, s, n), (case, n)
        assert_minimal(sig)


def test_dixmier_sigma_on_rational_custom_derivations():
    # triangular images with Fraction and nonlinear terms, so every
    # D^k(x_n) has its own denominator and monomials of several variables
    rng = random.Random(20121)
    for _ in range(12):
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
        images = {0: Poly.zero(), 1: c * g(0)}
        for v in range(2, 7):
            img = Poly.zero()
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randrange(v), rng.randrange(v)
                coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                img = img + coeff * (g(a) if rng.random() < 0.6 else g(a) * g(b))
            images[v] = img
        d = Derivation.custom(images)
        for h in (g(1), g(1) / 3 + 2 * g(0)):
            s = Slice(h, d(h))
            for n in range(7):
                sig = dixmier_sigma(d, s, n)
                assert sig == reference_dixmier_sigma(d, s, n), (images, h, n)
                assert_minimal(sig)
                assert kernel_member(d, sig.numerator)


def test_dixmier_sigma_zero_sum():
    # sigma(x_1) = x_1 - D(x_1) x_1 / x_0 = 0 on the Lucas slice
    sig = dixmier_sigma(Derivation.lucas(), lucas_slice(), 1)
    assert sig == LocalizedPoly(Poly.zero(), 0, 0)
    assert sig == reference_dixmier_sigma(Derivation.lucas(), lucas_slice(), 1)


def test_dixmier_sigma_keeps_x_j_factors_past_the_denominator():
    # sigma(x_0) = x_0 on the Lucas slice: the numerator is divisible by
    # x_0, but the denominator power cannot go below zero
    sig = dixmier_sigma(Derivation.lucas(), lucas_slice(), 0)
    assert sig == LocalizedPoly(g(0), 0, 0)
