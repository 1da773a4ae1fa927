import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_fraction, random_poly
from fiblucas.derivops import (
    _MAX_DERIVATION_INDEX,
    Derivation,
    builtin_image,
    kernel_member,
)
from fiblucas.dixmier import cayley_closed, closed_power_on_generator
from fiblucas.families import APPELL, FIBONACCI, LUCAS, family_poly
from fiblucas.identity import phi_subst
from fiblucas.polyring import Poly, mono_decrement, mono_from_exps


def g(n):
    return Poly.gen(n)


# generator images for x_0..x_6, fibonacci and lucas columns
IMAGE_TABLE = {
    (FIBONACCI, 0): Poly.zero(),
    (FIBONACCI, 1): Poly.zero(),
    (FIBONACCI, 2): g(1),
    (FIBONACCI, 3): 2 * g(2),
    (FIBONACCI, 4): 3 * g(3) - g(1),
    (FIBONACCI, 5): 4 * g(4) - 2 * g(2),
    (FIBONACCI, 6): 5 * g(5) - 3 * g(3) + g(1),
    (LUCAS, 0): Poly.zero(),
    (LUCAS, 1): g(0),
    (LUCAS, 2): 2 * g(1),
    (LUCAS, 3): 3 * g(2) - 3 * g(0),
    (LUCAS, 4): 4 * g(3) - 4 * g(1),
    (LUCAS, 5): 5 * g(4) - 5 * g(2) + 5 * g(0),
    (LUCAS, 6): 6 * g(5) - 6 * g(3) + 6 * g(1),
}


def test_generator_image_table():
    for (kind, n), expected in IMAGE_TABLE.items():
        assert builtin_image(kind, n) == expected, (kind, n)


def test_images_match_term_by_term_sums():
    # the images as the sum of their terms, one Poly addition at a time
    for kind in (FIBONACCI, LUCAS):
        for n in range(1, 201):
            expected = Poly.zero()
            for k in range((n - 1) // 2 + 1):
                sub = n - 1 - 2 * k
                coeff = (-1) ** k * (sub if kind == FIBONACCI else n)
                if coeff:
                    expected = expected + Poly.term(coeff, {sub: 1})
            assert builtin_image(kind, n) == expected, (kind, n)


def test_image_index_limit_and_memo_bound():
    for kind in (FIBONACCI, LUCAS, APPELL):
        assert builtin_image(kind, _MAX_DERIVATION_INDEX).generator_vars()
        with pytest.raises(ValueError, match=f"derivation index limit {_MAX_DERIVATION_INDEX}"):
            builtin_image(kind, _MAX_DERIVATION_INDEX + 1)
        with pytest.raises(ValueError, match="derivation index limit"):
            Derivation(kind)(g(_MAX_DERIVATION_INDEX + 1))
    # bounded, and one derivation's images up to the limit fit in the memo
    assert _MAX_DERIVATION_INDEX < builtin_image.cache_info().maxsize <= 1024


def test_appell_images():
    assert builtin_image(APPELL, 0) == 0
    assert builtin_image(APPELL, 1) == g(0)
    assert builtin_image(APPELL, 7) == 7 * g(6)


def test_lucas_images_keep_x0_consistent():
    # the x_0 term of odd-index images is forced by d/dx L_n = n*sum(...)
    # through the family substitution; without it n = 5 would fail
    d = Derivation.lucas()
    for n in range(1, 10):
        lhs = phi_subst("lucas", d.image(n))
        assert lhs == family_poly("lucas", n).diff_x(), n


def test_derive_known_kernel_element():
    assert Derivation.fibonacci()(g(1) * g(3) - g(2) ** 2) == 0


def test_appell_kills_cubic_discriminant_invariant():
    t = Poly.term
    core = (
        t(6, {0: 1, 1: 1, 2: 1, 3: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {0: 1, 2: 3})
        + t(-1, {0: 2, 3: 2})
    )
    assert Derivation.appell()(27 * core) == 0


def test_derive_kills_constants():
    rng = random.Random(9)
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        assert d(Poly.constant(random_fraction(rng))) == 0


def test_derive_power_zero_is_identity():
    rng = random.Random(10)
    d = Derivation.fibonacci()
    for _ in range(10):
        p = random_poly(rng)
        assert d.power(p, 0) == p


def test_derive_power_example():
    # iterate the image table by hand: D(5x5 - 3x3 + x1) = 20x4 - 16x2
    d = Derivation.fibonacci()
    assert d.power(g(6), 2) == 20 * g(4) - 16 * g(2)


def test_fibonacci_nilpotency_on_generators():
    d = Derivation.fibonacci()
    for n in range(1, 11):
        assert d.power(g(n), n) == 0


def test_minimal_nilpotency_index_bounded():
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        for n in range(13):
            p = g(n)
            k = 0
            while not p.is_zero():
                p = d(p)
                k += 1
                assert k <= n + 1, (kind, n)


def test_closed_power_reduces_to_image_at_k_one():
    for kind in (FIBONACCI, LUCAS):
        for n in range(13):
            assert closed_power_on_generator(kind, n, 1) == builtin_image(kind, n)


def test_closed_power_examples():
    assert closed_power_on_generator(FIBONACCI, 6, 2) == 20 * g(4) - 16 * g(2)
    d = Derivation.lucas()
    assert closed_power_on_generator(LUCAS, 5, 2) == d.power(g(5), 2)


def test_closed_power_matches_iterated_application():
    for kind in (FIBONACCI, LUCAS):
        d = Derivation(kind)
        for n in range(1, 13):
            for k in range(1, n + 1):
                expected = d.power(g(n), k)
                assert closed_power_on_generator(kind, n, k) == expected, (kind, n, k)


def test_closed_power_argument_checks():
    with pytest.raises(ValueError):
        closed_power_on_generator(APPELL, 3, 1)
    with pytest.raises(ValueError):
        closed_power_on_generator(FIBONACCI, 3, 0)


def test_kernel_member_examples():
    df = Derivation.fibonacci()
    assert kernel_member(df, g(1) * g(3) - g(2) ** 2)
    assert kernel_member(Derivation.lucas(), g(0))
    for n in range(4, 11):
        p = g(n) - g(2) * g(n - 1) - g(n - 2)
        assert not kernel_member(df, p), n


def test_derive_rejects_the_indeterminate():
    with pytest.raises(ValueError, match="x"):
        Derivation.fibonacci()(Poly.x() + g(2))


def test_custom_derivation():
    d = Derivation.custom({0: Poly.zero(), 1: g(0) ** 2})
    assert d(g(1) * g(1)) == 2 * g(1) * g(0) ** 2
    with pytest.raises(ValueError, match="x5"):
        d(g(5))
    with pytest.raises(ValueError, match="indeterminate"):
        Derivation.custom({1: Poly.x()})
    with pytest.raises(ValueError):
        Derivation(FIBONACCI, images={0: Poly.zero()})
    with pytest.raises(ValueError):
        Derivation("custom")


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_leibniz_and_linearity_random(kind):
    rng = random.Random(hash(kind) % 1000)
    d = Derivation(kind)
    for _ in range(60):
        p = random_poly(rng, max_var=6)
        q = random_poly(rng, max_var=6)
        assert d(p * q) == d(p) * q + p * d(q)
        a = random_fraction(rng)
        b = random_fraction(rng)
        assert d(a * p + b * q) == a * d(p) + b * d(q)


@pytest.mark.parametrize(
    "kind,d",
    [("fibonacci", Derivation.fibonacci()), ("lucas", Derivation.lucas())],
)
def test_substitution_intertwines_derivation_with_ddx(kind, d):
    rng = random.Random(77)
    for _ in range(50):
        p = random_poly(rng, max_var=8)
        assert phi_subst(kind, d(p)) == phi_subst(kind, p).diff_x()


def test_weitzenboeck_style_relation_after_substitution():
    # 2*D(x_n) - x_2*D(x_{n-1}) maps to n*F_{n-1} under the Fibonacci
    # substitution (it is not a generator-ring identity)
    d = Derivation.fibonacci()
    for n in range(2, 13):
        lhs = phi_subst("fibonacci", 2 * d(g(n)) - g(2) * d(g(n - 1)))
        assert lhs == n * family_poly("fibonacci", n - 1), n


# ---- differential check of the integer Leibniz kernel --------------------


def _mono_product(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return mono_from_exps(exps)


def leibniz_reference(d, p):
    """The Fraction Leibniz loop that Derivation.__call__ replaced: every
    product term in Fraction, merged by Poly.from_terms.  Monomials are
    multiplied through mono_from_exps, independently of mono_mul."""

    def terms():
        img_terms = {}
        for mono, c in p.items():
            for v, e in mono:
                img = img_terms.get(v)
                if img is None:
                    img = img_terms[v] = d.image(v)
                if img.is_zero():
                    continue
                rest = mono_decrement(mono, v)
                f = c * e
                for m2, c2 in img.items():
                    yield _mono_product(rest, m2), f * c2

    return Poly.from_terms(terms())


def _wide_fraction(rng):
    # mixed signs, numerators and denominators up to 10^20
    num = rng.randint(-(10 ** rng.randint(0, 20)), 10 ** rng.randint(0, 20))
    return Fraction(num or 1, rng.randint(1, 10 ** rng.randint(0, 20)))


def _wide_poly(rng, max_var, max_terms=8):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.randint(0, max_var)
            exps[v] = exps.get(v, 0) + (rng.randint(20, 60) if rng.random() < 0.1 else rng.randint(1, 3))
        terms.append((mono_from_exps(exps), _wide_fraction(rng)))
    return Poly.from_terms(terms)


def _assert_canonical(p):
    for _, c in p.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def _custom_derivation(rng, max_var):
    # triangular, so power terminates; Fraction images with wide denominators
    images = {0: Poly.zero()}
    for n in range(1, max_var + 1):
        images[n] = _wide_poly(rng, n - 1, max_terms=3)
    return Derivation.custom(images)


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL, "custom"])
def test_integer_leibniz_matches_fraction_reference(kind):
    rng = random.Random(f"leibniz-{kind}")
    max_var = 12
    d = _custom_derivation(rng, max_var) if kind == "custom" else Derivation(kind)
    fixed = [
        Poly.zero(),
        Poly.constant(_wide_fraction(rng)),
        Fraction(-7, 10 ** 20 + 3) * g(max_var) ** 57 + Fraction(5, 3) * g(2) ** 40 * g(max_var),
        Fraction(-13, 29) * (cayley_closed(kind, 12) if kind in (FIBONACCI, LUCAS) else g(12) * g(3))
        + Fraction(17, 31),
    ]
    cases = fixed + [_wide_poly(rng, max_var) for _ in range(60)]
    for p in cases:
        got = d(p)
        assert got == leibniz_reference(d, p), p
        _assert_canonical(got)
    for p in cases[len(fixed):][:8]:
        expected = p
        for k in range(1, 5):
            expected = leibniz_reference(d, expected)
            got = d.power(p, k)
            assert got == expected, (p, k)
            _assert_canonical(got)
