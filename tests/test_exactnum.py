import random
from fractions import Fraction
from math import factorial

import pytest

from fiblucas.exactnum import (
    TruncatedSeries,
    bessel_j0_series,
    bessel_j1_series,
    binomial,
    falling_factorial,
)


def test_binomial_pascal():
    assert binomial(5, 2) == 10


def test_binomial_k_zero_is_one():
    for n in (-7, -1, 0, 3, 25):
        assert binomial(n, 0) == 1


def test_binomial_vanishing_falling_factorial():
    # 4*3*2*1*0*(-1)*(-2) contains the factor zero
    assert binomial(4, 7) == 0
    assert falling_factorial(4, 7) == 0


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-5, -2) == 0
    assert binomial(0, -3) == 0


def test_binomial_negative_n():
    assert binomial(-2, 3) == -4
    assert binomial(-1, 5) == -1
    assert binomial(-3, 2) == 6


def test_falling_factorial_full_length():
    # 6*5*4*3*2 = 6!
    assert falling_factorial(6, 5) == 720


def test_falling_factorial_empty_product():
    for n in (-3, 0, 11):
        assert falling_factorial(n, 0) == 1


def test_falling_factorial_crossing_zero():
    assert falling_factorial(4, 6) == 0


def test_falling_factorial_negative_length_rejected():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_falling_factorial_equals_binomial_times_factorial():
    for n in range(31):
        for a in range(n + 1):
            assert falling_factorial(n, a) == binomial(n, a) * factorial(a)


def test_rational_is_always_reduced():
    r = Fraction(6, -4)
    assert r.denominator > 0
    assert (abs(r.numerator), r.denominator) == (3, 2)
    assert Fraction(0, 7) == Fraction(0, 1)


def test_rational_field_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_series_requires_positive_order():
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_series_rejects_float_coefficients():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5, 1])


def test_series_difference_of_squares():
    a = TruncatedSeries([1, 1, 0])
    b = TruncatedSeries([1, -1, 0])
    assert (a * b).coeffs == (Fraction(1), Fraction(0), Fraction(-1))
    assert repr(a * b) == "TruncatedSeries([Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)])"


def test_series_one_is_multiplicative_identity():
    rng = random.Random(5)
    s = TruncatedSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])
    assert TruncatedSeries.one(8) * s == s
    assert hash(TruncatedSeries.one(8) * s) == hash(s)


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2]) * TruncatedSeries([1, 2, 3])


def test_reciprocal_of_unit_series():
    one = TruncatedSeries.one(4)
    assert one.reciprocal() == one


def test_reciprocal_zero_constant_term_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        TruncatedSeries([0, 1, 2]).reciprocal()


def test_reciprocal_of_j0_series_opening_coefficients():
    r = bessel_j0_series(5).reciprocal()
    assert list(r.coeffs) == [
        Fraction(1),
        Fraction(1),
        Fraction(3, 4),
        Fraction(19, 36),
        Fraction(211, 576),
    ]


def test_reciprocal_of_j1_series_opening_coefficients():
    r = bessel_j1_series(5).reciprocal()
    assert list(r.coeffs) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(7, 144),
        Fraction(13, 960),
    ]


def test_j0_series_times_its_reciprocal_is_one():
    s = bessel_j0_series(7)
    assert s * s.reciprocal() == TruncatedSeries.one(7)


def test_reciprocal_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        order = rng.randint(1, 16)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(1, 9))
        s = TruncatedSeries(coeffs)
        assert s * s.reciprocal() == TruncatedSeries.one(order)
