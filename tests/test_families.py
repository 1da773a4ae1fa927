import pytest

from fiblucas.families import (
    APPELL,
    FIBONACCI,
    LUCAS,
    derivative_rhs,
    family_poly,
    generating_function_coeffs,
    verify_derivative_formula,
)
from fiblucas.polyring import _MAX_INDEX, X, Poly

x = Poly.x()


def test_fibonacci_opening_values():
    assert family_poly(FIBONACCI, 0) == 0
    assert family_poly(FIBONACCI, 1) == 1
    assert family_poly(FIBONACCI, 2) == x
    assert family_poly(FIBONACCI, 3) == x * x + 1
    assert family_poly(FIBONACCI, 4) == x ** 3 + 2 * x


def test_lucas_opening_values():
    # the (1+t^2)/(1-x*t-t^2) expansion forces L_0 = 1, not the classical 2
    assert family_poly(LUCAS, 0) == 1
    assert family_poly(LUCAS, 1) == x
    assert family_poly(LUCAS, 2) == x * x + 2
    assert family_poly(LUCAS, 3) == x ** 3 + 3 * x
    assert family_poly(LUCAS, 4) == x ** 4 + 4 * x ** 2 + 2


def test_appell_monomials():
    assert family_poly(APPELL, 0) == Poly.one()
    assert family_poly(APPELL, 5) == x ** 5
    for n in range(1, 10):
        a = family_poly(APPELL, n)
        assert a.diff_x() == n * family_poly(APPELL, n - 1)


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS])
def test_generating_function_reproduces_recurrence(kind):
    # orders 1..3 are shorter than the numerator and denominator series
    for order in (1, 2, 3, 12):
        coeffs = generating_function_coeffs(kind, order)
        for n in range(order):
            assert coeffs[n] == family_poly(kind, n), (order, n)
        assert all(isinstance(c, Poly) for c in coeffs), order


def test_cold_family_poly_does_not_recurse_deeply():
    family_poly.cache_clear()
    f = family_poly(FIBONACCI, 700)
    assert f.degree() == 699
    assert f.coefficient({X: 699}) == 1
    assert f.coefficient({X: 697}) == 698


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS])
def test_derivative_formula_holds_through_25(kind):
    for n in range(1, 26):
        assert verify_derivative_formula(kind, n)


def test_derivative_formula_smallest_cases():
    # n = 1 Fibonacci: empty sum, F_1' = 0
    assert family_poly(FIBONACCI, 1).diff_x() == 0
    assert verify_derivative_formula(FIBONACCI, 1)
    # n = 4 Fibonacci: 3x^2 + 2 = 3 F_3 - F_1
    assert family_poly(FIBONACCI, 4).diff_x() == 3 * family_poly(FIBONACCI, 3) - 1
    # n = 3 Lucas: 3x^2 + 3 = 3 (L_2 - L_0)
    assert family_poly(LUCAS, 3).diff_x() == 3 * (family_poly(LUCAS, 2) - Poly.one())


def test_degrees():
    for n in range(1, 16):
        assert family_poly(FIBONACCI, n).degree() == n - 1
        assert family_poly(LUCAS, n).degree() == n


def test_family_index_limit():
    before = family_poly.cache_info().currsize
    for kind in (FIBONACCI, LUCAS, APPELL):
        for n in (_MAX_INDEX + 1, 10 ** 5):
            with pytest.raises(ValueError, match=f"^generator x{n} is past the index limit "
                                                 f"{_MAX_INDEX}$"):
                family_poly(kind, n)
    assert family_poly.cache_info().currsize == before


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        family_poly("pell", 2)
    with pytest.raises(ValueError):
        family_poly(FIBONACCI, -1)
    with pytest.raises(ValueError):
        verify_derivative_formula(APPELL, 2)
    with pytest.raises(ValueError):
        generating_function_coeffs(APPELL, 4)
    with pytest.raises(ValueError):
        generating_function_coeffs(FIBONACCI, 0)
    for kind in (FIBONACCI, LUCAS):
        with pytest.raises(ValueError, match="^derivative identity needs n >= 1$"):
            derivative_rhs(kind, 0)
