import pytest

from fiblucas.derivops import Derivation, kernel_member
from fiblucas.dixmier import (
    _MAX_CAYLEY_N,
    Slice,
    cayley_closed,
    cayley_constructive,
    dixmier_sigma,
    fibonacci_slice,
    lucas_slice,
)
from fiblucas.polyring import Poly


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


def test_localized_poly_str():
    sig = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), 3)
    assert str(sig) == "(x1*x3 - x2^2) / x1"
    triv = dixmier_sigma(Derivation.fibonacci(), fibonacci_slice(), 1)
    assert str(triv) == "x1"
