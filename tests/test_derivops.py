import random

import pytest

from conftest import random_fraction, random_poly
from fiblucas.derivops import Derivation, builtin_image, kernel_member
from fiblucas.dixmier import closed_power_on_generator
from fiblucas.families import APPELL, FIBONACCI, LUCAS, family_poly
from fiblucas.identity import phi_subst
from fiblucas.polyring import Poly


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
