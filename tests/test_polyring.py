import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_fraction, random_poly, random_x_poly
from fiblucas.polyring import Poly, PolyMatrix, X, divide_by_generator, mono_from_exps, mono_mul


def g(n):
    return Poly.gen(n)


def test_addition_cancels_into_canonical_form():
    p = (g(1) + g(2)) + (-g(2))
    assert p == g(1)
    assert len(p) == 1


def test_product_and_difference_build_known_kernel_element():
    p = g(1) * g(3) - g(2) ** 2
    assert p == Poly.term(1, {1: 1, 3: 1}) + Poly.term(-1, {2: 2})


def test_zero_is_absorbing():
    rng = random.Random(3)
    for _ in range(20):
        assert 0 * random_poly(rng) == Poly.zero()


def test_ring_axioms_random():
    rng = random.Random(13)
    for _ in range(50):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_scalar_ops_and_pow():
    p = g(0) + 2 * g(1)
    assert p - p == 0
    assert (p / 2) * 2 == p
    assert p ** 0 == Poly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_substitute_is_a_homomorphism():
    rng = random.Random(21)
    for _ in range(100):
        p = random_poly(rng, max_var=4)
        q = random_poly(rng, max_var=4)
        images = {v: random_poly(rng, max_var=3, max_terms=3)
                  for v in range(5)}
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_substitute_identity_map():
    rng = random.Random(22)
    for _ in range(20):
        p = random_poly(rng, max_var=4, allow_x=True)
        images = {v: Poly.gen(v) for v in range(5)}
        assert p.substitute(images) == p


def test_substitute_missing_image_names_the_variable():
    with pytest.raises(ValueError, match="x3"):
        g(3).substitute({0: Poly.one()})


def test_substitute_collapses_kernel_element_to_constant():
    p = g(1) * g(3) - g(2) ** 2
    x = Poly.x()
    out = p.substitute({1: Poly.one(), 2: x, 3: x * x + 1})
    assert out == Poly.one()


def test_substituted_discriminant_core_is_constant():
    # quartic invariant of the cubic, shifted by x3 -> x3 + 3*x1, then
    # evaluated on the Lucas-convention polynomials: collapses to -32
    t = Poly.term
    core = (
        t(6, {0: 1, 1: 1, 2: 1, 3: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {0: 1, 2: 3})
        + t(-1, {0: 2, 3: 2})
    )
    shifted = core.substitute({0: g(0), 1: g(1), 2: g(2), 3: g(3) + 3 * g(1)})
    x = Poly.x()
    values = {0: Poly.one(), 1: x, 2: x * x + 2, 3: x ** 3 + 3 * x}
    assert shifted.substitute(values) == Poly.constant(-32)


def test_diff_x_basics():
    x = Poly.x()
    assert (x * x + 1).diff_x() == 2 * x
    assert Poly.constant(5).diff_x() == 0
    # x^3 + 2x differentiates to 3x^2 + 2 = 3(x^2+1) - 1
    assert (x ** 3 + 2 * x).diff_x() == 3 * (x * x + 1) - 1


def test_diff_x_rejects_generator_variables():
    with pytest.raises(ValueError, match="x2"):
        (Poly.x() + g(2)).diff_x()


def test_diff_x_leibniz_random():
    rng = random.Random(31)
    for _ in range(50):
        p = random_x_poly(rng)
        q = random_x_poly(rng)
        assert (p * q).diff_x() == p.diff_x() * q + p * q.diff_x()


def _perm_det(m: PolyMatrix) -> Poly:
    n = m.rows
    total = Poly.zero()
    for perm in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        prod = Poly.one()
        for r in range(n):
            prod = prod * m.entry(r, perm[r])
        total = total + ((-1) ** inv) * prod
    return total


def test_det_identity_matrix():
    one, zero = Poly.one(), Poly.zero()
    m = PolyMatrix.from_rows(
        [[one if i == j else zero for j in range(3)] for i in range(3)]
    )
    assert m.det() == Poly.one()


def test_det_duplicate_row_is_zero():
    row = [g(0), g(1), g(2)]
    other = [g(3), g(4), g(5)]
    m = PolyMatrix.from_rows([row, other, row])
    assert m.det() == Poly.zero()


def test_det_matches_permutation_expansion_random():
    rng = random.Random(47)
    for _ in range(3):
        entries = [Poly.constant(rng.randint(-5, 5)) for _ in range(16)]
        m = PolyMatrix(4, 4, entries)
        assert m.det() == _perm_det(m)
    m = PolyMatrix(3, 3, [random_poly(rng, max_var=2, max_terms=2) for _ in range(9)])
    assert m.det() == _perm_det(m)


def _cubic_resultant_matrix() -> PolyMatrix:
    z = Poly.zero()
    return PolyMatrix.from_rows(
        [
            [g(0), 3 * g(1), 3 * g(2), g(3), z],
            [z, g(0), 3 * g(1), 3 * g(2), g(3)],
            [3 * g(0), 6 * g(1), 3 * g(2), z, z],
            [z, 3 * g(0), 6 * g(1), 3 * g(2), z],
            [z, z, 3 * g(0), 6 * g(1), 3 * g(2)],
        ]
    )


def test_det_of_cubic_resultant_matrix():
    # resultant of the generic cubic and its derivative: the leading
    # coefficient -x0 times 27 times the quartic discriminant invariant
    t = Poly.term
    core = (
        t(6, {0: 1, 1: 1, 2: 1, 3: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {0: 1, 2: 3})
        + t(-1, {0: 2, 3: 2})
    )
    det = _cubic_resultant_matrix().det()
    assert det == _perm_det(_cubic_resultant_matrix())
    assert det == t(-1, {0: 1}) * (27 * core)
    assert -divide_by_generator(det, 0) == 27 * core


def test_divide_by_generator_requires_divisibility():
    assert divide_by_generator(g(0) * g(1) + g(0), 0) == g(1) + 1
    assert divide_by_generator(g(0) + g(1), 0) is None


def test_det_guardrail_and_shape_errors():
    one = Poly.one()
    with pytest.raises(ValueError, match="guardrail"):
        PolyMatrix(9, 9, [one] * 81).det()
    with pytest.raises(ValueError, match="non-square"):
        PolyMatrix(2, 3, [one] * 6).det()
    with pytest.raises(ValueError):
        PolyMatrix(2, 2, [one] * 3)


def test_str_uses_canonical_order():
    assert str(g(1) * g(3) - g(2) ** 2) == "x1*x3 - x2^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly.x() ** 2 - Fraction(1, 2)) == "x^2 - 1/2"
    assert str(-3 * g(0) * g(2) ** 2 + Fraction(1, 2) * g(1) - 5) == "-3*x0*x2^2 + 1/2*x1 - 5"


def test_json_schema_shape():
    p = Poly.term(Fraction(3, 2), {1: 2, X: 1}) + Poly.constant(-1)
    assert p.to_json() == {
        "vars": ["x1", "x"],
        "terms": [
            {"coeff": "3/2", "exps": {"x1": 2, "x": 1}},
            {"coeff": "-1", "exps": {}},
        ],
    }


def test_json_roundtrip_is_bit_exact():
    rng = random.Random(17)
    for _ in range(50):
        p = random_poly(rng, allow_x=True)
        doc = p.to_json()
        q = Poly.from_json(doc)
        assert q == p
        assert json.dumps(q.to_json()) == json.dumps(doc)


def test_json_merges_duplicate_terms():
    doc = {
        "vars": ["x1"],
        "terms": [
            {"coeff": "1/2", "exps": {"x1": 1}},
            {"coeff": "1/2", "exps": {"x1": 1}},
        ],
    }
    assert Poly.from_json(doc) == Poly.gen(1)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"vars": []},
        {"vars": ["y0"], "terms": []},
        {"vars": [], "terms": [{"exps": {}}]},
        {"vars": [], "terms": [{"coeff": "1/0", "exps": {}}]},
        {"vars": [], "terms": [{"coeff": "a", "exps": {}}]},
        {"vars": [], "terms": [{"coeff": "1", "exps": {"x1": 0}}]},
        {"vars": [], "terms": [{"coeff": "1", "exps": {"z": 1}}]},
        {"vars": [], "terms": [{"coeff": 0.1, "exps": {}}]},
        {"vars": [], "terms": [{"coeff": True, "exps": {}}]},
        {"vars": [], "terms": [{"coeff": "1", "exps": {"x1": True}}]},
        {"terms": [], "vars": 5},
        {"terms": [], "vars": [3]},
        {"vars": ["x1"], "terms": [{"coeff": 3, "exps": {"x1": 1}}]},
    ],
)
def test_json_bad_documents_rejected(doc):
    with pytest.raises(ValueError):
        Poly.from_json(doc)


def test_coefficient_lookup_and_degrees():
    p = Poly.term(Fraction(7), {2: 3}) + Poly.term(1, {0: 1, 1: 1})
    assert p.coefficient({2: 3}) == 7
    assert p.coefficient({5: 1}) == 0
    assert p.degree() == 3
    assert p.degree_in(2) == 3
    assert Poly.zero().degree() == -1
    rng = random.Random(5)
    q = random_fraction(rng)
    assert Poly.constant(q).constant_value() == q


def test_mono_mul_matches_merged_exponents():
    # x (id X = -1) sorts last in a canonical monomial, after every generator
    rng = random.Random(13)
    fixed = [(), ((X, 2),), ((0, 1),), ((0, 1), (3, 2), (X, 1))]
    monos = fixed + [
        mono_from_exps({v: rng.randint(1, 4) for v in rng.sample([X, 0, 1, 2, 5, 9, 11], rng.randint(0, 4))})
        for _ in range(40)
    ]
    for a in monos:
        for b in monos:
            merged = dict(a)
            for v, e in b:
                merged[v] = merged.get(v, 0) + e
            assert mono_mul(a, b) == mono_from_exps(merged), (a, b)
    assert mono_mul(((X, 1),), ((2, 1), (7, 3))) == ((2, 1), (7, 3), (X, 1))
