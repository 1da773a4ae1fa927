import json
import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from conftest import random_fraction, random_poly, random_terms, random_x_poly
from fiblucas.derivops import Derivation
from fiblucas.polyring import (
    Poly,
    PolyMatrix,
    X,
    divide_by_generator,
    mono_from_exps,
    mono_mul,
    var_name,
)


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
        # one name per generator, in ASCII digits: x01 would alias x1
        {"vars": [], "terms": [{"coeff": "1", "exps": {"x1": 1, "x01": 2}}]},
        {"vars": ["x00"], "terms": []},
        {"vars": ["x\u0661"], "terms": []},
        {"vars": [], "terms": [{"coeff": "1", "exps": {"x\u00b2": 1}}]},
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


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Poly.constant(0.1), TypeError),
        (lambda: Poly.term(0.5, {0: 1}), TypeError),
        (lambda: Poly.term(1, {0: 1.5}), ValueError),
        (lambda: Poly.term(1, {0: True}), ValueError),
        (lambda: mono_from_exps({2: 2.0}), ValueError),
    ],
)
def test_inexact_coefficients_and_exponents_rejected(build, error):
    with pytest.raises(error):
        build()


# ---- Poly against a plain Fraction-dict oracle --------------------------
#
# The oracle shares no code with Poly: a polynomial is a dict from
# plainly sorted (variable, exponent) tuples to nonzero Fractions, built
# from the same random terms as the Poly under test.


def _ref(terms):
    out = {}
    for exps, c in terms:
        k = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[k] = out.get(k, 0) + c
    return {k: Fraction(c) for k, c in out.items() if c}


def _ref_terms(a):
    return [(dict(k), c) for k, c in a.items()]


def _ref_scale(a, c):
    return _ref([(e, v * c) for e, v in _ref_terms(a)])


def _ref_mul(a, b):
    terms = []
    for e1, c1 in _ref_terms(a):
        for k2, c2 in b.items():
            exps = dict(e1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            terms.append((exps, c1 * c2))
    return _ref(terms)


def _ref_pow(a, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, images):
    out = {}
    for k, c in a.items():
        t = {(): c}
        for v, e in k:
            t = _ref_mul(t, _ref_pow(images.get(v, {((X, 1),): Fraction(1)}), e))
        out = _ref(_ref_terms(out) + _ref_terms(t))
    return out


def _ref_derive(images, a):
    """Leibniz rule on a dict polynomial, images given as dicts."""
    terms = []
    for k, c in a.items():
        for v, e in k:
            for k2, c2 in images[v].items():
                exps = dict(k)
                exps[v] -= 1
                for w, f in k2:
                    exps[w] = exps.get(w, 0) + f
                terms.append((exps, c * e * c2))
    return _ref(terms)


def _as_ref(p):
    out = {}
    for m, c in p.items():
        assert type(c) is Fraction and c != 0
        out[tuple(sorted(m))] = c
    return out


def _assert_primitive(p):
    nums, den = p.numerators()
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert gcd(den, *nums.values()) == 1


def _from_terms(terms):
    return sum((Poly.term(c, exps) for exps, c in terms), Poly.zero())


def test_poly_matches_fraction_dict_oracle():
    rng = random.Random(8080)
    for _ in range(150):
        tp, tq = random_terms(rng, allow_x=True), random_terms(rng, allow_x=True)
        p, q, P, Q = _from_terms(tp), _from_terms(tq), _ref(tp), _ref(tq)
        c = random_fraction(rng) or Fraction(1, 7)
        k = rng.randint(0, 4)
        images = {v: random_terms(rng, max_var=3, max_degree=2, max_terms=3) for v in range(6)}
        cases = {
            "build": (p, P),
            "+": (p + q, _ref(tp + tq)),
            "-": (p - q, _ref(tp + _ref_terms(_ref_scale(Q, -1)))),
            "neg": (-p, _ref_scale(P, -1)),
            "*": (p * q, _ref_mul(P, Q)),
            "/": (p / c, _ref_scale(P, 1 / c)),
            "**": (p ** k, _ref_pow(P, k)),
            "substitute": (
                p.substitute({v: _from_terms(t) for v, t in images.items()}),
                _ref_substitute(P, {v: _ref(t) for v, t in images.items()}),
            ),
            "json": (Poly.from_json(json.loads(json.dumps(p.to_json()))), P),
        }
        for name, (got, want) in cases.items():
            _assert_primitive(got)
            assert _as_ref(got) == want, (name, p, q)
        assert p.constant_value() == P.get((), 0)
        assert p.is_zero() == (not P) and len(p) == len(P)


def test_to_json_matches_fraction_dict_oracle():
    # the coefficient strings are str() of the oracle's Fractions, in the
    # order of sorted_terms, byte for byte; big numerators and
    # denominators included
    rng = random.Random(8083)
    for i in range(200):
        scale = Fraction(rng.randint(1, 10 ** (i % 30)), rng.randint(1, 10 ** (i % 25)))
        terms = [(e, c * scale) for e, c in random_terms(rng, allow_x=True)]
        p, P = _from_terms(terms), _ref(terms)
        want = {
            "vars": [var_name(v) for v in sorted(p.variables(), key=lambda v: (v == X, v))],
            "terms": [
                {"coeff": str(P[tuple(sorted(m))]), "exps": {var_name(v): e for v, e in m}}
                for m, _ in p.sorted_terms()
            ],
        }
        assert json.dumps(p.to_json()) == json.dumps(want), p


def test_equal_polys_built_two_ways_hash_equal():
    rng = random.Random(8081)
    for _ in range(100):
        p, q, r = (random_poly(rng, allow_x=True) for _ in range(3))
        for a, b in [
            ((p + q) * r, p * r + q * r),
            (Poly.from_terms(p.items()), p),
            (p * Fraction(2, 3) + p / 3, p),
            ((p * 6) / 6, p),
            (p + q - q, p),
        ]:
            _assert_primitive(a)
            assert a == b and hash(a) == hash(b)


def test_custom_derivation_with_rational_images_matches_oracle():
    images = {
        0: {},
        1: {((0, 1),): Fraction(1, 3)},
        2: {((1, 1),): Fraction(1, 2), ((0, 1),): Fraction(5, 7)},
    }
    d = Derivation.custom({
        v: _from_terms([(dict(k), c) for k, c in img.items()]) for v, img in images.items()
    })
    rng = random.Random(8082)
    for _ in range(100):
        terms = random_terms(rng, max_var=2)
        p, P = _from_terms(terms), _ref(terms)
        for _ in range(3):
            p, P = d(p), _ref_derive(images, P)
            _assert_primitive(p)
            assert _as_ref(p) == P
