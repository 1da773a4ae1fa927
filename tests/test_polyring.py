import json
import operator
import random
import re
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd
from time import perf_counter
from typing import Mapping

import pytest

from conftest import random_fraction, random_poly, random_terms, random_x_poly
from fiblucas.derivops import Derivation, builtin_image
from fiblucas.dixmier import cayley_closed
from fiblucas.families import APPELL, FIBONACCI, LUCAS, family_poly, family_values
from fiblucas.polyring import (
    _MAX_INDEX,
    Poly,
    X,
    _mono_sort_key,
    _parse_var,
    det,
    divide_by_generator,
    json_text,
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


def _perm_det(m: list[list[Poly]]) -> Poly:
    n = len(m)
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
            prod = prod * m[r][perm[r]]
        total = total + ((-1) ** inv) * prod
    return total


def test_det_identity_matrix():
    one, zero = Poly.one(), Poly.zero()
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert det(m) == Poly.one()
    assert det([]) == Poly.one()


def test_det_duplicate_row_is_zero():
    row = [g(0), g(1), g(2)]
    other = [g(3), g(4), g(5)]
    assert det([row, other, row]) == Poly.zero()


def test_det_matches_permutation_expansion_random():
    rng = random.Random(47)
    for _ in range(3):
        m = [[Poly.constant(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        assert det(m) == _perm_det(m)
    m = [[random_poly(rng, max_var=2, max_terms=2) for _ in range(3)] for _ in range(3)]
    assert det(m) == _perm_det(m)


def _cubic_resultant_matrix() -> list[list[Poly]]:
    z = Poly.zero()
    return [
        [g(0), 3 * g(1), 3 * g(2), g(3), z],
        [z, g(0), 3 * g(1), 3 * g(2), g(3)],
        [3 * g(0), 6 * g(1), 3 * g(2), z, z],
        [z, 3 * g(0), 6 * g(1), 3 * g(2), z],
        [z, z, 3 * g(0), 6 * g(1), 3 * g(2)],
    ]


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
    value = det(_cubic_resultant_matrix())
    assert value == _perm_det(_cubic_resultant_matrix())
    assert value == t(-1, {0: 1}) * (27 * core)
    assert -divide_by_generator(value, 0) == 27 * core


def test_divide_by_generator_requires_divisibility():
    assert divide_by_generator(g(0) * g(1) + g(0), 0) == g(1) + 1
    assert divide_by_generator(g(0) + g(1), 0) is None


def _two_walk_divide(p, v):
    """p / x_v as a divisibility walk over every term, then a second walk
    that rebuilds every monomial: the reference for the one-walk division."""
    nums, den = p.numerators()
    if not all(any(w == v for w, _ in m) for m in nums):
        return None
    return Poly._make(
        {tuple((w, e - (w == v)) for w, e in m if w != v or e > 1): c for m, c in nums.items()}, den
    )


def test_divide_by_generator_matches_two_walk_reference():
    assert divide_by_generator(Poly.zero(), 3) == Poly.zero()
    assert divide_by_generator(Fraction(2, 3) * g(3), 3) == Fraction(2, 3)  # x_3 dropped
    assert divide_by_generator(g(1) * g(3) ** 4 * g(5), 3) == g(1) * g(3) ** 3 * g(5)
    assert divide_by_generator(g(3) * g(4) + g(4) ** 2, 3) is None  # a term without x_3
    rng = random.Random(554)
    outcomes = set()
    for _ in range(300):
        v = rng.randint(0, 3)
        p = random_poly(rng, max_var=3, allow_x=True)
        for q in (p, p * g(v), p * g(v) ** rng.randint(2, 3)):
            got = divide_by_generator(q, v)
            assert got == _two_walk_divide(q, v), (q, v)
            if got is None:
                outcomes.add("missing")
            else:
                assert got * g(v) == q
                _assert_primitive(got)
                outcomes.add("zero" if q.is_zero() else "divided")
    assert outcomes == {"missing", "zero", "divided"}


def test_divide_by_generator_to_a_power_is_repeated_division():
    rng = random.Random(5541)
    outcomes = set()
    for _ in range(300):
        v, k = rng.randint(0, 3), rng.randint(1, 4)
        p = random_poly(rng, max_var=3, allow_x=True)
        for q in (p, p * g(v) ** rng.randint(1, 5)):
            want = q
            for _ in range(k):
                want = want if want is None else divide_by_generator(want, v)
            got = divide_by_generator(q, v, k)
            assert got == want, (q, v, k)
            if got is not None:
                assert got * g(v) ** k == q
                _assert_primitive(got)
            outcomes.add("missing" if got is None else "zero" if q.is_zero() else "divided")
    assert outcomes == {"missing", "zero", "divided"}


def test_pow_equals_repeated_products(monkeypatch):
    rng = random.Random(330)
    for _ in range(60):
        p = random_poly(rng, max_var=3, allow_x=True)
        product = Poly.one()
        for k in range(7):
            assert p ** k == product, (p, k)
            product = product * p
    # square-and-multiply from the base itself: p ** 1 takes no product
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    p = g(0) + 2 * g(1)
    counts = []
    for k in range(1, 7):
        products.clear()
        p ** k
        counts.append(len(products))
    assert counts == [0, 1, 2, 2, 3, 3]


def test_det_guardrail_and_shape_errors():
    one = Poly.one()
    with pytest.raises(ValueError, match="guardrail: size 9 > 8"):
        det([[one] * 9 for _ in range(9)])
    with pytest.raises(ValueError, match="non-square"):
        det([[one] * 3 for _ in range(2)])
    with pytest.raises(ValueError, match="non-square"):
        det([[one, one], [one]])


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


_BAD_DOCUMENTS = [
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
]


@pytest.mark.parametrize("doc", _BAD_DOCUMENTS)
def test_json_bad_documents_rejected(doc):
    with pytest.raises(ValueError):
        Poly.from_json(doc)


def test_coefficient_lookup_and_degrees():
    p = Poly.term(Fraction(7), {2: 3}) + Poly.term(1, {0: 1, 1: 1})
    assert p.coefficient({2: 3}) == 7
    assert p.coefficient({5: 1}) == 0
    assert p.degree() == 3
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


@pytest.mark.parametrize(
    "exps, message",
    [
        ({-2: 1}, "invalid variable id: -2"),
        ({"x1": 1}, "invalid variable id: 'x1'"),
        ({3: -1}, "negative exponent for x3"),
        ({X: -2}, "negative exponent for x"),
    ],
)
def test_mono_from_exps_rejects_bad_ids_and_negative_exponents(exps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mono_from_exps(exps)


def test_division_by_zero_and_foreign_operands():
    p = g(1) + 2
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="^division of a polynomial by zero$"):
            p / zero
    # a str is no coefficient: every operator refuses it, on either side
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((p, "x1"), ("x1", p)):
            with pytest.raises(TypeError):
                op(a, b)
    assert p != "x1"


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
            (Fraction(1, 3) - p, -p + Fraction(1, 3)),
        ]:
            _assert_primitive(a)
            assert a == b and hash(a) == hash(b)


def _ref_image(kind, n):
    """D(x_n) as a Fraction dict, written out from the three image formulas."""
    if kind == APPELL:
        return {((n - 1, 1),): Fraction(n)} if n else {}
    subs = range(n - 1, -1, -2)
    coeffs = [(-1) ** k * (i if kind == FIBONACCI else n) for k, i in enumerate(subs)]
    return {((i, 1),): Fraction(c) for i, c in zip(subs, coeffs) if c}


def test_custom_derivation_with_rational_images_matches_oracle():
    # the built-in images against the Fraction-dict Leibniz rule, on rational inputs
    rng = random.Random(8082)
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        images = {v: _ref_image(kind, v) for v in range(7)}
        for _ in range(100):
            terms = random_terms(rng, max_var=6)
            p, P = _from_terms(terms), _ref(terms)
            for _ in range(3):
                p, P = d(p), _ref_derive(images, P)
                _assert_primitive(p)
                assert _as_ref(p) == P


# ---- the JSON reader and writer, and monomial order and product, against
# the code they replaced ----------------------------------------------------


def _reference_from_json(doc: Mapping) -> Poly:
    """Poly.from_json as it was before the one-pass reader, kept verbatim."""
    if not isinstance(doc, Mapping):
        raise ValueError("polynomial JSON must be an object")
    if "terms" not in doc or not isinstance(doc["terms"], list):
        raise ValueError('polynomial JSON needs a "terms" array')
    if not isinstance(doc.get("vars", []), list):
        raise ValueError('"vars" must be an array of variable names')
    for name in doc.get("vars", []):
        _parse_var(name)  # validates
    pairs: list[tuple[tuple, Fraction]] = []
    for t in doc["terms"]:
        if not isinstance(t, Mapping) or "coeff" not in t:
            raise ValueError("each term needs a coeff and exps")
        c = t["coeff"]
        if not isinstance(c, str):
            raise ValueError(f"coefficient must be a string, got {c!r}")
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError) as exc:
            # quote at most 40 characters; name the digit limit if past it
            shown = repr(c) if len(c) <= 40 else f"{c[:40]!r}... ({len(c)} characters)"
            limit = sys.get_int_max_str_digits()
            if limit and re.search(rf"\d{{{limit + 1}}}", c):
                raise ValueError(
                    f"coefficient {shown} has more than {limit} decimal digits, "
                    "the limit on JSON coefficients"
                ) from None
            raise ValueError(f"bad coefficient {shown}") from exc
        exps = t.get("exps", {})
        if not isinstance(exps, Mapping):
            raise ValueError("exps must be an object")
        parsed: dict[int, int] = {}
        for name, e in exps.items():
            if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
                raise ValueError(f"bad exponent {e!r} for {name!r}")
            parsed[_parse_var(name)] = e
        pairs.append((mono_from_exps(parsed), c))
    return Poly.from_terms(pairs)


def _reference_var_key(v):
    # generators rank before x; generators among themselves by index
    return (1, 0) if v == X else (0, v)


def _reference_mono_sort_key(m):
    return (-sum(e for _, e in m), tuple((_reference_var_key(v), -e) for v, e in m))


def _reference_mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    # plain tuple order puts X = -1 first; the canonical order puts it last
    items = sorted(exps.items())
    if items[0][0] == X:
        items.append(items.pop(0))
    return tuple(items)


def _outcome(read, doc):
    try:
        return read(doc)
    except Exception as exc:  # the differential test compares the error itself
        return (type(exc), str(exc))


# coefficient spellings on and off the canonical "p" and "p/q" path, some
# that Fraction() reads and some it rejects: the reader must agree on each
_SPELLINGS = [
    "+3", " 3/4 ", "1.5", "1e3", "007", "-0", "6/4", "1/00", "0/5", "-12/35",
    "1_000", "\u0661\u0662", "\u0663/\u0664", "-\u0667", "3/", "/3", "-", "", "a",
    "2/-3", "\u00b2", "7" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301, "7" * 4300,
]


def _mutated_documents(rng):
    """Seeded documents: canonical ones from to_json, then the same with
    other coefficient spellings, repeated terms and reordered exponents."""
    docs = []
    for i in range(300):
        doc = random_poly(rng, max_var=12, allow_x=True, max_terms=8).to_json()
        if i % 3:
            for t in doc["terms"]:
                if rng.random() < 0.3:
                    t["coeff"] = rng.choice(_SPELLINGS)
                if rng.random() < 0.5:
                    t["exps"] = dict(reversed(list(t["exps"].items())))
            if doc["terms"] and rng.random() < 0.5:
                doc["terms"].append(dict(rng.choice(doc["terms"])))
            if rng.random() < 0.2:
                doc["vars"] = list(reversed(doc["vars"])) + ["x1000"]
        docs.append(doc)
    return docs


def test_from_json_matches_reference_reader():
    rng = random.Random(9100)
    docs = _BAD_DOCUMENTS + _mutated_documents(rng) + [
        {"terms": [{"coeff": c, "exps": {"x3": 1}}, {"coeff": "1/2", "exps": {"x": 2}}]}
        for c in _SPELLINGS
    ] + [
        {"terms": [{"coeff": "1", "exps": {"x" + "1" * 5000: 1}}]},
        {"vars": ["x" + "2" * 4000], "terms": []},
        {"vars": ["q" * 100], "terms": []},
        {"terms": [{"coeff": "1", "exps": {"x2": -1}}]},
        {"terms": [{"coeff": "1"}, {"coeff": "-1"}]},
        {"terms": [{"coeff": "1", "exps": []}]},
        {"terms": ["x1"]},
        {"terms": [], "vars": [["x1"]]},
        # True and 1.0 equal 1, so a checked member must not let them through
        {"terms": [{"coeff": "1", "exps": {"x1": 1}}, {"coeff": "2", "exps": {"x1": True}}]},
        {"terms": [{"coeff": "1", "exps": {"x1": 1}}, {"coeff": "2", "exps": {"x1": 1.0}}]},
    ]
    limit = sys.get_int_max_str_digits()
    errors = 0
    for doc in docs:
        want = _outcome(_reference_from_json, doc)
        got = _outcome(Poly.from_json, doc)
        if isinstance(want, Poly):
            _assert_primitive(got)
        else:
            errors += 1
        assert got == want, doc
    assert 50 < errors < len(docs) - 100
    # the digit limit is named, not CPython's message
    assert _outcome(Poly.from_json, {"terms": [{"coeff": "7" * 4301}]}) == (
        ValueError,
        f"coefficient {'7' * 40!r}... (4301 characters) has more than {limit} "
        "decimal digits, the limit on JSON coefficients",
    )


def _random_json_doc(rng, depth=0):
    leaves = [
        lambda: rng.choice(["", "plain", 'q"uote', "back\\slash", "tab\tnew\nline",
                            "\x00\x1f\x7f", "\u00e9t\u00e9", "\u2028", "\ud800",
                            "\U0001f600", "/slash/"]),
        lambda: rng.randint(-10 ** 6, 10 ** 6),
        lambda: rng.choice([-1, 1]) * rng.getrandbits(5000),
        lambda: rng.choice([True, False, None]),
    ]
    if depth < 4 and rng.random() < 0.5:
        size = rng.randint(0, 4)
        if rng.random() < 0.5:
            return [_random_json_doc(rng, depth + 1) for _ in range(size)]
        return {leaves[0](): _random_json_doc(rng, depth + 1) for _ in range(size)}
    return rng.choice(leaves)()


def test_json_text_matches_json_dumps_indent_two():
    rng = random.Random(9101)
    docs = [{}, [], {"a": {}}, [[]], "", 0, -0, True, None, 2 ** 5000, -(2 ** 5000)]
    docs += [_random_json_doc(rng) for _ in range(500)]
    docs.append(random_poly(rng, allow_x=True).to_json())
    for doc in docs:
        assert json_text(doc) == json.dumps(doc, indent=2), doc
    for bad in (1.5, Fraction(1, 2), {"a": [0.5]}, [Fraction(3)], {1: 2}, {"a": {3}}):
        with pytest.raises(TypeError):
            json_text(bad)


def test_json_text_matches_json_dumps_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    docs = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(docs)
    def check(doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    check()


def _random_poly_doc(rng, polys, depth=0):
    """A random document with polynomials at the top level and inside lists and dicts."""
    if depth < 4 and rng.random() < 0.6:
        items = [_random_poly_doc(rng, polys, depth + 1) for _ in range(rng.randint(0, 3))]
        return items if rng.random() < 0.5 else {f"k{i}": v for i, v in enumerate(items)}
    return rng.choice(polys) if rng.random() < 0.7 else _random_json_doc(rng, depth=4)


def test_json_text_writes_a_poly_as_json_dumps_of_its_to_json():
    rng = random.Random(9103)
    x = Poly.x()
    big = Poly.constant(-(10 ** 4999) - 3) * g(2) + g(1)  # 5000 digits: past str()'s limit
    polys = [x, x ** 3 / 7 - Fraction(5, 3) * x, Poly.zero(), Poly.one(), Poly.constant(-3),
             Poly.constant(Fraction(-4, 6)), g(_MAX_INDEX), g(_MAX_INDEX) ** 2 * x - 1,
             cayley_closed(FIBONACCI, 9) * Fraction(2, 9), big / 3]
    polys += [random_poly(rng, max_var=12, allow_x=True, max_terms=8) for _ in range(40)]
    docs = polys + [[p] for p in polys] + [{"p": p, "q": [[p, 1]]} for p in polys]
    docs += [_random_poly_doc(rng, polys) for _ in range(300)]
    def dumps(doc):  # json.dumps with p.to_json() in place of every Poly p
        return json.dumps(doc, indent=2, default=Poly.to_json)

    for doc in docs:
        assert _outcome(json_text, doc) == _outcome(dumps, doc), doc
    # the digit limit is named, in the same words as by to_json
    limit = sys.get_int_max_str_digits()
    if 0 < limit < 5000:
        want = (ValueError, f"a coefficient has more than {limit} decimal digits, "
                "the limit on JSON coefficients")
        for doc in (big, [big], {"a": {"b": big}}, big / 3):
            assert _outcome(json_text, doc) == _outcome(Poly.to_json, big) == want


def test_json_text_writes_a_poly_as_json_dumps_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = st.sampled_from([X, 0, 1, 2, 7, _MAX_INDEX])
    terms = st.lists(st.tuples(st.dictionaries(variables, st.integers(1, 4), max_size=3),
                               st.fractions(max_denominator=50)), max_size=6)
    polys = terms.map(lambda ts: Poly.from_terms([(mono_from_exps(e), c) for e, c in ts]))
    docs = st.recursive(
        polys | st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=8,
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(docs)
    def check(doc):
        assert json_text(doc) == json.dumps(doc, indent=2, default=Poly.to_json)

    check()


def _random_mono(rng):
    gens = [rng.randint(0, 12) if rng.random() < 0.9 else rng.randint(13, _MAX_INDEX)
            for _ in range(rng.randint(0, 8))]
    exps = {v: rng.randint(1, 5) for v in gens}
    if rng.random() < 0.3:
        exps[X] = rng.randint(1, 5)
    return mono_from_exps(exps)


def test_mono_order_and_product_match_references():
    rng = random.Random(9102)
    for _ in range(10000):
        a, b = _random_mono(rng), _random_mono(rng)
        assert mono_mul(a, b) == _reference_mono_mul(a, b) == mono_mul(b, a), (a, b)
        new, old = (_mono_sort_key(a), _mono_sort_key(b)), (
            _reference_mono_sort_key(a), _reference_mono_sort_key(b))
        assert (new[0] < new[1], new[0] == new[1]) == (old[0] < old[1], old[0] == old[1]), (a, b)


def _decimal(v):
    """str(v) for v >= 1 past the int-to-str digit limit, 1000 digits at a time."""
    parts = []
    while v:
        v, r = divmod(v, 10 ** 1000)
        parts.append(str(r).zfill(1000))
    return "".join(reversed(parts)).lstrip("0")


def test_huge_generator_index_rejected_with_its_name_clipped():
    # a name past the index limit is refused on its length, before int() reads
    # it, and quoted to 40 characters; an int index is named the same while
    # its name fits in 40 characters, and by its bit length past that
    limit = sys.get_int_max_str_digits()
    assert _parse_var(f"x{_MAX_INDEX}") == _MAX_INDEX
    for v in (_MAX_INDEX + 1, 9999, 10 ** 4, 10 ** 39 - 1, 10 ** 39, 10 ** limit - 1,
              10 ** limit, 2 ** 20000, 10 ** (limit + 100)):
        name = "x" + _decimal(v)
        with pytest.raises(ValueError) as named:
            _parse_var(name)
        with pytest.raises(ValueError) as err:
            Poly.gen(v)
        past = f" is past the index limit {_MAX_INDEX}"
        if len(name) <= 40:
            assert str(named.value) == str(err.value) == f"generator {name}{past}"
        else:
            assert str(named.value) == f"generator {name[:40]}... ({len(name)} characters){past}"
            assert str(err.value) == f"generator x<{v.bit_length()}-bit index>{past}"


# every place a generator index enters the package, as a name or an int
_INDEX_ENTRY_POINTS = {
    "_parse_var": lambda v: _parse_var("x" + _decimal(v)),
    "Poly.gen": Poly.gen,
    "mono_from_exps": lambda v: mono_from_exps({0: 1, v: 2}),
    "Poly.term": lambda v: Poly.term(3, {v: 1, X: 2}),
    "builtin_image": lambda v: builtin_image(LUCAS, v),
    "family_poly": lambda v: family_poly(FIBONACCI, v),
    "family_values": lambda v: family_values(LUCAS, 5, [2, v]),
}


@pytest.mark.parametrize("entry", list(_INDEX_ENTRY_POINTS))
def test_index_limit_refused_at_every_entry_point(entry):
    build = _INDEX_ENTRY_POINTS[entry]
    build(_MAX_INDEX)
    for v in (_MAX_INDEX + 1, 10 ** 3999 + 7, 10 ** (sys.get_int_max_str_digits() + 100)):
        name = "x" + _decimal(v)
        if entry == "_parse_var" and len(name) > 40:
            name = f"{name[:40]}... ({len(name)} characters)"
        elif len(name) > 40:
            name = f"x<{v.bit_length()}-bit index>"
        t0 = perf_counter()
        with pytest.raises(ValueError) as err:
            build(v)
        assert perf_counter() - t0 < 1.0, v.bit_length()
        assert str(err.value) == f"generator {name} is past the index limit {_MAX_INDEX}"


def _reference_substitute(self, images):
    """Poly.substitute as it was before the one-dict sum, read through
    numerators(): each term image is added to the running sum with out + acc."""
    power_cache: dict[tuple[int, int], Poly] = {}
    out = Poly.zero()
    for m, c in self.numerators()[0].items():
        acc = Poly.constant(c)
        for v, e in m:
            key = (v, e)
            pw = power_cache.get(key)
            if pw is None:
                if v in images:
                    base = images[v]
                elif v == X:
                    base = Poly.x()
                else:
                    raise ValueError(
                        f"no substitution image for variable {var_name(v)}"
                    )
                pw = base ** e
                power_cache[key] = pw
            acc = acc * pw
        out = out + acc
    return out / self.numerators()[1]


def test_substitute_matches_reference_loop():
    rng = random.Random(8084)
    wide = Fraction(10 ** 25 + 7, 3 ** 30)
    for i in range(300):
        p = random_poly(rng, max_var=5, max_terms=8, allow_x=True) * (wide if i % 3 == 0 else 1)
        images = {}
        for v in range(6):
            r = rng.random()
            images[v] = (Poly.zero() if r < 0.1 else Poly.constant(random_fraction(rng))
                         if r < 0.2 else random_poly(rng, max_var=3, max_terms=3, allow_x=True)
                         / rng.randint(1, 10 ** rng.randint(0, 12)))
        if rng.random() < 0.2:
            images[X] = random_x_poly(rng, max_degree=2)
        if rng.random() < 0.1:
            del images[rng.randint(0, 5)]
        try:
            want = _reference_substitute(p, images)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                p.substitute(images)
            continue
        got = p.substitute(images)
        _assert_primitive(got)
        assert got == want, (p, images)
    # a cancelling sum and a large one
    x = Poly.x()
    assert (g(1) - g(2)).substitute({1: x / 3, 2: x / 3}) == 0
    big = sum((Fraction(k + 1, 7) * g(k % 4) ** (k % 5) * g(4 + k % 3) for k in range(200)),
              Poly.zero())
    images = {v: (x + v) / (v + 2) for v in range(7)}
    assert big.substitute(images) == _reference_substitute(big, images)
