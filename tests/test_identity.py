import json
import random
from fractions import Fraction
from time import perf_counter

import pytest

from conftest import random_fraction, random_poly
from fiblucas import identity
from fiblucas.derivops import Derivation, kernel_member
from fiblucas.dixmier import _MAX_CAYLEY_N, _cayley_groups, cayley_closed
from fiblucas.families import family_poly, family_values
from fiblucas.identity import (
    _MAX_SUBST_DEGREE,
    IdentityReport,
    _expected_constant,
    _groups,
    _kronecker,
    _subst_bounds,
    _unpack,
    conjecture_scan,
    discriminant_demo,
    emit,
    phi_subst,
    poly_to_latex,
    verify_identity,
)
from fiblucas.intertwine import AL, psi
from fiblucas.polyring import _MAX_INDEX, Poly, X


def g(n):
    return Poly.gen(n)


def subst_degree(family, p):
    """The degree bound of phi_subst's first pass."""
    return _subst_bounds(family, _groups(p.numerators()[0]))[1]


def test_phi_fibonacci_collapses_kernel_element():
    assert phi_subst("fibonacci", g(1) * g(3) - g(2) ** 2) == Poly.one()


def test_phi_lucas_x0():
    assert phi_subst("lucas", g(0)) == Poly.one()


def test_phi_recurrence_element_vanishes_outside_kernel():
    # the family recurrence kills x_n - x_2 x_{n-1} - x_{n-2} under the
    # substitution although it is not a kernel element: the image of
    # the kernel is strictly smaller than the kernel of the substitution
    d = Derivation.fibonacci()
    for n in range(4, 11):
        p = g(n) - g(2) * g(n - 1) - g(n - 2)
        assert phi_subst("fibonacci", p) == 0
        assert not kernel_member(d, p)


def test_phi_is_a_homomorphism():
    rng = random.Random(55)
    for _ in range(40):
        p = random_poly(rng, max_var=6)
        q = random_poly(rng, max_var=6)
        for family in ("fibonacci", "lucas"):
            assert phi_subst(family, p * q) == phi_subst(family, p) * phi_subst(family, q)
            assert phi_subst(family, p + q) == phi_subst(family, p) + phi_subst(family, q)


def sparse_phi(family, p):
    """The reference substitution: sparse Poly products (Poly.substitute,
    itself checked against plain Fraction dicts in test_polyring)."""
    return p.substitute({v: family_poly(family, v) for v in p.variables() - {X}})


def seeded_random_polys():
    rng = random.Random(4242)
    cases = [Poly.zero(), Poly.one(), Poly.constant(Fraction(-7, 3)), Poly.x()]
    for _ in range(120):
        p = random_poly(rng, max_var=40, max_degree=6, max_terms=8, allow_x=True)
        # a large rational scale so the common denominator is not small
        cases.append(p * Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)))
        cases.append(p + random_fraction(rng))
    return cases


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_matches_sparse_substitution_on_random_polys(family):
    for p in seeded_random_polys():
        assert phi_subst(family, p) == sparse_phi(family, p), p


def test_phi_matches_sparse_substitution_on_cayley_elements():
    for family, lo in (("fibonacci", 3), ("lucas", 1)):
        for n in range(lo, 61):
            c = cayley_closed(family, n)
            assert phi_subst(family, c) == sparse_phi(family, c), (family, n)


def decode_edge_cases():
    big = 2**200 - 1
    x = Poly.x()
    return (
        ("fibonacci", big * (g(2) ** 3 * x + g(1) ** 5 * x**4), 2 * big * x**4),
        ("fibonacci", -big * (g(2) ** 2 + x**2), -2 * big * x**2),
        ("lucas", Fraction(big, 7) * (g(0) * g(1) + x), Fraction(2 * big, 7) * x),
        ("lucas", big * (g(1) ** 2 - x * g(0)), big * x**2 - big * x),
    )


def test_phi_decodes_coefficients_at_the_proved_bound():
    # F_1 = L_0 = 1 and F_2 = L_1 = x have one coefficient each, so in the
    # first three cases a result digit equals the bound
    # B = sum |c*den| * prod ||img||_1^e = 2^201 - 2 that fixes the digit
    # width b = 203: 2^(b-2) - 2, as close to the decode limit 2^(b-1) as
    # the width rule lets a digit come.  The last case has adjacent
    # digits of opposite sign.
    for family, p, want in decode_edge_cases():
        assert phi_subst(family, p) == want == sparse_phi(family, p)


def exact_norm(family, nums):
    """The reference coefficient bound N = sum |c| * prod P_v(1)^e, the
    value at x = 1 of p with every coefficient made positive."""
    norms = family_values(family, 0, {v for m in nums for v, _ in m if v != X})
    norms[X] = 1
    total = 0
    for m, c in nums.items():
        term = abs(c)
        for v, e in m:
            term *= norms[v] ** e
        total += term
    return total


def width_slack(family, p):
    """How many bits wider the digit width from phi_subst's first pass is
    than the one from the exact bound N; checks the proved range."""
    nums = p.numerators()[0]
    width, exact = _subst_bounds(family, _groups(nums))[2], exact_norm(family, nums)
    # each generator factor adds under one bit (ceil of its log2)
    factors = max((sum(e for v, e in m if v != X) for m in nums), default=0)
    slack = width.bit_length() - exact.bit_length()
    assert width >= exact, p
    assert 0 <= slack <= factors + len(nums).bit_length() + 1, p
    return slack


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_subst_width_bounds_the_exact_norm(family):
    for p in seeded_random_polys():
        width_slack(family, p)
    slacks = {n: width_slack(family, cayley_closed(family, n))
              for n in range(3 if family == "fibonacci" else 1, _MAX_CAYLEY_N + 1)}
    # observed, not proved: on the Cayley elements the width rounds up by at most one bit
    assert max(slacks.values()) <= 1, slacks


def test_subst_width_is_exact_at_the_decode_edge():
    # every image there has P_v(1) = 1, so the width is the exact bound
    for family, p, _ in decode_edge_cases():
        nums = p.numerators()[0]
        assert _subst_bounds(family, _groups(nums))[2] == exact_norm(family, nums)
        assert width_slack(family, p) == 0


def plain_pack(img, b):
    """The reference packing: the value at x = 2^b of a polynomial in x
    with integer coefficients, as one running sum over its terms."""
    return sum(c << (b * (m[0][1] if m else 0)) for m, c in img.numerators()[0].items())


def loop_unpack(packed, b):
    """The reference digit loop: one b-bit digit off the bottom at a time."""
    mask, half = (1 << b) - 1, 1 << (b - 1)
    digits = []
    while packed:
        d = packed & mask
        packed >>= b
        if d >= half:
            d -= 1 << b
            packed += 1
        digits.append(d)
    return digits


def test_unpack_matches_the_digit_loop():
    rng = random.Random(20260)
    for b in (1, 2, 7, 8, 61, 64, 700):
        values = [0, -1, -(1 << b), -(1 << (b - 1))]
        values += [-rng.getrandbits(rng.randint(1, 5000)) for _ in range(40)]
        if b > 1:  # with b = 1 the digits -1 and 0 reach no positive value
            values += [1, (1 << (b - 1)) - 1, 1 << (b - 1), 1 << b]
            values += [rng.getrandbits(rng.randint(1, 5000)) for _ in range(40)]
            # runs of extreme digits, so carries ripple across many fields
            values += [sum(rng.choice((-(1 << (b - 1)), (1 << (b - 1)) - 1, -1, 0)) << (b * k)
                           for k in range(rng.randint(1, 60))) for _ in range(20)]
        for packed in values:
            assert _unpack(packed, b) == loop_unpack(packed, b), (b, packed)


def test_pack_unpack_round_trip_at_digit_extremes():
    b = 8
    half = 1 << (b - 1)
    digits = [half - 1, -half, -1, half - 1, 0, -half, 1, -half]
    img = Poly.from_terms((((X, k),) if k else (), d) for k, d in enumerate(digits))
    packed = plain_pack(img, b)
    assert _unpack(packed, b) == digits == loop_unpack(packed, b)
    assert _unpack(plain_pack(Poly.zero(), b), b) == []


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_family_values_match_packed_family_polynomials(family):
    # P_v(2^b) from the integer recurrence is the packed family polynomial,
    # carries between digits included; b = 0 gives P_v(1) = ||P_v||_1
    rng = random.Random(f"values-{family}")
    indices = [0, 1, 2, 3, 63, 64, 65, _MAX_INDEX] + rng.sample(range(4, 1000), 12)
    for b in (0, 1, 2, 7, 64, rng.randint(65, 3000)):
        values = family_values(family, b, indices)
        assert values == {n: plain_pack(family_poly(family, n), b) for n in indices}, (family, b)
        assert family_values(family, b, []) == {}
    for n in indices:
        img = family_poly(family, n)
        assert family_values(family, 0, [n])[n] == sum(map(abs, img.numerators()[0].values()))


def test_family_values_refuses_indices_out_of_range():
    with pytest.raises(ValueError, match=f"^generator x{_MAX_INDEX + 1} is past the "
                                         f"index limit {_MAX_INDEX}$"):
        family_values("fibonacci", 8, [3, _MAX_INDEX + 1])
    with pytest.raises(ValueError, match="generator index must be >= 0"):
        family_values("lucas", 0, [-1, 5])
    assert family_values("lucas", 0, [_MAX_INDEX])


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_builds_no_family_polynomial(family):
    family_poly.cache_clear()
    for p in (g(1000), g(990) * g(2), g(999) - 3 * g(400) * g(499) + Poly.x()):
        phi_subst(family, p)
    assert family_poly.cache_info().currsize == 0


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_grouped_cayley_phi_matches_the_flat_route(family):
    # the scan's route, the closed formula's Horner groups straight into the
    # Kronecker core, against phi_subst's route on the built C_n: the same result
    # and the same width, so the same digit width b: the groups' numerators are reduced
    for n in range(3 if family == "fibonacci" else 1, _MAX_CAYLEY_N + 1):
        c = cayley_closed(family, n)
        groups, den = _cayley_groups(family, n)
        flat = _groups(c.numerators()[0])
        assert _kronecker(family, groups, den) == phi_subst(family, c), (family, n)
        assert _subst_bounds(family, groups)[2] == _subst_bounds(family, flat)[2], (family, n)


def power_of_two_polys(family):
    """Seeded polynomials whose images include powers of two at high
    exponents (x, and x_2 = F_2 or x_1 = L_1, each x), the images 1 (x_1 =
    F_1, x_0 = L_0) and, for fibonacci, F_0 = 0."""
    rng = random.Random(f"pow2-{family}")
    to_x = [X, 2 if family == "fibonacci" else 1]
    others = [1, 0] if family == "fibonacci" else [0]
    cases = []
    for _ in range(40):
        p = Poly.zero()
        for _ in range(rng.randint(1, 6)):
            exps = {rng.choice(to_x): rng.randint(200, 500)}
            if rng.random() < 0.5:
                v = rng.choice(to_x + others)
                exps[v] = exps.get(v, 0) + rng.randint(1, 300)
            for _ in range(rng.randint(0, 2)):
                exps[rng.randint(3, 30)] = rng.randint(1, 3)
            p = p + Poly.term(random_fraction(rng) or 1, exps)
        cases.append(p + random_fraction(rng))
    return cases


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_matches_sparse_substitution_on_powers_of_two(family):
    cases = power_of_two_polys(family)
    if family == "fibonacci":  # F_0 = 0 alone and times images that are shifts
        cases += [g(0), g(0) ** 7 * Poly.x() ** 300 + g(2) ** 5, g(0) * g(1) * g(2) - 3 * g(0) ** 2]
    for p in cases:
        assert phi_subst(family, p) == sparse_phi(family, p), p


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_scan_builds_no_cayley_element(family, monkeypatch):
    # every Poly is made by Poly._make: the scan makes none of C_n's size,
    # only the one-term substituted constants
    sizes = []
    make = Poly._make.__func__

    def spy(cls, nums, den=1):
        sizes.append(len(nums))
        return make(cls, nums, den)

    monkeypatch.setattr(Poly, "_make", classmethod(spy))
    family_poly.cache_clear()
    assert conjecture_scan(family, 40)["ok"]
    assert max(sizes) == 1
    assert family_poly.cache_info().currsize == 0


def test_phi_and_scan_size_limits():
    # a generator past the index limit is refused where it is named, so never
    # reaches the substitution
    doc = {"terms": [{"coeff": "1", "exps": {f"x{_MAX_INDEX + 1}": 1}}]}
    with pytest.raises(ValueError, match=f"^generator x{_MAX_INDEX + 1} is past the index limit"):
        phi_subst("fibonacci", Poly.from_json(doc))
    with pytest.raises(ValueError, match="limited to n <= "):
        conjecture_scan("lucas", _MAX_CAYLEY_N + 1)


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_refuses_a_trusted_polynomial_past_the_index_limit(family):
    # Poly.from_terms checks no index, so a library caller can build x1001;
    # the substitution refuses it with the one index-limit message
    for v, shown in ((_MAX_INDEX + 1, f"x{_MAX_INDEX + 1}"),
                     (10 ** 3999 + 7, "x<13285-bit index>")):
        for p in (Poly.from_terms([(((v, 1),), 1)]),
                  Poly.from_terms([(((2, 3),), 5), (((1, 1), (v, 2), (X, 1)), Fraction(-1, 3))])):
            for run in (phi_subst, lambda family, p: verify_identity(p, family)):
                t0 = perf_counter()
                with pytest.raises(ValueError, match=f"^generator {shown} is past the index limit "
                                                     f"{_MAX_INDEX}$"):
                    run(family, p)
                assert perf_counter() - t0 < 1.0
    top = Poly.from_terms([(((_MAX_INDEX, 1),), 1)])
    assert phi_subst(family, top) == family_poly(family, _MAX_INDEX)


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_substituted_degree_limit(family):
    top = _MAX_SUBST_DEGREE
    # the bound is the exact degree of a single monomial's image
    rng = random.Random(f"degree-{family}")
    for _ in range(30):
        exps = {v: rng.randint(1, 3) for v in rng.sample([X, 1, 2, 3, 7, 12], rng.randint(0, 3))}
        mono = Poly.term(1, exps)
        assert phi_subst(family, mono).degree() == subst_degree(family, mono), exps
    # every Cayley element and the largest generator stay inside the limit
    c = cayley_closed(family, _MAX_CAYLEY_N)
    assert subst_degree(family, c) <= top
    assert phi_subst(family, c).is_constant()
    assert subst_degree(family, g(_MAX_INDEX)) <= top
    assert phi_subst(family, Poly.term(1, {X: top})).degree() == top
    for p in (Poly.term(1, {X: top + 1}), g(150) ** 40, g(3) * g(1000)):
        with pytest.raises(ValueError, match=f"degree limit {top}"):
            phi_subst(family, p)


@pytest.mark.parametrize("family, v, want", [
    ("fibonacci", 0, 0), ("fibonacci", 1, 1), ("lucas", 0, 1),
    ("fibonacci", 5, None), ("lucas", 5, None), ("fibonacci", X, None), ("lucas", X, None),
], ids=lambda a: "x" if a == X else None)
def test_phi_huge_exponent_checks_degree_before_any_shift(family, v, want):
    # F_0 = 0 and F_1 = L_0 = 1 keep degree 0 under any power; other images
    # are refused on their degree, and no coefficient is shifted for them
    p = Poly.term(1, {v: 10**12})
    start = perf_counter()
    if want is None:
        with pytest.raises(ValueError) as info:
            phi_subst(family, p)
        degree = 10**12 * (1 if v == X else 5 - (family == "fibonacci"))
        assert str(info.value) == (
            f"substituted degree {degree} is past the degree limit {_MAX_SUBST_DEGREE}")
    else:
        assert phi_subst(family, p) == want
    assert perf_counter() - start < 1


def test_phi_degree_error_names_the_largest_degree():
    p = Poly.term(1, {X: 10**12}) + Poly.term(1, {5: 10**15}) + g(3) ** 400
    for family, degree in (("fibonacci", 4 * 10**15), ("lucas", 5 * 10**15)):
        with pytest.raises(ValueError, match=f"^substituted degree {degree} is past"):
            phi_subst(family, p)


def test_phi_rejects_unknown_family():
    with pytest.raises(ValueError):
        phi_subst("appell-monomial", g(0))


def test_verify_identity_cayley_values():
    r = verify_identity(cayley_closed("fibonacci", 4), "fibonacci")
    assert r.is_constant and r.constant_value == 0
    r = verify_identity(cayley_closed("fibonacci", 3), "fibonacci")
    assert r.is_constant and r.constant_value == 1
    r = verify_identity(cayley_closed("lucas", 2), "lucas")
    assert r.is_constant and r.constant_value == 2


def test_verify_identity_nonconstant_input():
    r = verify_identity(g(3), "fibonacci")
    assert not r.is_constant
    assert r.constant_value is None
    assert r.substituted == phi_subst("fibonacci", g(3))


def test_kernel_elements_substitute_to_constants():
    # soundness of the kernel -> identity direction on every Cayley
    # element plus the AL-transported discriminant invariant
    for family, lo in (("fibonacci", 3), ("lucas", 1)):
        for n in range(lo, 16):
            r = verify_identity(cayley_closed(family, n), family)
            assert r.is_constant, (family, n)
    t = Poly.term
    core = (
        t(6, {0: 1, 1: 1, 2: 1, 3: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {0: 1, 2: 3})
        + t(-1, {0: 2, 3: 2})
    )
    transported = psi(AL, 3).apply(core)
    assert kernel_member(Derivation.lucas(), transported)
    r = verify_identity(transported, "lucas")
    assert r.is_constant and r.constant_value == -32


def test_conjecture_scan_fibonacci_opening_range():
    result = conjecture_scan("fibonacci", 8)
    assert [row["n"] for row in result["rows"]] == list(range(3, 9))
    assert [row["constant"] for row in result["rows"]] == ["1", "0", "1", "0", "1", "0"]
    assert result["ok"]
    assert all(row["ok"] for row in result["rows"])


def test_conjecture_scan_lucas_opening_range():
    result = conjecture_scan("lucas", 5)
    scored = [row for row in result["rows"] if not row["boundary"]]
    assert [row["constant"] for row in scored] == ["2", "0", "2", "0"]
    assert result["ok"]


def test_conjecture_scan_lucas_boundary_row():
    result = conjecture_scan("lucas", 4)
    first = result["rows"][0]
    assert first["n"] == 1
    assert first["boundary"] is True
    assert first["constant"] == "1"
    assert first["ok"] is None  # informational, not scored


def _parity_rule(family, n):
    """The scan's expected constant as first written: F_n(0) is 1 for odd n and
    0 for even n; L_n(0) is 2 for even n and 0 for odd n."""
    if family == "fibonacci":
        return Fraction(1 if n % 2 == 1 else 0)
    return Fraction(2 if n % 2 == 0 else 0)


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_expected_constant_is_p_n_at_zero(family):
    for n in range(2 if family == "lucas" else 3, _MAX_CAYLEY_N + 1):
        want = _parity_rule(family, n)
        assert _expected_constant(family, n) == want == family_poly(family, n).constant_value()


def test_conjecture_scan_range_validation():
    with pytest.raises(ValueError):
        conjecture_scan("fibonacci", 2)
    with pytest.raises(ValueError):
        conjecture_scan("lucas", 1)


def test_discriminant_demo_all_stages(monkeypatch):
    report = discriminant_demo()
    assert report["ok"]
    assert [s["stage"] for s in report["stages"]] == [
        "determinant-expansion",
        "appell-kernel",
        "lucas-kernel",
        "lucas-constant",
    ]
    assert all(s["ok"] for s in report["stages"])
    assert report["constant"] == "-864"
    # stage d fails, with no constant, when x_0 does not divide the Lucas determinant
    monkeypatch.setattr(identity, "divide_by_generator", lambda p, v: None)
    report = discriminant_demo()
    assert report["stages"][-1] == {"stage": "lucas-constant", "ok": False}
    assert report["ok"] is False and report["constant"] is None


def test_emit_latex_golden():
    report = verify_identity(cayley_closed("fibonacci", 3), "fibonacci")
    assert emit(report, "latex") == "F_{1}(x)F_{3}(x)-F_{2}(x)^{2}=1"
    # a non-constant result is written with the family's symbols too
    report = verify_identity(g(1) * g(3) - g(2) ** 2 + g(4) / 2, "lucas")
    assert emit(report, "latex") == (
        r"L_{1}(x)L_{3}(x)-L_{2}(x)^{2}+\frac{1}{2}L_{4}(x)=\frac{1}{2}x^{4}+x^{2}-3"
    )


def test_emit_latex_zero_and_lucas_symbols():
    report = verify_identity(cayley_closed("fibonacci", 4), "fibonacci")
    assert emit(report, "latex").endswith("=0")
    report = verify_identity(cayley_closed("lucas", 2), "lucas")
    assert emit(report, "latex") == "L_{0}(x)L_{2}(x)-L_{1}(x)^{2}=2"


def test_emit_latex_fractional_coefficient():
    report = verify_identity(Fraction(1, 2) * g(0), "lucas")
    assert emit(report, "latex") == "\\frac{1}{2}L_{0}(x)=\\frac{1}{2}"


def test_poly_to_latex_zero():
    assert poly_to_latex(Poly.zero(), "fibonacci") == "0"
    p = -3 * g(0) * g(2) ** 2 + Fraction(1, 2) * g(1) - 5
    assert poly_to_latex(p, "lucas") == r"-3L_{0}(x)L_{2}(x)^{2}+\frac{1}{2}L_{1}(x)-5"
    p = -g(1) ** 2 - Fraction(2, 3) * Poly.x()
    assert poly_to_latex(p, "fibonacci") == r"-F_{1}(x)^{2}-\frac{2}{3}x"


def test_emit_json_roundtrip():
    report = verify_identity(cayley_closed("lucas", 3), "lucas")
    doc = json.loads(emit(report, "json"))
    assert doc == report.to_json()
    assert Poly.from_json(doc["input"]) == cayley_closed("lucas", 3)
    assert Poly.from_json(doc["substituted"]) == report.substituted
    assert doc["is_constant"] is True
    assert doc["constant_value"] == "0"


def test_report_json_omits_constant_when_nonconstant():
    report = verify_identity(g(3), "fibonacci")
    doc = report.to_json()
    assert doc["is_constant"] is False
    assert "constant_value" not in doc


def test_emit_unknown_format_rejected():
    report = verify_identity(g(0), "lucas")
    with pytest.raises(ValueError):
        emit(report, "html")


def test_identity_report_record():
    # an immutable named tuple: keyword construction, equality and hashing
    # by fields, the Name(field=value) repr, and the same to_json documents
    c3 = cayley_closed("fibonacci", 3)
    report = IdentityReport(
        input=c3, family="fibonacci", substituted=Poly.one(), is_constant=True,
        constant_value=Fraction(1),
    )
    assert report == verify_identity(c3, "fibonacci")
    assert hash(report) == hash(verify_identity(c3, "fibonacci"))
    assert report != verify_identity(c3, "lucas")
    assert repr(report) == (
        "IdentityReport(input=Poly(x1*x3 - x2^2), family='fibonacci', substituted=Poly(1), "
        "is_constant=True, constant_value=Fraction(1, 1))"
    )
    assert report.to_json() == {
        "family": "fibonacci",
        "input": {
            "vars": ["x1", "x2", "x3"],
            "terms": [
                {"coeff": "1", "exps": {"x1": 1, "x3": 1}},
                {"coeff": "-1", "exps": {"x2": 2}},
            ],
        },
        "substituted": {"vars": [], "terms": [{"coeff": "1", "exps": {}}]},
        "is_constant": True,
        "constant_value": "1",
    }
    report = verify_identity(g(2), "lucas")
    assert repr(report) == (
        "IdentityReport(input=Poly(x2), family='lucas', substituted=Poly(x^2 + 2), "
        "is_constant=False, constant_value=None)"
    )
    assert report.to_json() == {
        "family": "lucas",
        "input": {"vars": ["x2"], "terms": [{"coeff": "1", "exps": {"x2": 1}}]},
        "substituted": {
            "vars": ["x"],
            "terms": [{"coeff": "1", "exps": {"x": 2}}, {"coeff": "2", "exps": {}}],
        },
        "is_constant": False,
    }
    with pytest.raises(AttributeError):
        report.constant_value = Fraction(2)


def test_identity_report_is_frozen():
    report = verify_identity(g(0), "lucas")
    assert isinstance(report, IdentityReport)
    with pytest.raises(AttributeError):
        report.family = "fibonacci"
