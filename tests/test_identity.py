import json
import random
from fractions import Fraction

import pytest

from conftest import random_fraction, random_poly
from fiblucas.derivops import Derivation, kernel_member
from fiblucas.dixmier import _MAX_CAYLEY_N, cayley_closed
from fiblucas.families import _MAX_FAMILY_INDEX, family_poly
from fiblucas.identity import (
    _MAX_SUBST_DEGREE,
    IdentityReport,
    _pack,
    _subst_degree,
    _unpack,
    conjecture_scan,
    discriminant_demo,
    emit,
    phi_subst,
    poly_to_latex,
    verify_identity,
)
from fiblucas.intertwine import AL, psi
from fiblucas.polyring import Poly, X


def g(n):
    return Poly.gen(n)


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
    return p.substitute({v: family_poly(family, v) for v in p.generator_vars()})


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_matches_sparse_substitution_on_random_polys(family):
    rng = random.Random(4242)
    cases = [Poly.zero(), Poly.one(), Poly.constant(Fraction(-7, 3)), Poly.x()]
    for _ in range(120):
        p = random_poly(rng, max_var=40, max_degree=6, max_terms=8, allow_x=True)
        # a large rational scale so the common denominator is not small
        cases.append(p * Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)))
        cases.append(p + random_fraction(rng))
    for p in cases:
        assert phi_subst(family, p) == sparse_phi(family, p), p


def test_phi_matches_sparse_substitution_on_cayley_elements():
    for family, lo in (("fibonacci", 3), ("lucas", 1)):
        for n in range(lo, 61):
            c = cayley_closed(family, n)
            assert phi_subst(family, c) == sparse_phi(family, c), (family, n)


def test_phi_decodes_coefficients_at_the_proved_bound():
    # F_1 = L_0 = 1 and F_2 = L_1 = x have one coefficient each, so in the
    # first three cases a result digit equals the bound
    # B = sum |c*den| * prod ||img||_1^e = 2^201 - 2 that fixes the digit
    # width b = 203: 2^(b-2) - 2, as close to the decode limit 2^(b-1) as
    # the width rule lets a digit come.  The last case has adjacent
    # digits of opposite sign.
    big = 2**200 - 1
    x = Poly.x()
    cases = (
        ("fibonacci", big * (g(2) ** 3 * x + g(1) ** 5 * x**4), 2 * big * x**4),
        ("fibonacci", -big * (g(2) ** 2 + x**2), -2 * big * x**2),
        ("lucas", Fraction(big, 7) * (g(0) * g(1) + x), Fraction(2 * big, 7) * x),
        ("lucas", big * (g(1) ** 2 - x * g(0)), big * x**2 - big * x),
    )
    for family, p, want in cases:
        assert phi_subst(family, p) == want == sparse_phi(family, p)


def test_pack_unpack_round_trip_at_digit_extremes():
    b = 8
    half = 1 << (b - 1)
    digits = [half - 1, -half, -1, half - 1, 0, -half, 1, -half]
    packed = _pack(Poly.from_terms((((X, k),) if k else (), d) for k, d in enumerate(digits)), b)
    assert _unpack(packed, b) == digits
    assert _unpack(_pack(Poly.zero(), b), b) == []


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_pack_by_halves_matches_plain_sum(family):
    # the packed int is the same as one running sum's, past the 32-term
    # base case and below it, carries between digits included
    rng = random.Random(f"pack-{family}")
    indices = [0, 1, 2, 63, 64, 65, 66, 129, _MAX_FAMILY_INDEX] + rng.sample(range(3, 700), 12)
    for n in indices:
        img = family_poly(family, n)
        for b in (1, 2, 7, 64, rng.randint(65, 3000)):
            plain = sum(c << (b * (m[0][1] if m else 0)) for m, c in img.numerators()[0].items())
            assert _pack(img, b) == plain, (family, n, b)


def test_phi_and_scan_size_limits():
    with pytest.raises(ValueError, match="family index limit"):
        phi_subst("fibonacci", g(_MAX_FAMILY_INDEX + 1))
    with pytest.raises(ValueError, match="limited to n <= "):
        conjecture_scan("lucas", _MAX_CAYLEY_N + 1)


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_phi_substituted_degree_limit(family):
    top = _MAX_SUBST_DEGREE
    # the bound is the exact degree of a single monomial's image
    rng = random.Random(f"degree-{family}")
    for _ in range(30):
        exps = {v: rng.randint(1, 3) for v in rng.sample([X, 1, 2, 3, 7, 12], rng.randint(0, 3))}
        mono = Poly.term(1, exps)
        assert phi_subst(family, mono).degree() == _subst_degree(family, mono), exps
    # every Cayley element and the largest generator stay inside the limit
    c = cayley_closed(family, _MAX_CAYLEY_N)
    assert _subst_degree(family, c) <= top
    assert phi_subst(family, c).is_constant()
    assert _subst_degree(family, g(_MAX_FAMILY_INDEX)) <= top
    assert phi_subst(family, Poly.term(1, {X: top})).degree() == top
    for p in (Poly.term(1, {X: top + 1}), g(150) ** 40, g(3) * g(1000)):
        with pytest.raises(ValueError, match=f"degree limit {top}"):
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


def test_conjecture_scan_range_validation():
    with pytest.raises(ValueError):
        conjecture_scan("fibonacci", 2)
    with pytest.raises(ValueError):
        conjecture_scan("lucas", 1)


def test_discriminant_demo_all_stages():
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


def test_emit_latex_golden():
    report = verify_identity(cayley_closed("fibonacci", 3), "fibonacci")
    assert emit(report, "latex") == "F_{1}(x)F_{3}(x)-F_{2}(x)^{2}=1"


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
