"""Identity verification: family substitution, scans, demo, emission.

Substituting the family polynomials for the generators (x_i -> F_i(x)
or L_i(x)) turns every kernel element of the matching derivation into a
polynomial identity: the substituted polynomial collapses to a rational
constant.  verify_identity performs the substitution and reports; the
conjecture scan checks the observed constants of the Cayley elements
against the expected odd/even pattern without ever assuming it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .derivops import Derivation, kernel_member
from .dixmier import _check_cayley_args, cayley_closed
from .families import _MAX_FAMILY_INDEX, FIBONACCI, LUCAS, family_poly
from .intertwine import AL, psi
from .polyring import Mono, Poly, PolyMatrix, X, clip, divide_by_generator, json_text, var_name

__all__ = [
    "IdentityReport",
    "phi_subst",
    "verify_identity",
    "conjecture_scan",
    "discriminant_demo",
    "emit",
    "poly_to_latex",
]

_PHI_FAMILIES = (FIBONACCI, LUCAS)
_MAX_SUBST_DEGREE = 1000  # largest degree in x of a substituted polynomial


def _check_family(family: str) -> None:
    if family not in _PHI_FAMILIES:
        raise ValueError(f"family must be fibonacci or lucas, got {family!r}")


def _pack(img: Poly, b: int) -> int:
    """Kronecker packing of a polynomial in x with integer coefficients
    (as family polynomials have): its value at x = 2^b."""
    return _pack_terms([(m[0][1] if m else 0, c) for m, c in img.numerators()[0].items()], b, 0)


def _pack_terms(terms: list[tuple[int, int]], b: int, low: int) -> int:
    """sum c << (b*(e-low)) over (e, c) pairs.  Past 32 terms, by halves
    in e: the high half is packed, shifted and added to the low half, so
    the cost is not quadratic in the number of terms as one running
    sum's is."""
    if len(terms) <= 32:
        return sum(c << (b * (e - low)) for e, c in terms)
    terms = sorted(terms)
    half = len(terms) // 2
    mid = terms[half][0]
    return (_pack_terms(terms[half:], b, mid) << (b * (mid - low))) + _pack_terms(
        terms[:half], b, low
    )


def _unpack(packed: int, b: int) -> list[int]:
    """Balanced base-2^b digits of ``packed``, lowest first; inverts
    _pack when every digit lies in [-2^(b-1), 2^(b-1))."""
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


def _evaluate(terms: list[tuple[Mono, int]], base: dict[int, int]) -> int:
    """sum c * prod base[v]^e over the (monomial, c) terms.

    One Horner level: terms that share all but their last factor are
    summed first, so the shared factors are multiplied in once.
    """
    powers: dict[tuple[int, int], int] = {}

    def power(ve: tuple[int, int]) -> int:
        if ve not in powers:
            powers[ve] = base[ve[0]] ** ve[1]
        return powers[ve]

    groups: dict[Mono, int] = {}
    for m, c in terms:
        if m:
            c *= power(m[-1])
        groups[m[:-1]] = groups.get(m[:-1], 0) + c
    return sum(c * prod(map(power, rest)) for rest, c in groups.items())


def _subst_degree(family: str, p: Poly) -> int:
    """Bound on the degree in x of phi_subst(family, p), read off the
    exponents: deg F_v = v-1, deg L_v = v (F_0, F_1 and L_0 add nothing).
    Plain loops: scan runs this on every Cayley element."""
    shift = 1 if family == FIBONACCI else 0
    top = 0
    for m in p.numerators()[0]:
        degree = 0
        for v, e in m:
            degree += e * (v - shift if v > shift else 1 if v == X else 0)
        if degree > top:
            top = degree
    return top


def phi_subst(family: str, p: Poly) -> Poly:
    """Substitute x_i -> family polynomial i; result is univariate in x.

    Kronecker substitution over the integers: with den the common
    denominator of p, each image is packed into one int, its value at
    x = 2^b, so den*p evaluates to one int whose digits, divided by
    den, are the result's coefficients.  No result coefficient exceeds
    sum |c*den| * prod ||image_v||_1^e in size (||.||_1 the sum of
    absolute coefficients), so b two bits past that bound decodes
    exactly.
    """
    _check_family(family)
    gens = p.generator_vars()
    if gens and max(gens) > _MAX_FAMILY_INDEX:
        raise ValueError(
            f"generator {clip(var_name(max(gens)), str)} is past the family index limit "
            f"{_MAX_FAMILY_INDEX}"
        )
    degree = _subst_degree(family, p)
    if degree > _MAX_SUBST_DEGREE:
        raise ValueError(
            f"substituted degree {degree} is past the degree limit {_MAX_SUBST_DEGREE}"
        )
    images = {v: family_poly(family, v) for v in gens}
    images[X] = Poly.x()
    nums, den = p.numerators()
    norms = {v: sum(map(abs, img.numerators()[0].values())) for v, img in images.items()}
    b = _evaluate([(m, abs(c)) for m, c in nums.items()], norms).bit_length() + 2
    total = _evaluate(nums.items(), {v: _pack(img, b) for v, img in images.items()})
    return Poly._make(
        {((X, k),) if k else (): d for k, d in enumerate(_unpack(total, b)) if d}, den
    )


class IdentityReport(
    namedtuple("IdentityReport", "input family substituted is_constant constant_value")
):
    """Outcome of substituting a family into a generator polynomial;
    an immutable named tuple, constant_value a Fraction or None."""

    __slots__ = ()

    def to_json(self) -> dict:
        doc = {
            "family": self.family,
            "input": self.input.to_json(),
            "substituted": self.substituted.to_json(),
            "is_constant": self.is_constant,
        }
        if self.is_constant:
            doc["constant_value"] = str(self.constant_value)
        return doc


def verify_identity(p: Poly, family: str) -> IdentityReport:
    """Substitute the family into p and report whether it is constant."""
    substituted = phi_subst(family, p)
    is_constant = substituted.is_constant()
    return IdentityReport(
        input=p,
        family=family,
        substituted=substituted,
        is_constant=is_constant,
        constant_value=substituted.constant_value() if is_constant else None,
    )


def _expected_constant(family: str, n: int) -> Fraction:
    if family == FIBONACCI:
        return Fraction(1 if n % 2 == 1 else 0)
    return Fraction(2 if n % 2 == 0 else 0)


def conjecture_scan(family: str, n_max: int) -> dict:
    """Evaluate the Cayley elements under the family substitution.

    Rows cover n = 3..n_max (fibonacci) or n = 1..n_max (lucas, where
    n = 1 is an informational boundary row excluded from pass/fail).
    The expected-value pattern is only reported against, never assumed.
    """
    _check_family(family)
    n_min = 3 if family == FIBONACCI else 1
    if n_max < (3 if family == FIBONACCI else 2):
        raise ValueError("n_max below the family's first scored element")
    _check_cayley_args(family, n_max)
    rows = []
    ok_all = True
    for n in range(n_min, n_max + 1):
        report = verify_identity(cayley_closed(family, n), family)
        boundary = family == LUCAS and n == 1
        row = {
            "n": n,
            "is_constant": report.is_constant,
            "constant": str(report.constant_value) if report.is_constant else None,
            "boundary": boundary,
        }
        if boundary:
            row["ok"] = None
        else:
            expected = _expected_constant(family, n)
            row["expected"] = str(expected)
            row["ok"] = report.is_constant and report.constant_value == expected
            ok_all = ok_all and row["ok"]
        rows.append(row)
    return {
        "family": family,
        "n_min": n_min,
        "n_max": n_max,
        "rows": rows,
        "ok": ok_all,
    }


def _discriminant_matrix() -> PolyMatrix:
    g = Poly.gen
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


def _discriminant_core() -> Poly:
    t = Poly.term
    return (
        t(6, {0: 1, 3: 1, 2: 1, 1: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {2: 3, 0: 1})
        + t(-1, {0: 2, 3: 2})
    )


def discriminant_demo() -> dict:
    """Cubic-discriminant walkthrough ending in the constant -864.

    The 5x5 matrix is the resultant matrix of the generic cubic and its
    derivative; for a cubic with leading coefficient x_0 the resultant
    carries the classical extra factor -x_0 on top of the discriminant.
    Stages: (a) the determinant factors as -x_0 times 27 times the
    known quartic invariant; (b) that invariant lies in the Appell
    kernel; (c) the determinant of the AL-substituted matrix lies in
    the Lucas kernel; (d) normalizing the same way and substituting the
    Lucas family collapses it to -864.
    """
    stages = []
    matrix = _discriminant_matrix()
    det = matrix.det()
    disc = 27 * _discriminant_core()
    stages.append(
        {
            "stage": "determinant-expansion",
            "ok": det == Poly.term(-1, {0: 1}) * disc,
        }
    )

    stages.append(
        {"stage": "appell-kernel", "ok": kernel_member(Derivation.appell(), disc)}
    )

    sub = psi(AL, 3)
    det_al = matrix.map_entries(sub.apply).det()
    stages.append(
        {"stage": "lucas-kernel", "ok": kernel_member(Derivation.lucas(), det_al)}
    )

    disc_al = divide_by_generator(det_al, 0)
    if disc_al is None:
        stage_d = {"stage": "lucas-constant", "ok": False}
    else:
        report = verify_identity(-disc_al, LUCAS)
        stage_d = {
            "stage": "lucas-constant",
            "ok": report.is_constant and report.constant_value == -864,
        }
        if report.is_constant:
            stage_d["constant"] = str(report.constant_value)
    stages.append(stage_d)

    return {
        "demo": "discriminant",
        "stages": stages,
        "ok": all(s["ok"] for s in stages),
        "constant": stage_d.get("constant"),
    }


def _fraction_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def poly_to_latex(p: Poly, family: str) -> str:
    """Render a generator polynomial with family symbols (F_{i}(x) etc.)."""
    _check_family(family)
    letter = "F" if family == FIBONACCI else "L"

    def symbol(v: int) -> str:
        return "x" if v == X else f"{letter}_{{{v}}}(x)"

    return p.render(
        lambda v, e: symbol(v) + (f"^{{{e}}}" if e > 1 else ""), _fraction_latex, "", "+", "-"
    )


def emit(report: IdentityReport, fmt: str) -> str:
    """Serialize a report: machine JSON or a human LaTeX identity."""
    if fmt == "json":
        return json_text(report.to_json())
    if fmt == "latex":
        lhs = poly_to_latex(report.input, report.family)
        if report.is_constant:
            rhs = _fraction_latex(report.constant_value)
        else:
            rhs = poly_to_latex(report.substituted, report.family)
        return f"{lhs}={rhs}"
    raise ValueError(f"unknown emit format: {fmt!r}")
