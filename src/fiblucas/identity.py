"""Identity verification: family substitution, scans, demo, emission.

Substituting the family polynomials for the generators (x_i -> F_i(x)
or L_i(x)) turns every kernel element of the matching derivation into a
polynomial identity: the substituted polynomial collapses to a rational
constant.  verify_identity performs the substitution and reports; the
conjecture scan checks the observed constants of the Cayley elements
against the expected P_n(0) without ever assuming it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .derivops import Derivation, kernel_member
from .dixmier import _cayley_groups, _check_cayley_args
from .dixmier import cayley_closed  # noqa: F401  perfbench/launcher.py wraps it here by name
from .families import FIBONACCI, LUCAS, _check_kind, family_values
from .families import family_poly  # noqa: F401  perfbench/launcher.py wraps it here by name
from .intertwine import AL, psi
from .polyring import (
    _MAX_INDEX, Mono, Poly, X, _check_index, _digit_limit_error, det, divide_by_generator,
    json_text,
)

__all__ = [
    "IdentityReport",
    "phi_subst",
    "verify_identity",
    "conjecture_scan",
    "discriminant_demo",
    "emit",
    "poly_to_latex",
]

_MAX_SUBST_DEGREE = 1000  # largest degree in x of a substituted polynomial


def _unpack(packed: int, b: int) -> list[int]:
    """Balanced base-2^b digits of ``packed``, lowest first: the coefficients
    of a polynomial from its value at x = 2^b, if all lie in [-2^(b-1), 2^(b-1)).
    Linear time: each b-bit field is read from one buffer of packed's
    two's-complement bits, and a spare top field takes the last carry."""
    bits = (packed.bit_length() // b + 2) * b
    buf = (packed & ((1 << bits) - 1)).to_bytes((bits + 7) >> 3, "little")
    mask, half, carry, digits = (1 << b) - 1, 1 << (b - 1), 0, []
    for lo in range(0, bits, b):
        d = (int.from_bytes(buf[lo >> 3 : (lo + b + 7) >> 3], "little") >> (lo & 7) & mask) + carry
        carry = d >= half
        digits.append(d - (carry << b))
    while digits and not digits[-1]:
        digits.pop()
    return digits


@lru_cache(maxsize=None)
def _norm_bits(family: str) -> tuple[int, ...]:
    """ceil(log2 P_v(1)) for v = 0.._MAX_INDEX, 0 where P_v(1) <= 1."""
    norms = family_values(family, 0, range(_MAX_INDEX + 1))
    return tuple([(norms[v] - 1).bit_length() if norms[v] else 0 for v in sorted(norms)])


def _subst_bounds(family: str, groups) -> tuple[set[int], int, int, dict[Mono, tuple]]:
    """Pass 1 of the Kronecker core: the generators, degree bound and width N'
    of the Horner groups, and the bounds of each distinct factor.  The
    degree is read off the exponents: deg F_v = v-1, deg L_v = v (F_0, F_1
    and L_0 add nothing).  A prefix is read once per group and a factor
    once per call.  Refuses a degree past the degree limit; a term past it
    is never shifted."""
    shift = 1 if family == FIBONACCI else 0
    bits, gens = _norm_bits(family), set()

    def bounds(m: Mono) -> tuple[int, int, bool]:
        degree = log = 0
        vanishes = False
        for v, e in m:
            gens.add(v)
            if v == X:  # X is above every generator index
                degree += e
            elif v > shift:
                if v > _MAX_INDEX:  # only the unchecked Poly.from_terms builds one
                    _check_index(v)
                degree += e * (v - shift)
                log += e * bits[v]
            elif v < shift:  # the Fibonacci x_0: F_0 = 0
                vanishes = True
        return degree, log, vanishes

    seen: dict[Mono, tuple[int, int, bool]] = {}
    top = width = 0
    for prefix, factors, coeffs in groups:
        degree, log, vanishes = bounds(prefix)
        inner = 0
        for f, c in zip(factors, coeffs):
            f_degree, f_log, f_vanishes = seen.get(f) or seen.setdefault(f, bounds(f))
            f_degree += degree
            if f_degree > top:
                top = f_degree
            if not f_vanishes and f_degree <= _MAX_SUBST_DEGREE:
                inner += abs(c) << f_log
        if inner and not vanishes:
            width += inner << log
    if top > _MAX_SUBST_DEGREE:
        raise ValueError(f"substituted degree {top} is past the degree limit {_MAX_SUBST_DEGREE}")
    gens.discard(X)
    return gens, top, width, seen


def _kronecker(family: str, groups, den: int) -> Poly:
    """The substitution of the Horner groups (prefix, factors, coeffs) over
    den, the polynomial sum prefix * factors[i] * coeffs[i] / den.

    Pass 1 bounds every result coefficient (see phi_subst); pass 2
    evaluates at x = 2^b.  Each linear form sum coeffs[i] * factors[i] is
    summed first, then its prefix applied once.  A base that is a power
    of two (x, F_1 = L_0 = 1, F_2 = L_1 = x) is applied as a shift; F_0 = 0
    is no power of two, so its terms vanish by the product.
    """
    gens, _, width, factors = _subst_bounds(family, groups)
    b = width.bit_length() + 2
    base = family_values(family, b, gens)
    base[X] = 1 << b
    shifts = {v: P.bit_length() - 1 for v, P in base.items() if P > 0 and not P & (P - 1)}
    powers: dict[tuple[int, int], int] = {}

    def apply(c: int, m: Mono) -> int:
        """c * prod base[v]^e over m, each power of two as one shift."""
        bit = 0
        for ve in m:
            s = shifts.get(ve[0])
            if s is None:  # the power memo is read inline; a zero power is recomputed
                c *= powers.get(ve) or powers.setdefault(ve, base[ve[0]] ** ve[1])
            else:
                bit += s * ve[1]
        return c << bit

    values = {f: apply(1, f) for f in factors}
    total = 0
    for prefix, factors, coeffs in groups:
        linear = sum(map(mul, coeffs, map(values.__getitem__, factors)))
        if linear:
            total += apply(linear, prefix)
    digits = _unpack(total, b)
    return Poly._make({((X, k),) if k else (): d for k, d in enumerate(digits) if d}, den)


def _groups(nums: dict[Mono, int]) -> list:
    """A polynomial's numerators as Horner groups (prefix, factors, coeffs):
    terms keyed by all but their last factor, which each keeps as its factor."""
    groups: dict[Mono, tuple[list, list]] = {}
    for m, c in nums.items():
        group = groups.get(m[:-1])
        if group is None:
            group = groups[m[:-1]] = ([], [])
        group[0].append(m[-1:])
        group[1].append(c)
    return [(prefix, factors, coeffs) for prefix, (factors, coeffs) in groups.items()]


def phi_subst(family: str, p: Poly) -> Poly:
    """Substitute x_i -> family polynomial i; result is univariate in x.

    Kronecker substitution over the integers, in two passes over p's
    terms grouped by all but their last factor (_kronecker, the one core
    the conjecture scan also runs on the Cayley groups).  With den the
    common denominator of p, each image P_v is one int, its value at
    x = 2^b straight from the family recurrence, so den*p evaluates to
    one int whose digits, divided by den, are the result's coefficients.
    No result coefficient exceeds N = sum |c*den| * prod P_v(1)^e in
    size (P_v(1) is the sum of P_v's absolute coefficients).  Pass 1
    bounds it by N' = sum |c*den| << sum e * ceil(log2 P_v(1)) >= N,
    leaving out terms with the factor F_0 = 0, so b two bits past N'
    decodes exactly; pass 2 is the packed evaluation.
    """
    _check_kind(family, (FIBONACCI, LUCAS))
    nums, den = p.numerators()
    return _kronecker(family, _groups(nums), den)


class IdentityReport(
    namedtuple("IdentityReport", "input family substituted is_constant constant_value")
):
    """Outcome of substituting a family into a generator polynomial;
    an immutable named tuple, constant_value a Fraction or None."""

    __slots__ = ()

    def _doc(self) -> dict:
        """The JSON document with its polynomials as Poly values, which json_text writes."""
        doc = dict(family=self.family, input=self.input, substituted=self.substituted,
                   is_constant=self.is_constant)
        if self.is_constant:
            doc["constant_value"] = str(self.constant_value)
        return doc

    def to_json(self) -> dict:
        return {k: v.to_json() if isinstance(v, Poly) else v for k, v in self._doc().items()}


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
    """P_n(0), the constant the scan expects of C_n.  phi turns D into d/dx
    and sends the slice h and its image g to x and 1, so by Taylor's formula
    phi(C_n) = sum_k P_n^(k)(x) (-x)^k / k! = P_n(x - x) = P_n(0).  Read off
    the recurrence at x = 0 from the classical start, L_0 = 2 (n >= 2 here)."""
    low, high = (0, 1) if family == FIBONACCI else (2, 0)
    for _ in range(n):
        low, high = high, low  # P_(k+1)(0) = 0 * P_k(0) + P_(k-1)(0)
    return Fraction(low)


def conjecture_scan(family: str, n_max: int) -> dict:
    """Evaluate the Cayley elements under the family substitution.

    Rows cover n = 3..n_max (fibonacci) or n = 1..n_max (lucas, where
    n = 1 is an informational boundary row excluded from pass/fail).
    Each C_n is substituted straight from its closed formula's Horner
    groups by the Kronecker core phi_subst runs on, so no C_n is built.
    The expected value P_n(0) is only reported against, never assumed.
    """
    _check_kind(family, (FIBONACCI, LUCAS))
    n_min = 3 if family == FIBONACCI else 1
    if n_max < (3 if family == FIBONACCI else 2):
        raise ValueError("n_max below the family's first scored element")
    _check_cayley_args(family, n_max)
    rows = []
    ok_all = True
    for n in range(n_min, n_max + 1):
        substituted = _kronecker(family, *_cayley_groups(family, n))
        constant = substituted.constant_value() if substituted.is_constant() else None
        boundary = family == LUCAS and n == 1
        row = {
            "n": n,
            "is_constant": constant is not None,
            "constant": None if constant is None else str(constant),
            "boundary": boundary,
        }
        if boundary:
            row["ok"] = None
        else:
            expected = _expected_constant(family, n)
            row["expected"] = str(expected)
            row["ok"] = constant == expected
            ok_all = ok_all and row["ok"]
        rows.append(row)
    return {
        "family": family,
        "n_min": n_min,
        "n_max": n_max,
        "rows": rows,
        "ok": ok_all,
    }


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
    g, z = Poly.gen, Poly.zero()
    matrix = [
        [g(0), 3 * g(1), 3 * g(2), g(3), z],
        [z, g(0), 3 * g(1), 3 * g(2), g(3)],
        [3 * g(0), 6 * g(1), 3 * g(2), z, z],
        [z, 3 * g(0), 6 * g(1), 3 * g(2), z],
        [z, z, 3 * g(0), 6 * g(1), 3 * g(2)],
    ]
    disc = 27 * _discriminant_core()
    stages.append(
        {
            "stage": "determinant-expansion",
            "ok": det(matrix) == Poly.term(-1, {0: 1}) * disc,
        }
    )

    stages.append(
        {"stage": "appell-kernel", "ok": kernel_member(Derivation.appell(), disc)}
    )

    sub = psi(AL, 3)
    det_al = det([[sub.apply(e) for e in row] for row in matrix])
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
    try:
        if c.denominator == 1:
            return str(c.numerator)
        sign = "-" if c < 0 else ""
        return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    except ValueError:  # str() refuses an int past the interpreter's digit limit
        raise _digit_limit_error("a coefficient") from None


def poly_to_latex(p: Poly, family: str) -> str:
    """Render a generator polynomial with family symbols (F_{i}(x) etc.)."""
    _check_kind(family, (FIBONACCI, LUCAS))
    letter = "F" if family == FIBONACCI else "L"

    def symbol(v: int) -> str:
        return "x" if v == X else f"{letter}_{{{v}}}(x)"

    return p.render(
        lambda v, e: symbol(v) + (f"^{{{e}}}" if e > 1 else ""), _fraction_latex, "", "+", "-"
    )


def emit(report: IdentityReport, fmt: str) -> str:
    """Serialize a report: machine JSON or a human LaTeX identity."""
    if fmt == "json":
        return json_text(report._doc())
    if fmt == "latex":
        lhs = poly_to_latex(report.input, report.family)
        if report.is_constant:
            rhs = _fraction_latex(report.constant_value)
        else:
            rhs = poly_to_latex(report.substituted, report.family)
        return f"{lhs}={rhs}"
    raise ValueError(f"unknown emit format: {fmt!r}")
