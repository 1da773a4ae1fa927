"""Acceptance suite: one test per shipped criterion.

Every check is exact rational equality (no tolerances anywhere); each
criterion also carries a wall-clock budget.  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

from conftest import random_fraction, random_poly
from fiblucas.derivops import Derivation, builtin_image, kernel_member
from fiblucas.dixmier import cayley_closed, cayley_constructive, closed_power_on_generator
from fiblucas.exactnum import TruncatedSeries, binomial
from fiblucas.families import FIBONACCI, LUCAS, verify_derivative_formula
from fiblucas.identity import conjecture_scan, discriminant_demo, phi_subst
from fiblucas.intertwine import AF, AL, ROUTES, alpha, b_sequence, check_intertwining, psi
from fiblucas.polyring import Poly


def g(n):
    return Poly.gen(n)


def _report(label: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"over budget: {line}"


def test_criterion_01_derivative_formulas():
    started = time.perf_counter()
    ok = all(
        verify_derivative_formula(kind, n)
        for kind in (FIBONACCI, LUCAS)
        for n in range(1, 26)
    )
    _report("1 derivative-formulas n=1..25", ok, started, 1.0)


def test_criterion_02_generator_image_table():
    started = time.perf_counter()
    expected = {
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
    ok = all(builtin_image(kind, n) == p for (kind, n), p in expected.items())
    ok = ok and len(expected) == 14
    _report("2 generator-image-table (14 entries)", ok, started, 5.0)


def test_criterion_03_closed_power_oracle():
    started = time.perf_counter()
    ok = True
    count = 0
    for kind in (FIBONACCI, LUCAS):
        d = Derivation(kind)
        for n in range(1, 13):
            for k in range(1, n + 1):
                count += 1
                if closed_power_on_generator(kind, n, k) != d.power(g(n), k):
                    ok = False
    ok = ok and count == 156
    _report("3 closed-power oracle (156 comparisons)", ok, started, 5.0)


def test_criterion_04_cayley_golden_values():
    started = time.perf_counter()
    t = Poly.term
    fib_golden = {
        3: -t(1, {2: 2}) + t(1, {3: 1, 1: 1}),
        4: t(2, {2: 3}) - t(3, {2: 1, 3: 1, 1: 1}) + t(1, {1: 2, 2: 1}) + t(1, {4: 1, 1: 2}),
        5: (
            t(-3, {2: 4})
            + t(6, {2: 2, 3: 1, 1: 1})
            - t(1, {1: 2, 2: 2})
            - t(4, {2: 1, 4: 1, 1: 2})
            + t(1, {5: 1, 1: 3})
        ),
        6: (
            t(4, {2: 5})
            - t(10, {2: 3, 3: 1, 1: 1})
            - t(2, {1: 2, 2: 3})
            + t(10, {2: 2, 4: 1, 1: 2})
            - t(5, {2: 1, 5: 1, 1: 3})
            + t(3, {1: 3, 2: 1, 3: 1})
            - t(1, {1: 4, 2: 1})
            + t(1, {6: 1, 1: 4})
        ),
    }
    lucas_golden = {
        1: g(0),
        2: t(1, {2: 1, 0: 1}) - t(1, {1: 2}),
        3: t(2, {1: 3}) + t(3, {1: 1, 0: 2}) - t(3, {1: 1, 2: 1, 0: 1}) + t(1, {3: 1, 0: 2}),
        4: (
            t(-3, {1: 4})
            - t(4, {1: 2, 0: 2})
            + t(6, {1: 2, 2: 1, 0: 1})
            - t(4, {1: 1, 3: 1, 0: 2})
            + t(1, {4: 1, 0: 3})
        ),
        5: (
            t(4, {1: 5})
            + t(10, {1: 2, 3: 1, 0: 2})
            - t(5, {1: 1, 0: 4})
            - t(5, {1: 1, 4: 1, 0: 3})
            - t(10, {1: 3, 2: 1, 0: 1})
            + t(5, {1: 1, 2: 1, 0: 3})
            + t(1, {5: 1, 0: 4})
        ),
    }
    ok = True
    for n, expected in fib_golden.items():
        ok = ok and cayley_closed(FIBONACCI, n) == expected
        ok = ok and cayley_constructive(FIBONACCI, n) == expected
    for n, expected in lucas_golden.items():
        ok = ok and cayley_closed(LUCAS, n) == expected
        ok = ok and cayley_constructive(LUCAS, n) == expected
    for kind, lo in ((FIBONACCI, 3), (LUCAS, 1)):
        d = Derivation(kind)
        for n in range(lo, 16):
            closed = cayley_closed(kind, n)
            ok = ok and closed == cayley_constructive(kind, n)
            ok = ok and kernel_member(d, closed)
    _report("4 cayley golden values + routes + kernel, n<=15", ok, started, 10.0)


def test_criterion_05_conjecture_scans():
    started = time.perf_counter()
    fib = conjecture_scan(FIBONACCI, 20)
    lucas = conjecture_scan(LUCAS, 20)
    ok = fib["ok"] and lucas["ok"]
    for row in fib["rows"]:
        expected = "1" if row["n"] % 2 == 1 else "0"
        ok = ok and row["constant"] == expected
    for row in lucas["rows"]:
        if row["boundary"]:
            continue
        expected = "2" if row["n"] % 2 == 0 else "0"
        ok = ok and row["constant"] == expected
    _report("5 conjecture scans to n=20", ok, started, 30.0)


def test_criterion_06_b_sequences():
    started = time.perf_counter()
    ok = b_sequence(AL, 7) == [
        Fraction(1),
        Fraction(1),
        Fraction(3, 4),
        Fraction(19, 36),
        Fraction(211, 576),
        Fraction(1217, 4800),
        Fraction(30307, 172800),
    ]
    ok = ok and b_sequence(AF, 7) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(7, 144),
        Fraction(13, 960),
        Fraction(107, 28800),
        Fraction(409, 403200),
    ]
    _report("6 b-sequences (7 exact fractions each)", ok, started, 5.0)


def test_criterion_07_alpha_routes_and_formulas():
    started = time.perf_counter()
    ok = True
    for kind in (AL, AF):
        for s in range(1, 7):
            for n in range(s, 21):
                values = {alpha(kind, n, s, route) for route in ROUTES}
                ok = ok and len(values) == 1
    al_formulas = {
        1: lambda n: Fraction(n * (n - 2)),
        2: lambda n: Fraction((n - 4) * binomial(n, 2) * (3 * n - 7), 2),
        3: lambda n: Fraction((n - 6) * binomial(n, 3) * (19 * n**2 - 141 * n + 254), 6),
        4: lambda n: Fraction(
            (n - 8) * binomial(n, 4) * (211 * n**3 - 3258 * n**2 + 16481 * n - 27306),
            24,
        ),
        5: lambda n: Fraction(
            (n - 10)
            * binomial(n, 5)
            * (3651 * n**4 - 96550 * n**3 + 946185 * n**2 - 4071950 * n + 6492024),
            120,
        ),
    }
    af_formulas = {
        1: lambda n: Fraction((n - 1) * (n - 2), 2),
        2: lambda n: Fraction((n - 4) * (n - 3) * (n - 2) * n, 6),
        3: lambda n: Fraction((n - 1) * n * (n - 4) * (n - 5) * (7 * n - 17) * (n - 6), 144),
        4: lambda n: Fraction(
            (n - 8)
            * (39 * n**2 - 296 * n + 545)
            * (n - 7)
            * (n - 6)
            * (n - 2)
            * (n - 1)
            * n,
            2880,
        ),
    }
    for s, formula in al_formulas.items():
        for n in range(1, 21):
            ok = ok and alpha(AL, n, s) == formula(n)
    for s, formula in af_formulas.items():
        for n in range(1, 21):
            ok = ok and alpha(AF, n, s) == formula(n)
    _report("7 alpha three-route agreement + printed formulas", ok, started, 10.0)


def test_criterion_08_intertwining_maps():
    started = time.perf_counter()
    al = check_intertwining(
        psi(AL, 15), Derivation.appell(), Derivation.lucas(), 15, kind=AL
    )
    af = check_intertwining(
        psi(AF, 15), Derivation.appell(), Derivation.fibonacci(), 15, kind=AF
    )
    ok = al["ok"] and af["ok"]
    _report("8 intertwining AL and AF to n=15", ok, started, 10.0)


def test_criterion_09_discriminant_demo():
    started = time.perf_counter()
    report = discriminant_demo()
    ok = report["ok"] and report["constant"] == "-864"
    ok = ok and all(stage["ok"] for stage in report["stages"])
    ok = ok and len(report["stages"]) == 4
    _report("9 discriminant demo ends at -864", ok, started, 10.0)


def test_criterion_10_property_suites():
    started = time.perf_counter()
    ok = True
    rng = random.Random(2024)

    # Leibniz + linearity, 200 random pairs per derivation
    for kind in ("fibonacci", "lucas", "appell"):
        d = Derivation(kind)
        for _ in range(200):
            p = random_poly(rng, max_var=6)
            q = random_poly(rng, max_var=6)
            ok = ok and d(p * q) == d(p) * q + p * d(q)
            a = random_fraction(rng)
            b = random_fraction(rng)
            ok = ok and d(a * p + b * q) == a * d(p) + b * d(q)

    # substitution intertwines the derivation with d/dx, 100 per family
    for family in (FIBONACCI, LUCAS):
        d = Derivation(family)
        for _ in range(100):
            p = random_poly(rng, max_var=8)
            ok = ok and phi_subst(family, d(p)) == phi_subst(family, p).diff_x()

    # series reciprocal round-trip on 100 random series
    for _ in range(100):
        order = rng.randint(1, 16)
        coeffs = [random_fraction(rng) for _ in range(order)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1 + rng.randint(0, 8))
        s = TruncatedSeries(coeffs)
        ok = ok and s * s.reciprocal() == TruncatedSeries.one(order)

    # the linear two-step relation collapses to n*F_{n-1} after substitution
    d = Derivation.fibonacci()
    from fiblucas.families import family_poly

    for n in range(2, 13):
        lhs = phi_subst(FIBONACCI, 2 * d(g(n)) - g(2) * d(g(n - 1)))
        ok = ok and lhs == n * family_poly(FIBONACCI, n - 1)

    _report("10 property suites (Leibniz, phi/ddx, series, relation)", ok, started, 60.0)
