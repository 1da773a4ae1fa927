import json
import random
from fractions import Fraction
from math import factorial, gcd
from typing import Sequence

import pytest

from fiblucas import cli, intertwine
from fiblucas.derivops import Derivation
from fiblucas.exactnum import bessel_j0_series, bessel_j1_series, binomial, falling_factorial
from fiblucas.intertwine import (
    AF,
    AL,
    ROUTE_BETA,
    ROUTE_RECURRENCE,
    ROUTE_SERIES,
    ROUTES,
    LinearSubstitution,
    _MAX_INTERTWINE_N,
    _MEMO_SIZE,
    _b_coeffs,
    _beta_rows,
    _recurrence_rows,
    alpha,
    alpha_rows,
    b_sequence,
    check_intertwining,
    psi,
)
from fiblucas.polyring import Poly


def g(n):
    return Poly.gen(n)


# ---- the Fraction recurrence reference -----------------------------------
#
# The recurrence route as it was built before it stepped in ints: closed
# forward solvers over Fractions, and the backward recurrence below 2s.
# Kept verbatim as the reference the integer tables are checked against.


def solve_recurrence_al(
    a: int, g: Sequence[Fraction], n_max: int
) -> list[Fraction]:
    """Solve (n-a) x_n = n (x_{n-1} + g_{n-1}), x_a = 0, for n = a..n_max.

    Closed form x_n = n^{falling a} * sum_{i=a..n-1} g_i / i^{falling a}.
    ``g`` is indexed absolutely and must cover a..n_max-1.  Returns the
    values x_a..x_{n_max} (so result[j] is x_{a+j}).
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return _solve_forward(a, n_max, lambda i: Fraction(g[i]) / falling_factorial(i, a))


def solve_recurrence_af(
    s: int, g: Sequence[Fraction], n_max: int
) -> list[Fraction]:
    """Solve x_n = n (x_{n-1}/(n-s) + g_{n-1}/(n-s+2)), x_s = 0.

    Closed form x_n = n^{falling s}
        * sum_{i=s..n-1} g_i / (i^{falling s-1} * (i-s+3)),
    valid for s >= 2 (every factor below stays nonzero for i >= s).
    Returns x_s..x_{n_max}.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    return _solve_forward(
        s, n_max, lambda i: Fraction(g[i]) / (falling_factorial(i, s - 1) * (i - s + 3))
    )


def _solve_forward(a: int, n_max: int, term) -> list[Fraction]:
    """x_n = n^{falling a} * sum_{i=a..n-1} term(i) for n = a..n_max."""
    out, acc = [Fraction(0)], Fraction(0)
    for n in range(a + 1, n_max + 1):
        acc += term(n - 1)
        out.append(falling_factorial(n, a) * acc)
    return out if n_max >= a else []


def _fraction_recurrence_rows(
    kind: str, s_max: int, n_max: int
) -> tuple[tuple[Fraction, ...], ...]:
    """alpha_n^(s) tables (rows indexed by s, columns by n) from the
    recurrences: forward by the closed solvers, backward below n = 2s
    by the recurrence itself."""
    n_eff = max(n_max, 2 * s_max)
    ones = tuple(Fraction(1) for _ in range(n_eff + 1))
    rows: list[tuple[Fraction, ...]] = [ones]
    t_rows: list[tuple[Fraction, ...]] = [ones]  # AF only
    for s in range(1, s_max + 1):
        a = 2 * s
        prev = rows[s - 1]
        row = [Fraction(0)] * (n_eff + 1)
        if kind == AL:
            row[a:] = solve_recurrence_al(a, prev, n_eff)
            for m in range(a - 1, -1, -1):
                row[m] = Fraction(m + 1 - a, m + 1) * row[m + 1] - prev[m]
        else:
            t_prev = t_rows[s - 1]
            row[a:] = solve_recurrence_af(a, prev, n_eff)
            for m in range(a - 1, -1, -1):
                row[m] = Fraction(m + 1 - a, m + 1) * (row[m + 1] - t_prev[m + 1])
            t_rows.append(tuple(row[i] - t_prev[i] for i in range(n_eff + 1)))
        rows.append(tuple(row))
    return tuple(rows)


# The reference's closed forms, pinned on their own.


def test_solve_recurrence_al_with_constant_forcing():
    # (n-2) x_n = n (x_{n-1} + 1) telescopes to x_n = n(n-2)
    ones = [Fraction(1)] * 21
    xs = solve_recurrence_al(2, ones, 20)
    assert xs[0] == 0
    for j, n in enumerate(range(2, 21)):
        assert xs[j] == n * (n - 2)


def test_solve_recurrence_al_matches_direct_iteration():
    rng = random.Random(42)
    for a in (0, 1, 3):
        gseq = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(25)]
        closed = solve_recurrence_al(a, gseq, 24)
        direct = [Fraction(0)]
        for n in range(a + 1, 25):
            direct.append(n * (direct[-1] + gseq[n - 1]) / (n - a))
        assert closed == direct


def test_solve_recurrence_al_chained_gives_second_coefficient():
    ones = [Fraction(1)] * 21
    first = [Fraction(0)] * 21
    vals = solve_recurrence_al(2, ones, 20)
    first[2:] = vals
    second = solve_recurrence_al(4, first, 20)
    for j, n in enumerate(range(4, 21)):
        assert second[j] == Fraction(n - 4) * binomial(n, 2) * (3 * n - 7) / 2


def test_solve_recurrence_af_with_constant_forcing():
    ones = [Fraction(1)] * 21
    xs = solve_recurrence_af(2, ones, 20)
    assert xs[0] == 0
    for j, n in enumerate(range(2, 21)):
        assert xs[j] == Fraction((n - 1) * (n - 2), 2)


def test_solve_recurrence_af_matches_direct_iteration():
    rng = random.Random(43)
    for s in (2, 4, 5):
        gseq = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(25)]
        closed = solve_recurrence_af(s, gseq, 24)
        direct = [Fraction(0)]
        for n in range(s + 1, 25):
            direct.append(n * (direct[-1] / (n - s) + gseq[n - 1] / (n - s + 2)))
        assert closed == direct


def test_solve_recurrence_af_chained_gives_second_coefficient():
    first = [Fraction((n - 1) * (n - 2), 2) for n in range(21)]
    second = solve_recurrence_af(4, first, 20)
    for j, n in enumerate(range(4, 21)):
        assert second[j] == Fraction((n - 4) * (n - 3) * (n - 2) * n, 6)


def test_solve_recurrence_af_requires_s_at_least_two():
    with pytest.raises(ValueError):
        solve_recurrence_af(1, [Fraction(1)] * 5, 4)


def test_solvers_out_of_range():
    assert solve_recurrence_al(5, [Fraction(1)] * 6, 4) == []
    assert solve_recurrence_af(5, [Fraction(1)] * 6, 4) == []


# ---- b sequences ---------------------------------------------------------


def test_b_sequence_al_golden():
    assert b_sequence(AL, 7) == [
        Fraction(1),
        Fraction(1),
        Fraction(3, 4),
        Fraction(19, 36),
        Fraction(211, 576),
        Fraction(1217, 4800),
        Fraction(30307, 172800),
    ]


def test_b_sequence_af_golden():
    assert b_sequence(AF, 7) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(7, 144),
        Fraction(13, 960),
        Fraction(107, 28800),
        Fraction(409, 403200),
    ]


def test_b_sequence_normalization():
    assert b_sequence(AL, 1) == [Fraction(1)]
    with pytest.raises(ValueError):
        b_sequence(AL, 0)
    with pytest.raises(ValueError):
        b_sequence("XY", 3)


def test_b_recurrence_identities():
    b_al = b_sequence(AL, 13)
    for n in range(1, 13):
        total = sum(
            Fraction((-1) ** (n - i)) * b_al[i] / factorial(n - i) ** 2
            for i in range(n + 1)
        )
        assert total == 0, n
    b_af = b_sequence(AF, 13)
    for n in range(1, 13):
        total = sum(
            Fraction((-1) ** (n - i))
            * b_af[i]
            / (factorial(n - i) * factorial(n - i + 1))
            for i in range(n + 1)
        )
        assert total == 0, n


# ---- alpha coefficients --------------------------------------------------


AL_FORMULAS = {
    1: lambda n: Fraction(n * (n - 2)),
    2: lambda n: Fraction((n - 4) * binomial(n, 2) * (3 * n - 7), 2),
    3: lambda n: Fraction(
        (n - 6) * binomial(n, 3) * (19 * n ** 2 - 141 * n + 254), 6
    ),
    4: lambda n: Fraction(
        (n - 8)
        * binomial(n, 4)
        * (211 * n ** 3 - 3258 * n ** 2 + 16481 * n - 27306),
        24,
    ),
    5: lambda n: Fraction(
        (n - 10)
        * binomial(n, 5)
        * (
            3651 * n ** 4
            - 96550 * n ** 3
            + 946185 * n ** 2
            - 4071950 * n
            + 6492024
        ),
        120,
    ),
}

AF_FORMULAS = {
    1: lambda n: Fraction((n - 1) * (n - 2), 2),
    2: lambda n: Fraction((n - 4) * (n - 3) * (n - 2) * n, 6),
    3: lambda n: Fraction(
        (n - 1) * n * (n - 4) * (n - 5) * (7 * n - 17) * (n - 6), 144
    ),
    4: lambda n: Fraction(
        (n - 8)
        * (39 * n ** 2 - 296 * n + 545)
        * (n - 7)
        * (n - 6)
        * (n - 2)
        * (n - 1)
        * n,
        2880,
    ),
}


def test_alpha_al_matches_printed_formulas():
    for s, formula in AL_FORMULAS.items():
        for n in range(1, 21):
            assert alpha(AL, n, s) == formula(n), (n, s)


def test_alpha_af_matches_printed_formulas():
    for s, formula in AF_FORMULAS.items():
        for n in range(1, 21):
            assert alpha(AF, n, s) == formula(n), (n, s)


def test_alpha_three_routes_agree():
    for kind in (AL, AF):
        for s in range(1, 7):
            for n in range(s, 21):
                values = {alpha(kind, n, s, route) for route in ROUTES}
                assert len(values) == 1, (kind, n, s)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 10, 60])
def test_alpha_rows_identical_across_routes(n_max):
    s_max = max(1, (n_max - 1) // 2)
    for kind in (AL, AF):
        tables = [alpha_rows(kind, s_max, n_max, route) for route in ROUTES]
        # every column n = 0..max(n_max, 2 s_max), the n < s ones included
        assert all(len(row) == max(n_max, 2 * s_max) + 1 for row in tables[0])
        assert tables[0][0] == (1,) * len(tables[0][0])
        # all three routes hold ints, never Fractions equal to ints
        assert all(type(v) is int for t in tables for row in t for v in row)
        assert tables[0] == tables[1] == tables[2], kind


@pytest.mark.parametrize("kind", [AL, AF])
def test_recurrence_tables_match_fraction_reference(kind):
    # every cell the size limit allows, and tables of other shapes
    top = _MAX_INTERTWINE_N
    for s_max, n_max in ((top // 2, top), (1, 0), (3, 10), (7, top), (top // 2, 0)):
        table = _recurrence_rows(kind, s_max, n_max)
        reference = _fraction_recurrence_rows(kind, s_max, n_max)
        assert all(type(v) is int for row in table for v in row)
        assert len(table) == len(reference) == s_max + 1
        for s, (row, ref) in enumerate(zip(table, reference)):
            assert len(row) == len(ref) == max(n_max, 2 * s_max) + 1
            for n, (v, r) in enumerate(zip(row, ref)):
                assert v == r, (kind, s_max, n_max, s, n)


def test_exact_div_is_the_one_exact_check():
    assert intertwine._exact_div(-12, 4, AL, 5, 2) == -3
    with pytest.raises(ArithmeticError, match=r"AF alpha_9\^\(3\): 7/2 is not an integer") as exc:
        intertwine._exact_div(7, 2, AF, 9, 3)
    assert not isinstance(exc.value, ValueError)


@pytest.mark.parametrize("kind", [AL, AF])
def test_non_exact_recurrence_step_is_an_internal_error(monkeypatch, capsys, kind):
    # one more on the numerator of the step at n = 7, s = 2 (divisor 3)
    exact_div = intertwine._exact_div

    def off_by_one(num, den, kind, n, s):
        return exact_div(num + ((n, s) == (7, 2)), den, kind, n, s)

    monkeypatch.setattr(intertwine, "_exact_div", off_by_one)
    _recurrence_rows.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=f"{kind} alpha_7\\^\\(2\\)"):
            alpha_rows(kind, 3, 10, ROUTE_RECURRENCE)
        code = cli.main(["intertwine", "--kind", kind, "--max", "10", "--route", "recurrence"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert "internal error: ArithmeticError" in err
    finally:
        _recurrence_rows.cache_clear()


def test_table_memos_stay_bounded():
    # scalar alpha keys one table per (kind, s) on every route: these
    # 972 recurrence calls leave at most 6 recurrence tables per kind
    for memo in (_recurrence_rows, _beta_rows, _b_coeffs):
        memo.cache_clear()
    for count, kind in enumerate((AL, AF), 1):
        for route in ROUTES:
            for s in range(1, 7):
                for n in range(81):
                    alpha(kind, n, s, route)
        assert _recurrence_rows.cache_info().currsize <= 6 * count
    for memo in (_recurrence_rows, _beta_rows, _b_coeffs):
        assert memo.cache_info().currsize <= _MEMO_SIZE


def test_scalar_alpha_evaluates_one_cell(monkeypatch):
    # the beta and series routes evaluate alpha_n^(s) alone, not a table:
    # one exact division, and every cell takes one
    expected = alpha_rows(AF, 6, 80, ROUTE_RECURRENCE)[6][80]
    calls = []
    exact_div = intertwine._exact_div
    monkeypatch.setattr(
        intertwine, "_exact_div", lambda *args: calls.append(args[3:]) or exact_div(*args)
    )
    for route in (ROUTE_BETA, ROUTE_SERIES):
        calls.clear()
        assert alpha(AF, 80, 6, route) == expected
        assert calls == [(80, 6)], route
        calls.clear()
        alpha_rows(AF, 6, 80, route)
        # AF cells below n = s-1 are zero by the falling factorial
        assert calls == [(n, s) for s in range(1, 7) for n in range(s - 1, 81)], route


def test_alpha_boundary_condition():
    for kind in (AL, AF):
        for s in range(1, 7):
            for route in ROUTES:
                assert alpha(kind, 2 * s, s, route) == 0, (kind, s, route)


def test_alpha_first_coefficient_values():
    assert alpha(AL, 3, 1) == 3  # the x_3 -> x_3 + 3 x_1 image
    assert alpha(AF, 3, 1) == 1


def test_table_size_limit():
    # every entry point takes the limit and rejects one past it
    top = _MAX_INTERTWINE_N
    limited = f"limited to n <= {top} and s <= {top // 2}"
    assert len(alpha_rows(AF, top // 2, top, ROUTE_RECURRENCE)[-1]) == top + 1
    assert len(alpha_rows(AL, 1, top, ROUTE_SERIES)[1]) == top + 1
    for kind in (AL, AF):
        assert len(b_sequence(kind, top // 2 + 1)) == top // 2 + 1
        with pytest.raises(ValueError, match=limited):
            b_sequence(kind, top // 2 + 2)
    for route in ROUTES:
        assert alpha(AL, top, top // 2, route) == 0  # the boundary n = 2s
        assert alpha(AF, top, 1, route) == AF_FORMULAS[1](top)
        sub = psi(AF, top, route)
        assert sub.image(top) == Poly.from_terms(
            [(((top + 1, 1),), 1)]
            + [(((top + 1 - 2 * s, 1),), alpha(AF, top, s, route))
               for s in range(1, (top - 1) // 2 + 1)]
        )
        with pytest.raises(ValueError, match=f"no image for generator x{top + 1}"):
            sub.image(top + 1)
        for bad in (
            lambda: alpha_rows(AL, 1, top + 1, route),
            lambda: alpha_rows(AF, top // 2 + 1, 0, route),
            lambda: alpha(AF, top + 1, 1, route),
            lambda: alpha(AL, 0, top // 2 + 1, route),
            lambda: psi(AL, top + 1, route),
        ):
            with pytest.raises(ValueError, match=limited):
                bad()
    # the benchmark's intertwine size stays inside the limit
    assert top >= 48


def test_alpha_argument_validation():
    with pytest.raises(ValueError):
        alpha(AL, 4, 0)
    with pytest.raises(ValueError):
        alpha(AL, -1, 1)
    with pytest.raises(ValueError):
        alpha(AL, 4, 1, route="magic")
    with pytest.raises(ValueError):
        alpha_rows("XY", 2, 4)
    for route in ROUTES:
        with pytest.raises(ValueError):
            alpha_rows(AL, -1, 4, route)
        with pytest.raises(ValueError):
            alpha_rows(AL, 2, -1, route)


# ---- the integer rows against the Fraction reference -------------------
#
# The beta and series rows as they were built before they were integer:
# the beta recurrence and the series reciprocal in Fraction arithmetic,
# and each cell as the Fraction sum over falling factorials.  Kept as the
# reference the integer rows and cells are checked against.


def _fraction_beta_rows(kind, s_max):
    """beta_i^(s) for 0 <= i <= s <= s_max, from the beta recurrences."""
    rows = [(Fraction(1),)]
    closure_shift = 0 if kind == AL else 1
    for s in range(1, s_max + 1):
        prev = rows[s - 1]
        row = [-prev[i] / (s - i) for i in range(s)]
        b_s = -sum(
            (row[i] / factorial(s - i + closure_shift) for i in range(s)),
            Fraction(0),
        )
        row.append(b_s)
        rows.append(tuple(row))
    return tuple(rows)


def _fraction_b(kind, count):
    """b_s for s < count: TruncatedSeries.reciprocal of the Bessel-type series."""
    series = bessel_j0_series(count) if kind == AL else bessel_j1_series(count)
    return series.reciprocal().coeffs


def _fraction_rows(kind, route, s_max):
    """beta_i^(s) as Fractions for s = 0..s_max by the route's reference."""
    if route == ROUTE_BETA:
        return _fraction_beta_rows(kind, s_max)
    b = _fraction_b(kind, s_max + 1)
    return tuple(
        tuple(Fraction((-1) ** (s - i)) * b[i] / factorial(s - i) for i in range(s + 1))
        for s in range(s_max + 1)
    )


def _fraction_alpha(kind, beta_row, n, s):
    """alpha_n^(s) as the Fraction sum of beta_i^(s) n^{falling a+i}: the
    evaluation the Horner row evaluator replaced, kept as its reference."""
    shift, lead = (0, 1) if kind == AL else (-1, n - 2 * s + 1)
    total = sum(
        (beta_row[i] * falling_factorial(n, s + shift + i) for i in range(s + 1)),
        Fraction(0),
    )
    return lead * total


def _as_fractions(row):
    """An integer row (B_i, den), checked reduced, as its Fractions."""
    nums, den = row
    assert all(type(v) is int for v in (*nums, den)) and den > 0
    assert gcd(den, *nums) == 1
    return tuple(Fraction(v, den) for v in nums)


@pytest.mark.parametrize("kind", [AL, AF])
def test_integer_rows_match_fraction_rows(kind):
    # every row s <= 50 the size limit allows, by both routes, and the b_s
    top = _MAX_INTERTWINE_N // 2
    assert _as_fractions(_b_coeffs(kind, top + 1)) == _fraction_b(kind, top + 1)
    for route in (ROUTE_BETA, ROUTE_SERIES):
        reference = _fraction_rows(kind, route, top)
        for s in range(top + 1):
            row = intertwine._beta_row(kind, route, s, top)
            assert _as_fractions(row) == reference[s], (kind, route, s)


@pytest.mark.parametrize("route", [ROUTE_BETA, ROUTE_SERIES])
@pytest.mark.parametrize("kind", [AL, AF])
def test_integer_tables_match_fraction_reference(kind, route):
    # every cell the size limit allows
    top = _MAX_INTERTWINE_N
    beta = _fraction_rows(kind, route, top // 2)
    table = alpha_rows(kind, top // 2, top, route)
    for s in range(1, top // 2 + 1):
        for n in range(top + 1):
            assert table[s][n] == _fraction_alpha(kind, beta[s], n, s), (kind, route, s, n)


def test_beta_and_series_routes_do_no_fraction_arithmetic(monkeypatch):
    # cold memos, and every Fraction operator refused: the integer rows
    # are built and evaluated without one
    def refused(*args):
        raise AssertionError("Fraction arithmetic on an integer route")

    for memo in (_beta_rows, _b_coeffs):
        memo.cache_clear()
    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", refused)
        monkeypatch.setattr(Fraction, f"__r{op}__", refused)
    monkeypatch.setattr(Fraction, "__neg__", refused)
    try:
        for kind in (AL, AF):
            for route in (ROUTE_BETA, ROUTE_SERIES):
                assert alpha_rows(kind, 23, 48, route)[23][48] == alpha(kind, 48, 23, route)
    finally:
        for memo in (_beta_rows, _b_coeffs):
            memo.cache_clear()


def test_scalar_alpha_matches_fraction_reference():
    rng = random.Random(2012)
    top = _MAX_INTERTWINE_N
    rows = {
        (kind, route): _fraction_rows(kind, route, top // 2)
        for kind in (AL, AF)
        for route in (ROUTE_BETA, ROUTE_SERIES)
    }
    for _ in range(200):
        kind, route = rng.choice(sorted(rows))
        s, n = rng.randint(1, top // 2), rng.randint(0, top)
        expected = _fraction_alpha(kind, rows[kind, route][s], n, s)
        assert alpha(kind, n, s, route) == expected, (kind, route, s, n)


def test_one_falling_factorial_per_row(monkeypatch):
    # n^{falling a} starts once per row and then steps along it
    calls = []
    monkeypatch.setattr(
        intertwine, "falling_factorial", lambda n, a: calls.append(n) or falling_factorial(n, a)
    )
    for kind in (AL, AF):
        for route in (ROUTE_BETA, ROUTE_SERIES):
            calls.clear()
            table = alpha_rows(kind, 23, 48, route)
            assert len(calls) == 23, (kind, route)  # rows s = 1..23
            assert table == alpha_rows(kind, 23, 48, ROUTE_RECURRENCE)


def _perturbed(memo, edit):
    """A stand-in for a row memo whose result ``edit`` changes in a copy."""

    def rows(kind, size):
        out = list(memo(kind, size))
        edit(out)
        return tuple(out)

    return rows


def _off_integer(rows):
    # beta_0^(2) + 1/(p den), for a prime p above every n in the tables,
    # makes row 2 non-integral wherever the added term is nonzero
    p = 1000003
    nums, den = rows[2]
    rows[2] = ((nums[0] * p + 1, *(v * p for v in nums[1:])), den * p)


def test_non_integer_cell_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(intertwine, "_beta_rows", _perturbed(_beta_rows, _off_integer))
    for kind in (AL, AF):
        with pytest.raises(ArithmeticError, match="not an integer") as exc:
            alpha_rows(kind, 3, 10)
        assert not isinstance(exc.value, ValueError)
        with pytest.raises(ArithmeticError, match="not an integer"):
            alpha(kind, 7, 2)
        # a crash, never a usage error (2) or a failed verification (1)
        code = cli.main(["intertwine", "--kind", kind, "--max", "10", "--route", "beta"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert "internal error: ArithmeticError" in err


@pytest.mark.parametrize("kind", [AL, AF])
def test_route_all_reports_a_perturbed_route(monkeypatch, capsys, kind):
    # one more on the last b_s moves only the series table's last row,
    # by an integer, so psi (beta route) still intertwines
    def last_plus_one(b):
        nums, den = b
        b[0] = (*nums[:-1], nums[-1] + den)

    monkeypatch.setattr(intertwine, "_b_coeffs", _perturbed(_b_coeffs, last_plus_one))
    code = cli.main(["intertwine", "--kind", kind, "--max", "10", "--route", "all"])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["ok"], doc["routes_agree"]) == (1, True, False)


# ---- substitutions and the intertwining check ----------------------------


def test_psi_al_golden_images():
    sub = psi(AL, 6)
    assert sub.image(0) == g(0)
    assert sub.image(1) == g(1)
    assert sub.image(2) == g(2)
    assert sub.image(3) == g(3) + 3 * g(1)
    assert sub.image(4) == g(4) + 8 * g(2)
    assert sub.image(5) == g(5) + 15 * g(3) + 40 * g(1)
    assert sub.image(6) == g(6) + 24 * g(4) + 165 * g(2)


def test_psi_af_golden_images():
    sub = psi(AF, 5)
    assert sub.image(0) == g(1)
    assert sub.image(1) == g(2)
    assert sub.image(2) == g(3)
    assert sub.image(3) == g(4) + g(2)
    assert sub.image(4) == g(5) + 3 * g(3)
    assert sub.image(5) == g(6) + 6 * g(4) + 5 * g(2)


def test_psi_leading_terms():
    al = psi(AL, 12)
    af = psi(AF, 12)
    for n in range(13):
        assert al.image(n).coefficient({n: 1}) == 1
        assert af.image(n).coefficient({n + 1: 1}) == 1


@pytest.mark.parametrize("route", ROUTES)
def test_psi_identical_across_routes(route):
    for kind in (AL, AF):
        for n_max in (10, 30):
            base = psi(kind, n_max)
            other = psi(kind, n_max, route=route)
            for n in range(n_max + 1):
                assert base.image(n) == other.image(n), (kind, n_max, n)


def test_check_intertwining_success():
    rep = check_intertwining(
        psi(AL, 12), Derivation.appell(), Derivation.lucas(), 12, kind=AL
    )
    assert rep == {
        "kind": AL,
        "n_max": 12,
        "ok": True,
        "first_mismatch": None,
        "lhs": None,
        "rhs": None,
    }
    rep = check_intertwining(
        psi(AF, 12), Derivation.appell(), Derivation.fibonacci(), 12, kind=AF
    )
    assert rep["ok"] and rep["first_mismatch"] is None


def test_check_intertwining_identity_map_mismatch():
    identity_map = LinearSubstitution({n: g(n) for n in range(5)})
    rep = check_intertwining(
        identity_map, Derivation.appell(), Derivation.lucas(), 3, kind=AL
    )
    assert not rep["ok"]
    assert rep["first_mismatch"] == 3
    assert rep["lhs"] == (3 * g(2)).to_json()
    assert rep["rhs"] == (3 * g(2) - 3 * g(0)).to_json()


def test_linear_substitution_validation():
    with pytest.raises(ValueError, match="degree 1"):
        LinearSubstitution({0: g(0) ** 2})
    with pytest.raises(ValueError, match="degree 1"):
        LinearSubstitution({0: Poly.x()})
    with pytest.raises(ValueError, match="degree 1"):
        LinearSubstitution({0: g(0) + 1})
    sub = LinearSubstitution({0: g(0), 1: Fraction(1, 2) * g(3)})
    assert sub.image(1) == Fraction(1, 2) * g(3)
    with pytest.raises(ValueError, match="x7"):
        sub.image(7)
    assert sub.image(0) == g(0)
    with pytest.raises(ValueError, match="x2"):
        sub.image(2)


def test_psi_applies_to_polynomials():
    sub = psi(AL, 3)
    p = g(1) * g(3) - g(2) ** 2  # not Appell-kernel; just exercises apply
    assert sub.apply(p) == g(1) * (g(3) + 3 * g(1)) - g(2) ** 2


def test_psi_refuses_a_negative_size():
    for kind in (AL, AF):
        with pytest.raises(ValueError, match="^n_max must be >= 0$"):
            psi(kind, -1)


def test_psi_transports_random_appell_kernel_elements():
    # x_0 and the cubic discriminant invariant generate Appell-kernel
    # elements; their AL images must land in the Lucas kernel
    t = Poly.term
    core = (
        t(6, {0: 1, 1: 1, 2: 1, 3: 1})
        + t(3, {1: 2, 2: 2})
        + t(-4, {1: 3, 3: 1})
        + t(-4, {0: 1, 2: 3})
        + t(-1, {0: 2, 3: 2})
    )
    appell = Derivation.appell()
    lucas = Derivation.lucas()
    sub = psi(AL, 3)
    rng = random.Random(99)
    for _ in range(20):
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-5, 5))
            p = p + c * g(0) ** rng.randint(0, 2) * core ** rng.randint(0, 2)
        assert appell(p) == 0
        assert lucas(sub.apply(p)) == 0
