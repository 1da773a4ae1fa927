import cProfile
import pstats
import random
import re
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest

from conftest import random_fraction, random_poly
from fiblucas import derivops, dixmier
from fiblucas.derivops import Derivation, builtin_image, kernel_member
from fiblucas.dixmier import cayley_closed, closed_power_on_generator
from fiblucas.families import APPELL, FIBONACCI, LUCAS, family_poly
from fiblucas.identity import phi_subst
from fiblucas.polyring import _MAX_INDEX, Poly, X, mono_from_exps, mul_into, var_name


def g(n):
    return Poly.gen(n)


def trusted_gen(n):
    """x_n through the trusted Poly.from_terms, which checks no index: the
    one way a polynomial on a generator past the index limit can exist."""
    return Poly.from_terms([(((n, 1),), 1)])


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


def test_images_match_term_by_term_sums():
    # the images as the sum of their terms, one Poly addition at a time
    for kind in (FIBONACCI, LUCAS):
        for n in range(1, 201):
            expected = Poly.zero()
            for k in range((n - 1) // 2 + 1):
                sub = n - 1 - 2 * k
                coeff = (-1) ** k * (sub if kind == FIBONACCI else n)
                if coeff:
                    expected = expected + Poly.term(coeff, {sub: 1})
            assert builtin_image(kind, n) == expected, (kind, n)


def test_integer_images_and_leibniz_pass_build_no_fraction():
    c = cayley_closed(LUCAS, 40)
    builtin_image.cache_clear()
    profile = cProfile.Profile()
    images = profile.runcall(lambda: [builtin_image(LUCAS, n) for n in range(300)])
    assert profile.runcall(Derivation.lucas(), c).is_zero()
    built = [f for f in pstats.Stats(profile).stats if f[0].endswith("fractions.py") and f[2] == "__new__"]
    assert not built
    assert images[7] == 7 * (g(6) - g(4) + g(2) - g(0))


def test_image_index_limit_and_memo_bound():
    past = f"generator x{_MAX_INDEX + 1} is past the index limit {_MAX_INDEX}$"
    for kind in (FIBONACCI, LUCAS, APPELL):
        assert builtin_image(kind, _MAX_INDEX).variables()
        with pytest.raises(ValueError, match=past):
            builtin_image(kind, _MAX_INDEX + 1)
        with pytest.raises(ValueError, match=past):
            Derivation(kind)(trusted_gen(_MAX_INDEX + 1))
    # bounded, and one derivation's images up to the limit fit in the memo
    assert _MAX_INDEX < builtin_image.cache_info().maxsize <= 1024


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


def test_derivation_repr_and_negative_power():
    assert [repr(Derivation(kind)) for kind in (FIBONACCI, LUCAS, APPELL)] == [
        "Derivation('fibonacci')", "Derivation('lucas')", "Derivation('appell')"]
    with pytest.raises(ValueError, match="^power must be >= 0$"):
        Derivation.lucas().power(g(3), -1)


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


def test_closed_power_is_zero_past_the_index(monkeypatch):
    # every image lowers the index, so D^k(x_n) = 0 for k > n
    for kind in (FIBONACCI, LUCAS):
        d = Derivation(kind)
        for n in range(11):
            for k in (n + 1, n + 2):
                assert closed_power_on_generator(kind, n, k) == d.power(g(n), k) == 0, (kind, n, k)
    # and no coefficient is computed: at n = 0 they start from the generalized C(-1, k-1)
    monkeypatch.setattr(dixmier, "_closed_power_terms",
                        lambda *args: pytest.fail(f"coefficients computed for {args}"))
    for kind in (FIBONACCI, LUCAS):
        t0 = perf_counter()
        assert closed_power_on_generator(kind, 0, 10**6).is_zero()
        assert perf_counter() - t0 < 0.1


def test_closed_power_argument_checks(monkeypatch):
    with pytest.raises(ValueError):
        closed_power_on_generator(APPELL, 3, 1)
    with pytest.raises(ValueError):
        closed_power_on_generator(FIBONACCI, 3, 0)
    # the index is refused before any coefficient is computed
    monkeypatch.setattr(dixmier, "_closed_power_terms",
                        lambda *args: pytest.fail(f"coefficients computed for {args}"))
    for n, message in ((-1, "generator index must be >= 0"),
                       (_MAX_INDEX + 1, f"generator x{_MAX_INDEX + 1} is past the index limit"),
                       (10**6, f"generator x{10**6} is past the index limit")):
        for kind in (FIBONACCI, LUCAS):
            with pytest.raises(ValueError, match=f"^{message}"):
                closed_power_on_generator(kind, n, 3)


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
    # the three built-ins are the only kinds: an image table is no kind
    for kind in ("custom", "Fibonacci", ""):
        with pytest.raises(ValueError, match="^kind must be one of fibonacci, lucas, appell, "
                                             f"got {re.escape(repr(kind))}$"):
            Derivation(kind)


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


# ---- differential check of the integer Leibniz kernel --------------------


def mono_decrement(m, v):
    """Divide a monomial by one power of ``v`` (which must be present); the
    polyring helper of the merge-based pass, kept for the references."""
    out = []
    seen = False
    for w, e in m:
        if w == v:
            seen = True
            if e > 1:
                out.append((w, e - 1))
        else:
            out.append((w, e))
    if not seen:
        raise ValueError(f"monomial has no factor {var_name(v)}")
    return tuple(out)


def _mono_product(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return mono_from_exps(exps)


def leibniz_reference(d, p):
    """A term-by-term Leibniz loop: every product term as a Fraction,
    merged by Poly.from_terms.  Monomials are multiplied through
    mono_from_exps, independently of mono_mul.  It shares Poly with the
    code under test; test_polyring checks Poly against plain Fraction
    dicts."""

    def terms():
        img_terms = {}
        for mono, c in p.items():
            for v, e in mono:
                img = img_terms.get(v)
                if img is None:
                    img = img_terms[v] = d.image(v)
                if img.is_zero():
                    continue
                rest = mono_decrement(mono, v)
                f = c * e
                for m2, c2 in img.items():
                    yield _mono_product(rest, m2), f * c2

    return Poly.from_terms(terms())


def _wide_fraction(rng):
    # mixed signs, numerators and denominators up to 10^20
    num = rng.randint(-(10 ** rng.randint(0, 20)), 10 ** rng.randint(0, 20))
    return Fraction(num or 1, rng.randint(1, 10 ** rng.randint(0, 20)))


def _wide_poly(rng, max_var, max_terms=8):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.randint(0, max_var)
            exps[v] = exps.get(v, 0) + (rng.randint(20, 60) if rng.random() < 0.1 else rng.randint(1, 3))
        terms.append((mono_from_exps(exps), _wide_fraction(rng)))
    return Poly.from_terms(terms)


def _assert_canonical(p):
    for _, c in p.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_integer_leibniz_matches_fraction_reference(kind):
    rng = random.Random(f"leibniz-{kind}")
    max_var = 12
    d = Derivation(kind)
    fixed = [
        Poly.zero(),
        Poly.constant(_wide_fraction(rng)),
        Fraction(-7, 10 ** 20 + 3) * g(max_var) ** 57 + Fraction(5, 3) * g(2) ** 40 * g(max_var),
        Fraction(-13, 29) * (cayley_closed(kind, 12) if kind in (FIBONACCI, LUCAS) else g(12) * g(3))
        + Fraction(17, 31),
    ]
    cases = fixed + [_wide_poly(rng, max_var) for _ in range(60)]
    for p in cases:
        got = d(p)
        assert got == leibniz_reference(d, p), p
        _assert_canonical(got)
    for p in cases[len(fixed):][:8]:
        expected = p
        for k in range(1, 5):
            expected = leibniz_reference(d, expected)
            got = d.power(p, k)
            assert got == expected, (p, k)
            _assert_canonical(got)


# ---- the packed Leibniz pass against the merge-based pass it replaced -----


def call_reference(self, p):
    """Derivation.__call__ as it was before the packed pass: one mul_into
    merge of monomial tuples per (term, image) pair."""
    if X in p.variables():
        raise ValueError(
            "derivations act on generator polynomials; found x"
        )
    nums, p_den = p.numerators()
    images: dict[int, object] = {}  # v -> image numerators; every image is integral
    acc = {}
    for mono, num in nums.items():
        for v, e in mono:
            img = images.get(v)
            if img is None:
                img = images[v] = self.image(v).numerators()[0].items()
            if img:
                mul_into(acc, ((mono_decrement(mono, v), num * e),), img)
    return Poly._make(acc, p_den)


def _check_packed(d, p):
    got = d(p)
    assert got == call_reference(d, p) == leibniz_reference(d, p), p
    _assert_canonical(got)
    for m in got.numerators()[0]:
        assert m == mono_from_exps(dict(m)) and len(dict(m)) == len(m), m
    return got


def _poly_over(rng, gens, max_exp, max_terms=6):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        chosen = rng.sample(gens, rng.randint(0, min(3, len(gens))))
        exps = {v: rng.randint(1, max_exp) for v in chosen}
        terms.append((mono_from_exps(exps), _wide_fraction(rng)))
    return Poly.from_terms(terms)


def _edge_exponents():
    # exponents at, below and past each field width edge
    return sorted({e for b in range(1, 8) for e in (2 ** b - 1, 2 ** b, 2 ** b + 1)})


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_packed_pass_matches_references_builtin(kind):
    rng = random.Random(f"packed-{kind}")
    d = Derivation(kind)
    cases = [Poly.zero(), Poly.one(), Poly.constant(Fraction(-3, 7))]
    for e in _edge_exponents():
        cases += [g(5) ** e, Fraction(2, 9) * g(3) ** e * g(4) ** (e + 1) - g(1) * g(9) ** e,
                  g(0) ** (e - 1) * g(1) + g(2) ** e * g(7), g(40) ** e + g(39) * g(2) ** (e - 1)]
    cases += [_poly_over(rng, list(range(13)), rng.choice([1, 3, 60])) for _ in range(80)]
    for p in cases:
        _check_packed(d, p)


# sparse generator sets: gaps, the index limit, and x_0, whose image is zero
_SPARSE_GENS = ([0, 2, 3, 300, _MAX_INDEX], [1, 7, 40, 999], [0, 1, 4])


def test_packed_pass_matches_references_custom():
    # the built-ins on sparse generator sets, rational inputs, exponents at the width edges
    rng = random.Random("packed-sparse")
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        for gens in _SPARSE_GENS:
            cases = [Poly.zero(), Poly.constant(Fraction(11, 13))]
            for e in _edge_exponents():
                cases += [g(gens[-1]) ** e, Fraction(-7, 11) * g(gens[1]) ** (e - 1) * g(gens[-1])
                          + Fraction(2, 10 ** 20 + 1) * g(gens[-2]) ** e]
            cases += [_poly_over(rng, gens, rng.choice([1, 4, 40])) for _ in range(30)]
            for p in cases:
                _check_packed(d, p)
    # D(x_0^a x_1) = x_0^(a + 1) fills the widest field the width allows
    for d in (Derivation.lucas(), Derivation.appell()):
        for a in _edge_exponents():
            assert _check_packed(d, g(0) ** a * g(1)) == g(0) ** (a + 1)


def test_packed_table_is_reused_and_widened():
    # one instance on rising, then falling, then rising degree: every call
    # sizes its own fields, whatever the width of the call before it
    for d, gens in ((Derivation.lucas(), list(range(9))),
                    (Derivation.fibonacci(), _SPARSE_GENS[0])):
        rng = random.Random(f"reuse-{d.kind}")
        degrees = [1, 2, 3, 8, 17, 64, 200, 64, 9, 2, 1, 0, 5, 300, 1]
        for top in degrees:
            p = _poly_over(rng, gens, max(top, 1)) + g(gens[-1]) ** top
            _check_packed(d, p)


def test_a_call_never_mixes_two_table_widths(monkeypatch):
    # a call on the same instance made while another one is between its index
    # check and its keys (here, from that call's index check; threads sharing an
    # instance can interleave the same way) changes neither result
    d = Derivation.lucas()
    d(g(1) * g(2) ** 2)
    real, nested = derivops._check_index, []
    wide = g(2) * g(3) ** 300 + g(5) * g(4)

    def check_index(v):
        if not nested:  # the first check only; the nested call's own go straight through
            nested.append(None)
            nested[0] = d(wide)
        return real(v)

    monkeypatch.setattr(derivops, "_check_index", check_index)
    p = g(3) * g(4) + g(5)
    got = d(p)
    monkeypatch.undo()
    assert nested == [Derivation.lucas()(wide)] == [call_reference(d, wide)]
    assert got == Derivation.lucas()(p) == call_reference(d, p)
    assert d(wide) == nested[0]


def test_packed_pass_matches_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    derivations = [Derivation(kind) for kind in (FIBONACCI, LUCAS, APPELL)]
    gens = st.sampled_from([0, 1, 2, 3, 7, 12, 300, _MAX_INDEX])
    monos = st.dictionaries(gens, st.integers(1, 70), max_size=4)
    coeffs = st.fractions(max_denominator=10 ** 12).filter(bool)
    polys = st.lists(st.tuples(monos, coeffs), max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, len(derivations) - 1), polys)
    def check(which, terms):
        d = derivations[which]
        p = Poly.from_terms((mono_from_exps(m), c) for m, c in terms)
        try:
            want = call_reference(d, p)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                d(p)
            return
        got = d(p)
        assert got == want
        _assert_canonical(got)

    check()


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_index_limit_checked_before_any_shift(kind, monkeypatch):
    # a polynomial on a generator past the limit cannot be named; built by the
    # trusted constructor it is still refused, by the index check, before any key
    def no_key(*args):
        raise AssertionError("a key was built before every index was checked")

    d = Derivation(kind)
    monkeypatch.setattr(derivops, "_pack", no_key)
    for v, shown in ((_MAX_INDEX + 1, f"x{_MAX_INDEX + 1}"),
                     (10 ** 3999 + 7, "x<13285-bit index>")):
        for p in (trusted_gen(v), g(1) * g(2) ** 3 + trusted_gen(v) ** 2 * g(3)):
            t0 = perf_counter()
            with pytest.raises(ValueError, match=f"^generator {shown} is past the index limit "
                                                 f"{_MAX_INDEX}$"):
                d(p)
            assert perf_counter() - t0 < 1.0
    monkeypatch.undo()
    p = g(1) * g(2) ** 3 + g(_MAX_INDEX) ** 2
    assert d(p) == call_reference(d, p)


def test_field_width_is_never_a_multiple_of_61(monkeypatch):
    # CPython hashes an int modulo 2^61 - 1: at a width of 61, 122, ... every
    # key of a homogeneous result would hash to the same exponent sum
    d, real, widths = Derivation.lucas(), derivops._pack, []

    def pack(monos, bits):
        widths.append(bits)
        return real(monos, bits)

    monkeypatch.setattr(derivops, "_pack", pack)
    for top in (2 ** 60, 2 ** 121, 2 ** 182):
        p = sum((g(i) * g(50) ** top for i in range(8)), Poly.zero())
        del widths[:]
        _check_packed(d, p)
        assert widths == [top.bit_length() + 1]


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_key_size_limit_checked_before_any_key(kind, monkeypatch):
    def no_key(*args):
        raise AssertionError("a key was built before the key size was checked")

    d = Derivation(kind)
    narrow = g(1000) ** 2 * g(3) + g(7)
    _check_packed(d, narrow)
    wide = 10 ** 400
    monkeypatch.setattr(derivops, "_pack", no_key)
    for p, fields, bits in (
        (g(999) ** wide * g(1000) ** wide, 1001, 1330),
        (sum((g(i) * g(1000) ** 2 ** 60 for i in range(40)), Poly.zero()), 1001, 62),
        (g(1000) ** 2 ** 16, 1001, 17),
        (g(5) ** 10 ** 4000 * g(201), 202, 13288),
    ):
        t0 = perf_counter()
        with pytest.raises(ValueError, match=(
            f"keys of {fields} fields of {bits} bits measure fields\\^2 \\* bits = "
            f"{fields * fields * bits}, past the derivation key limit {derivops._MAX_KEY_SIZE}$"
        )):
            d(p)
        assert perf_counter() - t0 < 1.0
    monkeypatch.undo()
    _check_packed(d, narrow)  # a refused call leaves the instance as it was
    # just inside the limit: 1001 fields of 16 bits, and 6 fields of 13288 bits
    for p in (g(1000) ** (2 ** 16 - 2) * g(2), g(5) ** 10 ** 4000):
        assert d(p) == call_reference(d, p)


def test_power_builds_no_image():
    # power counts walk steps inside each application; no image Poly is made
    builtin_image.cache_clear()
    for kind in (FIBONACCI, LUCAS, APPELL):
        Derivation(kind).power(g(40) * g(31) ** 2 + g(17), 3)
    assert builtin_image.cache_info().currsize == 0


def test_step_limit_checked_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a form was walked before the steps were checked")

    # 25 000 Fibonacci forms x20 on distinct cofactors in x0 and x1 (images 0),
    # each a walk of 10 steps: exactly the limit
    limit = derivops._MAX_WALK_STEPS
    cofactors = [
        tuple((v, e) for v, e in ((0, i), (1, j)) if e) for i in range(125) for j in range(200)
    ]
    assert len(cofactors) * 10 == limit
    p = Poly.from_terms((m + ((20, 1),), 1) for m in cofactors)
    d = Derivation.fibonacci()
    got, steps = d._apply(p, 0)
    assert steps == limit
    assert got == d(g(20)) * Poly.from_terms((m, 1) for m in cofactors)
    # one step more: x2 on the new cofactor x0^200
    monkeypatch.setattr(derivops, "_walk", no_walk)
    over = f"take {limit + 1} walk steps in this call, past the derivation step limit {limit}$"
    for call in (d, lambda q: d.power(q, 2)):
        with pytest.raises(ValueError, match=over):
            call(p + g(2) * g(0) ** 200)


# ---- the grouped pass: one recurrence per cofactor's linear form ----------


_LOW = {FIBONACCI: 2, LUCAS: 1, APPELL: 1}  # the lowest generator with a nonzero image


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS, APPELL])
def test_recurrence_reproduces_every_image(kind):
    # the walk on the one-term form a x_v is a * D(x_v), as derivative_terms defines
    # it: with x_i keyed i, the accumulator holds index -> coefficient
    rng = random.Random(f"walk-{kind}")
    for v in range(_MAX_INDEX + 1):
        if v < _LOW[kind]:
            assert builtin_image(kind, v).is_zero()
            continue
        a = rng.choice([1, -1, rng.randint(-10 ** 30, 10 ** 30) or 1])
        acc, _ = derivops._images(kind, {((v, 1),): a}, {((v, 1),): v}, range(_MAX_INDEX + 1), 0)
        nums, den = builtin_image(kind, v).numerators()
        assert den == 1
        assert {((i, 1),): c for i, c in acc.items() if c} == {m: a * c for m, c in nums.items()}, v


@pytest.mark.parametrize("kind", [FIBONACCI, LUCAS])
def test_grouped_pass_matches_reference_on_cayley_elements(kind):
    rng = random.Random(f"grouped-{kind}")
    d = Derivation(kind)
    for n in sorted(rng.sample(range(1, 150), 5)) + [150]:
        q, r = _wide_fraction(rng), _wide_fraction(rng)
        p = q * cayley_closed(kind, n) + r
        got = d(p)
        assert got == call_reference(d, p), n
        _assert_canonical(got)
        if n <= 40:  # a multiple that is no kernel element: longer forms per cofactor
            p = p * (g(n) + Fraction(3, 7) * g(n - 1) * g(0))
            assert d(p) == call_reference(d, p), n


def test_grouped_pass_edge_groups():
    t = Poly.term
    cases = {
        # one cofactor, x2^3 x9, with generators of both parities and exponents past 1
        "both parities": t(1, {2: 3, 9: 1}) * (3 * g(7) - 5 * g(4) ** 2 + 2 * g(10) + g(1) + g(0))
        + t(Fraction(-4, 9), {2: 3, 9: 2}),
        # Lucas: G_7 = 35 and G_5 = 5 * 7 - 35 = 0, then restarted by x_3;
        # Fibonacci: S_7 = 1 and S_5 = 1 - 1 = 0, then restarted by x_3
        "lucas cancels": t(1, {12: 2}) * (5 * g(7) + 7 * g(5) + g(3)),
        "fibonacci cancels": t(1, {12: 2}) * (g(7) + g(5) - 2 * g(3)) + g(9) + g(7),
        # cofactors on x_0 and x_1, whose images are 0 (x_1's for Fibonacci only)
        "zero images": g(0) ** 3 * g(1) ** 2 * g(5) + g(0) * g(1) + g(0) ** 4 + g(1) ** 7 * g(0),
        # single-generator groups at the index limit
        "x1000": g(_MAX_INDEX) * g(3) ** 2 + Fraction(5, 3) * g(_MAX_INDEX) ** 2 + g(_MAX_INDEX - 1),
    }
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        for name, p in cases.items():
            assert _check_packed(d, p) == call_reference(d, p), (kind, name)
    lucas, fib, appell = Derivation.lucas(), Derivation.fibonacci(), Derivation.appell()
    assert lucas(5 * g(7) + 7 * g(5)) == 35 * g(6)
    assert fib(g(7) + g(5)) == 6 * g(6)
    assert lucas(g(0) ** 4) == fib(g(1) ** 7 * g(0)) == 0
    assert appell(g(_MAX_INDEX) * g(3) ** 2) == _MAX_INDEX * g(_MAX_INDEX - 1) * g(3) ** 2 + 6 * g(_MAX_INDEX) * g(3) * g(2)


def test_linear_form_at_the_index_limit_is_fast():
    # one cofactor, 1, holds x0 + ... + x1000: one walk of 1000 steps, where the
    # (term, image term) pairs number about 250 000
    p = sum((g(v) for v in range(_MAX_INDEX + 1)), Poly.zero())
    for kind in (FIBONACCI, LUCAS, APPELL):
        d = Derivation(kind)
        t0 = perf_counter()
        got = d(p)
        assert perf_counter() - t0 < 1.0, kind
        assert got == call_reference(d, p), kind
