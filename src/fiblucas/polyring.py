"""Sparse multivariate polynomials over exact rationals.

Variables are the generators x_0, x_1, ..., x_1000 (identified by their
index) plus one distinguished univariate indeterminate ``x``, whose id,
X = 2**62, is above every index: plain int order ranks x last, and a table
indexed by generator raises if read at X.  _MAX_INDEX is the one limit on
generator indices; _check_index enforces it wherever a generator is named.

A polynomial is nonzero integer numerators per monomial over one
positive denominator, kept primitive (the gcd of all of them is 1; zero
is no terms over 1), as in FLINT's fmpq_poly.  The form is unique, so
structural equality is mathematical equality; items() yields reduced
Fractions.  Monomials are sorted tuples of (variable, exponent) pairs
with all exponents positive.

The canonical term order used for printing and serialization is graded
lexicographic: higher total degree first, ties broken by comparing
exponents variable by variable in the order x_0, x_1, ..., x (the
distinguished x always last), larger exponent first.

JSON has one reader, Poly.from_json, one pass into integer numerators
(canonical "p" and "p/q" coefficients read by int(), others by Fraction() unless
a decimal exponent passes the digit limit), and one writer, json_text, equal to
json.dumps(doc, indent=2).  json_text writes a Poly anywhere in a document as its
to_json(), straight from the numerators; both read one term walk, Poly._json_terms
(order, "p/q" text, digit limit).
"""

from __future__ import annotations

import re
import sys
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

__all__ = [
    "X",
    "Mono",
    "Poly",
    "mono_from_exps",
    "mono_mul",
    "mul_into",
    "divide_by_generator",
    "json_text",
    "det",
]

X = 1 << 62  # variable id of the distinguished indeterminate x, above every index

Mono = tuple[tuple[int, int], ...]

_VALID_COEFF = (int, Fraction)

# Largest generator index: a built-in image or family polynomial of index n has about
# n/2 terms, and `identity` on x1000 takes about 0.17 s (CPython 3.11, 2-vCPU x86-64).
_MAX_INDEX = 1000

_CANONICAL_COEFF = re.compile("(-?[0-9]+)(?:/(0*[1-9][0-9]*))?").fullmatch  # "p" or "p/q", q > 0
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z").search  # a decimal exponent, as in Fraction()


def var_name(v: int) -> str:
    return "x" if v == X else f"x{v}"


def clip(text, fmt=repr) -> str:
    """How errors show input: fmt(text), or fmt of its first 40 characters and its length."""
    if isinstance(text, str) and len(text) > 40:
        return f"{fmt(text[:40])}... ({len(text)} characters)"
    return fmt(text)


def _digit_limit_error(subject: str) -> ValueError:
    """The error for a coefficient past the digit limit that str() and int() keep."""
    return ValueError(f"{subject} has more than {sys.get_int_max_str_digits()} decimal digits, "
                      "the limit on JSON coefficients")


def _past_digit_limit(c: str) -> bool:
    """Whether reading c takes an int past the digit limit (none at 0): a longer run of
    digits, or a decimal exponent above the limit, as Fraction() builds 10**exponent."""
    limit = sys.get_int_max_str_digits()
    exp = _EXPONENT(c)
    digits = exp[1].replace("_", "") if exp else "0"
    return bool(limit) and (re.search(rf"\d{{{limit + 1}}}", c) is not None
                            or len(digits) > limit or int(digits) > limit)


def _past_limit(name: str) -> ValueError:
    return ValueError(f"generator {clip(name, str)} is past the index limit {_MAX_INDEX}")


def _check_index(v: int) -> int:
    """v, if x_v is a generator.  Past the limit, x_v is named as in JSON, or by its bit
    length if that name would be clipped: str() of an int has a digit limit."""
    if v < 0:
        raise ValueError("generator index must be >= 0")
    if v > _MAX_INDEX:
        raise _past_limit(f"x{v}" if v < 10**39 else f"x<{v.bit_length()}-bit index>")
    return v


def _parse_var(name: str) -> int:
    """The id of "x" or "x<n>": ASCII digits, no leading zero, so that
    each generator has exactly one name."""
    if name == "x":
        return X
    if isinstance(name, str) and re.fullmatch("x(0|[1-9][0-9]*)", name):
        if len(name) > len(var_name(_MAX_INDEX)):  # refused before int() reads it
            raise _past_limit(name)
        return _check_index(int(name[1:]))
    raise ValueError(f"unknown variable name: {clip(name)}")


def mono_from_exps(exps: Mapping[int, int]) -> Mono:
    items = []
    for v, e in exps.items():
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"invalid variable id: {v!r}")
        if v != X:
            _check_index(v)
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent of {var_name(v)} must be an int, got {e!r}")
        if e < 0:
            raise ValueError(f"negative exponent for {var_name(v)}")
        if e > 0:
            items.append((v, e))
    items.sort()
    return tuple(items)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two canonical monomials: one merge of their sorted pairs."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            out.append((va, ea + eb))
            i, j = i + 1, j + 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def _merge(acc: dict, terms: Iterable, scale: int = 1) -> dict:
    """acc += scale * terms over (monomial, int) pairs, dropping sums that cancel."""
    for m, c in terms:
        s = acc.get(m, 0) + c * scale
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def mul_into(acc: dict, left: Iterable, right: Collection) -> dict:
    """acc += left * right over (monomial, nonzero coefficient) pairs, dropping
    sums that cancel; the product loop of Poly.__mul__."""
    for m1, a in left:
        for m2, b in right:
            m = mono_mul(m1, m2)
            s = acc.get(m, 0) + a * b
            if s:
                acc[m] = s
            else:
                del acc[m]
    return acc


def _mono_sort_key(m: Mono) -> tuple:
    """(-degree, v0, -e0, v1, -e1, ...)."""
    key = [0]
    for v, e in m:
        key[0] -= e
        key.append(v)
        key.append(-e)
    return tuple(key)


class Poly:
    """Immutable sparse polynomial: integer numerators over one denominator."""

    __slots__ = ("_nums", "_den")

    def __init__(self) -> None:
        self._nums: dict[Mono, int] = {}
        self._den = 1

    # ---- construction -------------------------------------------------

    @classmethod
    def _make(cls, nums: dict[Mono, int], den: int = 1) -> "Poly":
        """Trusted: canonical monomials, no zero numerator, den > 0; divides out the gcd."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {m: c // g for m, c in nums.items()}
                den //= g
        p = cls.__new__(cls)
        p._nums = nums
        p._den = den
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._make({(): 1})

    @classmethod
    def constant(cls, c: Fraction | int) -> "Poly":
        if not isinstance(c, _VALID_COEFF):
            raise TypeError(f"coefficient must be an int or Fraction, got {c!r}")
        return cls._make({(): c.numerator} if c else {}, c.denominator)

    @classmethod
    def gen(cls, n: int) -> "Poly":
        """The generator x_n."""
        return cls._make({((_check_index(n), 1),): 1})

    @classmethod
    def x(cls) -> "Poly":
        """The distinguished indeterminate x."""
        return cls._make({((X, 1),): 1})

    @classmethod
    def term(cls, coeff: Fraction | int, exps: Mapping[int, int]) -> "Poly":
        """A single term coeff * prod x_v^e; zero exponents are dropped."""
        c = cls.constant(coeff)
        return cls._make({mono_from_exps(exps): c._nums[()]}, c._den) if c else c

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Mono, Fraction | int]]) -> "Poly":
        """Sum of (canonical monomial, coefficient) pairs; merges duplicates
        over the lcm of the coefficients' denominators."""
        items = list(items)
        den = lcm(*(c.denominator for _, c in items))
        return cls._make(
            _merge({}, ((m, c.numerator * (den // c.denominator)) for m, c in items)), den
        )

    # ---- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[Mono, Fraction]]:
        """Iterate (monomial, coefficient) pairs in no particular order."""
        den = self._den
        return ((m, Fraction(c, den)) for m, c in self._nums.items())

    def numerators(self) -> tuple[dict[Mono, int], int]:
        """The stored (numerators, den): self = sum numerators[m] * m / den.
        The dict is shared, not copied; callers must not modify it."""
        return self._nums, self._den

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in the canonical (graded lexicographic) order."""
        return sorted(self.items(), key=lambda mc: _mono_sort_key(mc[0]))

    def __len__(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return not self._nums or (len(self._nums) == 1 and () in self._nums)

    def constant_value(self) -> Fraction:
        """The coefficient of the empty monomial (0 for the zero poly)."""
        return Fraction(self._nums.get((), 0), self._den)

    def coefficient(self, exps: Mapping[int, int]) -> Fraction:
        return Fraction(self._nums.get(mono_from_exps(exps), 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        return max(sum(e for _, e in m) for m in self._nums)

    def variables(self) -> set[int]:
        """The ids of the variables that occur, X among them if x does."""
        return {v for m in self._nums for v, _ in m}

    # ---- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, _VALID_COEFF):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = (self, q) if len(self._nums) >= len(q._nums) else (q, self)
        den = lcm(a._den, b._den)
        s = den // a._den
        acc = dict(a._nums) if s == 1 else {m: c * s for m, c in a._nums.items()}
        return Poly._make(_merge(acc, b._nums.items(), den // b._den), den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({m: -c for m, c in self._nums.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Poly._make(mul_into({}, self._nums.items(), q._nums.items()), self._den * q._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, _VALID_COEFF):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * Fraction(1, other)
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be integers >= 0")
        result = None  # the first factor is the base itself, never one * base
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Poly.one() if result is None else result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _VALID_COEFF):
            other = Poly.constant(other)
        if isinstance(other, Poly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self) -> bool:
        return bool(self._nums)

    # ---- substitution and differentiation ---------------------------------

    def substitute(self, images: Mapping[int, "Poly"]) -> "Poly":
        """Ring-homomorphic substitution of variables.

        Every generator occurring in the polynomial must have an image;
        the distinguished x maps to itself unless overridden.  The term
        images are summed once, over the lcm of their denominators.
        """
        power_cache: dict[tuple[int, int], Poly] = {}
        parts = []
        for m, c in self._nums.items():
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
            parts.append(acc.numerators())
        den = lcm(*(d for _, d in parts))
        out = _merge({}, ((m, c * (den // d)) for nums, d in parts for m, c in nums.items()))
        return Poly._make(out, den * self._den)

    def diff_x(self) -> "Poly":
        """Formal derivative in the distinguished x.

        Defined only for polynomials in x alone; generator variables
        present is an error (the two rings are never mixed silently).
        """
        gens = self.variables() - {X}
        if gens:
            bad = var_name(min(gens))
            raise ValueError(
                f"diff_x requires a polynomial in x only; found {bad}"
            )
        nums = {}
        for m, c in self._nums.items():
            if m:
                ((_, e),) = m
                nums[((X, e - 1),) if e > 1 else ()] = c * e
        return Poly._make(nums, self._den)

    # ---- rendering and serialization -----------------------------------

    def render(self, factor, coeff, times: str, plus: str, minus: str) -> str:
        """Terms in canonical order, signed by plus and minus: coeff(|c|) and
        factor(v, e) per variable joined by times, a unit coefficient left out."""
        if not self._nums:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            body = times.join(factor(v, e) for v, e in m)
            mag = abs(c)
            if body and mag == 1:
                txt = body
            elif body:
                txt = coeff(mag) + times + body
            else:
                txt = coeff(mag)
            parts.append((plus if c > 0 else minus) if parts else ("" if c > 0 else "-"))
            parts.append(txt)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render(
            lambda v, e: var_name(v) + (f"^{e}" if e > 1 else ""), str, "*", " + ", " - "
        )

    def __repr__(self) -> str:
        return f"Poly({self})"

    def _json_terms(self) -> tuple[list[str], list[tuple[Mono, str]]]:
        """The JSON document's variable names, and its terms in the canonical order with
        "p" or "p/q" coefficients in lowest terms: the one walk to_json and json_text read."""
        nums, den = self._nums, self._den
        names = [var_name(v) for v in sorted(self.variables())]
        try:
            order = sorted(nums, key=_mono_sort_key)
            if den == 1:
                return names, [(m, str(nums[m])) for m in order]
            terms = []
            for m in order:
                c = nums[m]
                g = gcd(c, den)  # "p/q" in lowest terms, as str(Fraction) writes it
                terms.append((m, str(c // g) if g == den else f"{c // g}/{den // g}"))
            return names, terms
        except ValueError:
            # str() refuses ints longer than the interpreter's digit
            # limit, and Fraction() would refuse to read them back
            raise _digit_limit_error("a coefficient") from None

    def to_json(self) -> dict:
        """Canonical JSON document: variable names, ordered terms,
        decimal-string fraction coefficients ("p/q" or "p")."""
        names, terms = self._json_terms()
        terms = [{"coeff": c, "exps": {var_name(v): e for v, e in m}} for m, c in terms]
        return {"vars": names, "terms": terms}

    @classmethod
    def from_json(cls, doc: Mapping) -> "Poly":
        """One pass: each name parsed and each (name, exponent) member checked once, terms
        merged over their lcm denominator."""
        if type(doc) is not dict and not isinstance(doc, Mapping):
            raise ValueError("polynomial JSON must be an object")
        if "terms" not in doc or not isinstance(doc["terms"], list):
            raise ValueError('polynomial JSON needs a "terms" array')
        if not isinstance(doc.get("vars", []), list):
            raise ValueError('"vars" must be an array of variable names')
        ids = {name: _parse_var(name) for name in doc.get("vars", [])}  # validates
        members: dict[tuple[str, int], tuple[int, int]] = {}  # (name, e): (id, e), checked once
        rows: list[tuple[Mono, int, int]] = []
        for t in doc["terms"]:
            if type(t) is not dict and not isinstance(t, Mapping) or "coeff" not in t:
                raise ValueError("each term needs a coeff and exps")
            c = t["coeff"]
            if not isinstance(c, str):
                raise ValueError(f"coefficient must be a string, got {c!r}")
            pq = _CANONICAL_COEFF(c)
            if not pq and _past_digit_limit(c):  # checked before Fraction() reads it
                raise _digit_limit_error(f"coefficient {clip(c)}")
            try:
                p, q = (int(pq[1]), int(pq[2] or 1)) if pq else Fraction(c).as_integer_ratio()
            except (ValueError, ZeroDivisionError) as exc:
                if pq:  # int() refuses a canonical coefficient only past the digit limit
                    raise _digit_limit_error(f"coefficient {clip(c)}") from None
                raise ValueError(f"bad coefficient {clip(c)}") from exc
            exps = t.get("exps", {})
            if type(exps) is not dict and not isinstance(exps, Mapping):
                raise ValueError("exps must be an object")
            mono = []
            for name, e in exps.items():
                # True and 1.0 equal 1, so only a plain int finds its checked member
                if type(e) is not int or (member := members.get((name, e))) is None:
                    if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
                        raise ValueError(f"bad exponent {e!r} for {name!r}")
                    if name not in ids:
                        ids[name] = _parse_var(name)
                    member = (ids[name], e)
                    if type(e) is int:
                        members[name, e] = member
                mono.append(member)
            mono.sort()  # distinct ids, as names and ids correspond one to one
            rows.append((tuple(mono), p, q))
        den = lcm(*(q for _, _, q in rows))
        return cls._make(_merge({}, ((m, p * (den // q)) for m, p, q in rows)), den)


def json_text(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2) byte for byte for str, int, bool, None, list, dict and Poly
    (as its to_json()), without the pure-Python encoder indent= selects; else a TypeError."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None or isinstance(doc, bool):
        return "null" if doc is None else "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    inner = indent + "  "
    if isinstance(doc, (list, tuple)):
        return _block([json_text(v, inner) for v in doc], indent, "[]")
    if isinstance(doc, dict):
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in doc.items()]
        return _block(items, indent, "{}")
    if isinstance(doc, Poly):
        return _poly_text(doc, indent)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _block(items: list[str], indent: str, ends: str) -> str:
    """A JSON array or object of item texts, one to a line, one level in from indent."""
    inner = indent + "  "
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _poly_text(p: Poly, indent: str) -> str:
    """json_text(p.to_json(), indent) from p's term walk, each (v, e) member's text made once."""
    names, terms = p._json_terms()
    i1, i2, i3, i4 = (indent + " " * k for k in (2, 4, 6, 8))
    text = {ve: f'"{var_name(ve[0])}": {ve[1]}' for ve in {ve for m, _ in terms for ve in m}}
    head, exps, sep, tail = "{" + i3 + '"coeff": "', '",' + i3 + '"exps": {', "," + i4, i2 + "}"
    rows = [f"{head}{c}{exps}{i4}{sep.join(map(text.__getitem__, m))}{i3}}}{tail}" if m
            else f"{head}{c}{exps}}}{tail}" for m, c in terms]
    names = _block(['"' + n + '"' for n in names], i1, "[]")
    return _block(['"vars": ' + names, '"terms": ' + _block(rows, i1, "[]")], indent, "{}")


def divide_by_generator(p: Poly, v: int, k: int = 1) -> Poly | None:
    """Exact quotient p / x_v^k (k >= 1), or None if some term lacks the factor."""
    nums, den = p.numerators()
    out = {}
    for m, c in nums.items():
        for j, (w, e) in enumerate(m):
            if w == v and e >= k:
                out[m[:j] + ((v, e - k),) + m[j + 1 :] if e > k else m[:j] + m[j + 1 :]] = c
                break
        else:
            return None
    return Poly._make(out, den)


_MAX_DET_SIZE = 8  # symbolic determinants explode past this size


def det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix given as rows, by minor
    expansion down the rows with the sub-minors over each column tuple shared."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n > _MAX_DET_SIZE:
        raise ValueError(f"determinant guardrail: size {n} > {_MAX_DET_SIZE}")
    memo: dict[tuple[int, ...], Poly] = {(): Poly.one()}

    def minor(cols: tuple[int, ...]) -> Poly:
        if cols in memo:
            return memo[cols]
        row = rows[n - len(cols)]
        acc = Poly.zero()
        for pos, c in enumerate(cols):
            e = row[c]
            if e.is_zero():
                continue
            contrib = e * minor(cols[:pos] + cols[pos + 1 :])
            acc = acc + contrib if pos % 2 == 0 else acc - contrib
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))
