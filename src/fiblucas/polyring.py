"""Sparse multivariate polynomials over exact rationals.

Variables are the generators x_0, x_1, x_2, ... (identified by their
index) plus one distinguished univariate indeterminate ``x`` (id
``X``).  The variable universe is dynamic: nothing fixes the largest
generator index in advance.

A polynomial is a map from monomials to nonzero Fraction coefficients,
kept in canonical form (no zero coefficients, reduced fractions), so
structural equality is mathematical equality.  Monomials are sorted
tuples of (variable, exponent) pairs with all exponents positive.

The canonical term order used for printing and serialization is graded
lexicographic: higher total degree first, ties broken by comparing
exponents variable by variable in the order x_0, x_1, ..., x (the
distinguished x always last), larger exponent first.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "X",
    "Mono",
    "Poly",
    "PolyMatrix",
    "mono_from_exps",
    "mono_mul",
    "mono_decrement",
    "divide_by_generator",
]

X = -1  # variable id of the distinguished indeterminate x

Mono = tuple[tuple[int, int], ...]

_VALID_COEFF = (int, Fraction)


def _var_key(v: int) -> tuple[int, int]:
    # generators rank before x; generators among themselves by index
    return (1, 0) if v == X else (0, v)


def var_name(v: int) -> str:
    return "x" if v == X else f"x{v}"


def _parse_var(name: str) -> int:
    if name == "x":
        return X
    if isinstance(name, str) and name.startswith("x") and name[1:].isdigit():
        return int(name[1:])
    raise ValueError(f"unknown variable name: {name!r}")


def mono_from_exps(exps: Mapping[int, int]) -> Mono:
    items = []
    for v, e in exps.items():
        if not isinstance(v, int) or v < X:
            raise ValueError(f"invalid variable id: {v!r}")
        if e < 0:
            raise ValueError(f"negative exponent for {var_name(v)}")
        if e > 0:
            items.append((v, e))
    items.sort(key=lambda ve: _var_key(ve[0]))
    return tuple(items)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two canonical monomials."""
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    # plain tuple order puts X = -1 first; _var_key order puts it last
    items = sorted(exps.items())
    if items[0][0] == X:
        items.append(items.pop(0))
    return tuple(items)


def mono_decrement(m: Mono, v: int) -> Mono:
    """Divide a monomial by one power of ``v`` (which must be present)."""
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


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_sort_key(m: Mono):
    return (-_mono_degree(m), tuple((_var_key(v), -e) for v, e in m))


class Poly:
    """Immutable sparse polynomial over Fraction coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self) -> None:
        self._terms: dict[Mono, Fraction] = {}
        self._hash: int | None = None

    # ---- construction -------------------------------------------------

    @classmethod
    def _make(cls, terms: dict[Mono, Fraction]) -> "Poly":
        # trusted: monomials canonical, zero coefficients dropped
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._make({(): Fraction(1)})

    @classmethod
    def constant(cls, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        return cls._make({(): c} if c else {})

    @classmethod
    def gen(cls, n: int) -> "Poly":
        """The generator x_n."""
        if n < 0:
            raise ValueError("generator index must be >= 0")
        return cls._make({((n, 1),): Fraction(1)})

    @classmethod
    def x(cls) -> "Poly":
        """The distinguished indeterminate x."""
        return cls._make({((X, 1),): Fraction(1)})

    @classmethod
    def term(cls, coeff: Fraction | int, exps: Mapping[int, int]) -> "Poly":
        """A single term coeff * prod x_v^e; zero exponents are dropped."""
        c = Fraction(coeff)
        if c == 0:
            return cls.zero()
        return cls._make({mono_from_exps(exps): c})

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Mono, Fraction]]) -> "Poly":
        """Sum of (canonical monomial, coefficient) pairs; merges duplicates."""
        acc: dict[Mono, Fraction] = {}
        for m, c in items:
            nc = acc.get(m, Fraction(0)) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        return cls._make(acc)

    # ---- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[Mono, Fraction]]:
        """Iterate (monomial, coefficient) pairs in no particular order."""
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in the canonical (graded lexicographic) order."""
        return sorted(self._terms.items(), key=lambda mc: _mono_sort_key(mc[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the empty monomial (0 for the zero poly)."""
        return self._terms.get((), Fraction(0))

    def coefficient(self, exps: Mapping[int, int]) -> Fraction:
        return self._terms.get(mono_from_exps(exps), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    def degree_in(self, v: int) -> int:
        """Largest exponent of variable v across terms (0 if absent)."""
        deg = 0
        for m in self._terms:
            for w, e in m:
                if w == v and e > deg:
                    deg = e
        return deg

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return out

    @property
    def contains_x(self) -> bool:
        return any(v == X for m in self._terms for v, _ in m)

    def generator_vars(self) -> set[int]:
        return {v for m in self._terms for v, _ in m if v != X}

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
        terms = dict(self._terms)
        for m, c in q._terms.items():
            nc = terms.get(m, Fraction(0)) + c
            if nc:
                terms[m] = nc
            else:
                terms.pop(m, None)
        return Poly._make(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({m: -c for m, c in self._terms.items()})

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
        acc: dict[Mono, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in q._terms.items():
                m = mono_mul(m1, m2)
                nc = acc.get(m, Fraction(0)) + c1 * c2
                if nc:
                    acc[m] = nc
                else:
                    acc.pop(m, None)
        return Poly._make(acc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, _VALID_COEFF):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return Poly._make({m: v / c for m, v in self._terms.items()})
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be integers >= 0")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, _VALID_COEFF):
            return self._terms == Poly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ---- substitution and differentiation ---------------------------------

    def substitute(self, images: Mapping[int, "Poly"]) -> "Poly":
        """Ring-homomorphic substitution of variables.

        Every generator occurring in the polynomial must have an image;
        the distinguished x maps to itself unless overridden.
        """
        power_cache: dict[tuple[int, int], Poly] = {}
        out = Poly.zero()
        for m, c in self._terms.items():
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
        return out

    def diff_x(self) -> "Poly":
        """Formal derivative in the distinguished x.

        Defined only for polynomials in x alone; generator variables
        present is an error (the two rings are never mixed silently).
        """
        gens = self.generator_vars()
        if gens:
            bad = var_name(min(gens))
            raise ValueError(
                f"diff_x requires a polynomial in x only; found {bad}"
            )
        pairs = []
        for m, c in self._terms.items():
            if not m:
                continue
            ((_, e),) = m
            pairs.append((((X, e - 1),) if e > 1 else (), c * e))
        return Poly.from_terms(pairs)

    # ---- rendering and serialization -----------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in m:
                factors.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if body and mag == 1:
                txt = body
            elif body:
                txt = f"{mag}*{body}"
            else:
                txt = str(mag)
            if not parts:
                parts.append(txt if c > 0 else f"-{txt}")
            else:
                parts.append(f" + {txt}" if c > 0 else f" - {txt}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json(self) -> dict:
        """Canonical JSON document: variable names, ordered terms,
        decimal-string fraction coefficients ("p/q" or "p")."""
        names = [
            var_name(v)
            for v in sorted(self.variables(), key=_var_key)
        ]
        try:
            terms = [
                {"coeff": str(c), "exps": {var_name(v): e for v, e in m}}
                for m, c in self.sorted_terms()
            ]
        except ValueError:
            # str() refuses ints longer than the interpreter's digit
            # limit, and Fraction() would refuse to read them back
            raise ValueError(
                f"a coefficient has more than {sys.get_int_max_str_digits()} "
                "decimal digits, the limit on JSON coefficients"
            ) from None
        return {"vars": names, "terms": terms}

    @classmethod
    def from_json(cls, doc: Mapping) -> "Poly":
        if not isinstance(doc, Mapping):
            raise ValueError("polynomial JSON must be an object")
        if "terms" not in doc or not isinstance(doc["terms"], list):
            raise ValueError('polynomial JSON needs a "terms" array')
        if not isinstance(doc.get("vars", []), list):
            raise ValueError('"vars" must be an array of variable names')
        for name in doc.get("vars", []):
            _parse_var(name)  # validates
        pairs: list[tuple[Mono, Fraction]] = []
        for t in doc["terms"]:
            if not isinstance(t, Mapping) or "coeff" not in t:
                raise ValueError("each term needs a coeff and exps")
            c = t["coeff"]
            if not isinstance(c, str):
                raise ValueError(f"coefficient must be a string, got {c!r}")
            try:
                c = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad coefficient {c!r}") from exc
            exps = t.get("exps", {})
            if not isinstance(exps, Mapping):
                raise ValueError("exps must be an object")
            parsed: dict[int, int] = {}
            for name, e in exps.items():
                if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
                    raise ValueError(f"bad exponent {e!r} for {name!r}")
                parsed[_parse_var(name)] = e
            pairs.append((mono_from_exps(parsed), c))
        return cls.from_terms(pairs)


def divide_by_generator(p: Poly, v: int) -> Poly | None:
    """Exact quotient p / x_v, or None if some term lacks the factor."""
    out = []
    for m, c in p.items():
        if not any(w == v for w, _ in m):
            return None
        out.append((mono_decrement(m, v), c))
    return Poly.from_terms(out)


class PolyMatrix:
    """Dense matrix of polynomials with an exact determinant."""

    __slots__ = ("rows", "cols", "_entries")

    MAX_DET_SIZE = 8  # symbolic determinants explode past this

    def __init__(self, rows: int, cols: int, entries: Sequence[Poly]) -> None:
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entries length must equal rows*cols")
        self.rows = rows
        self.cols = cols
        self._entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat: list[Poly] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    def entry(self, r: int, c: int) -> Poly:
        return self._entries[r * self.cols + c]

    def map_entries(self, f) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [f(e) for e in self._entries])

    def det(self) -> Poly:
        """Exact determinant by minor expansion with shared sub-minors."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n > self.MAX_DET_SIZE:
            raise ValueError(f"determinant guardrail: size {n} > {self.MAX_DET_SIZE}")
        if n == 0:
            return Poly.one()
        memo: dict[tuple[int, ...], Poly] = {}

        def minor(cols: tuple[int, ...]) -> Poly:
            if not cols:
                return Poly.one()
            cached = memo.get(cols)
            if cached is not None:
                return cached
            row = n - len(cols)
            acc = Poly.zero()
            for pos, c in enumerate(cols):
                e = self.entry(row, c)
                if e.is_zero():
                    continue
                sub = minor(cols[:pos] + cols[pos + 1 :])
                contrib = e * sub
                acc = acc + contrib if pos % 2 == 0 else acc - contrib
            memo[cols] = acc
            return acc

        return minor(tuple(range(n)))
