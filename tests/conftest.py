"""Shared helpers for randomized checks (seeded, reproducible)."""

from fractions import Fraction

from fiblucas.polyring import Poly, X


def random_fraction(rng, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_terms(rng, max_var: int = 5, max_degree: int = 5, max_terms: int = 5,
                 allow_x: bool = False) -> list[tuple[dict[int, int], Fraction]]:
    """Random (exponents, coefficient) terms, possibly repeated or none."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[int, int] = {}
        for _ in range(rng.randint(0, 3)):
            if allow_x and rng.random() < 0.3:
                v = X
            else:
                v = rng.randint(0, max_var)
            exps[v] = exps.get(v, 0) + rng.randint(1, 2)
        if sum(exps.values()) > max_degree:
            continue
        terms.append((exps, random_fraction(rng)))
    return terms


def random_poly(rng, max_var: int = 5, max_degree: int = 5, max_terms: int = 5,
                allow_x: bool = False) -> Poly:
    """Random sparse polynomial (possibly zero, possibly constant): the
    sum of random_terms."""
    p = Poly.zero()
    for exps, c in random_terms(rng, max_var, max_degree, max_terms, allow_x):
        p = p + Poly.term(c, exps)
    return p


def random_x_poly(rng, max_degree: int = 6, max_terms: int = 5) -> Poly:
    """Random polynomial in the distinguished x only."""
    p = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        e = rng.randint(0, max_degree)
        p = p + Poly.term(random_fraction(rng), {X: e} if e else {})
    return p
