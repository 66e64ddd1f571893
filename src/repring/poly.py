"""Multivariate polynomials over Q with pluggable monomial orders.

These are ordinary (nonnegative-exponent, rational) polynomials used by
presentations and the Groebner-basis machinery: the special case of the
Laurent polynomials of the laurent module whose arithmetic they share.
Monomial orders are key functions mapping an exponent tuple to a
sortable value; graded reverse lexicographic is the default everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul, neg

from .cyclotomic import Cyclo
from .laurent import LaurentPoly

Monomial = tuple[int, ...]


class Poly(LaurentPoly):
    """A polynomial in nvars variables: the LaurentPoly with nonnegative
    exponents and rational coefficients, whose arithmetic it inherits."""

    __slots__ = ()

    def __init__(self, nvars: int, terms=None) -> None:
        super().__init__(nvars, terms)
        if any(x < 0 for e in self.terms for x in e):
            raise ValueError("negative exponent in a polynomial")
        if any(isinstance(c, Cyclo) for c in self.terms.values()):
            raise ValueError("polynomial coefficients must be rational")

    @property
    def nvars(self) -> int:
        return self.rank


def grevlex_key(e: Monomial):
    """Graded reverse lexicographic order as a sort key (larger sorts last)."""
    return (sum(e), tuple(map(neg, reversed(e))))


def monomials_below(nvars: int, bound: int) -> list[Monomial]:
    """The exponent vectors in nvars variables of total degree below the
    bound, in grevlex order."""
    return sorted((tuple(combo.count(k) for k in range(nvars))
                   for deg in range(bound)
                   for combo in combinations_with_replacement(range(nvars), deg)),
                  key=grevlex_key)


def monomial_values(values: list, exponents, one=None, product=mul) -> list:
    """The value of x^e for each exponent tuple e (a collection, read
    twice), given each variable's value: LaurentPolys of one rank, or the
    elements of another ring given its one and its product.  Each monomial
    is made once: a first power is the variable's value, any other the
    monomial with one fewer factor of its last variable times that
    variable's value."""
    zero = (0,) * len(values)
    table = {zero: LaurentPoly.one(values[0].rank if values else 0) if one is None else one}
    for e in exponents:
        steps = []
        while e not in table:
            k = max(i for i, x in enumerate(e) if x)
            prev = (*e[:k], e[k] - 1, *e[k + 1:])
            steps.append((e, prev, k))
            e = prev
        for e, prev, k in reversed(steps):
            table[e] = values[k] if prev == zero else product(table[prev], values[k])
    return [table[e] for e in exponents]


_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_poly(text: str, names: list[str]) -> Poly:
    """Parse a polynomial string over the given variable names.

    Grammar: terms joined by + and -, each term a '*'-separated product
    of an optional rational coefficient (like 3 or 5/2) and variable
    powers (like y1^2).  No parentheses.
    """
    nvars = len(names)
    idx = {n: i for i, n in enumerate(names)}
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    # Split into signed terms.
    chunks: list[tuple[int, str]] = []
    sign = 1
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            chunks.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur:
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if not cur:
        raise ValueError(f"dangling sign in {text!r}")
    chunks.append((sign, cur))

    terms = []
    for sgn, chunk in chunks:
        coeff = Fraction(sgn)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            m = _TOKEN_RE.match(factor)
            if not m or m.group(1) not in idx:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[idx[m.group(1)]] += int(m.group(2) or 1)
        terms.append((exps, coeff))
    return Poly(nvars, terms)
