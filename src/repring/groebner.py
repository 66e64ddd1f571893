"""Buchberger's algorithm with exact rational arithmetic.

Produces reduced, monic Groebner bases for a chosen monomial order
(graded reverse lexicographic unless a different key is supplied) and
enumerates standard monomials of zero-dimensional quotients.  All loops
are capped and raise ResourceCapError rather than running open-ended.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from operator import add, le, sub

from .errors import ResourceCapError
from .poly import Monomial, Poly, grevlex_key

DEFAULT_PAIR_CAP = 20_000
DEFAULT_MONOMIAL_CAP = 200_000


def leading_term(f: Poly, key=grevlex_key) -> tuple[Monomial, Fraction]:
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(f.terms, key=key)
    return e, f.terms[e]


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


class _Largest(tuple):
    """A (key, monomial) heap entry that pops the largest key first."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return other[0] < self[0]


def reduce_poly(f: Poly, basis: list[Poly], key=grevlex_key) -> Poly:
    """Full normal form of f against the basis (every term reduced), the
    work terms in a heap keyed once each, the largest reduced first."""
    if not basis:
        return f
    lts = [leading_term(g, key) for g in basis]
    rem: dict[Monomial, Fraction] = {}
    work = dict(f.terms)
    heap = [_Largest((key(e), e)) for e in work]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        hit = next((i for i, (lt, _) in enumerate(lts) if _divides(lt, e)), None)
        if hit is None:
            rem[e] = c
            continue
        g = basis[hit]
        lt, lc = lts[hit]
        factor = c if lc == 1 else Fraction(c, lc)
        shift = tuple(map(sub, e, lt))
        for eg, cg in g.terms.items():
            if eg == lt:
                continue
            e2 = tuple(map(add, shift, eg))
            if e2 in work:
                work[e2] -= factor * cg
            else:
                work[e2] = -factor * cg
                heapq.heappush(heap, _Largest((key(e2), e2)))
    return Poly(f.nvars, rem)


def s_polynomial(f: Poly, g: Poly, key=grevlex_key) -> Poly:
    ef, cf = leading_term(f, key)
    eg, cg = leading_term(g, key)
    lcm_e = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = tuple(a - b for a, b in zip(lcm_e, ef))
    mg = tuple(a - b for a, b in zip(lcm_e, eg))
    tf = Poly(f.nvars, {mf: Fraction(1, cf)})
    tg = Poly(g.nvars, {mg: Fraction(1, cg)})
    return tf * f - tg * g


def groebner_basis(gens: list[Poly], key=grevlex_key,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> list[Poly]:
    """Reduced monic Groebner basis of the ideal generated by gens."""
    key = lru_cache(maxsize=None)(key)   # every reduction finds the leading terms again
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    nvars = basis[0].nvars
    for g in basis:
        if g.nvars != nvars:
            raise ValueError("generators live in different polynomial rings")
    basis = [g * Fraction(1, leading_term(g, key)[1]) for g in basis]
    lts = [leading_term(g, key)[0] for g in basis]
    # Normal selection: smallest lcm of leading terms first, ties in the
    # order the pairs were made.
    pairs: list = []
    made = count()

    def push_pairs(i: int) -> None:
        for j in range(i):
            lcm_e = tuple(max(a, b) for a, b in zip(lts[i], lts[j]))
            heapq.heappush(pairs, (key(lcm_e), next(made), i, j))

    for i in range(len(basis)):
        push_pairs(i)
    processed = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > pair_cap:
            raise ResourceCapError(f"Groebner pair processing exceeded cap {pair_cap}")
        if all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j])):
            continue  # coprime leading terms reduce to zero
        s = s_polynomial(basis[i], basis[j], key)
        r = reduce_poly(s, basis, key)
        if r.is_zero():
            continue
        e, c = leading_term(r, key)
        basis.append(r * Fraction(1, c))
        lts.append(e)
        push_pairs(len(basis) - 1)
    return _interreduce(basis, key)


def _interreduce(basis: list[Poly], key=grevlex_key) -> list[Poly]:
    # Minimalize: drop elements whose leading term another divides.
    lts = [leading_term(g, key)[0] for g in basis]
    keep = []
    for i, lt in enumerate(lts):
        if any(j != i and _divides(lts[j], lt) and
               (lts[j] != lt or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # Fully reduce each against the others.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others, key) if others else g
        if not r.is_zero():
            reduced.append(r * Fraction(1, leading_term(r, key)[1]))
    reduced.sort(key=lambda g: key(leading_term(g, key)[0]))
    return reduced


class GroebnerBasis(namedtuple("GroebnerBasis", "nvars polys")):
    """A reduced basis and the number of variables of its ring."""

    __slots__ = ()

    def leading_terms(self, key=grevlex_key) -> list[Monomial]:
        return [leading_term(g, key)[0] for g in self.polys]


def groebner(gens: list[Poly], key=grevlex_key,
             pair_cap: int = DEFAULT_PAIR_CAP) -> GroebnerBasis:
    basis = groebner_basis(gens, key, pair_cap)
    nvars = gens[0].nvars if gens else 0
    return GroebnerBasis(nvars=nvars, polys=tuple(basis))


def ideal_membership(f: Poly, gb: GroebnerBasis, key=grevlex_key) -> bool:
    return reduce_poly(f, list(gb.polys), key).is_zero()


def standard_monomials(gb: GroebnerBasis, key=grevlex_key,
                       cap: int = DEFAULT_MONOMIAL_CAP) -> list[Monomial]:
    """Monomials outside the leading-term ideal, for zero-dimensional ideals.

    Finiteness requires a pure power of every variable among the leading
    terms; otherwise the quotient is infinite-dimensional and a
    ValueError explains which variable escapes.
    """
    if any(g.is_zero() for g in gb.polys):
        raise ValueError("zero polynomial in a Groebner basis")
    lts = gb.leading_terms(key)
    nvars = gb.nvars
    if not lts:
        raise ValueError("the zero ideal has infinitely many standard monomials")
    if any(sum(lt) == 0 for lt in lts):
        return []  # ideal contains a unit
    bounds = []
    for v in range(nvars):
        pure = [lt[v] for lt in lts if all(x == 0 for i, x in enumerate(lt) if i != v)]
        if not pure:
            raise ValueError(f"quotient is not finite-dimensional: no pure power "
                             f"of variable {v} in the leading-term ideal")
        bounds.append(min(pure))
    out: list[Monomial] = []
    for e in product(*(range(b) for b in bounds)):
        if len(out) > cap:
            raise ResourceCapError(f"standard monomial enumeration exceeded cap {cap}")
        if not any(_divides(lt, e) for lt in lts):
            out.append(e)
    return sorted(out, key=key)
