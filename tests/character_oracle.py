"""The alternating-sum character: the reference for Freudenthal's formula.

Weyl's character formula as a quotient of two alternating sums over the
whole Weyl group.  Both sums are formed with doubled exponents (so the
Weyl vector appears as the integral sum of positive roots), divided
exactly, and the quotient is halved back.
"""

from fractions import Fraction

from orbit_oracle import weyl_group
from reflection_oracle import det, mat_vec

from repring.laurent import LaurentPoly, exact_divide
from repring.rootdata import two_rho


def alternating_sum_character(d, weight) -> LaurentPoly:
    lam = tuple(map(int, weight))
    w = weyl_group(d)
    rho2 = two_rho(d)
    top = tuple(2 * x + y for x, y in zip(lam, rho2))

    def alternating(mu) -> LaurentPoly:
        terms: dict[tuple[int, ...], Fraction] = {}
        for m in w.elements:
            ex = tuple(mat_vec(m, mu))
            terms[ex] = terms.get(ex, Fraction(0)) + det(m)
        return LaurentPoly(d.rank, terms)

    doubled = exact_divide(alternating(top), alternating(rho2))
    halved: dict[tuple[int, ...], Fraction] = {}
    for e, c in doubled.terms.items():
        if any(x % 2 for x in e):
            raise AssertionError("character quotient left the doubled lattice")
        halved[tuple(x // 2 for x in e)] = c
    return LaurentPoly(d.rank, halved)
