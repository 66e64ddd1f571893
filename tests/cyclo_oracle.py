"""Reference cyclotomic arithmetic on Fraction coordinates.

This is the coordinate-by-coordinate class that `repring.cyclotomic.Cyclo`
replaced: every coordinate is a Fraction, and every result is reduced by
long division in Fractions modulo the cyclotomic polynomial.  It is slow
and kept only as an oracle for the integer representation.  The
cyclotomic polynomials come from the library, which
`tests/test_differential.py` checks against sympy.
"""

from fractions import Fraction
from math import gcd, lcm

from repring.cyclotomic import cyclotomic_polynomial


def _reduce(coords, order):
    poly = cyclotomic_polynomial(order)
    deg = len(poly) - 1
    work = [Fraction(c) for c in coords]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pj in enumerate(poly):
                work[i - deg + j] -= c * pj
    work = work[:deg]
    return tuple(work + [Fraction(0)] * (deg - len(work)))


class FracCyclo:
    """An element of Q(zeta_order) by its Fraction coordinates."""

    def __init__(self, order, coords):
        self.order = order
        self.coords = _reduce(coords, order)

    @classmethod
    def zeta(cls, order, power=1):
        return cls(order, [0] * (power % order) + [1])

    def promote(self, order):
        step = order // self.order
        coords = [Fraction(0)] * ((len(self.coords) - 1) * step + 1)
        for i, c in enumerate(self.coords):
            coords[i * step] = c
        return FracCyclo(order, coords)

    @staticmethod
    def _pair(a, b):
        if not isinstance(b, FracCyclo):
            b = FracCyclo(1, [Fraction(b)])
        m = lcm(a.order, b.order)
        return a.promote(m), b.promote(m)

    def __add__(self, other):
        a, b = FracCyclo._pair(self, other)
        return FracCyclo(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    def __neg__(self):
        return FracCyclo(self.order, [-x for x in self.coords])

    def __sub__(self, other):
        return self + (-other if isinstance(other, FracCyclo) else -Fraction(other))

    def __mul__(self, other):
        a, b = FracCyclo._pair(self, other)
        prod = [Fraction(0)] * (2 * len(a.coords))
        for i, x in enumerate(a.coords):
            for j, y in enumerate(b.coords):
                prod[i + j] += x * y
        return FracCyclo(a.order, prod)

    def __eq__(self, other):
        a, b = FracCyclo._pair(self, other)
        return a.coords == b.coords

    def galois(self, k):
        assert gcd(k, self.order) == 1
        slots = [Fraction(0)] * self.order
        for i, c in enumerate(self.coords):
            slots[i * k % self.order] += c
        return FracCyclo(self.order, slots)
