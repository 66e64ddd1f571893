"""The evaluation twist of the character ring, checked in integers.

Twisting by a point rescales every monomial by the point's value on it:
e^n -> p(n) e^n.  It is a ring automorphism of the group algebra over a
large enough cyclotomic field and interchanges evaluation at the point
with the augmentation (Edidin and Graham, Adv. Math. 193, 2005).  One
kernel twists each polynomial once and checks both exactly, in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import Cyclo, cyclotomic_polynomial
from .laurent import LaurentPoly
from .spectrum import EvalPoint, _character, _prepare, _slot_sums, evaluate_poly


class _Twist:
    """Polynomials, each twisted once by a point, in M slots: M is the lcm
    of the point's torsion order m and the orders of Cyclo coefficients.

    Each exponent's value zeta_m^k num/den is read once from the point.  A
    coefficient splits into parts r zeta_M^s, r rational, and part r e^n
    into (a + s, a + (s + k M/m) mod M, c, v): a = 2M times n packed as the
    digits n_j + B in base 4B + 1, B the largest |n_j|, so packed exponents
    add as the exponents do; c is r over the parts' common denominator
    cden, and v is c num/den over the values' common denominator den."""

    def __init__(self, polys, p: EvalPoint) -> None:
        if any(f.rank != p.rank for f in polys):
            raise ValueError("polynomial rank does not match point rank")
        orders = (c.order for f in polys for c in f.terms.values() if isinstance(c, Cyclo))
        self.p, self.m, self.products = p, lcm(p.m, *orders), {}
        cyclotomic_polynomial(self.m)  # over its cap the field is refused first
        values = {e: _character(p, e) for f in polys for e in f.terms}
        self.parts = [[(e, i * (self.m // c.order), Fraction(x, c.den))
                       for e, c in f.terms.items() if isinstance(c, Cyclo)
                       for i, x in enumerate(c.nums) if x]
                      + [(e, 0, c) for e, c in f.terms.items() if not isinstance(c, Cyclo)]
                      for f in polys]
        self.den = lcm(*(den for *_, den in values.values()))
        self.cden = lcm(*(r.denominator for parts in self.parts for *_, r in parts))
        self.bound, span = max((f.height() for f in polys), default=0), 2 * self.m
        self.terms = [[] for _ in polys]
        for parts, terms in zip(self.parts, self.terms):
            for e, s, r in parts:
                (k, num, den), c = values[e], r.numerator * (self.cden // r.denominator)
                a = span * sum((x + self.bound) * (4 * self.bound + 1) ** j
                               for j, x in enumerate(e))
                k = s + k * (self.m // p.m)
                terms.append((a + s, a + k % self.m, c, c * num * (self.den // den)))

    def sum_holds(self, i: int, value) -> bool:
        """Whether twisted polynomial i sums to its value at the point: m
        slot sums over one denominator, compared slot for slot and reduced
        only where they differ, or a number where f_i has Cyclo terms."""
        mine, own = [0] * self.m, self.den * self.cden
        for _, t, _, v in self.terms[i]:
            mine[t % (2 * self.m)] += v
        if not isinstance(value, tuple):
            return Cyclo(self.m, mine, own) == value
        (slots, den), theirs = value, [0] * self.m
        theirs[::self.m // self.p.m] = slots
        diff = [x * den - y * own for x, y in zip(mine, theirs)]
        return not any(diff) or not Cyclo(self.m, diff)

    def product_holds(self, i: int, j: int) -> bool:
        """Whether twist(f_i f_j) = twist(f_i) twist(f_j), summed per exponent
        in M slots, Z[x]/(x^M - 1), over (den cden)^2: the right side adds
        powers of zeta and multiplies values part by part; the left is each
        part of f_i f_j's coefficient times the value on the exponent.
        Where the slots differ, their difference reduces as one Cyclo."""
        m, span, products = self.m, 2 * self.m, self.products
        pairs, coeffs = {}, {}
        pairs_get, coeffs_get = pairs.get, coeffs.get
        for a1, t1, c1, v1 in self.terms[i]:
            for a2, t2, c2, v2 in self.terms[j]:
                t, a = t1 + t2, a1 + a2
                pairs[t] = pairs_get(t, 0) + v1 * v2
                coeffs[a] = coeffs_get(a, 0) + c1 * c2
        rhs: dict[int, int] = {}
        for t, v in pairs.items():
            key = t // span * m + t % span % m
            rhs[key] = rhs.get(key, 0) + v
        lhs: dict[int, int | Fraction] = {}
        for a, c in coeffs.items():
            if c:
                n, s = divmod(a, span)
                k, v = products[n] if n in products else self._value(n)
                key = n * m + (s + k) % m
                lhs[key] = lhs.get(key, 0) + c * v
        lhs, rhs = ({key: v for key, v in side.items() if v} for side in (lhs, rhs))
        if lhs == rhs:
            return True
        slots: dict[int, list] = {}
        for key, v in [*lhs.items(), *((key, -v) for key, v in rhs.items())]:
            slots.setdefault(key // m, [0] * m)[key % m] += v
        return all(not Cyclo(m, diff) for diff in slots.values() if any(diff))

    def _value(self, a: int) -> tuple[int, int | Fraction]:
        """(k, v): zeta_M^k v / den^2 is the value on the sum of two packed as a."""
        n, rest, scale = [], a, self.den ** 2
        for _ in self.p.zeta_row:
            rest, digit = divmod(rest, 4 * self.bound + 1)
            n.append(digit - 2 * self.bound)
        k, num, den = _character(self.p, n)
        self.products[a] = k * (self.m // self.p.m), (
            num * (scale // den) if scale % den == 0 else Fraction(num * scale, den))
        return self.products[a]


def _values(polys, p: EvalPoint) -> list:
    """Each polynomial's value at p: spectrum's slot sums and their
    denominator, or evaluate_poly's number where it has Cyclo terms."""
    sums, den = _slot_sums(p, _prepare(polys))
    return [evaluate_poly(p, f) if any(isinstance(c, Cyclo) for c in f.terms.values())
            else (slots, den) for f, slots in zip(polys, sums)]


def twist_check(polys, p: EvalPoint) -> bool:
    """Whether the twist by p, each polynomial twisted once, takes its
    augmentation to its value at p and is multiplicative on each pair."""
    twist, values = _Twist(polys, p), _values(polys, p)
    return (all(map(twist.sum_holds, range(len(polys)), values))
            and all(twist.product_holds(i, j)
                    for i in range(len(polys)) for j in range(i, len(polys))))


def twist_element(f: LaurentPoly, p: EvalPoint) -> LaurentPoly:
    """Rescale each term of f by the point's value on its exponent."""
    twist = _Twist([f], p)
    den, span = twist.den * twist.cden, 2 * twist.m
    return LaurentPoly(f.rank, (
        (e, Cyclo(twist.m, [0] * (t % span) + [v], den) if t % span else Fraction(v, den))
        for (e, _, _), (_, t, _, v) in zip(twist.parts[0], twist.terms[0])))


def twist_augmentation_check(f: LaurentPoly, p: EvalPoint) -> bool:
    """Augmentation after twisting must equal direct evaluation at p."""
    return _Twist([f], p).sum_holds(0, _values([f], p)[0])


def twist_multiplicativity_check(f: LaurentPoly, g: LaurentPoly, p: EvalPoint) -> bool:
    """twist(f * g) must equal twist(f) * twist(g), exactly."""
    return _Twist([f, g], p).product_holds(0, 1)
