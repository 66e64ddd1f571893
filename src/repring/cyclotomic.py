"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element of order M is stored by its coordinates over the power basis
1, zeta_M, ..., zeta_M^(phi(M)-1), reduced modulo the M-th cyclotomic
polynomial.  Elements of different orders promote to the lcm order when
combined.  Plain rationals interoperate freely.  demote() is the normal
form of an exact coefficient everywhere in the package: a Fraction, or
a Cyclo that is not rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ResourceCapError

_CYCLO_CACHE: dict[int, list[int]] = {}

# Largest trial divisor prime_factors tries; numbers up to its square
# factor completely.
TRIAL_DIVISION_CAP = 10 ** 6


def prime_factors(n: int):
    """The prime factors of a positive integer, smallest first and with
    multiplicity, by trial division.

    Each factor is yielded as soon as it is found, so a caller that needs
    only the smallest stops early.  Raises ResourceCapError once the trial
    divisor passes TRIAL_DIVISION_CAP with a cofactor still unsplit.
    """
    if n < 1:
        raise ValueError("only positive integers have prime factors")
    p = 2
    while p * p <= n:
        if p > TRIAL_DIVISION_CAP:
            raise ResourceCapError(
                f"trial division passed TRIAL_DIVISION_CAP = {TRIAL_DIVISION_CAP} "
                f"with the cofactor {n} unsplit")
        while n % p == 0:
            yield p
            n //= p
        p += 1
    if n > 1:
        yield n


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("order must be positive")
    result = m
    for p in set(prime_factors(m)):
        result -= result // p
    return result


def _divide_monic(num: list, den: list[int]) -> tuple[list, list]:
    """(quotient, remainder) of num by the monic integer polynomial den,
    both coefficient lists low to high; the remainder has len(den) - 1
    entries when num has at least that many.  Zero coefficients are
    skipped."""
    deg = len(den) - 1
    work = list(num)
    q = [0] * max(len(work) - deg, 0)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            q[i - deg] = c
            for j, dj in enumerate(den):
                if dj:
                    work[i - deg + j] -= c * dj
    return q, work[:deg]


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    if m == 1:
        poly = [-1, 1]
    else:
        num = [0] * (m + 1)
        num[0] = -1
        num[m] = 1
        for d in range(1, m):
            if m % d == 0:
                num, rem = _divide_monic(num, cyclotomic_polynomial(d))
                if any(rem):
                    raise AssertionError("cyclotomic division left a remainder")
        poly = num
    _CYCLO_CACHE[m] = poly
    return poly


class Cyclo:
    """An element of the cyclotomic field Q(zeta_order)."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords) -> None:
        if order < 1:
            raise ValueError("order must be positive")
        deg = euler_phi(order)
        cs = [Fraction(c) for c in coords]
        if len(cs) > deg:
            cs = _divide_monic(cs, cyclotomic_polynomial(order))[1]
        while len(cs) < deg:
            cs.append(Fraction(0))
        self.order = order
        self.coords = tuple(cs)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclo":
        c = [Fraction(value)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, c)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclo":
        # Reduce x^power in integers: in Fractions this took half of a
        # fiber computation at a point of torsion order 30.
        power %= order
        return cls(order, _divide_monic([0] * power + [1], cyclotomic_polynomial(order))[1])

    def promote(self, order: int) -> "Cyclo":
        """Rewrite in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple of the current order")
        step = order // self.order
        coords = [Fraction(0)] * ((len(self.coords) - 1) * step + 1)
        for i, c in enumerate(self.coords):
            coords[i * step] = c
        return Cyclo(order, coords)

    @staticmethod
    def _pair(a: "Cyclo | Fraction | int", b: "Cyclo | Fraction | int") -> tuple["Cyclo", "Cyclo"]:
        if not isinstance(a, Cyclo):
            a = Cyclo.from_rational(a)
        if not isinstance(b, Cyclo):
            b = Cyclo.from_rational(b)
        m = lcm(a.order, b.order)
        return a.promote(m), b.promote(m)

    def __add__(self, other):
        if not isinstance(other, (Cyclo, Fraction, int)):
            return NotImplemented
        a, b = Cyclo._pair(self, other)
        return Cyclo(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, [-x for x in self.coords])

    def __sub__(self, other):
        if not isinstance(other, (Cyclo, Fraction, int)):
            return NotImplemented
        return self + (-other if isinstance(other, Cyclo) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Cyclo, Fraction, int)):
            return NotImplemented
        if isinstance(other, (Fraction, int)):
            f = Fraction(other)
            return Cyclo(self.order, [c * f if c else c for c in self.coords])
        a, b = Cyclo._pair(self, other)
        prod = [Fraction(0)] * (2 * len(a.coords))
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        prod[i + j] += x * y
        return Cyclo(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the other Galois
        conjugates over the norm, which is the rational product of all of
        them (Cohen, A Course in Computational Algebraic Number Theory,
        section 4.3)."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        others = Cyclo.from_rational(1, self.order)
        for k in range(2, self.order):
            if gcd(k, self.order) == 1:
                others = others * self.galois(k)
        return others / (self * others).as_rational()

    def __truediv__(self, other):
        if isinstance(other, (Fraction, int)):
            return self * (1 / Fraction(other))
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            return self.is_rational() and self.coords[0] == other
        if isinstance(other, Cyclo):
            a, b = Cyclo._pair(self, other)
            return a.coords == b.coords
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def galois(self, k: int) -> "Cyclo":
        """Apply the automorphism zeta -> zeta^k; k must be coprime to the order."""
        if gcd(k, self.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        slots = [Fraction(0)] * self.order
        for i, c in enumerate(self.coords):
            if c:
                slots[i * k % self.order] += c
        return Cyclo(self.order, slots)

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {list(self.coords)})"

    def __str__(self) -> str:
        parts: list[tuple[bool, str]] = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            neg = c < 0
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = f"zeta({self.order})^{k}"
            else:
                body = f"{mag}*zeta({self.order})^{k}"
            parts.append((neg, body))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out


def demote(value):
    """The normal form of a coefficient: a Fraction as it is, an int as a
    Fraction, and a Cyclo that happens to be rational as its Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Cyclo):
        return value.coords[0] if value.is_rational() else value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")
