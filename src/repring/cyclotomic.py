"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element of order M is stored by integer numerators over one common
denominator: its coordinates over the power basis 1, zeta_M, ...,
zeta_M^(phi(M)-1), reduced modulo the M-th cyclotomic polynomial.
Elements of different orders promote to the lcm order when combined.
Plain rationals interoperate freely.  demote() is the normal form of an
exact coefficient everywhere in the package: an int, a Fraction that is
not integral, or a Cyclo that is not rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ResourceCapError

_CYCLO_CACHE: dict[int, list[int]] = {}

# Largest trial divisor prime_factors tries; numbers up to its square
# factor completely.
TRIAL_DIVISION_CAP = 10 ** 6

# Largest degree phi(m) of a cyclotomic polynomial that is built.
CYCLOTOMIC_DEGREE_CAP = 256


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
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Raises ResourceCapError when phi(m) exceeds CYCLOTOMIC_DEGREE_CAP;
    every divisor d of m has phi(d) <= phi(m), so the recursion needs
    no second check."""
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    if (deg := euler_phi(m)) > CYCLOTOMIC_DEGREE_CAP:
        raise ResourceCapError(f"cyclotomic polynomial of order {m} has degree {deg}, "
                               f"over CYCLOTOMIC_DEGREE_CAP = {CYCLOTOMIC_DEGREE_CAP}")
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
    """An element sum(nums[i] * zeta^i) / den of Q(zeta_order): integer
    numerators reduced modulo the cyclotomic polynomial over one positive
    denominator coprime to them (Cohen, A Course in Computational
    Algebraic Number Theory, section 4.2)."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coords, den: int = 1) -> None:
        """sum(coords[i] * zeta_order^i) / den: int or Fraction coords, int den > 0."""
        if order < 1:
            raise ValueError("order must be positive")
        coords = list(coords)
        scale = lcm(*(c.denominator for c in coords))
        nums = [c.numerator * (scale // c.denominator) for c in coords]
        poly = cyclotomic_polynomial(order)
        deg = len(poly) - 1
        nums = _divide_monic(nums, poly)[1] if len(nums) > deg else nums + [0] * (deg - len(nums))
        den *= scale
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        self.order, self.nums, self.den = order, tuple(nums), den

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclo":
        q = Fraction(value)
        return cls(order, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclo":
        return cls(order, [0] * (power % order) + [1])

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates over 1, zeta, ..., zeta^(phi(order) - 1)."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def promote(self, order: int) -> "Cyclo":
        """Rewrite in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple of the current order")
        step = order // self.order
        nums = [0] * ((len(self.nums) - 1) * step + 1)
        nums[::step] = self.nums
        return Cyclo(order, nums, self.den)

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
        return Cyclo(a.order, [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)],
                     a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, [-x for x in self.nums], self.den)

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
            return Cyclo(self.order, [x * f.numerator for x in self.nums],
                                   self.den * f.denominator)
        a, b = Cyclo._pair(self, other)
        prod = [0] * (len(a.nums) + len(b.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        prod[i + j] += x * y
        return Cyclo(a.order, prod, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: a rational element inverts as its
        Fraction, any other as the product of its other conjugates in the
        least Q(zeta_d), d | order, that holds it, over the rational norm
        (Cohen 4.3).  It lies in Q(zeta_d) when every zeta -> zeta^k with
        k = 1 mod d fixes it, and zeta -> zeta^k acts there by k mod d."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        m = self.order
        if self.is_rational():
            return Cyclo.from_rational(1 / self.as_rational(), m)
        units = [k for k in range(1, m) if gcd(k, m) == 1]
        d = next(d for d in range(2, m + 1) if m % d == 0 and all(
            self.galois(k) == self for k in units if k % d == 1 and k > 1))
        others = Cyclo.from_rational(1, m)
        for k in {k % d: k for k in units if k % d != 1}.values():
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
            return self.is_rational() and self.as_rational() == other
        if isinstance(other, Cyclo):
            a, b = Cyclo._pair(self, other)
            return a.nums == b.nums and a.den == b.den
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def galois(self, k: int) -> "Cyclo":
        """Apply the automorphism zeta -> zeta^k; k must be coprime to the order."""
        if gcd(k, self.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        slots = [0] * self.order
        for i, x in enumerate(self.nums):
            if x:
                slots[i * k % self.order] += x
        return Cyclo(self.order, slots, self.den)

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
    """The normal form of a coefficient: an int if integral, else a Fraction
    if rational, else a Cyclo."""
    if isinstance(value, int):
        return value
    if isinstance(value, Cyclo):
        if not value.is_rational():
            return value
        value = value.as_rational()
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")
