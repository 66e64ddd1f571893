"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element of order M is stored by its coordinates over the power basis
1, zeta_M, ..., zeta_M^(phi(M)-1), reduced modulo the M-th cyclotomic
polynomial.  Elements of different orders promote to the lcm order when
combined.  Plain rationals interoperate freely; a coefficient that is
actually rational can be demoted back to Fraction with as_rational().
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


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials with monic divisor."""
    num = num[:]
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        c = num[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


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
                num, rem = _poly_divmod_int(num, cyclotomic_polynomial(d))
                if rem:
                    raise AssertionError("cyclotomic division left a remainder")
        poly = num
    _CYCLO_CACHE[m] = poly
    return poly


def _reduce_mod_cyclotomic(coeffs: list, m: int) -> list:
    """Reduce a coefficient list (Fractions or ints) modulo the m-th
    cyclotomic polynomial."""
    phi_m = cyclotomic_polynomial(m)
    deg = len(phi_m) - 1
    work = coeffs[:]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, d in enumerate(phi_m):
                if d:
                    work[i - deg + j] -= c * d
    work = work[:deg]
    while len(work) < deg:
        work.append(Fraction(0))
    return work


class Cyclo:
    """An element of the cyclotomic field Q(zeta_order)."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords) -> None:
        if order < 1:
            raise ValueError("order must be positive")
        deg = euler_phi(order)
        cs = [Fraction(c) for c in coords]
        if len(cs) > deg:
            cs = _reduce_mod_cyclotomic(cs, order)
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
        return cls(order, _reduce_mod_cyclotomic([0] * power + [1], order))

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
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = mod, list(self.coords)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        r1 = trim(r1)
        while True:
            r1 = trim(r1)
            if not r1:
                raise AssertionError("cyclotomic polynomial should be irreducible over Q")
            if len(r1) == 1:
                inv = 1 / r1[0]
                return Cyclo(self.order, [c * inv for c in s1])
            q, r = _poly_divmod_frac(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s_new

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

    def is_zero(self) -> bool:
        return not any(self.coords)

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
        acc = Cyclo.from_rational(0, self.order)
        for i, c in enumerate(self.coords):
            if c:
                acc = acc + Cyclo.zeta(self.order, (i * k) % self.order) * c
        return acc

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


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and not out[-1]:
        out.pop()
    return out


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = num[:]
    while num and not num[-1]:
        num.pop()
    if not den or not den[-1]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        while num and not num[-1]:
            num.pop()
    return q, num


def demote(value):
    """Collapse a Cyclo that happens to be rational down to a Fraction."""
    if isinstance(value, Cyclo) and value.is_rational():
        return value.as_rational()
    return value


def coeff_is_zero(value) -> bool:
    if isinstance(value, Cyclo):
        return value.is_zero()
    return value == 0
