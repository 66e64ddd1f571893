"""Evaluation points of the character lattice and their maximal-ideal data.

A representable evaluation point sends each lattice coordinate to a root
of unity times a positive rational, stored exactly: the torsion part as
a reduced fraction in [0, 1) per coordinate, the rational part as a
prime-to-exponent map per coordinate.  Points are evaluated on Laurent
polynomials, compared up to the Galois action (equality of kernels of
evaluation), translated by Weyl elements, and analysed through the
sublattice of characters they kill; a fiber is the orbit of the point's
rows, or a walk over W whose translates must be that orbit.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul

from .cyclotomic import Cyclo, cyclotomic_polynomial, demote, prime_factors
from .lattice import Sublattice, kernel, quotient_group
from .laurent import LaurentPoly
from .rootdata import RootDatum, centralizer_subsystem, row_orbit, weyl_order, weyl_walk


# Primes parse_point has factored (only primes), held while it builds their point.
_PARSED_PRIMES: set[int] = set()


def _is_prime(n: int) -> bool:
    return n in _PARSED_PRIMES or (n >= 2 and next(prime_factors(n)) == n)


class EvalPoint(namedtuple("EvalPoint", "torsion rational")):
    """An exact evaluation point of the rank-r character lattice.

    torsion[i] is a reduced fraction a/m in [0, 1) meaning the root of
    unity zeta_m^a; rational[i] is a sorted tuple of (prime, exponent)
    pairs with nonzero exponents, encoding a positive rational.  The same
    data in integers, rows, are computed once per point; evaluation,
    supports, Galois keys and Weyl translates read them.  Torsion is
    checked in integers.
    """

    def __new__(cls, torsion: tuple[Fraction, ...],
                rational: tuple[tuple[tuple[int, int], ...], ...]):
        self = super().__new__(cls, torsion, rational)
        if len(self.torsion) != len(self.rational):
            raise ValueError("torsion and rational parts must have equal length")
        for t in self.torsion:
            if not (0 <= t.numerator < t.denominator):
                raise ValueError("torsion entries must lie in [0, 1)")
        for coord in self.rational:
            for p, e in coord:
                if not _is_prime(p):
                    raise ValueError(f"{p} is not prime")
                if e == 0:
                    raise ValueError("zero exponents must be dropped")
            primes = [p for p, _ in coord]
            if primes != sorted(set(primes)):
                raise ValueError("primes must be sorted and distinct")
        return self

    @property
    def rank(self) -> int:
        return len(self.torsion)

    @cached_property
    def torsion_order(self) -> int:
        return lcm(*(t.denominator for t in self.torsion))

    @cached_property
    def rows(self) -> tuple:
        """(m, zeta_row, prime_rows): coordinate i is zeta_m^zeta_row[i], m
        the torsion order, times prime^row[i] for each (prime, row) of
        prime_rows, one per prime that occurs, primes ascending."""
        m = self.torsion_order
        primes = sorted({prime for coord in self.rational for prime, _ in coord})
        return (m, tuple(t.numerator * (m // t.denominator) for t in self.torsion),
                tuple((prime, tuple(dict(coord).get(prime, 0) for coord in self.rational))
                      for prime in primes))

    @classmethod
    def from_parts(cls, torsion, rational_maps) -> "EvalPoint":
        tors = tuple(Fraction(t) % 1 for t in torsion)
        rats = tuple(tuple(sorted((int(p), int(e)) for p, e in coord.items() if e != 0))
                     for coord in rational_maps)
        return cls(tors, rats)

    @classmethod
    def all_ones(cls, rank: int) -> "EvalPoint":
        return cls((Fraction(0),) * rank, ((),) * rank)


_ZETA_RE = re.compile(r"^zeta\((\d+)\)(?:\^(-?\d+))?$")
_POW_RE = re.compile(r"^(\d+)\^(-?\d+)$")
_FRAC_RE = re.compile(r"^(\d+)/(\d+)$")
_INT_RE = re.compile(r"^(\d+)$")


def parse_coordinate(text: str) -> tuple[Fraction, dict[int, int]]:
    """Parse one coordinate literal like "zeta(4)^1*2" or "3/5" or "1".

    Returns (torsion fraction in [0,1), prime exponent map).  Rejects
    negative values, non-reduced fractions, and non-reduced roots of
    unity such as zeta(4)^2.
    """
    torsion = Fraction(0)
    seen_zeta = False
    num = 1
    den = 1
    exps: dict[int, int] = {}
    for raw in text.split("*"):
        tok = raw.strip()
        if not tok:
            raise ValueError("empty factor in point literal")
        m = _ZETA_RE.match(tok)
        if m:
            if seen_zeta:
                raise ValueError("at most one root-of-unity factor per coordinate")
            seen_zeta = True
            order = int(m.group(1))
            power = int(m.group(2)) if m.group(2) is not None else 1
            if order < 1:
                raise ValueError("root-of-unity order must be positive")
            if order == 1 or power == 0:
                continue
            if not 0 < power < order:
                raise ValueError("root-of-unity exponent must lie in [0, order)")
            if gcd(power, order) != 1:
                raise ValueError(
                    f"zeta({order})^{power} is not reduced; write the primitive form")
            torsion = Fraction(power, order)
            continue
        m = _POW_RE.match(tok)
        if m:
            base, e = int(m.group(1)), int(m.group(2))
            if not _is_prime(base):
                raise ValueError(f"base {base} in a power factor must be prime")
            exps[base] = exps.get(base, 0) + e
            continue
        m = _FRAC_RE.match(tok)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            if p == 0 or q == 0:
                raise ValueError("zero is not an evaluation value")
            if gcd(p, q) != 1:
                raise ValueError(f"fraction {p}/{q} is not reduced")
            num *= p
            den *= q
            continue
        m = _INT_RE.match(tok)
        if m:
            n = int(m.group(1))
            if n == 0:
                raise ValueError("zero is not an evaluation value")
            num *= n
            continue
        raise ValueError(f"cannot parse point factor {tok!r}")
    for p in prime_factors(num):
        exps[p] = exps.get(p, 0) + 1
    for p in prime_factors(den):
        exps[p] = exps.get(p, 0) - 1
    return torsion, {p: e for p, e in exps.items() if e != 0}


def parse_point(text: str, rank: int) -> EvalPoint:
    """Parse a comma-separated list of coordinate literals ("" at rank 0)."""
    if not (text or rank):
        return EvalPoint.all_ones(0)
    coords = text.split(",")
    if len(coords) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(coords)}")
    torsion, rational = zip(*map(parse_coordinate, coords))
    _PARSED_PRIMES.update(*rational)
    try:
        return EvalPoint.from_parts(torsion, rational)
    finally:
        _PARSED_PRIMES.clear()


def render_rows(rows) -> str:
    """Canonical literal for the point with integer form rows (as
    EvalPoint.rows); parse_point round-trips it."""
    m, zeta_row, prime_rows = rows
    out = []
    for i, a in enumerate(zeta_row):
        parts = []
        if a:
            g = gcd(a, m)
            parts.append(f"zeta({m // g})^{a // g}")
        num = den = 1
        for prime, row in prime_rows:
            if row[i] > 0:
                num *= prime ** row[i]
            elif row[i] < 0:
                den *= prime ** -row[i]
        if num != 1 or den != 1:
            parts.append(str(num) if den == 1 else f"{num}/{den}")
        out.append("*".join(parts) if parts else "1")
    return ",".join(out)


def _character(rows, n) -> tuple[int, int, int]:
    """The value on e^n at rows as (k, num, den): zeta_m^k num/den, in lowest terms."""
    m, zeta_row, prime_rows = rows
    num = den = 1
    for prime, row in prime_rows:
        x = sum(map(mul, row, n))
        if x > 0:
            num *= prime ** x
        elif x < 0:
            den *= prime ** -x
    return sum(map(mul, zeta_row, n)) % m, num, den


def evaluate_char(p: EvalPoint, n) -> int | Fraction | Cyclo:
    """Value of the point on the lattice character with exponent vector n."""
    vec = list(map(int, n))
    if len(vec) != p.rank:
        raise ValueError("exponent length does not match point rank")
    k, num, den = _character(p.rows, vec)
    return demote(Cyclo.zeta(p.torsion_order, k) * Fraction(num, den) if k else Fraction(num, den))


def _prepare(fs) -> tuple:
    """Polynomials fs for evaluation at many points as one block: the
    exponent columns of all their rational terms, concatenated, with
    numerators over one denominator, where each polynomial's terms end,
    and each polynomial's Cyclo terms."""
    terms, ends, cyclo_terms = [], [], []
    for f in fs:
        terms += [(e, c) for e, c in f.terms.items() if not isinstance(c, Cyclo)]
        ends.append(len(terms))
        cyclo_terms.append([(e, c) for e, c in f.terms.items() if isinstance(c, Cyclo)])
    den = lcm(*(c.denominator for _, c in terms))
    return (tuple(zip(*(e for e, _ in terms))),
            [c.numerator * (den // c.denominator) for _, c in terms], den, ends, cyclo_terms)


def _dots(row, columns, n: int) -> list[int]:
    """The pairings of row with n exponent vectors given by columns."""
    acc = [0] * n
    for x, col in zip(row, columns):
        if x:
            acc = list(map(add, acc, col if x == 1 else [x * y for y in col]))
    return acc


def _slot_sums(rows, block) -> tuple[list[list[int]], int]:
    """The rational terms of a prepared block at rows in m slots per
    polynomial over one denominator: each term's numerator times its prime
    powers, read from one table per prime and shifted by the block's lowest
    exponent (if negative, into the denominator), in its zeta_m power's slot."""
    m, zeta_row, prime_rows = rows
    columns, values, den, ends, _ = block
    n = len(values)
    for prime, row in prime_rows:
        xs = _dots(row, columns, n)
        low = min(min(xs, default=0), 0)
        powers = {x: prime ** (x - low) for x in set(xs)}
        values = list(map(mul, values, map(powers.__getitem__, xs)))
        den *= prime ** -low
    ks, sums = _dots(zeta_row, columns, n), []
    for start, end in zip([0, *ends], ends):
        slots = [0] * m
        for i in range(start, end):
            slots[ks[i] % m] += values[i]
        sums.append(slots)
    return sums, den


def _evaluate(rows, block) -> list[int | Fraction | Cyclo]:
    """A prepared block of polynomials at rows, one value each: its slot
    sums reduced once as one Cyclo, plus its Cyclo terms."""
    (sums, den), out = _slot_sums(rows, block), []
    for slots, cyclo in zip(sums, block[4]):
        value = Cyclo(rows[0], slots, den)
        for e, c in cyclo:
            k, num, q_den = _character(rows, e)
            value = value + c * Cyclo.zeta(rows[0], k) * Fraction(num, q_den)
        out.append(demote(value))
    return out


def evaluate_poly(p: EvalPoint, f: LaurentPoly) -> int | Fraction | Cyclo:
    """Evaluate a Laurent polynomial at the point in one pass, in integers."""
    if f.rank != p.rank:
        raise ValueError("polynomial rank does not match point rank")
    return _evaluate(p.rows, _prepare([f]))[0]


class SupportDesc(namedtuple("SupportDesc", "kernel_lattice quotient connected")):
    """The kernel sublattice of a point with its quotient invariants (a
    FinAbGroup), and whether that quotient is torsion-free."""

    __slots__ = ()


def support(p: EvalPoint) -> SupportDesc:
    """Characters killed by the point, as a sublattice of Z^rank.

    The torsion part contributes one congruence row modulo the torsion
    order m (through an auxiliary column that is projected away), and
    each prime of the rational part one exact integer row.  The support
    is connected exactly when the quotient is torsion-free.
    """
    r = p.rank
    m, zeta_row, prime_rows = p.rows
    rows = [[*zeta_row, m]] + [[*row, 0] for _, row in prime_rows]
    ker = kernel(rows)
    lat = Sublattice(r, [g[:r] for g in ker.hnf_rows])
    quot = quotient_group(r, lat)
    return SupportDesc(kernel_lattice=lat, quotient=quot,
                       connected=quot.is_torsion_free)


def _galois_key(rows) -> tuple:
    """The Galois-normal key of the point at rows: its rational part, m,
    and the least unit multiple of its torsion row.  With a the row's
    first nonzero entry and g = gcd(a, m), the least first entry a unit
    multiple reaches is g, reached exactly by the units k = (a/g)^-1 mod
    m/g; the least is taken over those alone."""
    m, zeta_row, prime_rows = rows
    a = next((a for a in zeta_row if a), 0)
    if not a:
        return prime_rows, m, zeta_row
    g = gcd(a, m)
    first = pow(a // g, -1, m // g)
    return prime_rows, m, min(tuple(k * b % m for b in zeta_row)
                              for k in range(first, m, m // g) if gcd(k, m) == 1)


def _conjugates_in_orbit(rows, orbit) -> int:
    """The distinct sigma_k(p) (k z mod m, prime rows kept; k a unit mod m)
    in orbit, the orbit of p's rows (row_orbit): phi(m) lookups, or where m
    exceeds the orbit the orbit points with p's Galois key."""
    m, zeta_row, prime_rows = rows
    rest = tuple(x for _, row in prime_rows for x in row)
    if m > len(orbit):
        key, r = _galois_key((m, zeta_row, rest)), len(zeta_row)
        return sum(_galois_key((m, x[:r], x[r:])) == key for x in orbit)
    return sum(tuple([k * a % m for a in zeta_row]) + rest in orbit
               for k in range(1, m + 1) if gcd(k, m) == 1)


def fiber_over_RG(d: RootDatum, p: EvalPoint) -> list[tuple]:
    """The distinct maximal ideals over the invariant-ring ideal of p, as
    the rows (EvalPoint.rows) of one point on each, sorted; render_rows
    writes one.

    They are the Galois classes of p's orbit.  W acts linearly on the rows,
    so it commutes with sigma_k: (z, r) -> (k z mod m, r), and orbit points
    w p != w' p share a class exactly when w' p = sigma_k(w p) = w sigma_k(p),
    that is when a conjugate sigma_k(p) != p lies in the orbit.  Where none
    does the fiber is the orbit of p's rows (row_orbit).  Otherwise W is
    walked in sorted order (weyl_walk), keeping the first translate of each
    class, and the distinct translates must be the orbit, or it raises.  An
    orbit point is p's rows through transposes s^T checked adjoint to s,
    <s^T r, e> = <r, s e>, and s permutes an invariant's terms, so they stay
    p's: the per-member probe check of tests/orbit_oracle.py holds.
    """
    if d.rank != p.rank:
        raise ValueError("datum and point rank differ")
    m, zeta_row, prime_rows = p.rows
    primes, r = [prime for prime, _ in prime_rows], d.rank
    rows = (zeta_row, *(row for _, row in prime_rows))
    orbit = row_orbit(d, rows, m)
    cyclotomic_polynomial(m)  # over its cap the field is refused before any class is keyed
    points = [(m, x[:r], tuple(zip(primes, [x[i * r:i * r + r] for i in range(1, len(rows))])))
              for x in orbit]
    if _conjugates_in_orbit(p.rows, orbit) == 1:
        return sorted(points)
    translates = dict.fromkeys((m, tuple([x % m for x in z]), tuple(zip(primes, rs)))
                               for _, (z, *rs) in weyl_walk(d, rows))
    if translates.keys() != set(points):
        raise AssertionError("the fiber's translates are not the orbit of the point's rows")
    # A reversed pass leaves each class with its first translate in W's order.
    return sorted({_galois_key(q): q for q in reversed(translates)}.values())


class StabilizerReport(namedtuple("StabilizerReport",
                                  "geometric_order ideal_order subsystem_order agree")):
    """The orders of three stabilizers, and whether they are one group, as
    they must be for connected support."""

    __slots__ = ()


def stabilizer_check(d: RootDatum, p: EvalPoint) -> StabilizerReport:
    """Compare the point stabilizer, ideal stabilizer, and the Weyl group
    of the centralizer subsystem of the support.  Requires connected
    support; the three groups must coincide there.

    No group is enumerated.  On the orbit of p's rows, |Stab| = |W| /
    |orbit|, and the ideal stabilizer is |Stab| times the conjugates of p
    in the orbit (_conjugates_in_orbit).  Stab lies in the ideal stabilizer
    and contains W_Z if W_Z's simple reflections fix p's rows: the three
    are one exactly when they do and the three orders are equal."""
    desc = support(p)
    if not desc.connected:
        raise ValueError("stabilizer comparison needs a connected support")
    m, zeta_row, prime_rows = p.rows
    rows = (zeta_row, *(row for _, row in prime_rows))
    points = row_orbit(d, rows, m)
    geometric = weyl_order(d) // len(points)
    ideal = geometric * _conjugates_in_orbit(p.rows, points)
    levi = centralizer_subsystem(d, desc.kernel_lattice)
    subsystem = weyl_order(levi.datum)
    fixed = len(row_orbit(levi.datum, rows, m)) == 1
    return StabilizerReport(geometric, ideal, subsystem,
                            fixed and geometric == ideal == subsystem)
