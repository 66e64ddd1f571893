"""Evaluation points of the character lattice and their maximal-ideal data.

A representable evaluation point sends each lattice coordinate to a root
of unity times a positive rational, stored exactly: the torsion part as
a reduced fraction in [0, 1) per coordinate, the rational part as a
prime-to-exponent map per coordinate.  Points are evaluated on Laurent
polynomials, compared up to the Galois action (equality of kernels of
evaluation), translated by Weyl elements, and analysed through the
sublattice of characters they kill.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .cyclotomic import Cyclo, demote, prime_factors
from .lattice import (FinAbGroup, Sublattice, is_member, kernel,
                      mat_inverse_unimodular, mat_vec, quotient_group, transpose)
from .laurent import LaurentPoly
from .rootdata import (RootDatum, WeylGroup, centralizer_subsystem, dominant_representative,
                       weyl_group)


def _is_prime(n: int) -> bool:
    return n >= 2 and next(prime_factors(n)) == n


@dataclass(frozen=True)
class EvalPoint:
    """An exact evaluation point of the rank-r character lattice.

    torsion[i] is a reduced fraction a/m in [0, 1) meaning the root of
    unity zeta_m^a; rational[i] is a sorted tuple of (prime, exponent)
    pairs with nonzero exponents, encoding a positive rational.  The same
    data in integers, zeta_row and prime_rows, are computed once per point;
    evaluation, supports, Galois keys and Weyl translates read them.
    Primes in proven_primes (a validated source point's) skip trial division.
    """

    torsion: tuple[Fraction, ...]
    rational: tuple[tuple[tuple[int, int], ...], ...]
    proven_primes: InitVar[frozenset] = frozenset()

    def __post_init__(self, proven_primes) -> None:
        if len(self.torsion) != len(self.rational):
            raise ValueError("torsion and rational parts must have equal length")
        for t in self.torsion:
            if not (0 <= t < 1):
                raise ValueError("torsion entries must lie in [0, 1)")
        for coord in self.rational:
            for p, e in coord:
                if p not in proven_primes and not _is_prime(p):
                    raise ValueError(f"{p} is not prime")
                if e == 0:
                    raise ValueError("zero exponents must be dropped")
            primes = [p for p, _ in coord]
            if primes != sorted(set(primes)):
                raise ValueError("primes must be sorted and distinct")

    @property
    def rank(self) -> int:
        return len(self.torsion)

    @cached_property
    def torsion_order(self) -> int:
        return lcm(*(t.denominator for t in self.torsion))

    @cached_property
    def zeta_row(self) -> tuple[int, ...]:
        """The torsion part over m = torsion_order: coordinate i is zeta_m^zeta_row[i]."""
        m = self.torsion_order
        return tuple(t.numerator * (m // t.denominator) for t in self.torsion)

    @cached_property
    def prime_rows(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The rational part as (prime, exponent at each coordinate), one
        row per prime that occurs, primes ascending."""
        primes = sorted({prime for coord in self.rational for prime, _ in coord})
        return tuple((prime, tuple(dict(coord).get(prime, 0) for coord in self.rational))
                     for prime in primes)

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
    """Parse a comma-separated list of coordinate literals."""
    coords = [c for c in text.split(",")]
    if len(coords) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(coords)}")
    torsion = []
    rational = []
    for c in coords:
        t, r = parse_coordinate(c)
        torsion.append(t)
        rational.append(r)
    return EvalPoint.from_parts(torsion, rational)


def render_point(p: EvalPoint) -> str:
    """Canonical literal for a point; parse_point round-trips it."""
    out = []
    for i in range(p.rank):
        parts = []
        t = p.torsion[i]
        if t != 0:
            parts.append(f"zeta({t.denominator})^{t.numerator}")
        num = 1
        den = 1
        for prime, e in p.rational[i]:
            if e > 0:
                num *= prime ** e
            else:
                den *= prime ** (-e)
        if num != 1 or den != 1:
            parts.append(str(num) if den == 1 else f"{num}/{den}")
        out.append("*".join(parts) if parts else "1")
    return ",".join(out)


def _character(p: EvalPoint, n) -> tuple[int, Fraction]:
    """The point's value on e^n as (k, q): zeta_m^k times the positive
    rational q, m the torsion order."""
    num = den = 1
    for prime, row in p.prime_rows:
        x = sum(map(mul, row, n))
        if x > 0:
            num *= prime ** x
        elif x < 0:
            den *= prime ** -x
    return sum(map(mul, p.zeta_row, n)) % p.torsion_order, Fraction(num, den)


def evaluate_char(p: EvalPoint, n) -> Fraction | Cyclo:
    """Value of the point on the lattice character with exponent vector n."""
    vec = list(map(int, n))
    if len(vec) != p.rank:
        raise ValueError("exponent length does not match point rank")
    k, q = _character(p, vec)
    return demote(Cyclo.zeta(p.torsion_order, k) * q) if k else q


def evaluate_poly(p: EvalPoint, f: LaurentPoly) -> Fraction | Cyclo:
    """Evaluate a Laurent polynomial at the point in one pass, in integers:
    each term with a rational coefficient adds an integer numerator into
    the slot of its power of zeta_m, m the torsion order, over the lcm of
    the coefficient denominators times each prime to minus its lowest
    exponent (if negative).  The slots reduce once as one Cyclo; Cyclo
    coefficients multiply out."""
    if f.rank != p.rank:
        raise ValueError("polynomial rank does not match point rank")
    m, primes = p.torsion_order, p.prime_rows
    terms, rest = [], 0
    for e, c in f.terms.items():
        if isinstance(c, Cyclo):
            k, q = _character(p, e)
            rest = rest + c * Cyclo.zeta(m, k) * q
        else:
            terms.append((sum(map(mul, p.zeta_row, e)) % m, c.numerator, c.denominator,
                          [sum(map(mul, row, e)) for _, row in primes]))
    low = [min(0, *xs) for xs in zip(*(t[3] for t in terms))]
    den = lcm(*(t[2] for t in terms))
    slots = [0] * m
    for k, a, b, xs in terms:
        v = a * (den // b)
        for (prime, _), x, x0 in zip(primes, xs, low):
            if x != x0:
                v *= prime ** (x - x0)
        slots[k] += v
    for (prime, _), x0 in zip(primes, low):
        den *= prime ** -x0
    value = Cyclo(m, slots, den)
    return demote(value + rest if rest else value)


@dataclass(frozen=True)
class SupportDesc:
    """The kernel sublattice of a point with its quotient invariants."""

    kernel_lattice: Sublattice
    quotient: FinAbGroup
    connected: bool


def support(p: EvalPoint) -> SupportDesc:
    """Characters killed by the point, as a sublattice of Z^rank.

    The torsion part contributes one congruence row modulo the torsion
    order m (through an auxiliary column that is projected away), and
    each prime of the rational part one exact integer row.  The support
    is connected exactly when the quotient is torsion-free.
    """
    r = p.rank
    rows = [[*p.zeta_row, p.torsion_order]] + [[*row, 0] for _, row in p.prime_rows]
    ker = kernel(rows)
    lat = Sublattice(r, [g[:r] for g in ker.hnf_rows])
    quot = quotient_group(r, lat)
    return SupportDesc(kernel_lattice=lat, quotient=quot,
                       connected=quot.is_torsion_free)


@dataclass(frozen=True)
class MaxIdealDesc:
    """A maximal ideal of the invariant ring, named by one point on it.

    Two descriptors are equal when their points are Galois-conjugate:
    same rational parts and torsion parts related by a unit multiplier.
    """

    point: EvalPoint

    @property
    def order(self) -> int:
        return self.point.torsion_order

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaxIdealDesc):
            return NotImplemented
        return ideal_equal(self, other)

    def __hash__(self) -> int:
        return hash(_galois_key(self.point))


def ideal_equal(p, q) -> bool:
    """Whether two points define the same maximal ideal of evaluation:
    equal ranks and equal Galois keys, that is, equal rational parts and
    torsion vectors related by a unit multiplier (the Galois action on
    roots of unity)."""
    a = p.point if isinstance(p, MaxIdealDesc) else p
    b = q.point if isinstance(q, MaxIdealDesc) else q
    return a.rank == b.rank and _galois_key(a) == _galois_key(b)


def _galois_key(p: EvalPoint) -> tuple:
    """A hashable Galois-normal key of a point: the rational part, the
    torsion order m, and the least unit multiple of the torsion vector
    written in integers over m."""
    m = p.torsion_order
    return p.rational, m, min(tuple(k * a % m for a in p.zeta_row)
                              for k in range(1, m + 1) if gcd(k, m) == 1)


def weyl_translate(w, p: EvalPoint, inverse_transpose=None) -> EvalPoint:
    """The translated point (w . p)(n) = p(w^{-1} n).

    The integer rows of the point, zeta_row and prime_rows, transform by
    the inverse-transpose of the integer matrix w (computed here unless
    given); the torsion order stays the same.
    """
    if len(w) != p.rank:
        raise ValueError("matrix size does not match point rank")
    inv_t = inverse_transpose or transpose(mat_inverse_unimodular(w))
    m = p.torsion_order
    torsion = tuple(Fraction(a % m, m) for a in mat_vec(inv_t, p.zeta_row))
    coords: list[list[tuple[int, int]]] = [[] for _ in range(p.rank)]
    for prime, row in p.prime_rows:
        for coord, e in zip(coords, mat_vec(inv_t, row)):
            if e:
                coord.append((prime, e))
    return EvalPoint(torsion, tuple(map(tuple, coords)),
                     frozenset(prime for prime, _ in p.prime_rows))


def _invariant_probe(d: RootDatum) -> list[LaurentPoly]:
    """Small invariants for internal consistency checks: 1 and the orbit
    sums of the distinct dominant representatives of the basis vectors."""
    from .invariants import orbit_sum
    lams = dict.fromkeys(dominant_representative(d, [int(i == j) for j in range(d.rank)])
                         for i in range(d.rank))
    return [LaurentPoly.one(d.rank)] + [orbit_sum(d, lam).poly for lam in lams]


def fiber_over_RG(d: RootDatum, p: EvalPoint) -> list[MaxIdealDesc]:
    """The distinct maximal ideals over the invariant-ring ideal of p.

    Enumerates the Weyl orbit of the point in sorted group order and
    keeps the first translate of each Galois class.  As a consistency
    check, all members must evaluate a probe set of invariants
    identically; a violation raises.
    """
    if d.rank != p.rank:
        raise ValueError("datum and point rank differ")
    w = weyl_group(d)
    classes: dict[tuple, EvalPoint] = {}
    for m, inv_t in zip(w.elements, w.inverse_transposes):
        q = weyl_translate(m, p, inv_t)
        classes.setdefault(_galois_key(q), q)
    probes = _invariant_probe(d)
    base_vals = [evaluate_poly(p, f) for f in probes]
    for q in classes.values():
        for f, val in zip(probes, base_vals):
            if evaluate_poly(q, f) != val:
                raise AssertionError("fiber member disagrees on an invariant probe")
    return [MaxIdealDesc(q) for q in classes.values()]


@dataclass(frozen=True)
class StabilizerReport:
    """Three stabilizer computations that must agree for connected support."""

    geometric: WeylGroup
    ideal: WeylGroup
    subsystem: WeylGroup
    agree: bool


def stabilizer_check(d: RootDatum, p: EvalPoint) -> StabilizerReport:
    """Compare the point stabilizer, ideal stabilizer, and the Weyl group
    of the centralizer subsystem of the support.  Requires connected
    support; the three groups must coincide there."""
    desc = support(p)
    if not desc.connected:
        raise ValueError("stabilizer comparison needs a connected support")
    w = weyl_group(d)
    geo = []
    idl = []
    for m, inv_t in zip(w.elements, w.inverse_transposes):
        q = weyl_translate(m, p, inv_t)
        if q == p:
            geo.append(m)
        if ideal_equal(q, p):
            idl.append(m)
    levi = centralizer_subsystem(d, desc.kernel_lattice)
    geo_g = WeylGroup(d.rank, tuple(sorted(geo)), tuple(sorted(geo)))
    idl_g = WeylGroup(d.rank, tuple(sorted(idl)), tuple(sorted(idl)))
    sub = levi.weyl_subgroup
    agree = geo_g.elements == idl_g.elements == sub.elements
    return StabilizerReport(geometric=geo_g, ideal=idl_g, subsystem=sub, agree=agree)


def unique_lift_check(d: RootDatum, p: EvalPoint) -> bool:
    """Whether the point's ideal is the only one over its invariant ideal.

    Preconditions: connected support and every root of d inside the
    kernel lattice (the point is then central).  Computed honestly from
    the fiber, which must come out a singleton.
    """
    desc = support(p)
    if not desc.connected:
        raise ValueError("unique-lift check needs a connected support")
    from .rootdata import all_roots
    for a, _ in all_roots(d):
        if not is_member(desc.kernel_lattice, a):
            raise ValueError("unique-lift check needs every root inside the kernel lattice")
    fiber = fiber_over_RG(d, p)
    return len(fiber) == 1
