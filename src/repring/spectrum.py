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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .cyclotomic import Cyclo, coeff_is_zero, demote, prime_factors
from .lattice import (FinAbGroup, Sublattice, is_member, kernel,
                      mat_inverse_unimodular, mat_vec, quotient_group, transpose)
from .laurent import LaurentPoly
from .rootdata import RootDatum, WeylGroup, centralizer_subsystem, weyl_group


def _is_prime(n: int) -> bool:
    return n >= 2 and next(prime_factors(n)) == n


@dataclass(frozen=True)
class EvalPoint:
    """An exact evaluation point of the rank-r character lattice.

    torsion[i] is a reduced fraction a/m in [0, 1) meaning the root of
    unity zeta_m^a; rational[i] is a sorted tuple of (prime, exponent)
    pairs with nonzero exponents, encoding a positive rational.
    """

    torsion: tuple[Fraction, ...]
    rational: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.torsion) != len(self.rational):
            raise ValueError("torsion and rational parts must have equal length")
        for t in self.torsion:
            if not (0 <= t < 1):
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

    @property
    def rank(self) -> int:
        return len(self.torsion)

    @property
    def torsion_order(self) -> int:
        m = 1
        for t in self.torsion:
            m = lcm(m, t.denominator)
        return m

    @classmethod
    def from_parts(cls, torsion, rational_maps) -> "EvalPoint":
        tors = tuple(Fraction(t) % 1 for t in torsion)
        rats = tuple(tuple(sorted((int(p), int(e)) for p, e in coord.items() if e != 0))
                     for coord in rational_maps)
        return cls(tors, rats)

    @classmethod
    def all_ones(cls, rank: int) -> "EvalPoint":
        return cls((Fraction(0),) * rank, ((),) * rank)

    def rational_maps(self) -> list[dict[int, int]]:
        return [dict(coord) for coord in self.rational]


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


def evaluate_char(p: EvalPoint, n) -> Fraction | Cyclo:
    """Value of the point on the lattice character with exponent vector n."""
    vec = list(map(int, n))
    if len(vec) != p.rank:
        raise ValueError("exponent length does not match point rank")
    m = p.torsion_order
    zeta_exp = 0
    for t, ni in zip(p.torsion, vec):
        if t != 0 and ni != 0:
            zeta_exp += ni * t.numerator * (m // t.denominator)
    zeta_exp %= m
    q = Fraction(1)
    for coord, ni in zip(p.rational, vec):
        if ni:
            for prime, e in coord:
                q *= Fraction(prime) ** (e * ni)
    if zeta_exp == 0:
        return q
    return demote(Cyclo.zeta(m, zeta_exp) * q)


def evaluate_poly(p: EvalPoint, f: LaurentPoly) -> Fraction | Cyclo:
    """Evaluate a Laurent polynomial at the point in one pass: each term's
    rational part (from integer prime exponents) times a rational
    coefficient goes into the slot of its power of zeta_m, m the torsion
    order, reduced once as one Cyclo; Cyclo coefficients multiply out."""
    if f.rank != p.rank:
        raise ValueError("polynomial rank does not match point rank")
    m = p.torsion_order
    zeta_row = [t.numerator * (m // t.denominator) for t in p.torsion]
    primes = sorted({prime for coord in p.rational for prime, _ in coord})
    prime_rows = [(prime, [dict(coord).get(prime, 0) for coord in p.rational])
                  for prime in primes]
    slots = [Fraction(0)] * m
    rest: object = Fraction(0)
    for e, c in f.terms.items():
        num = den = 1
        for prime, row in prime_rows:
            x = sum(map(mul, row, e))
            if x > 0:
                num *= prime ** x
            elif x < 0:
                den *= prime ** -x
        k = sum(map(mul, zeta_row, e)) % m
        if isinstance(c, Cyclo):
            rest = rest + c * Cyclo.zeta(m, k) * Fraction(num, den)
        else:
            slots[k] += c * Fraction(num, den)
    return demote(Cyclo(m, slots) + rest)


@dataclass(frozen=True)
class SupportDesc:
    """The kernel sublattice of a point with its quotient invariants."""

    kernel_lattice: Sublattice
    quotient: FinAbGroup
    connected: bool


def support(p: EvalPoint, _modulus_multiplier: int = 1) -> SupportDesc:
    """Characters killed by the point, as a sublattice of Z^rank.

    The torsion parts contribute one congruence row (handled through an
    auxiliary modulus column that is projected away), and each prime
    appearing in the rational parts contributes one exact integer row.
    The support is connected exactly when the quotient is torsion-free.
    The modulus multiplier widens the congruence modulus and must not
    change the result; it exists so tests can check that stability.
    """
    r = p.rank
    if _modulus_multiplier < 1:
        raise ValueError("modulus multiplier must be positive")
    m = p.torsion_order * _modulus_multiplier
    rows: list[list[int]] = []
    if any(t != 0 for t in p.torsion):
        cong = [t.numerator * (m // t.denominator) for t in p.torsion]
        rows.append(cong + [m])
    else:
        rows.append([0] * r + [1])
    primes = sorted({prime for coord in p.rational for prime, _ in coord})
    for prime in primes:
        row = [dict(coord).get(prime, 0) for coord in p.rational]
        rows.append(row + [0])
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
    top = [t.numerator * (m // t.denominator) for t in p.torsion]
    return p.rational, m, min(tuple(k * a % m for a in top)
                              for k in range(1, m + 1) if gcd(k, m) == 1)


def weyl_translate(w, p: EvalPoint, inverse_transpose=None) -> EvalPoint:
    """The translated point (w . p)(n) = p(w^{-1} n).

    Torsion and prime-exponent rows transform by the inverse-transpose
    of the integer matrix w (computed here unless given).
    """
    if len(w) != p.rank:
        raise ValueError("matrix size does not match point rank")
    inv_t = inverse_transpose or transpose(mat_inverse_unimodular(w))
    torsion = [t % 1 for t in mat_vec(inv_t, p.torsion)]
    primes = sorted({prime for coord in p.rational for prime, _ in coord})
    maps: list[dict[int, int]] = [{} for _ in range(p.rank)]
    for prime in primes:
        vec = [dict(coord).get(prime, 0) for coord in p.rational]
        for j, e in enumerate(mat_vec(inv_t, vec)):
            if e:
                maps[j][prime] = e
    return EvalPoint.from_parts(torsion, maps)


def _invariant_probe(d: RootDatum) -> list[LaurentPoly]:
    """A few small invariant polynomials used for internal consistency checks."""
    from .invariants import orbit_sum
    from .rootdata import dominant_representative
    probes = [LaurentPoly.one(d.rank)]
    seen = set()
    for i in range(d.rank):
        e = [0] * d.rank
        e[i] = 1
        lam = dominant_representative(d, e)
        if lam not in seen:
            seen.add(lam)
            probes.append(orbit_sum(d, lam).poly)
    return probes


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
            got = evaluate_poly(q, f)
            if not coeff_is_zero(got - val):
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
