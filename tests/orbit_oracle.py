"""Whole-orbit and per-element references for |W|, fibers and stabilizers.

The library counts |W| from the heights of the positive roots, takes a
fiber and counts stabilizers on the orbit of the point's rows, and walks
a Weyl group carrying those rows only where a Galois conjugate of the
point lies in its orbit.  These references do it the long way: W is
listed as its sorted matrices (weyl_group, the walk without rows), |W| is
the size of the free orbit of 2 rho, every group element gives a full
EvalPoint through weyl_translate, its rows through an inverse computed by
reflection_oracle.mat_inverse_unimodular, Galois keys are read off the
points with a search over every unit, stabilizers are sets of matrices (the
centralizer's the dense closure of the reflections in the roots the point
sends to 1), a polynomial is evaluated term by term, and a probe block's
terms at rows are compared as tuples.  The fiber's former per-member
check is kept here as the reference its orbit comparison implies: every
member must give the point's terms on a probe set of invariants, compared
as packed integer keys (_check_probe_terms).
"""

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from reflection_oracle import mat_inverse_unimodular, reflection_matrix

from repring.cyclotomic import Cyclo, demote
from repring.invariants import orbit_sum
from repring.lattice import mat_mul
from repring.laurent import LaurentPoly
from repring.rootdata import (RootDatum, all_roots, dominant_representative, orbit, two_rho,
                              weyl_walk)
from repring.spectrum import EvalPoint, evaluate_char


@dataclass(frozen=True)
class WeylGroup:
    """A finite reflection group given by explicit matrices; one walked from
    reflections lists them sorted, whatever order the walk reached them in."""

    rank: int
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def weyl_group(d: RootDatum, cap: int | None = None) -> WeylGroup:
    """W as its sorted elements: weyl_walk without rows, refused over cap
    (WEYL_ORDER_CAP, read at call time, when not given) as weyl_walk is."""
    return WeylGroup(d.rank, tuple(m for m, _ in weyl_walk(d, (), cap)))


def weyl_translate(w, p: EvalPoint) -> EvalPoint:
    """The translated point (w . p)(n) = p(w^{-1} n): p's integer rows
    through the inverse-transpose of the integer matrix w, with every
    check of EvalPoint."""
    if len(w) != p.rank:
        raise ValueError("matrix size does not match point rank")
    return EvalPoint(*translate_rows(p, w))


def weyl_order_by_orbit(d) -> int:
    """|W| as the size of the orbit of 2 rho, which is strictly dominant
    and so has a trivial stabilizer (Humphreys 10.3)."""
    return len(orbit(d, two_rho(d)))


def least_unit_multiple(m, zeta_row) -> tuple:
    """The least of the rows k * zeta_row mod m over every unit k mod m."""
    return min(tuple(k * a % m for a in zeta_row)
               for k in range(1, m + 1) if gcd(k, m) == 1)


def galois_key(p) -> tuple:
    """The prime rows, the torsion order m, and the least unit multiple
    of the torsion row."""
    m, zeta_row, prime_rows = p
    return prime_rows, m, least_unit_multiple(m, zeta_row)


def probe_signature(rows, block) -> list[list[tuple]]:
    """Each polynomial of a prepared block of rational terms at rows as
    the sorted list of its terms' (power of zeta mod m, each prime's
    exponent, numerator), every pairing summed term by term."""
    m, zeta_row, prime_rows = rows
    columns, values, _, ends, _ = block
    terms = [(sum(map(mul, zeta_row, e)) % m,
              *(sum(map(mul, row, e)) for _, row in prime_rows), value)
             for e, value in zip(zip(*columns), values)]
    return [sorted(terms[start:end]) for start, end in zip([0, *ends], ends)]


def translate_rows(p, m) -> tuple:
    """The rows, laid out as a point, of the translate of p by the matrix
    m: p's rows through the inverse-transpose of m, one dot product per
    entry."""
    mod, zeta_row, prime_rows = p
    inv = mat_inverse_unimodular(m)
    columns = list(zip(*inv))
    return (mod, tuple(sum(map(mul, c, zeta_row)) % mod for c in columns),
            tuple((prime, tuple(sum(map(mul, c, row)) for c in columns))
                  for prime, row in prime_rows))


def translates(d, p):
    """(element, translated point) over the Weyl group in sorted order."""
    for m in weyl_group(d).elements:
        yield m, weyl_translate(m, p)


def fiber_points(d, p) -> list:
    """The first translate of each Galois class, in group order."""
    classes = {}
    for _, q in translates(d, p):
        classes.setdefault(galois_key(q), q)
    return list(classes.values())


def stabilizers(d, p) -> tuple[list, list]:
    """The elements fixing p, and those fixing its Galois class."""
    key = galois_key(p)
    geo, idl = [], []
    for m, q in translates(d, p):
        if q == p:
            geo.append(m)
        if galois_key(q) == key:
            idl.append(m)
    return geo, idl


def subsystem_elements(d, p) -> set:
    """W_Z as a set of matrices: the closure, by dense products, of the
    reflections in every root of d on which p takes the value 1."""
    gens = [reflection_matrix(a, av) for a, av in all_roots(d) if evaluate_char(p, a) == 1]
    ident = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    found, frontier = {ident}, [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            prod = tuple(map(tuple, mat_mul(m, g)))
            if prod not in found:
                found.add(prod)
                frontier.append(prod)
    return found


def evaluate_by_terms(p, f):
    """f at p, term by term: each rational term's zeta power and prime
    exponents come from its own exponent vector, and its numerator goes
    into the slot of that power over the lcm of the coefficient
    denominators times each prime to minus its lowest exponent; Cyclo
    coefficients multiply out."""
    m, zeta_row, primes = p
    terms, rest = [], 0
    for e, c in f.terms.items():
        xs = [sum(map(mul, row, e)) for _, row in primes]
        k = sum(map(mul, zeta_row, e)) % m
        if isinstance(c, Cyclo):
            q = Fraction(1)
            for (prime, _), x in zip(primes, xs):
                q *= Fraction(prime) ** x
            rest = rest + c * Cyclo.zeta(m, k) * q
        else:
            terms.append((k, c.numerator, c.denominator, xs))
    low = [min(0, *xs) for xs in zip(*(t[3] for t in terms))]
    den = lcm(*(t[2] for t in terms))
    slots = [0] * m
    for k, a, b, xs in terms:
        v = a * (den // b)
        for (prime, _), x, x0 in zip(primes, xs, low):
            v *= prime ** (x - x0)
        slots[k] += v
    for (prime, _), x0 in zip(primes, low):
        den *= prime ** -x0
    value = Cyclo(m, slots, den)
    return demote(value + rest if rest else value)


# Array type codes by item size: slots of these sizes unpack in one call.
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _slots(x: int, count: int, size: int) -> list[int]:
    """The count unsigned slots of size bytes that make up x, lowest first."""
    raw = x.to_bytes(count * size, "little")
    if size not in _SLOT_CODES:
        return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    slots = array(_SLOT_CODES[size], raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _check_probe_terms(block, base, classes) -> None:
    """Raise unless, at each rows of classes (of base's m and primes), every
    polynomial of a prepared block has the terms it has at base: the same
    (power of zeta_m, prime exponents, numerator), permuted.  Equal terms
    give equal values.  A block with Cyclo terms is refused.

    One integer pass per rows.  A term's key is its power of zeta, plus m
    times its prime exponents as digits in a base B, with its numerator
    and its polynomial's index above them.  B and the slot widths come
    from bounds taken over base, classes and the block every call,
    |<r, e>| <= max|r_i| * max_j sum_i |e_j,i|, so keys are injective on
    any rows, and rows whose pairings leave base's range fail.  Each
    exponent column is packed once into an integer of 2n slots: the rows'
    pairings are then one product per coordinate and one unpack, the zeta
    pairings in the even slots, all shifted by one constant (so their
    residues mod m are permuted alike for every rows), and the rest of
    the keys in the odd ones."""
    columns, values, _, ends, cyclo_terms = block
    if any(cyclo_terms):
        raise AssertionError("a block with Cyclo terms has no integer signature")
    m, _, base_primes = base
    classes = list(classes)
    every = [base, *classes]
    reach = max((sum(map(abs, e)) for e in zip(*columns)), default=0)
    zeta_bound = reach * max((abs(a) for _, row, _ in every for a in row), default=0)
    digit = 2 * reach * max((abs(x) for *_, primes in every for _, row in primes for x in row),
                            default=0) + 1
    # Below a numerator's digit: m times the prime digits, each shifted
    # into [0, B), plus the power of zeta.
    low = m * digit ** len(base_primes)
    lowest = min(values, default=0)
    top = low * (max(values, default=0) - lowest + 1)
    polys = [k for k, (start, end) in enumerate(zip([0, *ends], ends)) for _ in range(start, end)]
    rests = [m * (digit ** len(base_primes) - 1) // 2 + low * (v - lowest) + top * k
             for v, k in zip(values, polys)]
    size = (max(2 * zeta_bound, top * len(ends)).bit_length() + 7) // 8
    size = min((s for s in _SLOT_CODES if s >= size), default=size)
    width = 8 * size
    packed = [sum(e << (2 * width * j) for j, e in enumerate(col)) for col in columns]
    fixed = sum((zeta_bound + (rest << width)) << (2 * width * j) for j, rest in enumerate(rests))
    weights = [m * digit ** t << width for t in range(len(base_primes))]

    def keys(rows) -> list[int]:
        _, zeta_row, prime_rows = rows
        coeffs = list(zeta_row)
        for weight, (_, row) in zip(weights, prime_rows):
            coeffs = list(map(add, coeffs, [weight * x for x in row]))
        slots = _slots(sum(map(mul, coeffs, packed), fixed), 2 * len(values), size)
        return sorted([z % m + rest for z, rest in zip(slots[::2], slots[1::2])])

    expected = keys(base)
    for rows in classes:
        if keys(rows) != expected:
            raise AssertionError("fiber member disagrees on an invariant probe")


def _invariant_probe(d: RootDatum) -> list[LaurentPoly]:
    """Small invariants for internal consistency checks: 1 and the orbit
    sums of the distinct dominant representatives of the basis vectors."""
    lams = dict.fromkeys(dominant_representative(d, [int(i == j) for j in range(d.rank)])
                         for i in range(d.rank))
    return [LaurentPoly.one(d.rank)] + [orbit_sum(d, lam) for lam in lams]
