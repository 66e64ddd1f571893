"""Weyl-invariant elements of the character ring and basis probes.

The invariant ring is handled through two computational bases: orbit
sums (one per dominant weight) and products of the characters attached
to the standard basis weights.  Characters come from Freudenthal's
multiplicity formula on the dominant weights below the highest weight,
with the invariant form written through pairings with coroots and each
string weight read from the orbits already spread, so nothing enumerates
the Weyl group.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import add, mul, sub

from .laurent import LaurentPoly, Span
from .linalg import solve_coordinates
from .poly import monomial_values, monomials_below
from .rootdata import (RootDatum, dominant_representative, is_dominant, is_invariant,
                       orbit, positive_roots, two_rho)


def orbit_sum(d: RootDatum, weight) -> LaurentPoly:
    """Sum of e^mu over the Weyl orbit of a dominant weight, verified invariant."""
    lam = tuple(map(int, weight))
    if not is_dominant(d, lam):
        raise ValueError(f"weight {lam} is not dominant")
    terms = dict.fromkeys(orbit(d, lam), 1)
    if not is_invariant(d, terms):
        raise AssertionError("orbit sum failed the invariance check")
    return LaurentPoly._normal(d.rank, terms)


def _dominant_below(d: RootDatum, weights) -> set[tuple[int, ...]]:
    """The dominant weights below some given dominant weight: subtracting
    positive roots, keeping dominant results, reaches them all (Stembridge)."""
    roots = [a for a, _ in positive_roots(d)]
    found = set(weights)
    frontier = list(found)
    while frontier:
        mu = frontier.pop()
        for a in roots:
            nu = tuple(map(sub, mu, a))
            if nu not in found and is_dominant(d, nu):
                found.add(nu)
                frontier.append(nu)
    return found


def weyl_character(d: RootDatum, weight) -> LaurentPoly:
    """The character with a given dominant highest weight, by Freudenthal's
    formula (Humphreys 22.3) on the dominant weights mu below lam:

        (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{a>0, k>=1} (mu+ka, a) m(mu+ka),

    m(nu) read from the orbits already spread, strings stopped at their
    first zero, with the integral invariant form (x, y) = sum of <x, b><y, b>
    over positive coroots b (Bourbaki VI.1.12).  Subtracting positive roots
    from lam, keeping dominant results, reaches every mu (_dominant_below);
    solving by decreasing |mu+rho|^2 puts the weights above mu first, and
    each m(mu) is spread over the orbit of mu once solved (as Moody and
    Patera, Bull. AMS 7, 1982).  These positive integer terms are verified
    invariant and kept as they are.
    """
    lam = tuple(map(int, weight))
    if not is_dominant(d, lam):
        raise ValueError(f"weight {lam} is not dominant")
    pos = positive_roots(d)
    coroots = [av for _, av in pos]

    def flat(x) -> list[int]:
        # The covector (x, .) of the canonical form.
        ks = [d.pairing(x, bv) for bv in coroots]
        return [sum(map(mul, ks, col)) for col in zip(*coroots)]

    flats = [(a, flat(a)) for a, _ in pos]
    weights = _dominant_below(d, [lam])
    rho2 = two_rho(d)
    gap = {mu: sum(map(mul, flat(tuple(map(sub, lam, mu))),
                       [x + y + z for x, y, z in zip(lam, mu, rho2)]))
           for mu in weights}

    terms = dict.fromkeys(orbit(d, lam), 1)
    for mu in sorted(weights - {lam}, key=lambda mu: (gap[mu], mu)):
        rhs = 0
        for a, a_flat in flats:
            nu = tuple(map(add, mu, a))
            while (m_nu := terms.get(nu)):
                rhs += sum(map(mul, nu, a_flat)) * m_nu
                nu = tuple(map(add, nu, a))
        m_mu, rem = divmod(2 * rhs, gap[mu])
        if rem or m_mu < 1:
            raise AssertionError("Freudenthal's formula gave no positive integer multiplicity")
        terms.update(dict.fromkeys(orbit(d, mu), m_mu))

    if not is_invariant(d, terms):
        raise AssertionError("character failed the invariance check")
    return LaurentPoly._normal(d.rank, terms)


def dominant_weights_in_box(d: RootDatum, height_bound: int) -> list[tuple[int, ...]]:
    """All dominant weights whose coordinates have absolute value at most
    the bound, in sorted order."""
    if height_bound < 0:
        raise ValueError("height bound must be nonnegative")
    return [e for e in _box(d.rank, height_bound) if is_dominant(d, e)]


def _box(rank: int, height_bound: int):
    """The exponent vectors with entries in [-bound, bound], in sorted order."""
    return product(range(-height_bound, height_bound + 1), repeat=rank)


def decompose_into_orbit_sums(d: RootDatum, f: LaurentPoly) -> dict[tuple[int, ...], Fraction]:
    """Write an invariant polynomial as a combination of orbit sums.

    Greedy: repeatedly strip the full orbit of the lexicographically
    largest remaining exponent.  Raises if the input was not invariant
    (the residue fails to clear).
    """
    if f.rank != d.rank:
        raise ValueError("rank mismatch")
    rem = f
    out: dict[tuple[int, ...], Fraction] = {}
    steps = 0
    cap = 10 * len(f.terms) + 100
    while not rem.is_zero():
        steps += 1
        if steps > cap:
            raise ValueError("orbit-sum decomposition did not terminate; "
                             "input is not Weyl-invariant")
        mu = max(rem.terms)
        c = rem.terms[mu]
        lam = dominant_representative(d, mu)
        out[lam] = out.get(lam, Fraction(0)) + c
        rem = rem - orbit_sum(d, lam) * c
    return {k: v for k, v in out.items() if v != 0}


class CharacterBasisReport(namedtuple("CharacterBasisReport", "independent spanning weights "
                                      "column_weights transition all_passed")):
    """Outcome of the fundamental-character probe.

    transition[i][j] is the coefficient of the orbit sum at
    column_weights[j] in the expansion of the character monomial indexed
    by weights[i].  column_weights extends weights when an expansion
    reaches outside the enumerated box.
    """

    __slots__ = ()


def fundamental_character_probe(d: RootDatum, degree_bound: int) -> CharacterBasisReport:
    """Probe that the characters of the standard basis weights generate
    the invariant ring freely up to a degree bound.

    Requires a built-in simply connected datum, where the basis weights
    are the fundamental weights.  Checks exact linear independence of
    the character monomials, that every orbit sum below the bound lies
    in the span of those of all dominant weights below it, and returns
    the transition matrix from character monomials to orbit sums (rows
    and columns share an index set of dominant weights, sorted).
    """
    if d.variant != "simply_connected":
        raise ValueError("fundamental-character probe needs a built-in "
                         "simply connected datum")
    fundamentals = [weyl_character(d, [int(i == k) for k in range(d.rank)])
                    for i in range(d.rank)]
    weights = sorted(monomials_below(d.rank, degree_bound + 1))
    below = sorted(_dominant_below(d, weights))
    monomials = dict(zip(below, monomial_values(fundamentals, below)))
    independent = Span(monomials[k] for k in weights).space.rank == len(weights)
    span = Span(monomials.values())
    spanning = all(orbit_sum(d, lam) in span for lam in weights)

    decs = {k: decompose_into_orbit_sums(d, monomials[k]) for k in weights}
    columns = sorted(set(weights) | {lam for dec in decs.values() for lam in dec})
    transition = tuple(tuple(decs[k].get(lam, Fraction(0)) for lam in columns)
                       for k in weights)
    return CharacterBasisReport(
        independent=independent,
        spanning=spanning,
        weights=tuple(weights),
        column_weights=tuple(columns),
        transition=transition,
        all_passed=independent and spanning,
    )


def dominance_leq(d: RootDatum, lower, upper) -> bool:
    """Whether upper - lower is a nonnegative rational combination of the
    simple roots."""
    diff = [u - l for u, l in zip(upper, lower)]
    coeffs = solve_coordinates(d.simple_roots, diff)
    return coeffs is not None and all(c >= 0 for c in coeffs)
