"""Invariant ring bases: orbit sums, characters, and generation probes.

Character dimensions are validated against the classical product
formula over positive roots, computed here directly from the root data
as an independent oracle, and whole characters against the alternating-
sum quotient of tests/character_oracle.py.  Decompositions are
validated by round-trip.
"""

import random
from fractions import Fraction
from itertools import product as boxes

import pytest
from character_oracle import alternating_sum_character
from orbit_oracle import weyl_group
from reflection_oracle import mat_vec, simple_reflections, weyl_act

from repring import invariants
from repring.invariants import (_box, decompose_into_orbit_sums, dominance_leq,
                                dominant_weights_in_box, fundamental_character_probe,
                                orbit_sum, weyl_character)
from repring.laurent import LaurentPoly, Span, augmentation
from repring.rootdata import (all_roots, gl_datum, is_dominant, is_invariant,
                              positive_roots, product, standard_datum,
                              torus_datum, two_rho)


def dimension_formula(d, lam):
    """Weyl's product formula, evaluated with doubled weights so all
    pairings stay integral: prod <2(lam+rho), a^> / <2 rho, a^>."""
    rho2 = two_rho(d)
    top = [2 * x + y for x, y in zip(lam, rho2)]
    dim = Fraction(1)
    for _, av in positive_roots(d):
        dim *= Fraction(d.pairing(top, av), d.pairing(rho2, av))
    return dim


def test_orbit_sum_frozen_examples():
    d = standard_datum("A", 1)
    m2 = orbit_sum(d, (2,))
    assert m2 == LaurentPoly(1, {(2,): 1, (-2,): 1})
    assert is_invariant(d, m2.terms)
    m0 = orbit_sum(d, (0,))
    assert m0 == LaurentPoly.one(1)
    with pytest.raises(ValueError):
        orbit_sum(d, (-1,))


def test_orbit_sum_matches_manual_symmetrization():
    rng = random.Random(5050)
    for label, rank in [("A", 2), ("C", 2), ("G", 2)]:
        d = standard_datum(label, rank)
        w = weyl_group(d)
        for _ in range(8):
            lam = tuple(rng.randint(0, 3) for _ in range(rank))
            if not is_dominant(d, lam):
                continue
            got = orbit_sum(d, lam)
            whole = {tuple(mat_vec(m, lam)) for m in w.elements}
            expected = LaurentPoly(rank, {mu: 1 for mu in whole})
            assert got == expected
            assert len(got.terms) * 1 == len(whole)


def test_sl2_characters_frozen():
    d = standard_datum("A", 1)
    for m in range(6):
        chi = weyl_character(d, (m,))
        expected = LaurentPoly(1, {(m - 2 * k,): 1 for k in range(m + 1)})
        assert chi == expected
        assert augmentation(chi) == m + 1


def test_sl3_adjoint_character_structure():
    d = standard_datum("A", 2)
    chi = weyl_character(d, (1, 1))
    expected_terms = {tuple(a): Fraction(1) for a, _ in all_roots(d)}
    expected_terms[(0, 0)] = Fraction(2)
    assert chi == LaurentPoly(2, expected_terms)
    assert augmentation(chi) == 8


def test_character_dimensions_against_product_formula():
    cases = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]
    for label, rank in cases:
        d = standard_datum(label, rank)
        for lam in dominant_weights_in_box(d, 2):
            dim = augmentation(weyl_character(d, lam))
            assert dim == dimension_formula(d, lam)


def test_g2_fundamental_dimensions():
    d = standard_datum("G", 2)
    dims = sorted([augmentation(weyl_character(d, (1, 0))),
                   augmentation(weyl_character(d, (0, 1)))])
    assert dims == [7, 14]


def test_characters_are_invariant():
    d = standard_datum("C", 2)
    for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        chi = weyl_character(d, lam)
        assert is_invariant(d, chi.terms)
        for s in simple_reflections(d):
            assert weyl_act([list(r) for r in s], chi) == chi


def test_orbit_sums_and_characters_raise_when_the_invariance_check_fails(monkeypatch):
    d = standard_datum("A", 2)
    monkeypatch.setattr(invariants, "is_invariant", lambda d, terms: False)
    with pytest.raises(AssertionError, match="orbit sum failed"):
        orbit_sum(d, (1, 0))
    with pytest.raises(AssertionError, match="character failed"):
        weyl_character(d, (1, 0))


def test_characters_read_string_weights_without_a_dominant_descent(monkeypatch):
    # Each string weight of Freudenthal's formula is read from the orbits
    # already spread, so no dominant representative is computed.
    def descent(d, v):
        raise AssertionError("weyl_character computed a dominant representative")

    monkeypatch.setattr(invariants, "dominant_representative", descent)
    for label, rank, lam in [("D", 4, (1, 1, 1, 1)), ("C", 4, (1, 0, 0, 1)), ("G", 2, (1, 1))]:
        d = standard_datum(label, rank)
        assert weyl_character(d, lam).terms == alternating_sum_character(d, lam).terms


def test_dominant_weights_in_box():
    d1 = standard_datum("A", 1)
    assert dominant_weights_in_box(d1, 3) == [(0,), (1,), (2,), (3,)]
    d2 = standard_datum("A", 2)
    got = dominant_weights_in_box(d2, 1)
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for lam in got:
        assert is_dominant(d2, lam)


def test_decompose_round_trip():
    rng = random.Random(246810)
    for label, rank in [("A", 1), ("A", 2), ("C", 2)]:
        d = standard_datum(label, rank)
        weights = dominant_weights_in_box(d, 2)
        for _ in range(10):
            coeffs = {lam: Fraction(rng.randint(-4, 4)) for lam in weights
                      if rng.random() < 0.5}
            f = LaurentPoly.zero(rank)
            for lam, c in coeffs.items():
                if c:
                    f = f + orbit_sum(d, lam) * c
            dec = decompose_into_orbit_sums(d, f)
            assert dec == {lam: c for lam, c in coeffs.items() if c}


def test_decompose_adjoint_character():
    d = standard_datum("A", 2)
    chi = weyl_character(d, (1, 1))
    dec = decompose_into_orbit_sums(d, chi)
    assert dec == {(1, 1): Fraction(1), (0, 0): Fraction(2)}


def test_decompose_rejects_non_invariant():
    d = standard_datum("A", 1)
    with pytest.raises(ValueError):
        decompose_into_orbit_sums(d, LaurentPoly.monomial([1]))


def invariants_basis_probe(d, height_bound: int) -> list[tuple[int, ...]]:
    """Dominant weights indexing the orbit-sum basis below a height bound.

    Before returning, the list is sanity-checked: a pseudorandom
    polynomial supported in the box is symmetrized and must decompose
    exactly into orbit sums from the returned list.
    """
    weights = dominant_weights_in_box(d, height_bound)
    rng = random.Random(99173)
    box = list(_box(d.rank, height_bound))
    support_size = min(len(box), 6)
    chosen = rng.sample(box, support_size)
    f = LaurentPoly(d.rank, {e: Fraction(rng.randint(1, 9)) for e in chosen})
    w = weyl_group(d)
    g = LaurentPoly.zero(d.rank)
    for m in w.elements:
        g = g + weyl_act(m, f)
    dec = decompose_into_orbit_sums(d, g)
    allowed = set(weights)
    for lam in dec:
        if lam not in allowed:
            raise AssertionError(
                f"symmetrized box polynomial needed orbit sum {lam} outside the box")
    return weights


def test_invariants_basis_probe():
    d = standard_datum("A", 1)
    assert invariants_basis_probe(d, 2) == [(0,), (1,), (2,)]
    d2 = standard_datum("A", 2)
    assert invariants_basis_probe(d2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_fundamental_character_probe_sl2():
    d = standard_datum("A", 1)
    report = fundamental_character_probe(d, 3)
    assert report.all_passed
    assert report.independent and report.spanning
    assert report.weights == ((0,), (1,), (2,), (3,))


def test_fundamental_character_probe_transition_is_unitriangular():
    for label, rank, bound in [("A", 2, 2), ("C", 2, 2)]:
        d = standard_datum(label, rank, "simply_connected")
        report = fundamental_character_probe(d, bound)
        assert report.all_passed
        cols = {lam: j for j, lam in enumerate(report.column_weights)}
        for i, k in enumerate(report.weights):
            row = report.transition[i]
            assert row[cols[k]] == 1
            for lam, j in cols.items():
                if row[j] != 0:
                    assert dominance_leq(d, lam, k)
                    if lam != k:
                        assert dominance_leq(d, lam, k) and not dominance_leq(d, k, lam)


@pytest.mark.parametrize("label,rank,bound", [("G", 2, 2), ("G", 2, 3), ("B", 3, 2),
                                              ("B", 3, 3), ("D", 4, 2), ("D", 4, 3)])
def test_fundamental_character_probe_spans_where_dominance_leaves_the_bound(label, rank, bound):
    # R(G) is polynomial on the fundamental characters (Steinberg), but here
    # an orbit sum below the bound needs character monomials of dominated
    # weights of higher degree.
    report = fundamental_character_probe(standard_datum(label, rank), bound)
    assert report.independent and report.spanning and report.all_passed


def test_fundamental_character_probe_rejects_adjoint():
    with pytest.raises(ValueError):
        fundamental_character_probe(standard_datum("A", 1, "adjoint"), 2)


def test_dominance_order():
    d = standard_datum("A", 1)
    assert dominance_leq(d, (1,), (3,))
    assert not dominance_leq(d, (3,), (1,))
    assert dominance_leq(d, (1,), (2,))
    assert dominance_leq(d, (0,), (2,))
    d2 = standard_datum("A", 2)
    assert dominance_leq(d2, (0, 0), (1, 1))
    assert not dominance_leq(d2, (1, 1), (0, 0))
    assert dominance_leq(d2, (1, 1), (1, 1))
    assert not dominance_leq(d2, (0, 0), (1, -1))
    assert not dominance_leq(d2, (1, -1), (0, 0))


def finiteness_probe(d, module_gens: list[LaurentPoly], height_bound: int) -> bool:
    """Whether every monomial of height <= bound lies in the span of
    invariant multiples of the given module generators.

    The invariant side is truncated to orbit sums of dominant weights of
    height at most bound + max generator height, which suffices for a
    generating set and keeps the computation finite.
    """
    if not module_gens:
        return height_bound < 0
    for g in module_gens:
        if g.rank != d.rank:
            raise ValueError("generator rank mismatch")
    extra = max(g.height() for g in module_gens)
    sums = (orbit_sum(d, lam) for lam in dominant_weights_in_box(d, height_bound + extra))
    span = Span(f * g for f in sums for g in module_gens)
    return all(LaurentPoly.monomial(e) in span for e in _box(d.rank, height_bound))


def test_finiteness_probe_torus_over_invariants():
    d = standard_datum("A", 1)
    gens = [LaurentPoly.one(1), LaurentPoly.monomial([1])]
    assert finiteness_probe(d, gens, 3)
    assert not finiteness_probe(d, [LaurentPoly.one(1)], 2)


def test_finiteness_probe_rank_two():
    torus = torus_datum(2)
    assert finiteness_probe(torus, [LaurentPoly.one(2)], 2)
    d = standard_datum("A", 2)
    gens = [LaurentPoly.one(2), LaurentPoly.monomial([1, 0]),
            LaurentPoly.monomial([0, 1]), LaurentPoly.monomial([1, 1])]
    assert not finiteness_probe(d, gens, 1)


def test_freudenthal_matches_the_alternating_sum_oracle():
    data = [standard_datum(label, rank, variant)
            for label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                                ("C", 4), ("D", 3), ("D", 4), ("G", 2)]
            for variant in ("simply_connected", "adjoint")]
    data += [gl_datum(n) for n in (2, 3, 4)]
    data += [product(standard_datum("B", 2), standard_datum("G", 2)),
             product(standard_datum("A", 1), standard_datum("A", 1, "adjoint")),
             product(gl_datum(2), standard_datum("C", 2, "adjoint")),
             product(torus_datum(1), standard_datum("A", 2)),
             torus_datum(2)]
    # The oracle's exact division takes about 2 s on (1,1,1,1) of B4 and C4
    # (|W| = 384) and their whole height-1 boxes 25 s, so those two keep
    # only 0 and the fundamental weights.
    large = {"B4-simply_connected", "C4-simply_connected"}
    for d in data:
        height = 2 if d.num_simple <= 2 else 1
        for lam in boxes(range(-height, height + 1), repeat=d.rank):
            if is_dominant(d, lam) and (d.name not in large or sum(lam) <= 1):
                got = weyl_character(d, lam)
                assert got.terms == alternating_sum_character(d, lam).terms, (d.name, lam)
