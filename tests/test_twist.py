"""Twisting by an evaluation point and isotypic splitting."""

import random
from fractions import Fraction

import pytest

from repring.invariants import dominant_weights_in_box, orbit_sum
from repring.lattice import Sublattice, coset_representative
from repring.laurent import LaurentPoly, augmentation
from repring.spectrum import (EvalPoint, evaluate_poly, parse_point, support)
from repring.twist import (inverse_point, isotypic_decompose, twist_element,
                           twist_augmentation_check,
                           twist_multiplicativity_check)


def random_point(rng, rank, allow_torsion=True):
    torsion = []
    rational = []
    for _ in range(rank):
        if allow_torsion and rng.random() < 0.5:
            m = rng.choice([2, 3, 4, 5, 6, 8])
            a = rng.choice([k for k in range(1, m) if Fraction(k, m).denominator == m])
            torsion.append(Fraction(a, m))
        else:
            torsion.append(Fraction(0))
        coord = {}
        for p in (2, 3, 5):
            if rng.random() < 0.4:
                coord[p] = rng.choice([-2, -1, 1, 2])
        rational.append(coord)
    return EvalPoint.from_parts(torsion, rational)


def random_laurent(rng, rank, height=3, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(-height, height) for _ in range(rank))
        terms[e] = Fraction(rng.randint(-5, 5))
    return LaurentPoly(rank, {e: c for e, c in terms.items() if c})


def test_isotypic_total_recovers_input():
    rng = random.Random(8686)
    for _ in range(20):
        rank = rng.randint(1, 3)
        f = random_laurent(rng, rank)
        gens = [[rng.randint(-2, 2) for _ in range(rank)]
                for _ in range(rng.randint(0, rank))]
        k = Sublattice(rank, gens)
        dec = isotypic_decompose(f, k)
        assert sum(dec.values(), LaurentPoly.zero(rank)) == f


def test_isotypic_pieces_live_on_single_cosets():
    rng = random.Random(8787)
    for _ in range(20):
        rank = rng.randint(1, 3)
        f = random_laurent(rng, rank)
        k = Sublattice(rank, [[rng.randint(-2, 2) for _ in range(rank)]])
        dec = isotypic_decompose(f, k)
        for key, piece in dec.items():
            for e in piece.terms:
                assert coset_representative(k, e) == key


def test_isotypic_full_lattice_gives_one_piece():
    f = LaurentPoly(1, {(3,): 1, (-2,): 2, (0,): 1})
    ident = Sublattice(1, [[1]])
    dec = isotypic_decompose(f, ident)
    assert list(dec) == [(0,)]
    assert dec[(0,)] == f


def test_twist_frozen_example():
    c = LaurentPoly(1, {(1,): 1, (-1,): 1})
    p = parse_point("2", 1)
    tw = twist_element(c, p)
    assert tw == LaurentPoly(1, {(1,): Fraction(2), (-1,): Fraction(1, 2)})
    assert augmentation(tw) == Fraction(5, 2)
    assert evaluate_poly(p, c) == Fraction(5, 2)


def test_twist_augmentation_orbit_sums():
    rng = random.Random(600)
    from repring.rootdata import standard_datum
    for label, rank in [("A", 1), ("A", 2), ("C", 2)]:
        d = standard_datum(label, rank)
        weights = dominant_weights_in_box(d, 3)
        points = [random_point(rng, rank) for _ in range(10)]
        for lam in weights:
            f = orbit_sum(d, lam)
            for p in points:
                assert twist_augmentation_check(f, p)


def test_twist_multiplicativity_random():
    rng = random.Random(601)
    for _ in range(60):
        rank = rng.randint(1, 3)
        f = random_laurent(rng, rank)
        g = random_laurent(rng, rank)
        p = random_point(rng, rank)
        assert twist_multiplicativity_check(f, g, p)


def test_twist_rank_mismatch():
    with pytest.raises(ValueError):
        twist_element(LaurentPoly.one(2), parse_point("2", 1))


def test_inverse_point_round_trip():
    rng = random.Random(602)
    for _ in range(30):
        rank = rng.randint(1, 3)
        p = random_point(rng, rank)
        q = inverse_point(p)
        f = random_laurent(rng, rank)
        back = twist_element(twist_element(f, p), q)
        assert back == f
        assert inverse_point(q) == p


def test_inverse_point_frozen():
    p = parse_point("zeta(3)^1*2", 1)
    assert inverse_point(p) == parse_point("zeta(3)^2*1/2", 1)
    assert inverse_point(EvalPoint.all_ones(2)) == EvalPoint.all_ones(2)


def test_twist_respects_support_split():
    p = parse_point("zeta(4)^1,1", 2)
    desc = support(p)
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (4, 0): 1, (2, 1): 3})
    dec = isotypic_decompose(f, desc.kernel_lattice)
    tw_whole = twist_element(f, p)
    acc = LaurentPoly.zero(2)
    for piece in dec.values():
        acc = acc + twist_element(piece, p)
    assert acc == tw_whole
    for key, piece in dec.items():
        tws = twist_element(piece, p)
        scale = None
        for e, c in piece.terms.items():
            ratio = tws.terms[e] / c if c else None
            if scale is None:
                scale = ratio
            else:
                assert ratio == scale
