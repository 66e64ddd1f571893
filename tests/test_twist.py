"""Twisting by an evaluation point and isotypic splitting.

The integer kernel of repring.twist is checked against the term-by-term
twist of tests/twist_oracle.py, and against corrupted values of single
exponents, which it must reject.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from twist_oracle import augmentation_holds, product_holds, twist_by_terms

from repring import twist
from repring.cli import run
from repring.cyclotomic import Cyclo
from repring.invariants import dominant_weights_in_box, orbit_sum
from repring.lattice import Sublattice, coset_representative
from repring.laurent import LaurentPoly, augmentation
from repring.spectrum import (EvalPoint, evaluate_poly, parse_point, support)
from repring.rootdata import standard_datum
from repring.twist import (twist_augmentation_check, twist_check, twist_element,
                           twist_multiplicativity_check)


def isotypic_decompose(f: LaurentPoly, k: Sublattice) -> dict[tuple[int, ...], LaurentPoly]:
    """The terms of f grouped by their coset modulo k, one piece per coset.

    Keys are canonical coset representatives, in sorted order, so two
    decompositions against the same sublattice are directly comparable.
    """
    if f.rank != k.ambient_rank:
        raise ValueError("polynomial rank does not match sublattice rank")
    pieces: dict[tuple[int, ...], dict] = {}
    for e, c in f.terms.items():
        key = coset_representative(k, e)
        pieces.setdefault(key, {})[e] = c
    return {key: LaurentPoly(f.rank, terms) for key, terms in sorted(pieces.items())}


def inverse_point(p: EvalPoint) -> EvalPoint:
    """The pointwise inverse: negated torsion and negated exponents."""
    torsion = [(-t) % 1 for t in p.torsion]
    maps = [{prime: -e for prime, e in coord} for coord in p.rational]
    return EvalPoint.from_parts(torsion, maps)


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


def random_rational_laurent(rng, rank, height=3, nterms=6):
    terms = {tuple(rng.randint(-height, height) for _ in range(rank)):
             Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7]))
             for _ in range(rng.randint(1, nterms))}
    return LaurentPoly(rank, terms)


def point_of_order(rng, rank, m):
    """A point whose torsion order is m, with random prime powers."""
    units = [a for a in range(m) if gcd(a, m) == 1]
    torsion = [Fraction(rng.choice(units), m)]
    torsion += [Fraction(rng.randrange(m), m) for _ in range(rank - 1)]
    rng.shuffle(torsion)
    rational = [{q: rng.choice([-2, -1, 1, 3]) for q in (2, 3, 5, 7) if rng.random() < 0.4}
                for _ in range(rank)]
    return EvalPoint.from_parts(torsion, rational)


def test_the_integer_kernel_matches_the_term_by_term_twist():
    rng = random.Random(2005)
    points = [point_of_order(rng, rank, m) for m in range(2, 9) for rank in (1, 2, 3)]
    points += [parse_point(text, rank) for text, rank in [
        ("zeta(510)^1", 1), ("zeta(770)^3*2^-1", 1), ("zeta(510)^7*3/5,2", 2),
        ("zeta(770)^1,zeta(770)^9*5", 2), ("zeta(770)^13,1/3,zeta(10)^3*7", 3)]]
    assert {p.torsion_order for p in points} == set(range(2, 9)) | {510, 770}
    for p in points:
        polys = [random_rational_laurent(rng, p.rank) for _ in range(3)]
        for f in polys:
            got, expected = twist_element(f, p), twist_by_terms(f, p)
            assert got.terms == expected.terms
            assert ([type(c) for c in got.terms.values()]
                    == [type(c) for c in expected.terms.values()])
            assert twist_augmentation_check(f, p) == augmentation_holds(f, p) is True
        for f in polys:
            for g in polys:
                assert twist_multiplicativity_check(f, g, p) == product_holds(f, g, p) is True
        assert twist_check(polys, p)


def corrupt(monkeypatch, exponent, change):
    """Make the kernel read a changed value (k, num, den) on one exponent;
    the returned list records each call that the change hit."""
    original, hits = twist._character, []

    def corrupted(rows, n):
        value = original(rows, n)
        if tuple(n) != exponent:
            return value
        hits.append(tuple(n))
        return change(rows[0], *value)
    monkeypatch.setattr(twist, "_character", corrupted)
    return hits


def test_a_corrupted_exponent_value_fails_both_checks(monkeypatch, capsys):
    d = standard_datum("A", 2)
    p = parse_point("zeta(3)^1*2,3", 2)
    omega1, omega2 = orbit_sum(d, (1, 0)), orbit_sum(d, (0, 1))
    assert (1, 0) in omega1.terms and (-1, 0) in omega2.terms
    hits = corrupt(monkeypatch, (1, 0), lambda m, k, num, den: (k, 2 * num, den))
    assert not twist_augmentation_check(omega1, p)
    # (1, 0) + (-1, 0) = 0: only the factor's value is corrupted.
    assert not twist_multiplicativity_check(omega1, omega2, p)
    assert not twist_check([orbit_sum(d, w) for w in dominant_weights_in_box(d, 1)], p)
    assert hits
    assert run(["twist-check", "--type", "A", "--rank", "2", "--point", "zeta(3)^1*2,3",
                "--height", "1"]) == 0
    assert capsys.readouterr().out.endswith('"result":{"all_passed":false}}\n')
    # A changed power of zeta is caught alike.
    corrupt(monkeypatch, (1, 0), lambda m, k, num, den: ((k + 1) % m, num, den))
    assert not twist_check([omega1, omega2], p)


def test_slots_that_differ_but_agree_in_value_pass(monkeypatch):
    # zeta_6^k = -zeta_6^(k+3): the kernel puts this exponent's value in
    # another slot with the opposite sign, so its slots differ from the
    # evaluation's and from the product's, and only the reduction modulo
    # the cyclotomic polynomial can show that the values agree.
    d = standard_datum("A", 2)
    p = parse_point("zeta(6)^1*2,zeta(3)^1", 2)
    polys = [orbit_sum(d, w) for w in dominant_weights_in_box(d, 1)]
    hits = corrupt(monkeypatch, (1, 0), lambda m, k, num, den: ((k + m // 2) % m, -num, den))
    assert twist_check(polys, p)
    assert hits
    assert twist_augmentation_check(polys[2], p) and (1, 0) in polys[2].terms
    assert twist_element(polys[2], p) == twist_by_terms(polys[2], p)


def test_twist_check_at_a_high_order_root_of_unity_builds_no_cyclo(monkeypatch, capsys):
    # At the parent this check made 1,514 Cyclo products (and 3,794 Cyclo
    # constructions); the kernel sums in integer slots and reduces nothing
    # when the slots agree.
    calls = {"mul": 0, "init": 0}
    mul, init = Cyclo.__mul__, Cyclo.__init__

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
    monkeypatch.setattr(Cyclo, "__rmul__", counted_mul)
    monkeypatch.setattr(Cyclo, "__init__", counted_init)
    assert run(["twist-check", "--type", "A", "--rank", "2", "--point", "zeta(770)^1,2",
                "--height", "2"]) == 0
    assert capsys.readouterr().out.endswith('"result":{"all_passed":true}}\n')
    assert calls == {"mul": 0, "init": 0}


def test_cyclotomic_coefficients_twist_in_slots_of_the_lcm_order():
    # Coefficients of orders 5, 12 and 21 at points of torsion order 1-8,
    # and of orders 5 and 10 at 510 and 770 (where others pass the degree
    # cap): the kernel works modulo x^M - 1, M the lcm of all orders.
    rng = random.Random(2006)
    points = [(point_of_order(rng, 2, m), [5, 12, 21]) for m in range(1, 9)]
    points += [(parse_point(text, 2), [5, 10]) for text in ("zeta(510)^1,3", "zeta(770)^3*2,1/5")]
    for p, orders in points:
        polys = [LaurentPoly(2, {e: Cyclo.zeta(rng.choice(orders), rng.randint(1, 4)) * c
                                 if rng.random() < 0.5 else c for e, c in f.terms.items()})
                 for f in (random_rational_laurent(rng, 2) for _ in range(3))]
        for f in polys:
            assert twist_element(f, p) == twist_by_terms(f, p)
            assert twist_augmentation_check(f, p) == augmentation_holds(f, p) is True
        for f in polys:
            for g in polys:
                assert twist_multiplicativity_check(f, g, p) == product_holds(f, g, p) is True
        assert twist_check(polys, p)
