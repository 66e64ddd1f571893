"""Evaluation points, supports, fibers, and stabilizers.

Support computations are checked against by-hand kernels, fibers
against the orbit-stabilizer count, and Galois identification of
ideals against explicit unit multipliers.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from repring.cyclotomic import Cyclo, demote
from repring.lattice import (FinAbGroup, Sublattice, is_member, mat_inverse_unimodular,
                             mat_mul, mat_vec)
from repring.laurent import LaurentPoly
from repring.rootdata import product, standard_datum, torus_datum, weyl_group
from repring.spectrum import (EvalPoint, MaxIdealDesc, evaluate_char,
                              evaluate_poly, fiber_over_RG, ideal_equal,
                              parse_coordinate, parse_point, render_point,
                              stabilizer_check, support, unique_lift_check,
                              weyl_translate)


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
                e = rng.choice([-2, -1, 1, 2])
                coord[p] = e
        rational.append(coord)
    return EvalPoint.from_parts(torsion, rational)


def test_parse_basic_forms():
    t, r = parse_coordinate("zeta(4)^1*2")
    assert t == Fraction(1, 4) and r == {2: 1}
    t, r = parse_coordinate("3/5")
    assert t == 0 and r == {3: 1, 5: -1}
    t, r = parse_coordinate("1")
    assert t == 0 and r == {}
    t, r = parse_coordinate("zeta(3)^2")
    assert t == Fraction(2, 3) and r == {}
    t, r = parse_coordinate("2^-3*9")
    assert t == 0 and r == {2: -3, 3: 2}
    t, r = parse_coordinate("zeta(1)")
    assert t == 0 and r == {}


def test_parse_rejections():
    for bad in ["zeta(4)^2", "2/4", "0", "-2", "0/3", "3/0",
                "zeta(3)^1*zeta(4)^1", "4^2", "zeta(3)^3", "zeta(3)^-1",
                "", "x", "2**3"]:
        with pytest.raises(ValueError):
            parse_coordinate(bad)
    with pytest.raises(ValueError):
        parse_point("2,3", 3)
    with pytest.raises(ValueError):
        parse_point("2,3,5", 2)


def test_render_parse_round_trip():
    rng = random.Random(424242)
    for _ in range(60):
        rank = rng.randint(1, 3)
        p = random_point(rng, rank)
        text = render_point(p)
        assert parse_point(text, rank) == p


def test_render_frozen():
    p = parse_point("zeta(4)^1*2,1,3/10", 3)
    assert render_point(p) == "zeta(4)^1*2,1,3/10"
    assert render_point(EvalPoint.all_ones(2)) == "1,1"


def test_point_validation():
    with pytest.raises(ValueError):
        EvalPoint((Fraction(1, 2),), ())
    with pytest.raises(ValueError):
        EvalPoint((Fraction(3, 2),), ((),))
    with pytest.raises(ValueError):
        EvalPoint((Fraction(0),), (((4, 1),),))
    with pytest.raises(ValueError):
        EvalPoint((Fraction(0),), (((2, 0),),))
    with pytest.raises(ValueError):
        EvalPoint((Fraction(0),), (((3, 1), (2, 1)),))


def test_evaluate_char_rational():
    p = parse_point("2", 1)
    assert evaluate_char(p, (3,)) == Fraction(8)
    assert evaluate_char(p, (-1,)) == Fraction(1, 2)
    assert evaluate_char(p, (0,)) == 1
    q = parse_point("2/3,5", 2)
    assert evaluate_char(q, (2, 1)) == Fraction(20, 9)


def test_evaluate_char_torsion():
    p = parse_point("zeta(3)^1", 1)
    v = evaluate_char(p, (1,))
    assert isinstance(v, Cyclo) and v == Cyclo.zeta(3, 1)
    assert evaluate_char(p, (3,)) == 1
    assert evaluate_char(p, (-1,)) == Cyclo.zeta(3, 2)


def test_evaluate_poly_frozen():
    c = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert evaluate_poly(parse_point("2", 1), c) == Fraction(5, 2)
    assert evaluate_poly(parse_point("zeta(3)^1", 1), c) == Fraction(-1)
    assert evaluate_poly(parse_point("zeta(4)^1", 1), c) == Fraction(0)


def test_support_all_ones():
    for rank in (1, 2, 3):
        desc = support(EvalPoint.all_ones(rank))
        ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        assert desc.kernel_lattice == Sublattice(rank, ident)
        assert desc.quotient == FinAbGroup(0, ())
        assert desc.connected


def test_support_quarter_turn():
    desc = support(parse_point("zeta(4)^1,1", 2))
    assert desc.kernel_lattice == Sublattice(2, [[4, 0], [0, 1]])
    assert desc.quotient == FinAbGroup(0, (4,))
    assert not desc.connected


def test_support_infinite_order():
    desc = support(parse_point("2", 1))
    assert desc.kernel_lattice == Sublattice(1, [])
    assert desc.quotient == FinAbGroup(1, ())
    assert desc.connected


def test_support_mixed_coordinate():
    desc = support(parse_point("zeta(3)^1*2", 1))
    assert desc.kernel_lattice == Sublattice(1, [])
    assert desc.connected
    desc2 = support(parse_point("zeta(3)^1,2", 2))
    assert desc2.kernel_lattice == Sublattice(2, [[3, 0]])
    assert not desc2.connected


def test_support_membership_is_exact():
    rng = random.Random(1212)
    for _ in range(25):
        rank = rng.randint(1, 3)
        p = random_point(rng, rank)
        desc = support(p)
        for _ in range(12):
            n = [rng.randint(-3, 3) for _ in range(rank)]
            inside = is_member(desc.kernel_lattice, n)
            assert inside == (evaluate_char(p, n) == 1)


def test_ideal_equal_galois_pairs():
    assert ideal_equal(parse_point("zeta(3)^1", 1), parse_point("zeta(3)^2", 1))
    assert ideal_equal(parse_point("zeta(5)^1", 1), parse_point("zeta(5)^2", 1))
    assert ideal_equal(parse_point("zeta(4)^1*2", 1), parse_point("zeta(4)^3*2", 1))
    assert not ideal_equal(parse_point("2", 1), parse_point("3", 1))
    assert not ideal_equal(parse_point("zeta(3)^1", 1), parse_point("zeta(3)^1*2", 1))
    assert not ideal_equal(parse_point("zeta(4)^1", 1), parse_point("zeta(2)^1", 1))
    assert ideal_equal(parse_point("zeta(5)^1,zeta(5)^2", 2),
                       parse_point("zeta(5)^2,zeta(5)^4", 2))
    assert not ideal_equal(parse_point("zeta(5)^1,zeta(5)^2", 2),
                           parse_point("zeta(5)^1,zeta(5)^3", 2))


def test_ideal_equal_respects_hash():
    a = MaxIdealDesc(parse_point("zeta(3)^1", 1))
    b = MaxIdealDesc(parse_point("zeta(3)^2", 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_weyl_translate_identity_and_reflection():
    p = parse_point("2", 1)
    assert weyl_translate([[1]], p) == p
    assert weyl_translate([[-1]], p) == parse_point("1/2", 1)
    q = parse_point("zeta(3)^1", 1)
    assert weyl_translate([[-1]], q) == parse_point("zeta(3)^2", 1)


def test_weyl_translate_is_an_action():
    rng = random.Random(9090)
    for label, rank in [("A", 2), ("C", 2)]:
        d = standard_datum(label, rank)
        w = weyl_group(d)
        mats = list(w.elements)
        for _ in range(15):
            w1 = rng.choice(mats)
            w2 = rng.choice(mats)
            p = random_point(rng, rank)
            lhs = weyl_translate(mat_mul([list(r) for r in w1],
                                         [list(r) for r in w2]), p)
            rhs = weyl_translate(w1, weyl_translate(w2, p))
            assert lhs == rhs


def test_weyl_translate_preserves_invariant_values():
    rng = random.Random(31415)
    d = standard_datum("A", 2)
    w = weyl_group(d)
    from repring.invariants import orbit_sum
    f = orbit_sum(d, (1, 1)).poly
    for _ in range(10):
        p = random_point(rng, 2)
        base = evaluate_poly(p, f)
        for m in w.elements:
            assert evaluate_poly(weyl_translate(m, p), f) == base


def test_fiber_sl2_generic():
    d = standard_datum("A", 1)
    fiber = fiber_over_RG(d, parse_point("2", 1))
    assert len(fiber) == 2
    rendered = sorted(render_point(m.point) for m in fiber)
    assert rendered == ["1/2", "2"]


def test_fiber_sl2_central():
    d = standard_datum("A", 1)
    fiber = fiber_over_RG(d, EvalPoint.all_ones(1))
    assert len(fiber) == 1


def test_fiber_galois_collapse():
    d = standard_datum("A", 1)
    fiber = fiber_over_RG(d, parse_point("zeta(3)^1", 1))
    assert len(fiber) == 1


def test_orbit_stabilizer_count_connected_points():
    rng = random.Random(5110)
    cases = [("A", 1), ("A", 2), ("C", 2)]
    found = 0
    for label, rank in cases:
        d = standard_datum(label, rank)
        order = weyl_group(d).order
        tried = 0
        while tried < 200 and found < 30:
            tried += 1
            p = random_point(rng, rank)
            if not support(p).connected:
                continue
            found += 1
            rep = stabilizer_check(d, p)
            assert rep.agree
            fiber = fiber_over_RG(d, p)
            assert len(fiber) * rep.geometric.order == order
    assert found >= 20


def test_stabilizer_requires_connected_support():
    d = standard_datum("A", 1)
    with pytest.raises(ValueError):
        stabilizer_check(d, parse_point("zeta(2)^1", 1))


def test_stabilizer_frozen_example():
    d = standard_datum("A", 2)
    rep = stabilizer_check(d, parse_point("2,4", 2))
    assert rep.agree
    assert rep.geometric.order == 2
    assert rep.ideal.order == 2
    assert rep.subsystem.order == 2


def test_unique_lift_on_central_point():
    d = product(standard_datum("A", 1), torus_datum(1))
    p = parse_point("1,zeta(3)^1*2", 2)
    desc = support(p)
    assert desc.connected
    assert is_member(desc.kernel_lattice, (2, 0))
    assert unique_lift_check(d, p)


def test_unique_lift_rejects_disconnected():
    d = standard_datum("A", 1)
    with pytest.raises(ValueError):
        unique_lift_check(d, parse_point("zeta(2)^1", 1))


def test_unique_lift_rejects_noncentral():
    d = standard_datum("A", 1)
    with pytest.raises(ValueError):
        unique_lift_check(d, parse_point("2", 1))


def value_from_coordinates(p, n):
    """Independent oracle for p(e^n): the product over coordinates of
    zeta_(denominator)^(numerator) times the coordinate's prime powers,
    each raised to n_i, demoted when rational."""
    value = Fraction(1)
    for t, coord, ni in zip(p.torsion, p.rational, n):
        x = Cyclo.zeta(t.denominator, t.numerator)
        for prime, e in coord:
            x = x * Fraction(prime) ** e
        for _ in range(abs(ni)):
            value = value * x if ni > 0 else value / x
    return demote(value)


def test_evaluate_poly_is_the_sum_of_character_values():
    rng = random.Random(4242)
    for m in list(range(1, 13)) + [30]:
        for _ in range(4):
            units = [a for a in range(m) if gcd(a, m) == 1]
            torsion = [Fraction(rng.choice(units), m)]
            torsion += [Fraction(rng.randrange(m), m) for _ in range(2)]
            rational = [{q: rng.choice([-2, -1, 1, 2]) for q in (2, 3, 5)
                         if rng.random() < 0.4} for _ in range(3)]
            p = EvalPoint.from_parts(torsion, rational)
            assert p.torsion_order == m
            terms = {tuple(rng.randint(-3, 3) for _ in range(3)):
                     Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)}
            cyclo_terms = dict(terms)
            cyclo_terms[(1, 0, -1)] = Cyclo.zeta(5, 2) * Fraction(3, 2)
            cyclo_terms[(0, 2, 1)] = Cyclo.zeta(m, 1) - Fraction(1, 3)
            for f, rational_coeffs in ((LaurentPoly(3, terms), True),
                                       (LaurentPoly(3, cyclo_terms), False)):
                total = Fraction(0)
                for e, c in f.terms.items():
                    assert evaluate_char(p, e) == value_from_coordinates(p, e)
                    total = total + c * value_from_coordinates(p, e)
                expected = demote(total)
                got = evaluate_poly(p, f)
                assert got == expected
                assert isinstance(got, Fraction) == isinstance(expected, Fraction)
                if rational_coeffs and isinstance(got, Cyclo):
                    assert got.order == m


def test_evaluate_poly_over_several_primes_with_negative_exponents():
    # Non-integral coefficients and exponents of both signs at four primes,
    # with and without Cyclo coefficients: the common denominator must take
    # in every prime's lowest exponent and every coefficient denominator.
    rng = random.Random(1618)
    for m in (1, 4, 6, 15):
        for _ in range(6):
            torsion = [Fraction(rng.randrange(m), m) for _ in range(3)]
            rational = [{q: rng.choice([-3, -2, -1, 1, 2]) for q in (2, 3, 5, 7)
                         if rng.random() < 0.6} for _ in range(3)]
            p = EvalPoint.from_parts(torsion, rational)
            terms = {tuple(rng.randint(-3, 3) for _ in range(3)):
                     Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4, 6, 7, 12]))
                     for _ in range(6)}
            mixed = dict(terms)
            mixed[(2, -1, 0)] = Cyclo.zeta(7, 3) * Fraction(2, 9) + Fraction(1, 5)
            mixed[(-2, -2, -2)] = Cyclo.zeta(3) * Fraction(-5, 4)
            for f in (LaurentPoly(3, terms), LaurentPoly(3, mixed)):
                total = Fraction(0)
                for e, c in f.terms.items():
                    total = total + c * value_from_coordinates(p, e)
                got = evaluate_poly(p, f)
                assert got == demote(total) and type(got) is type(demote(total))
    # Only positive exponents: no prime enters the denominator.
    p = parse_point("2,15,7", 3)
    f = LaurentPoly(3, {(1, 1, 1): Fraction(1, 3), (2, 1, 0): Fraction(5, 2)})
    assert evaluate_poly(p, f) == Fraction(210, 3) + Fraction(5 * 4 * 15, 2)


def test_a_translate_passes_the_full_point_checks():
    # weyl_translate takes the source point's primes as proven prime; every
    # translate must still be a point that the full checks accept.
    rng = random.Random(2718)
    w = weyl_group(standard_datum("C", 3))
    for _ in range(8):
        p = random_point(rng, 3)
        for m, inv_t in zip(w.elements, w.inverse_transposes):
            q = weyl_translate(m, p, inv_t)
            assert q == EvalPoint(q.torsion, q.rational)


def test_proven_primes_skip_only_trial_division():
    proven = frozenset({2, 3, 4})
    assert EvalPoint((Fraction(0),), (((4, 1),),), proven).rational == (((4, 1),),)
    for torsion, rational, message in [
            ((Fraction(1, 2),), (), "equal length"),
            ((Fraction(3, 2),), ((),), r"\[0, 1\)"),
            ((Fraction(0),), (((2, 0),),), "zero exponents"),
            ((Fraction(0),), (((3, 1), (2, 1)),), "sorted and distinct"),
            ((Fraction(0),), (((9, 1),),), "9 is not prime")]:
        with pytest.raises(ValueError, match=message):
            EvalPoint(torsion, rational, proven)


def test_weyl_translate_evaluates_as_the_point_at_the_inverse():
    rng = random.Random(6174)
    w = weyl_group(standard_datum("C", 3))
    for _ in range(4):
        p = random_point(rng, 3)
        for m in w.elements:
            inv = mat_inverse_unimodular(m)
            q = weyl_translate(m, p)
            for _ in range(2):
                n = [rng.randint(-2, 2) for _ in range(3)]
                assert evaluate_char(q, n) == value_from_coordinates(p, mat_vec(inv, n))


def ideal_equal_by_unit_search(p, q):
    """Independent oracle for Galois equality: equal ranks and rational
    parts, and some unit k modulo the torsion order of p that rescales
    the torsion vector of p onto that of q."""
    if p.rank != q.rank or p.rational != q.rational:
        return False
    m = p.torsion_order
    return any(all((k * t) % 1 == s for t, s in zip(p.torsion, q.torsion))
               for k in range(1, m + 1) if gcd(k, m) == 1)


def test_galois_key_is_equal_exactly_for_equal_ideals():
    from repring.spectrum import _galois_key
    rng = random.Random(2718)
    for _ in range(200):
        rank = rng.randint(1, 3)
        p = random_point(rng, rank)
        m = p.torsion_order
        k = rng.choice([k for k in range(1, m + 1) if gcd(k, m) == 1])
        conjugate = EvalPoint(tuple((k * t) % 1 for t in p.torsion), p.rational)
        others = [conjugate, random_point(rng, rank),
                  EvalPoint(tuple((rng.randrange(1, 4) * t) % 1 for t in p.torsion), p.rational),
                  EvalPoint(conjugate.torsion, random_point(rng, rank, False).rational),
                  random_point(rng, rank + 1)]
        assert ideal_equal_by_unit_search(p, conjugate)
        for q in others:
            expected = ideal_equal_by_unit_search(p, q)
            assert (_galois_key(p) == _galois_key(q)) == expected
            assert ideal_equal(p, q) == expected
