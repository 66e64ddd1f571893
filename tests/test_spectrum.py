"""Evaluation points, supports, fibers, and stabilizers.

Support computations are checked against by-hand kernels, fibers
against the orbit-stabilizer count and against a per-element walk of W
over full points (tests/orbit_oracle.py), and Galois identification of
ideals against explicit unit multipliers.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from orbit_oracle import (_check_probe_terms, _invariant_probe, evaluate_by_terms, fiber_points,
                          least_unit_multiple, probe_signature, stabilizers, subsystem_elements,
                          translate_rows, weyl_group, weyl_translate)
from reflection_oracle import mat_inverse_unimodular, mat_vec

from repring import rootdata, spectrum
from repring.cyclotomic import Cyclo, demote
from repring.lattice import FinAbGroup, Sublattice, is_member, mat_mul
from repring.laurent import LaurentPoly
from repring.rootdata import (LeviDatum, all_roots, product, standard_datum, torus_datum,
                              weyl_order)
from repring.spectrum import (EvalPoint, _galois_key, evaluate_char, evaluate_poly,
                              fiber_over_RG, parse_coordinate, parse_point, render_rows,
                              stabilizer_check, support)

ORBIT_MISMATCH = "the fiber's translates are not the orbit of the point's rows"


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
        text = render_rows(p)
        assert parse_point(text, rank) == p


def test_render_frozen():
    p = parse_point("zeta(4)^1*2,1,3/10", 3)
    assert render_rows(p) == "zeta(4)^1*2,1,3/10"
    assert render_rows(EvalPoint.all_ones(2)) == "1,1"


def test_point_validation():
    with pytest.raises(ValueError):
        EvalPoint(2, (1,), ((2, (1, 1)),))
    with pytest.raises(ValueError):
        EvalPoint(2, (3,), ())
    with pytest.raises(ValueError):
        EvalPoint(1, (0,), ((4, (1,)),))
    with pytest.raises(ValueError):
        EvalPoint(1, (0,), ((2, (0,)),))
    with pytest.raises(ValueError):
        EvalPoint(1, (0,), ((3, (1,)), (2, (1,))))


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


def ideal_equal(p: EvalPoint, q: EvalPoint) -> bool:
    """Whether two points define the same maximal ideal of evaluation:
    equal ranks and equal Galois keys, that is, equal rational parts and
    torsion vectors related by a unit multiplier (the Galois action on
    roots of unity)."""
    return p.rank == q.rank and _galois_key(p) == _galois_key(q)


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
    f = orbit_sum(d, (1, 1))
    for _ in range(10):
        p = random_point(rng, 2)
        base = evaluate_poly(p, f)
        for m in w.elements:
            assert evaluate_poly(weyl_translate(m, p), f) == base


def test_fiber_sl2_generic():
    d = standard_datum("A", 1)
    fiber = fiber_over_RG(d, parse_point("2", 1))
    assert len(fiber) == 2
    rendered = sorted(map(render_rows, fiber))
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
            assert len(fiber) * rep.geometric_order == order
    assert found >= 20


def test_stabilizer_requires_connected_support():
    d = standard_datum("A", 1)
    with pytest.raises(ValueError):
        stabilizer_check(d, parse_point("zeta(2)^1", 1))


def test_stabilizer_frozen_example():
    d = standard_datum("A", 2)
    rep = stabilizer_check(d, parse_point("2,4", 2))
    assert rep.agree
    assert rep.geometric_order == 2
    assert rep.ideal_order == 2
    assert rep.subsystem_order == 2


def unique_lift_check(d, p) -> bool:
    """Whether the point's ideal is the only one over its invariant ideal.

    Preconditions: connected support and every root of d inside the
    kernel lattice (the point is then central).  Computed honestly from
    the fiber, which must come out a singleton.
    """
    desc = support(p)
    if not desc.connected:
        raise ValueError("unique-lift check needs a connected support")
    for a, _ in all_roots(d):
        if not is_member(desc.kernel_lattice, a):
            raise ValueError("unique-lift check needs every root inside the kernel lattice")
    fiber = fiber_over_RG(d, p)
    return len(fiber) == 1


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
    m, zeta_row, prime_rows = p
    value = Fraction(1)
    for i, ni in enumerate(n):
        x = Cyclo.zeta(m, zeta_row[i])
        for prime, row in prime_rows:
            x = x * Fraction(prime) ** row[i]
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
            assert p.m == m
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
    # Every translate is a point that the full checks accept, and equal to
    # the point built again from its parts.
    rng = random.Random(2718)
    w = weyl_group(standard_datum("C", 3))
    for _ in range(8):
        p = random_point(rng, 3)
        for m in w.elements:
            q = weyl_translate(m, p)
            assert q == EvalPoint(*q)


def test_eval_point_validation_messages():
    for m, zeta_row, prime_rows, message in [
            (2, (1,), ((2, (1, 1)),), "length 1"),
            (2, (3,), (), r"\[0, m\)"),
            (0, (), (), "order m >= 1"),
            (4, (2,), (), "4 is not the least order"),
            (1, (0,), ((2, (0,)),), "a nonzero entry"),
            (1, (0,), ((3, (1,)), (2, (1,))), "sorted and distinct"),
            (1, (0,), ((9, (1,)),), "9 is not prime")]:
        with pytest.raises(ValueError, match=message):
            EvalPoint(m, zeta_row, prime_rows)
    with pytest.raises(ValueError, match="equal length"):
        EvalPoint.from_parts([Fraction(1, 2)], [])


def test_parse_point_factors_each_prime_once(monkeypatch):
    # The literal's factoring proves its primes; the point built from them
    # does not run the trial division again, and a point built afterwards
    # from its parts proves its primes in full.
    calls = []
    real = spectrum.prime_factors

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(spectrum, "prime_factors", counting)
    p = parse_point("99999999977,2", 2)
    assert p.prime_rows == ((2, (0, 1)), (99999999977, (1, 0)))
    assert calls.count(99999999977) == 1
    assert EvalPoint.from_parts([0, 0], [{99999999977: 1}, {2: 1}]) == p
    assert calls.count(99999999977) == 2
    with pytest.raises(ValueError, match="99999999979 is not prime"):
        EvalPoint.from_parts([0], [{99999999979: 1}])


def random_literal(rng, rank, torsion, rational) -> str:
    """A seeded point literal: each coordinate a root of unity if torsion,
    times a rational if rational, each with chance 2/3 (1 if neither)."""
    coords = []
    for _ in range(rank):
        factors = []
        if torsion and rng.random() < 2 / 3:
            m = rng.choice([2, 3, 4, 5, 6, 8, 12])
            factors.append(f"zeta({m})^{rng.choice([a for a in range(1, m) if gcd(a, m) == 1])}")
        if rational and rng.random() < 2 / 3:
            factors.append(rng.choice(["2", "3/5", "2^-2", "10", "7/12", "9", "2^-2*4"]))
        coords.append("*".join(factors) or "1")
    return ",".join(coords)


def test_the_unchecked_points_pass_the_checks_and_round_trip():
    # parse_point and fiber_over_RG build their points without EvalPoint's
    # checks.  Each must pass them and parse back from its literal: at
    # seeded rational, torsion and mixed points of every built-in of rank
    # <= 3, and at A2 and C2 points of high torsion order, the C2 ones on
    # the path that walks W.
    rng = random.Random(3003)
    cases = [(standard_datum(label, rank, variant), random_literal(rng, rank, *kinds))
             for label, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                 ("C", 2), ("C", 3), ("D", 3), ("G", 2)]
             for variant in ("simply_connected", "adjoint")
             for kinds in [(False, True), (True, False), (True, True)] for _ in range(2)]
    walks = [(standard_datum(label, 2), text.format(m=m, k=k))
             for m in (5, 7, 8, 9, 10, 12, 60) for k in (1, m - 1)
             for label, text in [("A", "zeta({m})^{k}*2,zeta({m})^{k}"), ("C", "zeta({m})^{k},1")]]
    for d, text in walks[1::2]:
        assert_walks(d, parse_point(text, 2))
    checked = 0
    for d, text in cases + walks:
        p = parse_point(text, d.rank)
        for q in [p, *fiber_over_RG(d, p)]:
            assert type(q) is EvalPoint and EvalPoint(*q) == q
            assert parse_point(render_rows(q), d.rank) == q
            checked += 1
    assert checked > 1000


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
    """Independent oracle for Galois equality: equal ranks, prime rows and
    torsion orders m, and some unit k modulo m that rescales the torsion
    row of p onto that of q."""
    if p.rank != q.rank or p.prime_rows != q.prime_rows or p.m != q.m:
        return False
    m = p.m
    return any(all(k * a % m == b for a, b in zip(p.zeta_row, q.zeta_row))
               for k in range(1, m + 1) if gcd(k, m) == 1)


def least_order_point(m, zeta_row, prime_rows) -> EvalPoint:
    """The point with torsion row zeta_row over m, written over its least order."""
    g = gcd(m, *zeta_row)
    return EvalPoint(m // g, [a // g for a in zeta_row], prime_rows)


def test_galois_key_is_equal_exactly_for_equal_ideals():
    from repring.spectrum import _galois_key
    rng = random.Random(2718)
    for _ in range(200):
        rank = rng.randint(1, 3)
        p = random_point(rng, rank)
        m = p.m
        k = rng.choice([k for k in range(1, m + 1) if gcd(k, m) == 1])
        conjugate = EvalPoint(m, [k * a % m for a in p.zeta_row], p.prime_rows)
        others = [conjugate, random_point(rng, rank),
                  least_order_point(m, [rng.randrange(1, 4) * a % m for a in p.zeta_row],
                                    p.prime_rows),
                  EvalPoint(m, conjugate.zeta_row, random_point(rng, rank, False).prime_rows),
                  random_point(rng, rank + 1)]
        assert ideal_equal_by_unit_search(p, conjugate)
        for q in others:
            expected = ideal_equal_by_unit_search(p, q)
            assert (_galois_key(p) == _galois_key(q)) == expected
            assert ideal_equal(p, q) == expected


SMALL_BUILTINS = [(label, rank, variant)
                  for label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                                      ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
                                      ("D", 3), ("D", 4), ("G", 2)]
                  for variant in ("simply_connected", "adjoint")]


def test_fiber_and_stabilizers_match_a_walk_over_full_points():
    # Every built-in with |W| <= 384, at seeded points with cyclotomic
    # coordinates and negative exponents, plus two central ones.
    rng = random.Random(5040)
    checked = 0
    for label, rank, variant in SMALL_BUILTINS:
        d = standard_datum(label, rank, variant)
        assert weyl_order(d) <= 384
        points = [parse_point(",".join(["1"] * rank), rank),
                  parse_point(",".join(["zeta(2)^1"] * rank), rank)]
        points += [random_point(rng, rank) for _ in range(3)]
        assert any(p.m > 1 for p in points)
        assert any(x < 0 for p in points for _, row in p.prime_rows for x in row)
        for p in points:
            assert fiber_over_RG(d, p) == sorted(fiber_points(d, p))
            if support(p).connected:
                report = stabilizer_check(d, p)
                geo, idl = stabilizers(d, p)
                sub = subsystem_elements(d, p)
                assert (report.geometric_order, report.ideal_order,
                        report.subsystem_order) == (len(geo), len(idl), len(sub))
                assert report.agree == (set(geo) == set(idl) == sub)
                checked += 1
    assert checked >= 26


def connected_point(rng, rank):
    """A seeded point of connected support: each coordinate is 1, a prime
    power, or a root of unity times a prime power, primes often shared."""
    while True:
        coords = []
        for _ in range(rank):
            kind = rng.random()
            factors = [] if kind < 0.3 else [rng.choice(["2", "3", "2^-1", "4"])]
            if kind > 0.6:
                m = rng.choice([2, 3, 4, 6, 12])
                factors.append(f"zeta({m})^{rng.choice([a for a in range(1, m) if gcd(a, m) == 1])}")
            coords.append("*".join(factors) or "1")
        p = parse_point(",".join(coords), rank)
        if support(p).connected:
            return p


def test_stabilizer_orders_and_agreement_match_the_brute_force_sets():
    # The orders are counted on the orbit of the point's rows; the oracle
    # collects the three groups as sets of matrices.  Every built-in with
    # |W| <= 384, at seeded connected points, torsion ones included.
    rng = random.Random(2520)
    kinds = set()
    for label, rank, variant in SMALL_BUILTINS:
        d = standard_datum(label, rank, variant)
        for _ in range(4):
            p = connected_point(rng, rank)
            report = stabilizer_check(d, p)
            geo, idl = stabilizers(d, p)
            sub = subsystem_elements(d, p)
            assert (report.geometric_order, report.ideal_order,
                    report.subsystem_order) == (len(geo), len(idl), len(sub))
            assert report.agree == (set(geo) == set(idl) == sub) is True
            kinds.add((p.m > 1, len(geo) > 1))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_the_stabilizer_disagrees_with_a_wrong_centralizer(monkeypatch):
    # Negative controls on C4.  At 1,1,2,3 the centralizer has roots (Z != T);
    # with them taken away W_Z is trivial and no longer the stabilizer.  At
    # 1,2,3,5, W_Z is swapped for the one at 2,1,3,5, of the same order 2,
    # whose root the point does not send to 1: only that tells them apart.
    from repring import spectrum
    d = standard_datum("C", 4)
    real = spectrum.centralizer_subsystem

    def rootless(datum, k):
        levi = real(datum, k)
        assert levi.pairs
        return LeviDatum(parent=datum, kernel=levi.kernel, pairs=(),
                         datum=torus_datum(datum.rank), saturation_applied=False)

    def elsewhere(datum, k):
        return real(datum, support(parse_point("2,1,3,5", 4)).kernel_lattice)

    for point, wrong in (("1,1,2,3", rootless), ("1,2,3,5", elsewhere)):
        p = parse_point(point, 4)
        right = stabilizer_check(d, p)
        assert right.agree
        monkeypatch.setattr(spectrum, "centralizer_subsystem", wrong)
        report = stabilizer_check(d, p)
        monkeypatch.undo()
        assert not report.agree
        assert report.geometric_order == report.ideal_order == right.geometric_order
        assert (report.subsystem_order == right.subsystem_order) == (wrong is elsewhere)


def test_the_stabilizer_enumerates_no_group(monkeypatch):
    # With every walk over W made to raise, stabilizer still answers.
    from repring import spectrum

    def refuse(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    for module in (rootdata, spectrum):
        for name in ("weyl_group", "weyl_walk"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    report = stabilizer_check(standard_datum("C", 4), parse_point("1,1,2,3", 4))
    assert report.agree and report.geometric_order == 8


def test_evaluate_poly_matches_the_term_by_term_sum():
    rng = random.Random(1729)
    cases = []
    for m in (1, 3, 4, 10):
        for _ in range(4):
            torsion = [Fraction(rng.randrange(m), m) for _ in range(3)]
            rational = [{q: rng.choice([-3, -1, 1, 2]) for q in (2, 3, 5)
                         if rng.random() < 0.5} for _ in range(3)]
            p = EvalPoint.from_parts(torsion, rational)
            exps = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(7)]
            rational_terms = {e: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5]))
                              for e in exps[:4]}
            cyclo_terms = {e: Cyclo.zeta(rng.choice([3, 5, 12]), 1) * Fraction(rng.randint(1, 4), 3)
                           for e in exps[4:]}
            cases += [(p, LaurentPoly(3, rational_terms)),
                      (p, LaurentPoly(3, {**rational_terms, **cyclo_terms})),
                      (p, LaurentPoly(3, cyclo_terms)),  # no rational terms
                      (p, LaurentPoly(3, {}))]
    assert any(p.m == 1 for p, _ in cases)
    for p, f in cases:
        got, expected = evaluate_poly(p, f), evaluate_by_terms(p, f)
        assert got == expected and type(got) is type(expected)


def test_a_stacked_block_evaluates_as_its_polynomials_one_by_one():
    # One block mixes rational and Cyclo coefficients, a Cyclo-only
    # polynomial, the zero polynomial, a constant and negative exponents;
    # its values must be those of evaluate_poly and of the term-by-term sum,
    # at points with m = 1 and with roots of unity.
    from repring.spectrum import _evaluate, _prepare
    third = Cyclo.zeta(3, 1) * Fraction(1, 3)
    block = [LaurentPoly(3, {(1, -2, 0): Fraction(5, 2), (0, 1, 1): Fraction(-1, 3),
                             (-1, 0, 2): third}),
             LaurentPoly(3, {}),
             LaurentPoly(3, {(0, 0, 0): Fraction(7, 3)}),
             LaurentPoly(3, {(2, 0, -1): Cyclo.zeta(5, 2), (0, 0, 1): third}),
             LaurentPoly(3, {(-3, 1, 0): Fraction(4), (1, 1, 1): Fraction(-6, 7),
                             (0, -1, 0): Fraction(1, 2)})]
    points = [parse_point(text, 3) for text in
              ("2,3/5,1", "2^-3,7,5/6", "zeta(4)^1*2,3,1", "1,zeta(12)^5,zeta(3)^2*3/2")]
    assert points[0].m == points[1].m == 1
    for p in points:
        got = _evaluate(p, _prepare(block))
        assert got == [evaluate_poly(p, f) for f in block] == [evaluate_by_terms(p, f) for f in block]
        assert [type(v) for v in got] == [type(evaluate_by_terms(p, f)) for f in block]


def break_one_step(monkeypatch, d, change):
    """Make the walk's row map give the last element of W, in sorted order
    and not the identity, its rows changed by change (zeta row, prime rows
    after it); every element first reached from it inherits them."""
    target = weyl_group(d).elements[-1]
    assert target != tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    real, hits = rootdata._step, []

    def wrong(reflections, value, i):
        columns, rows = real(reflections, value, i)
        if tuple(zip(*columns)) == target:
            hits.append(i)
            rows = change(rows)
        return columns, rows

    monkeypatch.setattr(rootdata, "_step", wrong)
    return hits


def assert_walks(d, p):
    """Fewer fiber members than orbit points: a Galois conjugate of p lies in
    its orbit, so the fiber at p walks W."""
    m, zeta_row, prime_rows = p
    orbit = rootdata.row_orbit(d, (zeta_row, *(row for _, row in prime_rows)), m)
    assert len(fiber_over_RG(d, p)) < len(orbit)


@pytest.mark.parametrize("label, rank, point", [("D", 4, "zeta(3)^2,1,6,5^2"),
                                                ("C", 3, "2,3,zeta(4)^1*3")])
def test_the_fiber_probe_check_fires_on_a_wrong_translate(monkeypatch, label, rank, point):
    # At points whose fiber walks W, one non-identity element's translate
    # comes back with its first prime row negated: it leaves the orbit of
    # p's rows, or another translate is missed.
    d, p = standard_datum(label, rank), parse_point(point, rank)
    assert_walks(d, p)
    hits = break_one_step(monkeypatch, d, lambda rows: (rows[0], tuple(-x for x in rows[1]),
                                                        *rows[2:]))
    with pytest.raises(AssertionError, match=ORBIT_MISMATCH):
        fiber_over_RG(d, p)
    assert len(hits) == 1


def test_the_fiber_probe_check_fires_on_a_zeta_row_off_by_one(monkeypatch):
    # At C2 1,zeta(4)^1 (m = 4), whose fiber walks W, one non-identity
    # element's translate comes back with its first zeta entry moved by 1
    # mod m: only its torsion row is wrong.
    d, p = standard_datum("C", 2), parse_point("1,zeta(4)^1", 2)
    assert p.m == 4
    assert_walks(d, p)
    hits = break_one_step(monkeypatch, d, lambda rows: ((rows[0][0] + 1, *rows[0][1:]),
                                                        *rows[1:]))
    with pytest.raises(AssertionError, match=ORBIT_MISMATCH):
        fiber_over_RG(d, p)
    assert len(hits) == 1


@pytest.mark.parametrize("label, rank", [("C", 3), ("G", 2)])
def test_every_weyl_element_gives_the_points_probe_signature(label, rank):
    # Not only the fiber's class representatives: every translate of p
    # carries the probe terms of p, permuted.
    from repring.spectrum import _prepare
    d = standard_datum(label, rank)
    probes = _prepare(_invariant_probe(d))
    w = weyl_group(d)
    assert len(w.elements) == weyl_order(d)
    rng = random.Random(2718)
    for _ in range(6):
        p = random_point(rng, rank)
        _check_probe_terms(probes, p, [translate_rows(p, m) for m in w.elements])


def test_the_fiber_refuses_a_walk_that_misses_an_element(monkeypatch):
    # At C2 zeta(6)^1,zeta(5)^1 the stabilizer is trivial and the fiber
    # walks W, so every element of W gives its own translate and a walk
    # without its last element misses one orbit point: the translates must
    # be the whole orbit, not a part of it.
    from repring import spectrum
    d, p = standard_datum("C", 2), parse_point("zeta(6)^1,zeta(5)^1", 2)
    assert len(rootdata.row_orbit(d, [p.zeta_row], p.m)) == weyl_order(d)
    assert_walks(d, p)
    real = spectrum.weyl_walk
    monkeypatch.setattr(spectrum, "weyl_walk", lambda *args: real(*args)[:-1])
    with pytest.raises(AssertionError, match=ORBIT_MISMATCH):
        fiber_over_RG(d, p)


@pytest.mark.parametrize("label, rank, point", [("A", 2, "zeta(3)^1*2,3"),
                                                ("G", 2, "2,zeta(3)^1*3"),
                                                ("C", 3, "2,3,5")])
@pytest.mark.parametrize("wrong", ["reflection", "modulus"])
def test_a_wrong_compiled_row_move_is_refused_on_the_orbit_path(monkeypatch, label, rank,
                                                                point, wrong):
    # The fiber at these points is their orbit and walks no W; a generated
    # move over all of a point's rows that applies s in place of s^T, or
    # takes the zeta row mod the wrong modulus (none where m > 1, 7 where
    # m = 1), is refused by fiber and stabilizer alike.
    d, p = standard_datum(label, rank), parse_point(point, rank)
    assert len(fiber_over_RG(d, p)) == weyl_order(d) and support(p).connected
    real = rootdata._compile

    def corrupt(root, coroot, copies=1, modulus=0):
        if copies == 1 and not modulus:
            return real(root, coroot)
        if wrong == "modulus":
            return real(root, coroot, copies, 0 if modulus else 7)
        return real(coroot, root, copies, modulus)

    monkeypatch.setattr(rootdata, "_compile", corrupt)
    for command in (fiber_over_RG, stabilizer_check):
        with pytest.raises(AssertionError, match="transpose is not adjoint"):
            command(standard_datum(label, rank), p)


@pytest.mark.parametrize("label, rank, point", [("A", 2, "2,3"), ("G", 2, "2,zeta(3)^1*3")])
def test_a_non_adjoint_transpose_is_refused_where_the_probe_oracle_fails(monkeypatch, label,
                                                                         rank, point):
    # The first simple reflection s stands in for its own transpose: still
    # an involution, but not adjoint to s, so the walk and the orbit would
    # move the rows alike and agree.  fiber and stabilizer both refuse it,
    # and the per-member probe check rejects the translate it gives.
    from repring.spectrum import _prepare
    (a, av), *_ = standard_datum(label, rank).simple_pairs
    real = rootdata._compile
    monkeypatch.setattr(rootdata, "_compile",
                        lambda x, y: real(a, av) if (x, y) == (av, a) else real(x, y))
    for command in (fiber_over_RG, stabilizer_check):
        with pytest.raises(AssertionError, match="transpose is not adjoint"):
            command(standard_datum(label, rank), parse_point(point, rank))
    monkeypatch.undo()
    d, p, s = standard_datum(label, rank), parse_point(point, rank), real(a, av)
    m, zeta_row, prime_rows = p
    wrong = (m, tuple(x % m for x in s(zeta_row)), tuple((q, s(row)) for q, row in prime_rows))
    probes = _prepare(_invariant_probe(d))
    _check_probe_terms(probes, p, fiber_over_RG(d, p))
    with pytest.raises(AssertionError, match="disagrees on an invariant probe"):
        _check_probe_terms(probes, p, [wrong])


def point_of_order_dividing_60(rng, rank):
    """A seeded point whose torsion order divides 60, with negative exponents."""
    torsion, rational = [], []
    for _ in range(rank):
        m = rng.choice([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60])
        torsion.append(Fraction(rng.choice([a for a in range(m) if gcd(a, m) == 1]), m))
        rational.append({q: rng.choice([-3, -1, 1, 2]) for q in (2, 3, 5, 7)
                         if rng.random() < 0.5})
    return EvalPoint.from_parts(torsion, rational)


@pytest.mark.parametrize("label, rank", [("C", 3), ("B", 2), ("G", 2)])
def test_the_integer_probe_check_agrees_with_the_tuple_signatures(label, rank):
    # Every translate passes, and a translate with one prime row negated or
    # one zeta entry moved by 1 mod m fails exactly when its tuple signature
    # differs from the point's (at 2,1,... the negated row is the translate
    # by -1, in W here).  Exponents above 2^64 widen the slots past eight
    # bytes; the fiber is compared in rows, never rendered.
    from repring.spectrum import _prepare
    d = standard_datum(label, rank)
    probes = _prepare(_invariant_probe(d))
    elements = weyl_group(d).elements
    rng = random.Random(6060)
    huge = 2 ** 64 + 1
    points = [point_of_order_dividing_60(rng, rank) for _ in range(5)]
    points += [parse_point(",".join(["2", "1", "1"][:rank]), rank),
               parse_point(",".join([f"2^{huge}", "3", "5"][:rank]), rank),
               parse_point(",".join([f"zeta(60)^7*3^-{huge}*5", f"2^{huge}*7", "1"][:rank]), rank)]
    assert max(p.m for p in points) == 60
    outcomes = set()
    for p in points:
        assert fiber_over_RG(d, p) == sorted(fiber_points(d, p))
        base = probe_signature(p, probes)
        translates = [translate_rows(p, m) for m in elements]
        _check_probe_terms(probes, p, translates)
        m = p.m
        for m_, zeta_row, prime_rows in translates:
            wrong = []
            if prime_rows:
                (prime, row), *rest = prime_rows
                wrong.append((m, zeta_row, ((prime, tuple(-x for x in row)), *rest)))
            if m > 1:
                wrong.append((m, ((zeta_row[0] + 1) % m, *zeta_row[1:]), prime_rows))
            for rows in wrong:
                differs = probe_signature(rows, probes) != base
                outcomes.add(differs)
                if differs:
                    with pytest.raises(AssertionError, match="disagrees on an invariant probe"):
                        _check_probe_terms(probes, p, [rows])
                else:
                    _check_probe_terms(probes, p, [rows])
    assert outcomes == {True, False}


def test_galois_key_takes_the_least_over_the_units_that_reach_the_least_entry():
    # The coset search gives the all-units minimum, for unit and non-unit
    # first nonzero entries, with zero entries before them, and zero rows.
    from repring.spectrum import _galois_key
    rng = random.Random(512)
    for m in (1, 2, 12, 60, 210, 512):
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        others = [a for a in range(2, m) if gcd(a, m) > 1]
        rows = [(0, 0, 0)]
        for zeros in range(3):
            for first in rng.sample(units, min(3, len(units))) + rng.sample(others, min(3, len(others))):
                rows.append((0,) * zeros + (first,)
                            + tuple(rng.randrange(m) for _ in range(2 - zeros)))
        assert m < 12 or {gcd(row[row.index(next(filter(None, row)))], m) > 1
                          for row in rows[1:]} == {True, False}
        primes = ((2, (1, -1, 0)),)
        for row in rows:
            assert _galois_key((m, row, primes)) == (primes, m, least_unit_multiple(m, row))
