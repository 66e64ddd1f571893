"""Polynomial arithmetic, monomial orders, and Groebner bases.

The Groebner routine is verified by Buchberger's criterion applied to
its own output (every S-polynomial must reduce to zero) plus a cofactor
membership oracle: combinations built by hand from the generators must
test as members, and shifting a member by 1 must not, unless the ideal
is the unit ideal.
"""

import random
from fractions import Fraction

import pytest

from repring.errors import ResourceCapError
from repring.groebner import (GroebnerBasis, groebner, groebner_basis,
                              ideal_membership, leading_term, reduce_poly,
                              s_polynomial, standard_monomials)
from repring.laurent import LaurentPoly
from repring.poly import Poly, grevlex_key, parse_poly

from groebner_oracle import constant, make_elim_key, substitute, variable


def P(text, names):
    return parse_poly(text, names)


def random_poly(rng, nvars, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return Poly(nvars, {e: c for e, c in terms.items() if c})


def test_poly_arithmetic_basics():
    x = variable(2, 0)
    y = variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1
    assert f - f == Poly.zero(2)
    assert constant(2, Fraction(3, 2)) * 2 == constant(2, 3)


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})


def test_poly_arithmetic_stays_in_poly():
    x = variable(2, 0)
    y = variable(2, 1)
    for value in (x + y, x - y, x * y, x * x * x, 1 + x, 2 - y, -x, x * Fraction(1, 2)):
        assert type(value) is Poly
    assert (x * y).nvars == 2
    assert x * y == LaurentPoly(2, {(1, 1): 1})


def test_parse_poly_frozen():
    f = P("y1^2 - 2*y1 + 1", ["y1", "y2"])
    y1 = variable(2, 0)
    assert f == (y1 - 1) * (y1 - 1)
    g = P("3/2*y1*y2 + y2^3", ["y1", "y2"])
    assert g.terms == {(1, 1): Fraction(3, 2), (0, 3): Fraction(1)}
    assert P("-y1 + -y2", ["y1", "y2"]) == -y1 - variable(2, 1)
    assert P("5", ["y1"]) == constant(1, 5)


def test_parse_poly_rejections():
    for bad in ["", "y3", "y1 +", "y1^-1", "2**3", "y1*(y2)"]:
        with pytest.raises(ValueError):
            parse_poly(bad, ["y1", "y2"])


def test_render_parse_round_trip():
    # laurent.render names the variables x1, x2, x3 and writes x^1 in full.
    rng = random.Random(321)
    names = ["x1", "x2", "x3"]
    for _ in range(30):
        f = random_poly(rng, 3, max_deg=3, max_terms=4)
        if f.is_zero():
            continue
        assert parse_poly(str(f), names) == f


def test_grevlex_order_properties():
    # Degree dominates; within a degree the smaller last exponent wins.
    assert grevlex_key((2, 0)) > grevlex_key((0, 1))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    # The classic grevlex discriminator: x*y^3 beats x^2*y*z.
    assert grevlex_key((1, 3, 0)) > grevlex_key((2, 1, 1))
    # Multiplicative: comparing e+m against f+m matches e against f.
    rng = random.Random(99)
    for _ in range(50):
        e = tuple(rng.randint(0, 4) for _ in range(3))
        f = tuple(rng.randint(0, 4) for _ in range(3))
        m = tuple(rng.randint(0, 4) for _ in range(3))
        em = tuple(a + b for a, b in zip(e, m))
        fm = tuple(a + b for a, b in zip(f, m))
        assert (grevlex_key(e) < grevlex_key(f)) == (grevlex_key(em) < grevlex_key(fm))


def test_elim_key_blocks_dominate():
    key = make_elim_key(1)
    # Any power of the first variable beats anything free of it.
    assert key((1, 0)) > key((0, 5))
    assert key((2, 0)) > key((1, 9))


def test_substitute_generic_ring():
    f = P("y1^2 + y2", ["y1", "y2"])
    z = LaurentPoly.monomial([1])
    zi = LaurentPoly.monomial([-1])
    got = substitute(f, [z + zi, LaurentPoly.one(1) * 2])
    assert got == (z + zi) * (z + zi) + LaurentPoly.one(1) * 2
    assert substitute(f, [Fraction(2), Fraction(3)]) == 7


def test_leading_term_frozen():
    f = P("x^2 + x*y + y", ["x", "y"])
    e, c = leading_term(f)
    assert e == (2, 0) and c == 1
    g = P("2*x*y^3 + x^2*y", ["x", "y"])
    assert leading_term(g) == ((1, 3), Fraction(2))


def test_s_polynomial_frozen():
    names = ["x", "y"]
    f = P("x^2 - y", names)
    g = P("x*y - 1", names)
    assert s_polynomial(f, g) == P("x - y^2", names)


def test_reduce_full_normal_form():
    names = ["x", "y"]
    basis = [P("x - y", names), P("y^2 - 1/2", names)]
    r = reduce_poly(P("x^2", names), basis)
    assert r == constant(2, Fraction(1, 2))
    # No term of the normal form is divisible by any leading term.
    f = P("x^3*y + x + y + 1", names)
    r = reduce_poly(f, basis)
    for e in r.terms:
        for g in basis:
            lt = leading_term(g)[0]
            assert not all(a >= b for a, b in zip(e, lt))


def test_groebner_frozen_circle_line():
    names = ["x", "y"]
    gb = groebner([P("x^2 + y^2 - 1", names), P("x - y", names)])
    assert list(gb.polys) == [P("y^2 - 1/2", names), P("x - y", names)] or \
        list(gb.polys) == [P("x - y", names), P("y^2 - 1/2", names)]
    assert ideal_membership(P("x^2 + y^2 - 1", names), gb)
    assert not ideal_membership(P("x + y", names), gb)


def test_groebner_output_satisfies_buchberger_criterion():
    rng = random.Random(777)
    names = ["x", "y", "z"]
    for _ in range(12):
        gens = [random_poly(rng, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_basis(gens)
        if not basis:
            continue
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j])
                assert reduce_poly(s, basis).is_zero()
        for g in gens:
            assert reduce_poly(g, basis).is_zero()


def test_membership_cofactor_oracle():
    rng = random.Random(778)
    names = ["x", "y"]
    gens = [P("x^2 + y^2 - 1", names), P("x*y - 2", names)]
    gb = groebner(gens)
    assert not ideal_membership(constant(2, 1), gb)
    for _ in range(40):
        h = Poly.zero(2)
        for g in gens:
            h = h + random_poly(rng, 2) * g
        assert ideal_membership(h, gb)
        assert not ideal_membership(h + 1, gb)


def test_elimination_order_projects_ideal():
    # Adjoin z with z^2 = -1, set y = z, then eliminate z.
    names = ["z", "y"]
    key = make_elim_key(1)
    gb = groebner([P("z^2 + 1", names), P("y - z", names)], key=key)
    z_free = [g for g in gb.polys if all(e[0] == 0 for e in g.terms)]
    assert z_free == [P("y^2 + 1", names)]


def test_standard_monomials_frozen():
    names = ["x", "y"]
    gb = groebner([P("x^2", names), P("y^3", names)])
    monos = standard_monomials(gb)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    assert len(monos) == 6


def test_standard_monomials_unit_ideal():
    gb = groebner([constant(2, 1)])
    assert standard_monomials(gb) == []


def test_standard_monomials_zero_ideal():
    with pytest.raises(ValueError):
        standard_monomials(GroebnerBasis(nvars=2, polys=()))


def test_standard_monomials_positive_dimension():
    names = ["x", "y"]
    gb = groebner([P("x*y", names)])
    with pytest.raises(ValueError):
        standard_monomials(gb)


def test_standard_monomial_count_matches_degree_product():
    rng = random.Random(779)
    names = ["x", "y"]
    for _ in range(10):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        gb = groebner([P(f"x^{a}", names) if a > 1 else P("x", names),
                       P(f"y^{b}", names) if b > 1 else P("y", names)])
        assert len(standard_monomials(gb)) == a * b


def test_pair_cap_raises():
    names = ["x", "y", "z"]
    gens = [P("x^2 + y*z - 1", names), P("y^2 + x*z - 1", names),
            P("z^2 + x*y - 1", names)]
    with pytest.raises(ResourceCapError):
        groebner_basis(gens, pair_cap=2)


def test_monomial_cap_raises():
    names = ["x", "y"]
    gb = groebner([P("x^3", names), P("y^3", names)])
    with pytest.raises(ResourceCapError):
        standard_monomials(gb, cap=4)


def test_row_space_and_solver():
    from repring.linalg import RowSpace, rank, solve_coordinates
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    coords = solve_coordinates([[1, 0], [1, 1]], [3, 2])
    assert coords == [Fraction(1), Fraction(2)]
    assert solve_coordinates([[1, 0]], [0, 1]) is None
    space = RowSpace(3)
    assert space.add([1, 0, 0])
    assert space.add([1, 1, 0])
    assert not space.add([2, 1, 0])
    assert space.rank == 2
    assert space.contains([5, -7, 0])
    assert not space.contains([0, 0, 1])
