"""Laurent polynomial arithmetic with the multiply-back division oracle.

Exact division is the one nontrivial operation here, so it is checked in
both directions: quotients of constructed products must recover the
factor exactly, and non-divisible pairs must raise rather than return a
wrong answer.
"""

import random
from fractions import Fraction

import pytest
from reflection_oracle import weyl_act

from repring.cyclotomic import Cyclo
from repring.laurent import LaurentPoly, augmentation, exact_divide, inverse_monomial, render


def random_poly(rng, rank, max_terms=5, coeff_bound=6, exp_bound=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(rank))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(rank, terms)


def test_constructor_merges_and_drops_zeros():
    f = LaurentPoly(2, {(0, 1): 2, (1, 0): 0})
    assert f.terms == {(0, 1): Fraction(2)}
    g = LaurentPoly(1, {(2,): Fraction(1, 2)})
    h = g + LaurentPoly(1, {(2,): Fraction(-1, 2)})
    assert h.is_zero()
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


def test_ring_axioms_randomized():
    rng = random.Random(1618)
    for _ in range(60):
        rank = rng.randint(1, 3)
        f = random_poly(rng, rank)
        g = random_poly(rng, rank)
        h = random_poly(rng, rank)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == LaurentPoly.zero(rank)
        assert f * LaurentPoly.one(rank) == f


def test_scalar_interop_and_powers():
    x = LaurentPoly.monomial([1])
    f = x + 1
    assert 2 * f == f + f
    assert f - 1 == x
    assert inverse_monomial(x * x * x) == LaurentPoly.monomial([-3])
    assert f * f == x * x + 2 * x + 1


def test_monomial_inverse():
    m = LaurentPoly.monomial([2, -1], coeff=Fraction(3, 4))
    inv = inverse_monomial(m)
    assert m * inv == LaurentPoly.one(2)
    with pytest.raises(ValueError):
        inverse_monomial(m + LaurentPoly.one(2))


def test_augmentation_is_a_ring_map():
    rng = random.Random(2024)
    for _ in range(40):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        assert augmentation(f + g) == augmentation(f) + augmentation(g)
        assert augmentation(f * g) == augmentation(f) * augmentation(g)
    assert augmentation(LaurentPoly.one(3)) == 1


def test_augmentation_is_in_the_coefficients_normal_form():
    z3 = Cyclo.zeta(3)
    zero = augmentation(LaurentPoly.zero(2))
    assert zero == 0 and type(zero) is int
    whole = augmentation(LaurentPoly(2, {(1, 0): 3, (0, -1): Fraction(4, 2), (2, 2): -1}))
    assert whole == 4 and type(whole) is int
    halves = augmentation(LaurentPoly(1, {(1,): Fraction(1, 2), (-1,): Fraction(3, 2)}))
    assert halves == 2 and type(halves) is int
    third = augmentation(LaurentPoly(1, {(1,): Fraction(1, 3), (0,): 2}))
    assert third == Fraction(7, 3) and type(third) is Fraction
    cyclo = augmentation(LaurentPoly(1, {(1,): z3, (0,): Fraction(1, 2)}))
    assert cyclo == z3 + Fraction(1, 2) and type(cyclo) is Cyclo
    # 1 + zeta_3 + zeta_3^2 = 0, the sum of the primitive cube roots of unity and 1.
    vanishing = augmentation(LaurentPoly(1, {(0,): 1, (1,): z3, (2,): z3 * z3}))
    assert vanishing == 0 and type(vanishing) is int
    rational = augmentation(LaurentPoly(1, {(1,): z3, (2,): z3 * z3}))
    assert rational == -1 and type(rational) is int


def test_weyl_act_is_multiplicative_and_invertible():
    rng = random.Random(31415)
    w = [[0, 1], [1, 0]]
    neg = [[-1, 0], [0, -1]]
    for _ in range(30):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        assert weyl_act(w, f * g) == weyl_act(w, f) * weyl_act(w, g)
        assert weyl_act(w, weyl_act(w, f)) == f
        assert weyl_act(neg, weyl_act(neg, f)) == f
        assert augmentation(weyl_act(w, f)) == augmentation(f)


def test_exact_divide_multiply_back():
    rng = random.Random(86753)
    done = 0
    while done < 110:
        rank = rng.randint(1, 3)
        f = random_poly(rng, rank)
        g = random_poly(rng, rank)
        if f.is_zero() or g.is_zero():
            continue
        product = f * g
        q = exact_divide(product, g)
        assert q == f
        assert q * g == product
        done += 1


def test_exact_divide_detects_non_divisibility():
    x = LaurentPoly.monomial([1])
    one = LaurentPoly.one(1)
    with pytest.raises(ValueError):
        exact_divide(x + one, x - one)
    with pytest.raises(ValueError):
        exact_divide(x * x + one, x + one)
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, LaurentPoly.zero(1))
    rng = random.Random(11)
    tried = 0
    while tried < 40:
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        if f.is_zero() or g.is_zero() or len(g.terms) < 2:
            continue
        # Spoil a true product by one extra monomial far below its support.
        product = f * g
        low = tuple(min(e[i] for e in product.terms) - 3 for i in range(2))
        spoiled = product + LaurentPoly.monomial(low, coeff=1, rank=2)
        if spoiled == product or spoiled.is_zero():
            continue
        with pytest.raises(ValueError):
            exact_divide(spoiled, g)
        tried += 1


def test_exact_divide_with_cyclotomic_coefficients():
    z3 = Cyclo.zeta(3)
    x = LaurentPoly.monomial([1])
    f = x * z3 + 1
    g = x * x - x + z3
    product = f * g
    assert exact_divide(product, g) == f
    assert exact_divide(product, f) == g


def test_height_and_coefficient_access():
    f = LaurentPoly(2, {(3, -5): 1, (0, 0): 7})
    assert f.height() == 5
    assert f.coefficient((3, -5)) == 1
    assert f.coefficient((1, 1)) == 0
    assert LaurentPoly.one(2).height() == 0


def test_render_is_canonical():
    f = LaurentPoly(2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    assert render(f) == "x1^-1*x2^1 + x2^-1 + x1^1"
    assert render(LaurentPoly.zero(2)) == "0"
    assert render(LaurentPoly(1, {(0,): Fraction(5, 2)})) == "5/2"
    assert render(LaurentPoly(1, {(2,): -1, (0,): 2})) == "2 - x1^2"
    g = LaurentPoly(1, {(1,): Cyclo.zeta(4)})
    assert render(g) == "(zeta(4)^1)*x1^1"
