"""Cyclotomic integers and field arithmetic against classical identities.

The cyclotomic polynomials are checked with the product identity
prod_{d | n} Phi_d(x) = x^n - 1, and Euler's phi with direct coprime
counting.  Field arithmetic is exercised through inverse round-trips and
Galois-automorphism homomorphism properties on seeded random elements.
Every operation is also compared, coordinate for coordinate, with the
Fraction-coordinate class kept in `tests/cyclo_oracle.py`, and `str` and
`repr` with fixed goldens.
"""

import random
from fractions import Fraction
import math
from math import gcd

import pytest

from cyclo_oracle import FracCyclo
from repring import cyclotomic
from repring.cyclotomic import (Cyclo, cyclotomic_polynomial, demote, euler_phi,
                                prime_factors)
from repring.errors import ResourceCapError


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_euler_phi_against_coprime_counting():
    for n in range(1, 80):
        count = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert euler_phi(n) == count


def test_prime_factors_multiply_back_and_are_capped(monkeypatch):
    for n in range(1, 500):
        f = list(prime_factors(n))
        assert math.prod(f) == n and f == sorted(f)
        assert all(list(prime_factors(p)) == [p] for p in f)
    assert list(prime_factors(2 ** 5 * 999983)) == [2] * 5 + [999983]
    monkeypatch.setattr(cyclotomic, "TRIAL_DIVISION_CAP", 100)
    assert list(prime_factors(97 * 101)) == [97, 101]
    # The smallest factor comes before the cap is reached.
    assert next(prime_factors(2 * 101 * 103)) == 2
    with pytest.raises(ResourceCapError, match="TRIAL_DIVISION_CAP = 100"):
        list(prime_factors(101 * 103))


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul_int(prod, cyclotomic_polynomial(d))
        expected = [0] * (n + 1)
        expected[0] = -1
        expected[n] = 1
        assert prod == expected


def test_cyclotomic_degree_is_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclotomic_degree_is_capped_on_a_cache_miss(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_CYCLO_CACHE", {})
    monkeypatch.setattr(cyclotomic, "CYCLOTOMIC_DEGREE_CAP", 4)
    # phi(12) = 4 is at the cap; its divisors are built on the way.
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert sorted(cyclotomic._CYCLO_CACHE) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ResourceCapError, match="degree 6, over CYCLOTOMIC_DEGREE_CAP = 4"):
        cyclotomic_polynomial(7)
    assert 7 not in cyclotomic._CYCLO_CACHE
    # A polynomial already built is returned whatever the cap.
    monkeypatch.setattr(cyclotomic, "CYCLOTOMIC_DEGREE_CAP", 1)
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_primitive_root_sums():
    z3 = Cyclo.zeta(3)
    assert z3 + z3 * z3 == Fraction(-1)
    z4 = Cyclo.zeta(4)
    assert z4 * z4 == Fraction(-1)
    z5 = Cyclo.zeta(5)
    total = z5
    for _ in range(3):
        total = total * z5 + z5
    # zeta^4 + zeta^3 + zeta^2 + zeta = -1
    assert total == Fraction(-1)


def test_zeta_powers_match_repeated_multiplication():
    for m in (5, 12, 30, 60):
        z = Cyclo.zeta(m)
        acc = Cyclo.from_rational(1, m)
        for k in range(2 * m + 1):
            got = Cyclo.zeta(m, k)
            assert got.coords == acc.coords, (m, k)
            assert all(type(c) is Fraction for c in got.coords)
            acc = acc * z


def test_rationality_detection_and_demote():
    z6 = Cyclo.zeta(6)
    v = z6 * z6 * z6  # zeta(6)^3 = -1
    assert v.is_rational()
    assert v.as_rational() == -1
    d = demote(v)
    assert type(d) is int and d == -1
    assert isinstance(demote(Cyclo.zeta(5)), Cyclo)
    assert not (Cyclo.zeta(3) - Cyclo.zeta(3))
    assert Cyclo.zeta(3)


def test_mixed_order_arithmetic():
    z2 = Cyclo.zeta(2)
    assert z2 == Fraction(-1)
    z3 = Cyclo.zeta(3)
    z6 = Cyclo.zeta(6)
    # zeta(6) = -zeta(3)^2
    assert z6 == -(z3 * z3)
    assert (z6 * z6) == z3
    mixed = z3 + z4_squared_plus_one()
    assert mixed == z3


def z4_squared_plus_one():
    z4 = Cyclo.zeta(4)
    return z4 * z4 + 1


def random_cyclo(rng, order):
    deg = euler_phi(order)
    coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)]
    return Cyclo(order, coords)


def test_inverse_round_trip():
    rng = random.Random(90210)
    orders = [2, 3, 4, 5, 6, 8, 12]
    done = 0
    while done < 100:
        order = rng.choice(orders)
        z = random_cyclo(rng, order)
        if not z:
            continue
        w = z.inverse()
        assert z * w == Fraction(1)
        assert (1 / z) * z == Fraction(1)
        done += 1
    # Rationals and elements of proper subfields invert by the same product
    # of conjugates over the norm as elements that generate the field.
    for order in (1, 2, 7, 12, 60):
        q = Cyclo.from_rational(Fraction(-3, 7), order)
        assert q.inverse() == Fraction(-7, 3) and q.inverse().order == order
    for order in (12, 60, 210):
        for z in (Cyclo.zeta(3), Cyclo.zeta(3) * 2 - Fraction(1, 5), Cyclo.zeta(4) + 3):
            if order % z.order == 0:
                w = z.promote(order)
                assert w.inverse().order == order
                assert w * w.inverse() == 1 and w.inverse() == z.inverse()


def test_division_and_scalar_interop():
    z3 = Cyclo.zeta(3)
    assert (z3 / z3) == Fraction(1)
    assert (2 * z3) / 2 == z3
    half = z3 / 2
    assert half + half == z3
    with pytest.raises(ZeroDivisionError):
        (z3 - z3).inverse()


def test_galois_is_a_ring_homomorphism():
    rng = random.Random(1123)
    for _ in range(60):
        order = rng.choice([3, 4, 5, 8, 12])
        a = random_cyclo(rng, order)
        b = random_cyclo(rng, order)
        units = [k for k in range(1, order) if gcd(k, order) == 1]
        k = rng.choice(units)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    z5 = Cyclo.zeta(5)
    assert z5.galois(2) == z5 * z5
    with pytest.raises(ValueError):
        z5.galois(5)


def test_galois_orbit_sum_is_rational():
    rng = random.Random(555)
    for _ in range(30):
        order = rng.choice([3, 4, 5, 7, 8, 9])
        a = random_cyclo(rng, order)
        total = Cyclo.from_rational(0, order)
        for k in range(1, order):
            if gcd(k, order) == 1:
                total = total + a.galois(k)
        assert total.is_rational()


def test_promotion_round_trip():
    z3 = Cyclo.zeta(3)
    up = z3.promote(12)
    assert up.order == 12
    assert up == z3
    with pytest.raises(ValueError):
        z3.promote(8)


def test_string_rendering():
    assert str(Cyclo.zeta(3)) == "zeta(3)^1"
    assert str(Cyclo.from_rational(Fraction(-3, 2), 4)) == "-3/2"
    assert str(Cyclo.zeta(5) * 2 + 1) == "1 + 2*zeta(5)^1"
    assert str(Cyclo.from_rational(0)) == "0"


def test_string_and_repr_goldens():
    cases = [
        (Cyclo(12, [Fraction(1, 2), -1, 0, Fraction(-3, 4)]),
         "1/2 - zeta(12)^1 - 3/4*zeta(12)^3",
         "Cyclo(12, [Fraction(1, 2), Fraction(-1, 1), Fraction(0, 1), Fraction(-3, 4)])"),
        (Cyclo(5, [0, 1]), "zeta(5)^1",
         "Cyclo(5, [Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)])"),
        (Cyclo(7, [Fraction(-2, 3), 0, 0, 0, 0, 0, 1]),
         "-5/3 - zeta(7)^1 - zeta(7)^2 - zeta(7)^3 - zeta(7)^4 - zeta(7)^5",
         "Cyclo(7, [Fraction(-5, 3), Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1), "
         "Fraction(-1, 1), Fraction(-1, 1)])"),
        (Cyclo(9, []), "0", "Cyclo(9, [" + ", ".join(["Fraction(0, 1)"] * 6) + "])"),
        (Cyclo(3, [5, -1]) * Cyclo.zeta(4), "zeta(12)^1 + 5*zeta(12)^3",
         "Cyclo(12, [Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(5, 1)])"),
        (Cyclo.zeta(8, 4), "-1",
         "Cyclo(8, [Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)])"),
    ]
    for value, text, rep in cases:
        assert (str(value), repr(value)) == (text, rep)


def test_arithmetic_matches_the_fraction_coordinate_oracle():
    # The oracle reduces in Fractions, coordinate by coordinate; the
    # library works on integer numerators over one denominator.
    rng = random.Random(17711)

    def draw(order):
        return [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 9]))
                for _ in range(rng.randint(0, 2 * euler_phi(order)))]

    for m in range(1, 61):
        units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
        for _ in range(2 if m <= 30 else 1):
            ca, cb = draw(m), draw(m)
            d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
            cd = draw(d)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            k = rng.choice(units)
            a, b, c = Cyclo(m, ca), Cyclo(m, cb), Cyclo(d, cd)
            oa, ob, oc = FracCyclo(m, ca), FracCyclo(m, cb), FracCyclo(d, cd)
            pairs = [(a, oa), (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob),
                     (a * c, oa * oc), (c + a, oc + oa), (a * q, oa * q), (a + q, oa + q),
                     (-a, -oa), (a.galois(k), oa.galois(k)),
                     (c.promote(m), oc.promote(m)), (a.promote(2 * m), oa.promote(2 * m))]
            for got, want in pairs:
                assert (got.order, got.coords) == (want.order, want.coords), m
                assert all(type(x) is Fraction for x in got.coords)
            assert Cyclo(m, iter(ca)) == a
            assert (a == b) == (oa == ob) and (a == c) == (oa == oc)
            assert bool(a) == any(oa.coords)
