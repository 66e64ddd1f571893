"""Differential tests against sympy, skipped when sympy is missing.

sympy serves only as a reference here; the library stays stdlib-only.
The Smith diagonal is compared with sympy's over ZZ (up to sign), the
cyclotomic polynomials with sympy's for every order up to 100, and the
norm a * (product of the other Galois conjugates of a) with the
resultant Res(Phi_m, a(x)), which is the product of a(zeta) over the
primitive m-th roots of unity.  A product of cyclotomic numbers is
compared with sympy's remainder of the product polynomial modulo Phi_m.
The rank of a rational matrix, with dependent rows, zero rows and large
denominators, is compared with sympy's Matrix.rank.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form  # noqa: E402

from repring.cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi  # noqa: E402
from repring.lattice import smith_normal_form  # noqa: E402
from repring.linalg import rank  # noqa: E402

X = sympy.Symbol("x")


def test_smith_diagonal_matches_sympy():
    rng = random.Random(8128)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        _, d, _ = smith_normal_form(a)
        theirs = sympy_smith_normal_form(sympy.Matrix(a), domain=sympy.ZZ)
        k = min(m, n)
        assert [d[i][i] for i in range(k)] == [abs(int(theirs[i, i])) for i in range(k)], a


def test_rational_rank_matches_sympy():
    rng = random.Random(1968)
    for _ in range(200):
        width = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.choice(["fresh", "fresh", "zero", "combination"])
            if kind == "zero":
                rows.append([Fraction(0)] * width)
            elif kind == "combination" and rows:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
                rows.append([s * x + t * y for x, y in zip(a, b)])
            else:
                rows.append([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 9))
                             if rng.random() < 0.7 else Fraction(0) for _ in range(width)])
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                               for r in rows]).rank()
        assert rank(rows) == theirs, rows


def test_cyclotomic_polynomials_match_sympy():
    for m in range(1, 101):
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == [int(c) for c in theirs], m


def test_norm_is_the_resultant_with_the_cyclotomic_polynomial():
    rng = random.Random(496)
    for m in list(range(1, 25)) + [30, 36, 60]:
        phi_m = sympy.Poly(cyclotomic_polynomial(m)[::-1], X)
        for _ in range(3):
            coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(euler_phi(m))]
            a = Cyclo(m, coords)
            others = Cyclo.from_rational(1, m)
            for k in range(2, m):
                if gcd(k, m) == 1:
                    others = others * a.galois(k)
            norm = (a * others).as_rational()
            a_of_x = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                 for c in reversed(coords)], X, domain=sympy.QQ)
            res = sympy.resultant(phi_m, a_of_x)
            assert norm == Fraction(int(res.p), int(res.q)), (m, coords)


def test_product_is_the_remainder_modulo_the_cyclotomic_polynomial():
    rng = random.Random(6765)

    def draw(m):
        return [Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 5]))
                for _ in range(rng.randint(1, 2 * euler_phi(m)))]

    def as_poly(coords):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coords)], X, domain=sympy.QQ)

    for m in range(1, 61):
        phi_m = sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain=sympy.QQ)
        ca, cb = draw(m), draw(m)
        rem = sympy.rem(as_poly(ca) * as_poly(cb), phi_m)
        theirs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
        theirs += [Fraction(0)] * (euler_phi(m) - len(theirs))
        assert list((Cyclo(m, ca) * Cyclo(m, cb)).coords) == theirs, m
