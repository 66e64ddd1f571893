"""Differential tests against sympy, skipped when sympy is missing.

sympy serves only as a reference here; the library stays stdlib-only.
The Smith diagonal is compared with sympy's over ZZ (up to sign), the
cyclotomic polynomials with sympy's for every order up to 100, and the
norm a * (product of the other Galois conjugates of a) with the
resultant Res(Phi_m, a(x)), which is the product of a(zeta) over the
primitive m-th roots of unity.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form  # noqa: E402

from repring.cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi  # noqa: E402
from repring.lattice import smith_normal_form  # noqa: E402

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
