"""Property tests of the exact kernels, with hypothesis.

The Smith form must be a unimodular diagonalization with a divisibility
chain, kernels must be saturated null lattices of the right rank (the
gcd of the maximal minors of a basis is 1), unimodular inverses must
round-trip on products of elementary matrices, cyclotomic inverses must
invert (also for an element of a subfield stored at a higher order) and
Galois maps must be ring homomorphisms, and point literals
must round-trip.  The coefficient protocol is checked the same way: a
Cyclo is true exactly when nonzero, Laurent polynomials compare by value
whatever order their cyclotomic coefficients are stored at, division by
a cyclotomic leading coefficient is exact, and reflections act as
involutions.  Every test is derandomized, so a run always draws the
same examples.
"""

from datetime import timedelta
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repring.cyclotomic import Cyclo, euler_phi  # noqa: E402
from repring.laurent import LaurentPoly, exact_divide, weyl_act  # noqa: E402
from repring.lattice import (det, identity_matrix, kernel, mat_inverse_unimodular,  # noqa: E402
                             mat_mul, mat_vec, smith_normal_form)
from repring.linalg import rank as q_rank  # noqa: E402
from repring.rootdata import simple_reflections, standard_datum  # noqa: E402
from repring.spectrum import EvalPoint, parse_point, render_point  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
REFLECTIONS = [s for label in "ABC" for s in simple_reflections(standard_datum(label, 3))]


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5, bound=30):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


@st.composite
def unimodular_products(draw, max_n=5):
    """A product of elementary matrices: row additions, swaps, negations."""
    n = draw(st.integers(1, max_n))
    a = identity_matrix(n)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "negate":
            a[i] = [-x for x in a[i]]
        elif i != j and op == "swap":
            a[i], a[j] = a[j], a[i]
        elif i != j:
            q = draw(st.integers(-3, 3))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    return a


def units(m):
    return [k for k in range(1, m + 1) if gcd(k, m) == 1]


@st.composite
def cyclo_cases(draw, max_order=60):
    """An order m, two elements of Q(zeta_m) and a unit modulo m.  Some
    coordinate lists run past phi(m), so construction reduces them."""
    m = draw(st.integers(1, max_order))
    coords = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                      min_size=0, max_size=2 * euler_phi(m))
    return m, Cyclo(m, draw(coords)), Cyclo(m, draw(coords)), draw(st.sampled_from(units(m)))


@st.composite
def nonrational_cyclos(draw, max_order=30):
    """An element of Q(zeta_m), 3 <= m <= max_order, that is not rational."""
    m = draw(st.integers(3, max_order))
    a = Cyclo(m, draw(st.lists(FRACTIONS, max_size=euler_phi(m))))
    return a + Cyclo.zeta(m) if a.is_rational() else a


COEFFS = st.one_of(FRACTIONS, st.builds(lambda c, m, k: c * Cyclo.zeta(m, k), FRACTIONS,
                                        st.integers(1, 12), st.integers(0, 11)))


@st.composite
def laurent_polys(draw, coeffs=COEFFS, min_size=0):
    """Rank 3, up to five terms with exponents in [-2, 2]; by default each
    coefficient is a Fraction or a Fraction times a root of unity of
    order up to 12."""
    exps = st.tuples(*[st.integers(-2, 2)] * 3)
    return LaurentPoly(3, draw(st.dictionaries(exps, coeffs, min_size=min_size, max_size=5)))


@st.composite
def points(draw):
    rank = draw(st.integers(1, 4))
    torsion = [Fraction(draw(st.integers(0, 59)), draw(st.integers(1, 60))) % 1
               for _ in range(rank)]
    primes = st.sampled_from([2, 3, 5, 7, 11, 101])
    exponents = st.integers(-3, 3).filter(bool)
    rational = [draw(st.dictionaries(primes, exponents, max_size=3)) for _ in range(rank)]
    return EvalPoint.from_parts(torsion, rational)


def minor_gcd(rows, k):
    """Gcd of all k x k minors of a k-row matrix."""
    g = 0
    for cols in combinations(range(len(rows[0])), k):
        g = gcd(g, det([[row[c] for c in cols] for row in rows]))
    return g


@settings(PROPERTY, deadline=timedelta(seconds=1))
@given(int_matrices())
def test_smith_form_is_a_unimodular_diagonalization(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    m, n = len(a), len(a[0])
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


@PROPERTY
@given(int_matrices())
def test_kernel_is_the_saturated_null_lattice(a):
    ker = kernel(a)
    basis = [list(row) for row in ker.hnf_rows]
    assert all(mat_vec(a, g) == [0] * len(a) for g in basis)
    assert ker.rank == len(a[0]) - q_rank([[Fraction(x) for x in row] for row in a])
    if basis:
        assert minor_gcd(basis, len(basis)) == 1


@PROPERTY
@given(unimodular_products())
def test_unimodular_inverse_round_trips(a):
    n = len(a)
    inv = mat_inverse_unimodular(a)
    assert mat_mul(a, inv) == identity_matrix(n) == mat_mul(inv, a)
    assert mat_inverse_unimodular(inv) == a
    doubled = [[2 * x for x in a[0]]] + a[1:]
    with pytest.raises(ValueError, match="not unimodular"):
        mat_inverse_unimodular(doubled)
    singular = [[0] * n] + a[1:] if n == 1 else [a[1]] + a[1:]
    with pytest.raises(ValueError, match="singular"):
        mat_inverse_unimodular(singular)


@settings(PROPERTY, max_examples=60)
@given(cyclo_cases())
def test_cyclo_inverse_and_galois_homomorphism(case):
    m, a, b, k = case
    if a:
        assert a * a.inverse() == 1
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert Cyclo.zeta(m).galois(k) == Cyclo.zeta(m, k)
    assert a.galois(1) == a


@st.composite
def subfield_cyclos(draw, max_order=105):
    """An element of Q(zeta_d) stored at an order m, a multiple of d, up to
    max_order: the inverse must find the smaller field."""
    m = draw(st.integers(1, max_order))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0 and euler_phi(d) <= 24]))
    return Cyclo(d, draw(st.lists(FRACTIONS, max_size=euler_phi(d)))).promote(m)


@settings(PROPERTY, max_examples=80)
@given(subfield_cyclos())
def test_inverse_of_a_subfield_element_stored_at_a_higher_order(a):
    if a:
        inv = a.inverse()
        assert inv.order == a.order
        assert a * inv == 1


@settings(PROPERTY, max_examples=60)
@given(cyclo_cases(max_order=30))
def test_cyclo_is_true_exactly_when_nonzero_and_then_invertible(case):
    _, a, _, _ = case
    assert bool(a) == any(a.coords)
    if a:
        assert a * (1 / a) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            1 / a


@PROPERTY
@given(laurent_polys(FRACTIONS.filter(bool), min_size=1), st.integers(2, 5))
def test_laurent_equality_ignores_the_order_of_a_stored_coefficient(f, k):
    z3 = Cyclo.zeta(3)
    at_3, at_3k = f * z3, f * z3.promote(3 * k)
    assert {c.order for c in at_3.terms.values()} == {3}
    assert {c.order for c in at_3k.terms.values()} == {3 * k}
    assert at_3 == at_3k
    assert at_3 != f * z3.promote(3 * k) * z3


@settings(PROPERTY, max_examples=60)
@given(laurent_polys(), laurent_polys(), nonrational_cyclos())
def test_exact_division_by_a_cyclotomic_leading_coefficient(f, h, a):
    g = h + LaurentPoly(3, {(3, 0, 0): a})
    assert g.terms[max(g.terms)] == a
    assert exact_divide(f * g, g) == f


@PROPERTY
@given(laurent_polys(), st.sampled_from(REFLECTIONS))
def test_a_simple_reflection_acts_as_an_involution(f, s):
    assert weyl_act(s, weyl_act(s, f)) == f


@PROPERTY
@given(points())
def test_render_point_round_trips_through_parse_point(p):
    assert parse_point(render_point(p), p.rank) == p
