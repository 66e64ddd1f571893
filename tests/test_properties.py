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
involutions.  |W| of a product of built-in data, counted from root
heights, is the size of the orbit of 2 rho.  Equal term signatures of a
prepared block at two rows give equal values, and the integer probe
check of tests/orbit_oracle.py passes exactly the rows whose signatures
are equal.  `render` of a Laurent polynomial of rank 0-4 is the string
tests/render_oracle.py grows term by term.  The generator-monomial
primitives agree with their definitions: the degree enumerator with a
filtered box, the monomial value table with the substitution of
tests/groebner_oracle.py, and span membership with solving for
coordinates.  The dense truncated series of `nal-check` agree with the
cut LaurentPoly reference of tests/series_oracle.py, over Fraction and
Cyclo coefficients: monomial values cut at every product are the cut of
the uncut values, products and expansions f(t + v) are the cut ones, and
f times its inverse is 1 below the bound when f has a nonzero constant.  At the command-line boundary, argv drawn from a small grammar of subcommands, data, point
literals and bounds never lets an exception escape, exits 0, 2 or 3 (2
for an option value of "--"), repeats itself byte for byte and finishes
in seconds.  Every test is derandomized, so a run always draws the same
examples.
"""

import io
import json
import pathlib
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from itertools import combinations, product as box
from math import comb, gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repring.cli import run  # noqa: E402
from repring.completion import _SeriesRing  # noqa: E402
from repring.cyclotomic import Cyclo, euler_phi  # noqa: E402
from repring.laurent import LaurentPoly, Span, coefficient_row, exact_divide, render  # noqa: E402
from repring.lattice import identity_matrix, kernel, mat_mul, smith_normal_form  # noqa: E402
from repring.linalg import rank as q_rank, solve_coordinates  # noqa: E402
from repring.poly import Poly, grevlex_key, monomial_values, monomials_below  # noqa: E402
from repring.rootdata import (is_invariant, product, standard_datum, torus_datum,  # noqa: E402
                              weyl_order)
from repring.spectrum import EvalPoint, _evaluate, _prepare, parse_point, render_rows  # noqa: E402
from groebner_oracle import substitute  # noqa: E402
from orbit_oracle import (_check_probe_terms, probe_signature, weyl_group,  # noqa: E402
                          weyl_order_by_orbit)
from reflection_oracle import (det, mat_inverse_unimodular, mat_vec,  # noqa: E402
                               simple_reflections, weyl_act)
from render_oracle import render as render_by_growing  # noqa: E402
from series_oracle import cut, dense, shifted  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
DATA = [standard_datum(label, 3) for label in "ABC"]
GROUPS = {d.name: weyl_group(d) for d in DATA}
REFLECTIONS = [s for d in DATA for s in simple_reflections(d)]


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
def laurent_polys(draw, coeffs=COEFFS, min_size=0, rank=3):
    """Rank 3 unless given, up to five terms with exponents in [-2, 2]; by
    default each coefficient is a Fraction or a Fraction times a root of
    unity of order up to 12."""
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    return LaurentPoly(rank, draw(st.dictionaries(exps, coeffs, min_size=min_size, max_size=5)))


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
@given(laurent_polys(), st.sampled_from(DATA), st.sampled_from(["raw", "symmetrized", "bumped"]))
def test_the_invariance_check_agrees_with_the_simple_reflection_matrices(f, d, form):
    # A symmetrized polynomial is invariant; bumping the coefficient of a
    # weight that W moves (no nonzero weight is fixed here) breaks that.
    if form != "raw":
        f = sum((weyl_act(m, f) for m in GROUPS[d.name].elements), LaurentPoly.zero(3))
    if form == "bumped":
        f = f + LaurentPoly.monomial((1, -1, 0), rank=3)
    by_matrices = all(weyl_act(s, f) == f for s in simple_reflections(d))
    assert is_invariant(d, f.terms) == by_matrices
    if form != "raw":
        assert by_matrices == (form == "symmetrized")


@PROPERTY
@given(st.integers(0, 4).flatmap(lambda rank: laurent_polys(
    st.one_of(st.integers(-3, 3), COEFFS), rank=rank)))
@example(LaurentPoly(2, {(-1, 0): -1, (0, 1): 2, (1, 1): Fraction(-5, 3)}))
@example(LaurentPoly(1, {(0,): -2, (1,): -1, (2,): Cyclo.zeta(5) * -1}))
@example(LaurentPoly(0, {(): Fraction(-7, 2)}))
@example(LaurentPoly(0, {(): Cyclo.zeta(3)}))
@example(LaurentPoly.zero(0))
@example(LaurentPoly.zero(3))
def test_render_matches_the_string_grown_term_by_term(f):
    assert render(f) == render_by_growing(f)


@PROPERTY
@given(points())
def test_render_point_round_trips_through_parse_point(p):
    assert parse_point(render_rows(p), p.rank) == p


@st.composite
def blocks_and_row_pairs(draw):
    """A block of rank-2 rational polynomials whose supports are closed
    under the coordinate swap, and two rows of one torsion order over the
    primes 2 and 3: the second the first swapped, its zeta entries moved by
    multiples of m, or drawn on its own.  The signatures must agree where
    the rows are swapped and each polynomial's coefficients are symmetric."""
    symmetric = draw(st.booleans())
    polys = []
    pair = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    for support in draw(st.lists(st.sets(pair, max_size=3), min_size=1, max_size=3)):
        coeffs = {e: draw(FRACTIONS) for e in sorted(support | {e[::-1] for e in support})}
        polys.append(LaurentPoly(2, {e: coeffs[min(e, e[::-1])] if symmetric else c
                                     for e, c in coeffs.items()}))
    m = draw(st.sampled_from([1, 2, 3, 4, 6]))
    shift = st.integers(-2, 2)

    def any_rows():
        zeta = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
        return m, draw(zeta), ((2, draw(pair)), (3, draw(pair)))

    rows = any_rows()
    if not draw(st.booleans()):
        return polys, rows, any_rows(), False
    (a, b), prime_rows = rows[1], rows[2]
    swapped = (m, (b + m * draw(shift), a + m * draw(shift)),
               tuple((q, row[::-1]) for q, row in prime_rows))
    return polys, rows, swapped, symmetric


@PROPERTY
@given(blocks_and_row_pairs())
@example(([LaurentPoly(2, {(1, 0): Fraction(1)}), LaurentPoly(2, {(-1, 0): Fraction(1)})],
          (1, (0, 0), ((2, (1, 0)), (3, (0, 0)))), (1, (0, 0), ((2, (-1, 0)), (3, (0, 0)))),
          False))
def test_equal_probe_signatures_give_equal_values(case):
    # The integer kernel passes the other rows exactly when the tuple
    # signatures agree.  In the example the two polynomials trade their
    # terms, which the kernel must tell from each keeping its own.
    polys, rows, other, must_agree = case
    block = _prepare(polys)
    signature = probe_signature(rows, block)
    agree = probe_signature(other, block) == signature
    assert not must_agree or agree
    if agree:
        assert _evaluate(other, block) == _evaluate(rows, block)
        _check_probe_terms(block, rows, [other])
    else:
        with pytest.raises(AssertionError, match="disagrees on an invariant probe"):
            _check_probe_terms(block, rows, [other])


FACTORS = [(label, rank) for label, ranks in [("A", range(1, 6)), ("B", range(2, 6)),
                                               ("C", range(2, 6)), ("D", range(3, 6)),
                                               ("G", [2]), ("T", [1])]
           for rank in ranks]


@st.composite
def products_of_rank_at_most_5(draw):
    d = None
    for label, rank in draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4)):
        if (d.rank if d else 0) + rank > 5:
            continue
        factor = torus_datum(rank) if label == "T" else standard_datum(
            label, rank, draw(st.sampled_from(["simply_connected", "adjoint"])))
        d = factor if d is None else product(d, factor)
    return d


@settings(PROPERTY, max_examples=60)
@given(products_of_rank_at_most_5())
def test_weyl_order_of_a_product_is_the_size_of_the_orbit_of_two_rho(d):
    assert weyl_order(d) == weyl_order_by_orbit(d)


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 5))
def test_monomials_below_is_the_grevlex_sorted_degree_filter_of_a_box(n, b):
    expected = sorted((e for e in box(range(b), repeat=n) if sum(e) < b), key=grevlex_key)
    assert monomials_below(n, b) == expected
    assert len(expected) == (comb(n + b - 1, n) if b else 0)


@st.composite
def variable_values(draw, low):
    """One to three values, Laurent polynomials of rank 2 with exponents in
    [low, 2], and up to six exponent vectors of entries at most 3."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(low, 2)] * 2)
    values = [LaurentPoly(2, draw(st.dictionaries(exps, COEFFS, max_size=3))) for _ in range(n)]
    return values, draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))


@PROPERTY
@given(variable_values(-2))
def test_monomial_values_agree_with_substitution(case):
    values, exponents = case
    got = monomial_values(values, exponents)
    assert got == [substitute(Poly(len(values), {e: 1}), values) for e in exponents]


def series(ring, f, bound):
    """f cut below the bound as a dense series of the ring."""
    return dense(cut(f, bound), ring.columns)


@PROPERTY
@given(variable_values(0), st.integers(1, 6))
def test_cut_monomial_values_are_the_cut_of_the_uncut_values(case, bound):
    # The monomial values of dense series, cut at every product of the
    # series ring, against the LaurentPoly monomial values cut once.
    values, exponents = case
    ring = _SeriesRing(2, bound)
    got = monomial_values([series(ring, f, bound) for f in values], exponents,
                          ring.one, ring.mul)
    assert got == [series(ring, f, bound) for f in monomial_values(values, exponents)]


@PROPERTY
@given(variable_values(0), st.integers(1, 6))
def test_series_products_are_the_cut_laurent_products(case, bound):
    values, _ = case
    ring = _SeriesRing(2, bound)
    f, g = values[0], values[-1]
    assert ring.mul(series(ring, f, bound), series(ring, g, bound)) == series(ring, f * g, bound)


@PROPERTY
@given(variable_values(0), st.integers(1, 6), st.booleans())
def test_series_inverses_invert_below_the_bound(case, bound, nonzero_ring):
    # f * inverse(f) is 1 below the bound, up to the denominator returned
    # beside it, when f has a nonzero constant term; otherwise f is refused
    # as a non-unit, unless the ring is the zero quotient.
    values, _ = case
    ring = _SeriesRing(2, bound)
    f = series(ring, values[0], bound)
    if not f[0]:
        if nonzero_ring:
            with pytest.raises(ValueError, match="not invertible"):
                ring.inverse((f, 1), nonzero_ring)
        return
    inverse, den = ring.inverse((f, 3), nonzero_ring)
    assert ring.mul(f, inverse) == [3 * den] + [0] * (len(f) - 1)


@PROPERTY
@given(variable_values(0), st.integers(1, 6))
def test_series_expansions_are_the_cut_laurent_substitutions(case, bound):
    # f(t + v) for f = sum of the drawn monomials with rational weights, at
    # the values' constant terms (Fraction or Cyclo): the numerators over
    # the denominator returned beside them.
    values, exponents = case
    v = [f.coefficient((0, 0)) for f in values]
    f = Poly(len(values), [(e, Fraction(k + 1, 2)) for k, e in enumerate(exponents)])
    ring = _SeriesRing(len(values), bound)
    nums, den = ring.expand(f, [ring.variable(k, x) for k, x in enumerate(v)])
    # substitute gives a number where f is constant, so a zero is added.
    expected = series(ring, substitute(f, shifted(v)) + LaurentPoly.zero(len(v)), bound)
    assert [x / Fraction(den) for x in nums] == expected


@st.composite
def spans_and_targets(draw):
    """Up to four rank-2 polynomials with exponents in [-1, 1] and a target:
    a combination of them, a polynomial with exponents in [-2, 2], or a
    combination plus one monomial outside the box."""
    exps = st.tuples(*[st.integers(-1, 1)] * 2)
    polys = draw(st.lists(st.builds(lambda t: LaurentPoly(2, t),
                                    st.dictionaries(exps, FRACTIONS, max_size=4)), max_size=4))
    kind = draw(st.sampled_from(["combination", "random", "outside"]))
    if kind == "random":
        wide = st.tuples(*[st.integers(-2, 2)] * 2)
        return polys, LaurentPoly(2, draw(st.dictionaries(wide, FRACTIONS, max_size=4)))
    target = sum((p * draw(FRACTIONS) for p in polys), LaurentPoly.zero(2))
    if kind == "outside":
        target = target + LaurentPoly.monomial((2, draw(st.integers(-2, 2))), draw(FRACTIONS))
    return polys, target


@PROPERTY
@given(spans_and_targets())
def test_span_membership_is_solving_for_coordinates(case):
    polys, target = case
    index = {e: i for i, e in enumerate({e for f in polys + [target] for e in f.terms})}
    rows = [coefficient_row(f, index) for f in polys]
    solvable = solve_coordinates(rows, coefficient_row(target, index)) is not None
    assert (target in Span(polys)) == solvable


# The command-line fuzz grammar.  "{dir}" stands for one directory of
# JSON inputs written once per module: data of rank at most 2, some of
# them of the wrong shape, a presentation of each shape, and a file that
# is not JSON.
FUZZ_FILES = {
    "a1.json": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    "a2.json": {"rank": 2, "simple_roots": [[2, -1], [-1, 2]],
                "simple_coroots": [[1, 0], [0, 1]]},
    "g2.json": {"rank": 2, "simple_roots": [[2, -1], [-3, 2]],
                "simple_coroots": [[1, 0], [0, 1]]},
    "affine.json": {"rank": 2, "simple_roots": [[2, -2], [-2, 2]],
                    "simple_coroots": [[1, 0], [0, 1]]},
    "torus.json": {"rank": 2, "simple_roots": [], "simple_coroots": []},
    "rank0.json": {"rank": 0, "simple_roots": [], "simple_coroots": []},
    "list.json": [1, 2],
    "bad_roots.json": {"rank": 1, "simple_roots": 5, "simple_coroots": [[2]]},
    "float_rank.json": {"rank": 1.5, "simple_roots": [[2]], "simple_coroots": [[1]]},
    "pres.json": {"images": [{"orbit_sum": [1]}]},
    "bad_pres.json": {"images": 3},
    "not_json.json": "{rank: 1",
}
FILE_RANKS = {"{dir}/" + name: doc["rank"] for name, doc in FUZZ_FILES.items()
              if isinstance(doc, dict) and type(doc.get("rank")) is int}
FILE_VALUES = ["{dir}/" + name for name in FUZZ_FILES] + ["{dir}/no-such.json", "--"]
SL3_CASE = str(pathlib.Path(__file__).resolve().parent.parent / "cases" / "sl3_levi.json")
BUILT_IN_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                  ("D", 3), ("G", 2)]
GOOD_POINT_TOKENS = ["1", "2", "1/2", "2^-1", "zeta(2)", "zeta(3)^1", "zeta(12)^5",
                     "zeta(6)^5*3", "999983"]
BAD_POINT_TOKENS = ["--", "zeta(0)", "zeta(4)^2", "1.5", "", "0", "-1"]
POINT_COMMANDS = {"support", "centralizer", "fiber", "stabilizer", "twist-check"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    for name, doc in FUZZ_FILES.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (root / name).write_text(text, encoding="utf-8")
    return str(root)


@st.composite
def cli_argv(draw):
    """One argv of the fuzz grammar, every option written --name=value."""
    command = draw(st.sampled_from(["pi1", "roots", "orbit", "support", "centralizer",
                                    "fiber", "stabilizer", "character", "twist-check",
                                    "nal-check", "validate"]))
    argv = [command]
    if command == "nal-check":
        argv.append("--case=" + draw(st.sampled_from([SL3_CASE, *FILE_VALUES])))
        if draw(st.booleans()):
            argv.append(f"--j-max={draw(st.integers(-1, 2))}")
        return argv
    source = draw(st.sampled_from(["type", "type", "type", "file", "file", "none", "both"]))
    rank = 1
    if source in ("type", "both"):
        label, rank = draw(st.one_of(st.sampled_from(BUILT_IN_TYPES),
                                     st.tuples(st.sampled_from("ABCDGE"), st.integers(-1, 3))))
        argv += [f"--type={label}", f"--rank={rank}"]
        if draw(st.booleans()):
            argv.append("--variant=" + draw(st.sampled_from(["simply_connected", "adjoint"])))
    if source in ("file", "both"):
        path = draw(st.sampled_from(FILE_VALUES))
        argv.append("--datum-file=" + path)
        rank = FILE_RANKS.get(path, rank)

    def literal(entries):
        # Mostly one entry per coordinate of the datum.
        n = draw(st.one_of(st.just(max(rank, 1)), st.integers(1, 3)))
        return ",".join(draw(st.lists(entries, min_size=n, max_size=n)))

    if command in POINT_COMMANDS:
        tokens = draw(st.sampled_from([GOOD_POINT_TOKENS, GOOD_POINT_TOKENS + BAD_POINT_TOKENS]))
        argv.append("--point=" + literal(st.sampled_from(tokens)))
    if command in ("orbit", "character"):
        argv.append("--weight=" + literal(st.one_of(st.integers(-1, 1).map(str),
                                                    st.integers(0, 1).map(str),
                                                    st.sampled_from(["--", "x", ""]))))
    if command == "twist-check" or command == "validate" and draw(st.booleans()):
        argv.append(f"--height={draw(st.integers(-1, 1))}")
    if command in ("roots", "validate") and draw(st.booleans()):
        argv.append(f"--cap={draw(st.integers(-1, 5))}")
    if command == "validate" and draw(st.booleans()):
        argv.append("--presentation-file=" + draw(st.sampled_from(FILE_VALUES)))
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return (code, out.getvalue(), err.getvalue()), time.perf_counter() - start


@settings(PROPERTY, max_examples=200)
@given(cli_argv())
@example(["fiber", "--type=A", "--rank=1", "--point=--"])
@example(["validate", "--type=A", "--rank=1", "--presentation-file=--"])
def test_the_cli_exits_0_2_or_3_deterministically_and_quickly(fuzz_dir, argv):
    argv = [arg.replace("{dir}", fuzz_dir) for arg in argv]
    first, seconds = _run_captured(argv)
    assert first[0] in (0, 2, 3), (argv, first)
    if any(arg.endswith("=--") for arg in argv):
        assert first[0] == 2 and first[1] == "", (argv, first)
    assert seconds < 5, (argv, seconds)
    second, seconds = _run_captured(argv)
    assert second == first, argv
    assert seconds < 5, (argv, seconds)
