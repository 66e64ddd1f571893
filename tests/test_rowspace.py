"""The integer row space against the pivot-1 reference, with hypothesis.

`repring.linalg.RowSpace` keeps a row over Q as a primitive integer row
and eliminates fraction-free, and a row with a cyclotomic entry at 1 on
its pivot; `tests/rowspace_oracle.py` is the row space it replaced, all
in Fraction (or Cyclo) and normalized to 1.  On random rational matrices
(dependent rows, zero rows, negative entries, large denominators), on
matrices with cyclotomic entries and on mixed ones, both must grow on
the same rows and agree on rank, pivots, membership and solvability, and
their normal forms must agree up to a nonzero scalar, exactly for a
vector with a cyclotomic entry.  Every stored row must be zero left of
its pivot and lie in the reference space, and be either primitive and
integer with a positive pivot entry on its nonzero columns or 1 at its
pivot; over Q it must be the former.  Every test is derandomized, with
the example database off, so a run always draws the same examples.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repring.cyclotomic import Cyclo  # noqa: E402
from repring.linalg import RowSpace, rank, solve_coordinates  # noqa: E402
from rowspace_oracle import RowSpace as OracleSpace  # noqa: E402
from rowspace_oracle import rank as oracle_rank  # noqa: E402
from rowspace_oracle import solve_coordinates as oracle_solve  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=7)
RATIONAL = st.one_of(
    st.just(Fraction(0)), st.just(0), st.integers(-9, 9), SMALL,
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 9)))
SCALAR = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def cyclo(order):
    return st.builds(Cyclo, st.just(order), st.lists(st.integers(-3, 3), min_size=1, max_size=4))


@st.composite
def matrices(draw, kinds):
    """Rows of one width, and probe vectors: each row or probe is drawn
    fresh from one of the entry kinds (cyclotomic entries of one order),
    or is zero, or is a combination of two rows drawn before it."""
    width = draw(st.integers(1, 6))
    order = draw(st.sampled_from([3, 4, 5, 6]))
    entries = {"rational": RATIONAL, "cyclotomic": st.one_of(SMALL, cyclo(order), cyclo(order))}

    def vector(pool):
        how = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if how == "zero":
            return [draw(st.sampled_from([0, Fraction(0)]))] * width
        if how == "combination" and pool:
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            s, t = draw(SCALAR), draw(SCALAR)
            return [s * x + t * y for x, y in zip(a, b)]
        entry = entries[draw(st.sampled_from(kinds))]
        return draw(st.lists(entry, min_size=width, max_size=width))

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        rows.append(vector(rows))
    probes = [vector(rows) for _ in range(draw(st.integers(1, 4)))]
    return rows, probes


def proportional(u, v) -> bool:
    """Whether u = lambda * v for some nonzero lambda."""
    nonzero = [i for i, x in enumerate(v) if x]
    if [i for i, x in enumerate(u) if x] != nonzero:
        return False
    if not nonzero:
        return True
    i = nonzero[0]
    return all(u[k] * v[i] == u[i] * v[k] for k in nonzero)


def combination(coeffs, rows):
    return [sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0))
            for k in range(len(rows[0]))]


def check_against_oracle(rows, probes, over_q):
    width = len(rows[0])
    ours, ref = RowSpace(width), OracleSpace(width)
    for row in rows:
        assert ours.add(row) == ref.add(row)
    assert ours.rank == ref.rank == rank(rows) == oracle_rank(rows)
    assert ours.pivots == sorted(ref.pivots)
    for row, p in zip(ours.rows, ours.pivots):
        assert not any(row[:p]) and row[p]
        assert ref.contains(row)
        nonzero = [x for x in row if x]
        if all(type(x) is int for x in nonzero):
            assert row[p] > 0 and gcd(*nonzero) == 1
        else:
            assert not over_q and row[p] == 1
    for v in probes:
        assert ours.contains(v) == ref.contains(v)
        mine, theirs = ours.reduce(v), ref.reduce(v)
        assert proportional(mine, theirs)
        if any(isinstance(x, Cyclo) for x in v):
            assert mine == theirs
        sol, ref_sol = solve_coordinates(rows, v), oracle_solve(rows, v)
        assert (sol is None) == (ref_sol is None)
        if sol is not None:
            assert combination(sol, rows) == v
            if ref.rank == len(rows):
                assert sol == ref_sol


@PROPERTY
@given(matrices(["rational"]))
def test_rational_rows_match_the_pivot_one_reference(case):
    check_against_oracle(*case, over_q=True)


@PROPERTY
@given(matrices(["cyclotomic"]))
def test_cyclotomic_rows_match_the_pivot_one_reference(case):
    check_against_oracle(*case, over_q=False)


@PROPERTY
@given(matrices(["rational", "cyclotomic"]))
def test_mixed_rows_match_the_pivot_one_reference(case):
    check_against_oracle(*case, over_q=False)
