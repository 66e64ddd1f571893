"""Normal forms and sublattice operations, checked against independent oracles.

The Smith form is validated two ways: the transformation identity
U*A*V == D with unimodular U, V, and the determinantal-divisor oracle
(the product of the first k invariant factors equals the gcd of all
k x k minors).  The Hermite form is validated against its defining
canonical-form properties, plus an exhaustive search over small
unimodular row transformations for one worked matrix.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from reflection_oracle import det, mat_vec

from repring.lattice import (FinAbGroup, Sublattice, coset_representative,
                             full_lattice, hermite_normal_form,
                             identity_matrix, is_member, kernel, mat_mul,
                             quotient_group, saturate, smith_normal_form)
from repring.linalg import rank as q_rank, solve_coordinates


def minor_gcd(a, k):
    """Gcd of all k x k minors; 0 when every minor vanishes."""
    m, n = len(a), len(a[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[a[r][c] for c in cols] for r in rows]
            g = gcd(g, det(sub))
    return g


def assert_unimodular(u):
    assert det(u) in (1, -1)


def assert_smith_shape(d):
    m, n = len(d), len(d[0])
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for x in diag:
        assert x >= 0
    nz = [x for x in diag if x != 0]
    assert diag[:len(nz)] == nz, "zero entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def assert_hermite_shape(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        assert pivots == [p for p in pivots if p is not None], \
            "zero rows must come after nonzero rows"
        j = nz[0]
        if pivots and pivots[-1] is not None:
            assert j > pivots[-1]
        assert row[j] > 0
        pivots.append(j)
    for i, j in enumerate(pivots):
        if j is None:
            continue
        for r in range(i):
            assert 0 <= h[r][j] < h[i][j]


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_smith_worked_example():
    a = [[2, 4], [4, 8]]
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert [d[0][0], d[1][1]] == [2, 0]


def test_smith_random_sweep():
    rng = random.Random(20240311)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        u, d, v = smith_normal_form(a)
        assert_unimodular(u)
        assert_unimodular(v)
        assert mat_mul(mat_mul(u, a), v) == d
        assert_smith_shape(d)
        # Determinantal-divisor oracle: prod of first k factors == gcd of
        # k x k minors, for every k.
        diag = [d[i][i] for i in range(min(m, n))]
        prod = 1
        for k in range(1, min(m, n) + 1):
            prod *= diag[k - 1]
            assert prod == minor_gcd(a, k)


def test_hermite_worked_example_exhaustive():
    # Independent oracle: search all unimodular 2x2 transforms with small
    # entries for the row-canonical form of this matrix.  Exactly one
    # canonical form exists and the implementation must reproduce it.
    a = [[2, 4], [1, 3]]
    found = set()
    span = range(-6, 7)
    for p in span:
        for q in span:
            for r in span:
                for s in span:
                    if p * s - q * r not in (1, -1):
                        continue
                    h = mat_mul([[p, q], [r, s]], a)
                    if h[0][0] > 0 and h[1][0] == 0 and h[1][1] > 0 \
                            and 0 <= h[0][1] < h[1][1]:
                        found.add(tuple(map(tuple, h)))
    assert found == {((1, 1), (0, 2))}
    h, u = hermite_normal_form(a)
    assert mat_mul(u, a) == h
    assert h == [[1, 1], [0, 2]]


def test_hermite_random_sweep():
    rng = random.Random(77001)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        h, u = hermite_normal_form(a)
        assert_unimodular(u)
        assert mat_mul(u, a) == h
        assert_hermite_shape(h)


def test_hermite_is_canonical_under_row_shuffles():
    rng = random.Random(5150)
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, bound=6)
        h1, _ = hermite_normal_form(a)
        perm = list(range(m))
        rng.shuffle(perm)
        shuffled = [a[i] for i in perm]
        # Also mix in a row operation, which preserves the row lattice.
        if m >= 2:
            shuffled[0] = [x + 2 * y for x, y in zip(shuffled[0], shuffled[1])]
        h2, _ = hermite_normal_form(shuffled)
        assert h1 == h2


def test_kernel_solves_and_has_full_corank():
    rng = random.Random(424242)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n, bound=7)
        ker = kernel(a)
        for row in ker.hnf_rows:
            assert mat_vec(a, list(row)) == [0] * m
        rows_q = [[Fraction(x) for x in row] for row in a]
        assert len(ker.hnf_rows) == n - q_rank(rows_q)


def test_kernel_is_saturated():
    rng = random.Random(99)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), bound=5)
        ker = kernel(a)
        assert saturate(ker) == ker


def test_saturation_worked_example():
    s = Sublattice(2, [[2, 4]])
    sat = saturate(s)
    assert sat.hnf_rows == ((1, 2),)
    q = quotient_group(2, s)
    assert q.free_rank == 1
    assert q.invariant_factors == (2,)
    assert quotient_group(2, sat).invariant_factors == ()


def test_saturation_against_rational_span_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        s = Sublattice(n, gens)
        sat = saturate(s)
        gens_q = [[Fraction(x) for x in g] for g in gens]
        # Box oracle: integer vectors in the rational span are exactly the
        # saturation's members.
        box = range(-3, 4)

        def walk(prefix):
            if len(prefix) == n:
                v = list(prefix)
                in_span = solve_coordinates(gens_q, [Fraction(x) for x in v]) is not None
                assert in_span == is_member(sat, v)
                return
            for x in box:
                walk(prefix + [x])

        walk([])


def test_saturation_index_is_finite():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
        s = Sublattice(n, gens)
        sat = saturate(s)
        assert saturate(sat) == sat
        q = quotient_group(n, s)
        index = 1
        for f in q.invariant_factors:
            index *= f
        for row in sat.hnf_rows:
            assert is_member(s, [index * x for x in row])


def test_full_lattice_and_trivial_quotients():
    full = full_lattice(3)
    assert quotient_group(3, full).order == 1
    assert saturate(full) == full
    two_z = Sublattice(1, [[2]])
    q = quotient_group(1, two_z)
    assert q.free_rank == 0
    assert q.invariant_factors == (2,)
    line = Sublattice(2, [[1, 0]])
    q2 = quotient_group(2, line)
    assert q2.free_rank == 1
    assert q2.invariant_factors == ()


def test_membership_and_coset_representatives():
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        s = Sublattice(n, gens)
        for g in gens:
            assert is_member(s, g)
        v = [rng.randint(-8, 8) for _ in range(n)]
        rep = coset_representative(s, v)
        diff = [a - b for a, b in zip(v, rep)]
        assert is_member(s, diff)
        assert coset_representative(s, list(rep)) == rep
        shift = list(gens[0])
        moved = [a + b for a, b in zip(v, shift)]
        assert coset_representative(s, moved) == rep


def test_sublattice_canonical_equality():
    s1 = Sublattice(2, [[1, 2], [0, 0]])
    s2 = Sublattice(2, [[2, 4], [1, 2]])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1 != Sublattice(2, [[1, 0]])


def test_finab_group_validation():
    g = FinAbGroup(free_rank=1, invariant_factors=(2, 4))
    assert not g.is_torsion_free
    assert FinAbGroup(2, ()).is_torsion_free
    with pytest.raises(ValueError):
        FinAbGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1, 2))
    with pytest.raises(ValueError):
        FinAbGroup(-1, ())


def test_identity_matrix_and_det():
    assert det(identity_matrix(4)) == 1
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[0, 1], [1, 0]]) == -1
    rng = random.Random(16180)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=6)
        b = random_matrix(rng, n, n, bound=6)
        assert det(mat_mul(a, b)) == det(a) * det(b)
