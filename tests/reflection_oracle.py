"""Reflections as dense matrices: the reference for rank-one updates.

The library applies a reflection as x -> x - <x, coroot> root and never
builds its matrix.  Tests compare that with the dense matrix
I - root coroot^T acting on column vectors, and read signs of Weyl
elements and unimodularity off the exact determinant, by fraction-free
(Bareiss) elimination, which the library does not need.  Products of a
matrix with a vector or with the exponents of a Laurent polynomial, and
the inverse of a unimodular matrix, are kept here for the same reason.
"""

from operator import mul

from repring.lattice import Matrix, _shape, hermite_normal_form, identity_matrix
from repring.laurent import LaurentPoly


def reflection_matrix(root, coroot) -> tuple[tuple[int, ...], ...]:
    n = len(root)
    return tuple(tuple(int(r == c) - root[r] * coroot[c] for c in range(n))
                 for r in range(n))


def simple_reflections(d) -> list[tuple[tuple[int, ...], ...]]:
    return [reflection_matrix(a, av) for a, av in d.simple_pairs]


def det(a) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n, m = _shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    w = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    _, cols = _shape(a)
    if len(v) != cols:
        raise ValueError("vector length does not match matrix width")
    return [sum(map(mul, row, v)) for row in a]


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Invert an integer matrix with determinant +-1.

    The inverse is the U of the Hermite form U * a = I.  Raises
    ValueError if the matrix is singular or not unimodular (the inverse
    would not be integral).
    """
    n, m = _shape(a)
    if n != m:
        raise ValueError("cannot invert a non-square matrix")
    h, u = hermite_normal_form(a)
    if n and not any(h[-1]):
        raise ValueError("matrix is singular")
    if h != identity_matrix(n):
        raise ValueError("matrix is not unimodular; inverse is not integral")
    return u


def weyl_act(matrix: Matrix, f: LaurentPoly) -> LaurentPoly:
    """Relabel exponents by an integer matrix: e^n -> e^(matrix @ n)."""
    return LaurentPoly(f.rank, ((mat_vec(matrix, e), c) for e, c in f.terms.items()))
