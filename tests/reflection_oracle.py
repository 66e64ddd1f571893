"""Reflections as dense matrices: the reference for rank-one updates.

The library applies a reflection as x -> x - <x, coroot> root and never
builds its matrix.  Tests compare that with the dense matrix
I - root coroot^T acting on column vectors, and read signs of Weyl
elements and unimodularity off the exact determinant, by fraction-free
(Bareiss) elimination, which the library does not need.
"""

from repring.lattice import _shape


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
