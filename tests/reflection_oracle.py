"""Reflections as dense matrices: the reference for rank-one updates.

The library applies a reflection as x -> x - <x, coroot> root and never
builds its matrix.  Tests compare that with the dense matrix
I - root coroot^T acting on column vectors.
"""


def reflection_matrix(root, coroot) -> tuple[tuple[int, ...], ...]:
    n = len(root)
    return tuple(tuple(int(r == c) - root[r] * coroot[c] for c in range(n))
                 for r in range(n))


def simple_reflections(d) -> list[tuple[tuple[int, ...], ...]]:
    return [reflection_matrix(a, av) for a, av in d.simple_pairs]
