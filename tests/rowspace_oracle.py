"""The pivot-1 row space that `repring.linalg.RowSpace` replaced, kept as
a test oracle.

Every stored row is in reduced echelon form and normalized to 1 at its
pivot, the first nonzero column of the vector when it was added, with
all arithmetic in Fraction (or Cyclo).  The library's row space keeps
rational rows as primitive integer rows instead; both must find the
same pivots, ranks and memberships, and normal forms equal up to a
nonzero scalar.
"""

from __future__ import annotations

from fractions import Fraction


class RowSpace:
    """An incrementally built row space with exact membership tests.

    The stored rows are in reduced echelon form: each is normalized to 1
    at its pivot, the first nonzero column of the vector when it was
    added, and zero at every other row's pivot.  Arithmetic only touches
    the nonzero columns of each stored row.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list] = []      # reduced rows, pivot normalized to 1
        self.pivots: list[int] = []
        self._support: list[list[int]] = []   # nonzero columns of each row

    def reduce(self, vec) -> list:
        """The normal form of a vector: zero at every pivot column."""
        v = list(vec)
        for row, p, support in zip(self.rows, self.pivots, self._support):
            c = v[p]
            if c:
                for k in support:
                    v[k] = v[k] - c * row[k]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the space."""
        if len(vec) != self.width:
            raise ValueError("row width mismatch")
        v = self.reduce(vec)
        support = [i for i, x in enumerate(v) if x]
        if not support:
            return False
        piv = support[0]
        inv = Fraction(1) / v[piv]
        for k in support:
            v[k] = v[k] * inv
        for row, row_support in zip(self.rows, self._support):
            c = row[piv]
            if c:
                for k in support:
                    row[k] = row[k] - c * v[k]
                row_support[:] = [k for k in sorted(set(row_support).union(support))
                                  if row[k]]
        self.rows.append(v)
        self.pivots.append(piv)
        self._support.append(support)
        return True

    def contains(self, vec) -> bool:
        v = self.reduce(list(vec))
        return not any(v)

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(rows: list[list]) -> int:
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for r in rows:
        space.add(r)
    return space.rank


def solve_coordinates(rows: list[list], target: list) -> list[Fraction] | None:
    """Express target as a combination of the given rows.

    Returns one coefficient vector, or None when target is outside the
    span.  Coefficients correspond to rows in the order given.
    """
    if not rows:
        return None if any(target) else []
    width = len(rows[0])
    n = len(rows)
    # Augment each row with an indicator so elimination tracks the
    # combination that produced it.
    space = RowSpace(width + n)
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ValueError("row width mismatch")
        space.add(list(r) + [int(i == k) for k in range(n)])
    v = list(target) + [Fraction(0)] * n
    for row, p, support in zip(space.rows, space.pivots, space._support):
        c = v[p]
        if p < width and c:
            for k in support:
                v[k] = v[k] - c * row[k]
    if any(v[:width]):
        return None
    return [-x for x in v[width:]]
