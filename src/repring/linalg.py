"""Small exact linear-algebra helpers over Q (and cyclotomic scalars).

Everything here works on dense rows of int, Fraction or Cyclo entries
and is only meant for the modest matrix sizes this package produces.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm


def _clear(v: list, row: list, p: int, support, exact: bool) -> list:
    """v with column p cleared by a row nonzero on support: int rows go
    v -> a*v - c*row, a = row[p] and c = v[p] over their gcd; others lose
    (c/a)*row and are never rescaled."""
    c, a = v[p], row[p]
    if exact:
        g = gcd(a, c)
        if g != a:
            v = [x * (a // g) for x in v]
        c //= g
    elif a != 1:
        c = c / Fraction(a)
    for k in support:
        v[k] = v[k] - c * row[k]
    return v


class RowSpace:
    """An incrementally built row space with exact membership tests.

    The rows are in echelon form by increasing pivot, the first nonzero
    column of the vector when it was added.  A row over Q is a primitive
    int row with a positive pivot, eliminated fraction-free (Bareiss, Math.
    Comp. 22, 1968); a row with a cyclotomic entry is 1 at its pivot.
    Arithmetic only touches the nonzero columns of each stored row."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list] = []      # primitive int rows, or 1 at the pivot
        self.pivots: list[int] = []     # increasing
        self._support: list[list[int]] = []   # nonzero columns of each row

    def reduce(self, vec) -> list:
        """A nonzero multiple of the normal form, zero at every pivot; the
        normal form itself for a vector with a cyclotomic entry."""
        v = list(vec)
        types = set(map(type, v))
        exact = types <= {int, Fraction}
        if exact and Fraction in types:
            scale = lcm(*(x.denominator for x in v))
            v = [x.numerator * (scale // x.denominator) for x in v]
        for row, p, support in zip(self.rows, self.pivots, self._support):
            if v[p]:
                exact = exact and type(row[p]) is int
                v = _clear(v, row, p, support, exact)
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
        if all(type(v[k]) is int for k in support):
            g = gcd(*(v[k] for k in support))
            g = -g if v[piv] < 0 else g
            for k in support:
                v[k] //= g
        else:
            inv = Fraction(1) / v[piv]
            for k in support:
                v[k] = v[k] * inv
        at = bisect_left(self.pivots, piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        self._support.insert(at, support)
        return True

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(rows: list[list]) -> int:
    space = RowSpace(len(rows[0]) if rows else 0)
    return sum(space.add(r) for r in rows)


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
        if p < width and v[p]:
            v = _clear(v, row, p, support, False)
    if any(v[:width]):
        return None
    return [-x for x in v[width:]]
