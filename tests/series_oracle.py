"""The LaurentPoly reference for the dense truncated series of
`repring.completion`.

A truncated series there is a list with one coefficient per column of
`monomials_below(n, bound)`.  Here the same series is a `LaurentPoly` in
the shifted variables t, with its terms of degree >= bound dropped by
`cut` (which `repring.completion` used before the dense kernel replaced
it), and `dense` lists its coefficients over the columns.
"""

from __future__ import annotations

from repring.laurent import LaurentPoly


def cut(f: LaurentPoly, bound: int) -> LaurentPoly:
    """Drop the terms of degree >= bound of a polynomial in shifted variables."""
    return LaurentPoly(f.rank, {e: c for e, c in f.terms.items() if sum(e) < bound})


def shifted(values: list) -> list[LaurentPoly]:
    """The variables x_k = t_k + v_k as polynomials in the t_k."""
    n = len(values)
    return [LaurentPoly(n, {tuple(int(i == k) for i in range(n)): 1, (0,) * n: v})
            for k, v in enumerate(values)]


def dense(f: LaurentPoly, columns: list) -> list:
    """The coefficients of f over the columns; f must have no other terms."""
    index = {e: i for i, e in enumerate(columns)}
    row = [0] * len(columns)
    for e, c in f.terms.items():
        row[index[e]] = c
    return row
