"""The Groebner path for truncated local rings, kept as a test oracle.

Each truncation level is computed from scratch: a reduced Groebner basis
of the presentation relations plus every product of `level` generators
of the point ideal, its standard monomials, and normal forms against
it.  The map between two truncations is checked by reducing the images
of the source's standard monomials.  This is independent of the shifted
Macaulay echelon in `repring.completion`, so the two are compared level
by level.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from repring.completion import point_ideal
from repring.groebner import groebner, reduce_poly, standard_monomials
from repring.linalg import rank, solve_coordinates
from repring.poly import Poly


def groebner_truncation(pres, ideal_gens, level):
    """Reduced basis and standard monomials of R / (I + m^level)."""
    nv = pres.num_vars
    gens = list(pres.relations)
    for combo in combinations_with_replacement(ideal_gens, level):
        prod = Poly.constant(nv, 1)
        for f in combo:
            prod = prod * f
        gens.append(prod)
    gb = groebner(gens)
    return gb, tuple(standard_monomials(gb))


def quotient_coords(f, gb, monos):
    r = reduce_poly(f, list(gb.polys))
    pos = {e: i for i, e in enumerate(monos)}
    row = [Fraction(0)] * len(monos)
    for e, c in r.terms.items():
        if e not in pos:
            raise AssertionError("normal form left the standard monomial basis")
        row[pos[e]] = c
    return row


def quotient_inverse(f, gb, monos):
    """Inverse of f in the finite-dimensional quotient, if one exists."""
    nv = f.nvars
    rows = [quotient_coords(f * Poly(nv, {e: Fraction(1)}), gb, monos)
            for e in monos]
    one = quotient_coords(Poly.constant(nv, 1), gb, monos)
    sol = solve_coordinates(rows, one)
    if sol is None:
        raise ValueError("element is not invertible in the truncated quotient")
    out = Poly.zero(nv)
    for c, e in zip(sol, monos):
        if c:
            out = out + Poly(nv, {e: Fraction(c)})
    return out


def groebner_levels(source, target, p, restriction, j_max):
    """(dim_source, dim_target, surjective) for every level up to j_max."""
    rest = [target.parse(t) if isinstance(t, str) else t for t in restriction]
    m_source = point_ideal(source, p)
    m_target = point_ideal(target, p)
    out = []
    for j in range(1, j_max + 1):
        _, monos_s = groebner_truncation(source, m_source, j)
        gb_t, monos_t = groebner_truncation(target, m_target, j)
        var_images = list(rest)
        for i in source.inverted:
            var_images.append(quotient_inverse(rest[i - 1], gb_t, monos_t))
        rows = []
        for e in monos_s:
            mapped = Poly(source.num_vars, {e: Fraction(1)}).substitute(var_images)
            if isinstance(mapped, (int, Fraction)):
                mapped = Poly.constant(target.num_vars, Fraction(mapped))
            rows.append(quotient_coords(mapped, gb_t, monos_t))
        out.append((len(monos_s), len(monos_t), rank(rows) == len(monos_t)))
    return out
