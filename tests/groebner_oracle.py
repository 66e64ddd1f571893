"""The Groebner path for truncated local rings, kept as a test oracle.

Each truncation level is computed from scratch: a reduced Groebner basis
of the presentation relations plus every product of `level` generators
of the point ideal, its standard monomials, and normal forms against
it.  The map between two truncations is checked by reducing the images
of the source's standard monomials.  This is independent of the shifted
Macaulay echelon in `repring.completion`, so the two are compared level
by level.  The point ideal (with its block elimination order) and the
term-by-term substitution, which no command needs, live here with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from repring.completion import Presentation
from repring.cyclotomic import Cyclo, cyclotomic_polynomial
from repring.groebner import groebner, reduce_poly, standard_monomials
from repring.linalg import rank, solve_coordinates
from repring.poly import Monomial, Poly
from repring.spectrum import EvalPoint, evaluate_poly


def constant(nvars: int, c) -> Poly:
    """The constant polynomial c in nvars variables."""
    return Poly(nvars, {(0,) * nvars: Fraction(c)})


def variable(nvars: int, i: int) -> Poly:
    """The i-th variable (0-based) of nvars."""
    e = [0] * nvars
    e[i] = 1
    return Poly(nvars, {tuple(e): Fraction(1)})


def substitute(f: Poly, values: list) -> object:
    """Evaluate with arbitrary ring elements (anything with + and *)."""
    if len(values) != f.nvars:
        raise ValueError("need one value per variable")
    total = None
    for e, c in sorted(f.terms.items()):
        term = None
        for v, k in zip(values, e):
            for _ in range(k):
                term = v if term is None else term * v
        contrib = c if term is None else term * c
        total = contrib if total is None else total + contrib
    if total is None:
        return Fraction(0)
    return total


def make_elim_key(block: int):
    """Block order eliminating the first `block` variables.

    Any monomial involving an eliminated variable beats any that does
    not, so basis elements free of the block generate the elimination
    ideal.
    """
    def key(e: Monomial):
        head = e[:block]
        tail = e[block:]
        return (sum(head), tuple(-x for x in reversed(head)),
                sum(tail), tuple(-x for x in reversed(tail)))
    return key


def _value_to_z_poly(value, nvars: int, order: int) -> Poly:
    """Rewrite a scalar as a polynomial in the first variable z.

    Rational scalars become constants; cyclotomic scalars of compatible
    order become polynomials in z of degree below phi(order).
    """
    if isinstance(value, (int, Fraction)):
        return constant(nvars, Fraction(value))
    assert isinstance(value, Cyclo)
    return Poly(nvars, {(k,) + (0,) * (nvars - 1): q
                        for k, q in enumerate(value.promote(order).coords) if q})


def point_ideal(pres: Presentation, p: EvalPoint) -> list[Poly]:
    """Generators of the maximal ideal of evaluation at the point.

    Each presentation variable is pinned to its value at the point.  For
    rational values the ideal is generated by the obvious differences.
    Cyclotomic values are handled by adjoining one auxiliary variable z
    satisfying the relevant cyclotomic polynomial and eliminating it,
    which yields the kernel of evaluation as an ideal over the
    rationals.
    """
    if p.rank != pres.rank:
        raise ValueError("point rank does not match presentation rank")
    values = [evaluate_poly(p, img) for img in pres.laurent_values()]
    nv = pres.num_vars
    if all(isinstance(v, (int, Fraction)) for v in values):
        return [variable(nv, i) - constant(nv, Fraction(v))
                for i, v in enumerate(values)]
    order = math.lcm(*(v.order for v in values if isinstance(v, Cyclo)))
    total = nv + 1
    cyc = cyclotomic_polynomial(order)
    gens = [Poly(total, {
        tuple([k] + [0] * nv): Fraction(c) for k, c in enumerate(cyc) if c
    })]
    for i, v in enumerate(values):
        var = variable(total, i + 1)
        gens.append(var - _value_to_z_poly(v, total, order))
    gb = groebner(gens, key=make_elim_key(1))
    out = []
    for g in gb.polys:
        if any(e[0] != 0 for e in g.terms):
            continue
        out.append(Poly(nv, {e[1:]: c for e, c in g.terms.items()}))
    if not out:
        raise AssertionError("elimination produced no rational relations")
    return out


def groebner_truncation(pres, ideal_gens, level):
    """Reduced basis and standard monomials of R / (I + m^level)."""
    nv = pres.num_vars
    gens = list(pres.relations)
    for combo in combinations_with_replacement(ideal_gens, level):
        prod = constant(nv, 1)
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
    one = quotient_coords(constant(nv, 1), gb, monos)
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
            mapped = substitute(Poly(source.num_vars, {e: Fraction(1)}), var_images)
            if isinstance(mapped, (int, Fraction)):
                mapped = constant(target.num_vars, Fraction(mapped))
            rows.append(quotient_coords(mapped, gb_t, monos_t))
        out.append((len(monos_s), len(monos_t), rank(rows) == len(monos_t)))
    return out
