"""Finite presentations of invariant rings and their local truncations.

A presentation names a few invariant Laurent polynomials as generators,
possibly inverting some of them, and records polynomial relations among
them.  Around an evaluation point this data supports exact computation
of the quotients by powers of the point's maximal ideal, and therefore
a finite certificate that restriction to a centralizer subsystem is an
isomorphism on each truncation level.  The quotients come from linear
algebra on the relations expanded around the point (a truncated
Macaulay matrix, as in Dayton and Zeng's and Mourrain's treatments of
local multiplicity structure); point ideals and Groebner bases remain
available for checking them independently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .cyclotomic import Cyclo, cyclotomic_polynomial
from .errors import ResourceCapError
from .groebner import groebner
from .laurent import LaurentPoly, coefficient_row, inverse_monomial, weyl_act
from .linalg import RowSpace, rank as matrix_rank
from .poly import Monomial, Poly, grevlex_key, make_elim_key, parse_poly
from .rootdata import (LeviDatum, RootDatum, WeylGroup, centralizer_subsystem,
                       orbit, standard_datum, weyl_group)
from .spectrum import EvalPoint, evaluate_poly, parse_point, support

# Columns of one side's Macaulay matrix (monomials in its variables of
# degree below j_max) beyond which the echelon form is refused.
MACAULAY_COLUMN_CAP = 1_000


@dataclass(frozen=True)
class Presentation:
    """Invariant generators with relations, some generators inverted.

    Polynomial variables are y1..yg for the generators, followed by u{i}
    for each inverted generator i (1-based), in increasing order of i.
    The inversion relations u{i}*y{i} - 1 are stored alongside any
    user-supplied relations.  Inverted generators must have monomial
    images, so their Laurent inverses exist termwise.
    """

    rank: int
    images: tuple[LaurentPoly, ...]
    inverted: tuple[int, ...]
    relations: tuple[Poly, ...]

    def __post_init__(self) -> None:
        g = len(self.images)
        if g == 0:
            raise ValueError("a presentation needs at least one generator")
        for f in self.images:
            if f.rank != self.rank:
                raise ValueError("generator image rank mismatch")
        if list(self.inverted) != sorted(set(self.inverted)):
            raise ValueError("inverted indices must be strictly increasing")
        for i in self.inverted:
            if not 1 <= i <= g:
                raise ValueError(f"inverted index {i} out of range 1..{g}")
            if len(self.images[i - 1].terms) != 1:
                raise ValueError(f"inverted generator {i} must have a monomial image")
        nv = self.num_vars
        for rel in self.relations:
            if rel.nvars != nv:
                raise ValueError("relation variable count mismatch")

    @property
    def num_gens(self) -> int:
        return len(self.images)

    @property
    def num_vars(self) -> int:
        return len(self.images) + len(self.inverted)

    @property
    def var_names(self) -> list[str]:
        return ([f"y{i + 1}" for i in range(self.num_gens)]
                + [f"u{i}" for i in self.inverted])

    def laurent_values(self) -> list[LaurentPoly]:
        """Image of every polynomial variable in the Laurent ring."""
        vals = list(self.images)
        vals.extend(inverse_monomial(self.images[i - 1]) for i in self.inverted)
        return vals

    def to_laurent(self, f: Poly) -> LaurentPoly:
        """Substitute generator images into a polynomial in the variables."""
        if f.nvars != self.num_vars:
            raise ValueError("polynomial variable count mismatch")
        value = f.substitute(self.laurent_values())
        if isinstance(value, (int, Fraction)):
            return LaurentPoly(self.rank, {(0,) * self.rank: value})
        return value

    def parse(self, text: str) -> Poly:
        return parse_poly(text, self.var_names)


def _strings(value, field: str) -> list[str]:
    """A config field that must be a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f'"{field}" must be a list of strings')
    return value


def inversion_relations(num_gens: int, inverted: tuple[int, ...]) -> list[Poly]:
    nv = num_gens + len(inverted)
    rels = []
    for pos, i in enumerate(inverted):
        e = [0] * nv
        e[i - 1] += 1
        e[num_gens + pos] += 1
        rels.append(Poly(nv, {tuple(e): Fraction(1)}) - Poly.constant(nv, 1))
    return rels


def _image_from_spec(spec: dict, rank: int, group: WeylGroup | None) -> LaurentPoly:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"image spec must be a one-key object, got {spec!r}")
    key, value = next(iter(spec.items()))
    if key not in ("monomial", "terms", "orbit_sum"):
        raise ValueError(f"unknown image spec kind {key!r}")
    try:
        if key == "terms":
            return LaurentPoly(rank, [(exps, Fraction(str(c))) for c, exps in value])
        vec = tuple(map(int, value))
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {key} image spec: {exc}") from None
    if key == "monomial":
        return LaurentPoly.monomial(vec, rank=rank)
    if group is None:
        raise ValueError("orbit_sum image spec needs a Weyl group")
    return LaurentPoly(rank, {e: Fraction(1) for e in orbit(group.generators, vec)})


def presentation_from_config(cfg: dict, rank: int,
                             group: WeylGroup | None = None) -> Presentation:
    """Build a presentation from a plain-data description.

    The config holds "images" (a list of one-key specs: "monomial",
    "terms", or "orbit_sum"), an optional "inverted" list of 1-based
    generator indices, and optional "relations" strings over y1..yg and
    the u-variables.  Orbit sums are taken over the supplied group.
    """
    if not isinstance(cfg, dict) or not isinstance(cfg.get("images"), list):
        raise ValueError('a presentation must be a JSON object with an "images" list')
    images = tuple(_image_from_spec(s, rank, group) for s in cfg["images"])
    try:
        inverted = tuple(sorted(int(i) for i in cfg.get("inverted", [])))
    except TypeError as exc:
        raise ValueError(f'malformed "inverted": {exc}') from None
    if not all(1 <= i <= len(images) for i in inverted):
        raise ValueError(f'"inverted" indices must lie in 1..{len(images)}')
    names = ([f"y{i + 1}" for i in range(len(images))]
             + [f"u{i}" for i in inverted])
    rels = [parse_poly(t, names) for t in _strings(cfg.get("relations", []), "relations")]
    rels.extend(inversion_relations(len(images), inverted))
    return Presentation(rank=rank, images=images, inverted=inverted,
                        relations=tuple(rels))


@dataclass(frozen=True)
class PresentationReport:
    """Validation outcome for a presentation against a reflection group."""

    images_invariant: bool
    relations_vanish: bool
    spans_orbit_sums: bool
    degree_bound: int
    all_passed: bool


def validate_presentation(pres: Presentation, group: WeylGroup,
                          height_bound: int) -> PresentationReport:
    """Check a presentation really presents the invariant subring.

    Three independent checks: every generator image is fixed by the
    group's generators, every relation maps to zero in the Laurent ring,
    and every orbit sum of height up to the bound is a rational linear
    combination of variable monomials of bounded total degree.  The
    internal degree bound grows with the requested height and the
    largest generator height; failing the span check therefore means
    the generators are inadequate at that degree, not merely that the
    search stopped early.
    """
    invariant = all(weyl_act(g, img) == img
                    for img in pres.images for g in group.generators)
    vanish = all(pres.to_laurent(rel).is_zero() for rel in pres.relations)

    max_h = max(img.height() for img in pres.images)
    bound = height_bound * (1 + max_h)
    values = pres.laurent_values()

    # Variable monomials of total degree at most the bound, each built
    # from the one of lower degree that drops its last variable.
    prods = {(): LaurentPoly.one(pres.rank)}
    for deg in range(1, bound + 1):
        for combo in combinations_with_replacement(range(len(values)), deg):
            prods[combo] = prods[combo[:-1]] * values[combo[-1]]
    products = list(prods.values())

    # Orbit sums of height at most the bound, one per orbit.  Every such
    # orbit meets the coordinate box, so scanning the box finds them all;
    # orbits that leave the box are filtered out by their actual height.
    reps: set[tuple[int, ...]] = set()
    for v in product(range(-height_bound, height_bound + 1), repeat=pres.rank):
        pts = orbit(group.generators, v)
        if max((abs(x) for e in pts for x in e), default=0) <= height_bound:
            reps.add(pts[0])
    targets = [LaurentPoly(pres.rank,
                           {e: Fraction(1) for e in orbit(group.generators, rep)})
               for rep in sorted(reps)]

    index: dict[tuple[int, ...], int] = {}
    for f in products + targets:
        for e in f.terms:
            if e not in index:
                index[e] = len(index)

    space = RowSpace(len(index))
    for f in products:
        space.add(coefficient_row(f, index))
    spans = all(space.contains(coefficient_row(t, index)) for t in targets)

    ok = invariant and vanish and spans
    return PresentationReport(images_invariant=invariant,
                              relations_vanish=vanish,
                              spans_orbit_sums=spans,
                              degree_bound=bound,
                              all_passed=ok)


def _value_to_z_poly(value, nvars: int, order: int) -> Poly:
    """Rewrite a scalar as a polynomial in the first variable z.

    Rational scalars become constants; cyclotomic scalars of compatible
    order become polynomials in z of degree below phi(order).
    """
    if isinstance(value, (int, Fraction)):
        return Poly.constant(nvars, Fraction(value))
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
        return [Poly.variable(nv, i) - Poly.constant(nv, Fraction(v))
                for i, v in enumerate(values)]
    order = math.lcm(*(v.order for v in values if isinstance(v, Cyclo)))
    total = nv + 1
    cyc = cyclotomic_polynomial(order)
    gens = [Poly(total, {
        tuple([k] + [0] * nv): Fraction(c) for k, c in enumerate(cyc) if c
    })]
    for i, v in enumerate(values):
        var = Poly.variable(total, i + 1)
        gens.append(var - _value_to_z_poly(v, total, order))
    gb = groebner(gens, key=make_elim_key(1), order_name="eliminate-z")
    out = []
    for g in gb.polys:
        if any(e[0] != 0 for e in g.terms):
            continue
        out.append(Poly(nv, {e[1:]: c for e, c in g.terms.items()}))
    if not out:
        raise AssertionError("elimination produced no rational relations")
    return out


@dataclass(frozen=True)
class TruncationReport:
    """Dimension data for one quotient by a power of the maximal ideal.

    `monomials` is a basis over the residue field kappa: monomials in the
    shifted variables t = x - v, in grevlex order.  `dimension` is the
    dimension over Q, that basis size times [kappa:Q].
    """

    level: int
    dimension: int
    monomials: tuple[Monomial, ...]


def _cut(f: LaurentPoly, bound: int) -> LaurentPoly:
    """Drop the terms of degree >= bound of a polynomial in shifted variables."""
    return LaurentPoly(f.rank, {e: c for e, c in f.terms.items() if sum(e) < bound})


def _expand(f: Poly, shift: list[LaurentPoly], bound: int) -> LaurentPoly:
    """f(t + v) cut below the bound, given the shifted variables t_k + v_k."""
    value = f.substitute(shift)
    if not isinstance(value, LaurentPoly):
        value = LaurentPoly(len(shift), {(0,) * len(shift): value})
    return _cut(value, bound)


def _series_inverse(f: LaurentPoly, bound: int, nonzero_ring: bool) -> LaurentPoly:
    """Inverse of f below the bound, by the geometric series.

    With constant term c and f = c + h, 1/f = (1/c) sum_k (-h/c)^k; h has
    no constant term, so the sum stops below the bound.  A zero constant
    term means f lies in the maximal ideal, which is only invertible when
    the quotient is the zero ring.
    """
    c = f.coefficient((0,) * f.rank)
    if not c:
        if nonzero_ring:
            raise ValueError("element is not invertible in the truncated quotient")
        return LaurentPoly.zero(f.rank)
    inv = Fraction(1) / c
    ratio = (f - c) * (-inv)
    total = term = LaurentPoly.one(f.rank)
    for _ in range(1, bound):
        term = _cut(term * ratio, bound)
        total = total + term
    return total * inv


def _conjugate_count(values: list) -> int:
    """[Q(v):Q] for a tuple of point values: the size of its Galois orbit."""
    cyclos = [v for v in values if isinstance(v, Cyclo)]
    if not cyclos:
        return 1
    order = math.lcm(*(c.order for c in cyclos))
    cyclos = [c.promote(order) for c in cyclos]
    return len({tuple(c.galois(k).coords for c in cyclos)
                for k in range(1, order + 1) if math.gcd(k, order) == 1})


def _macaulay_width(pres: Presentation, bound: int) -> int:
    """Column count C(n + bound - 1, n) of a side's Macaulay matrix, capped."""
    n = pres.num_vars
    width = math.comb(n + bound - 1, n)
    if width > MACAULAY_COLUMN_CAP:
        raise ResourceCapError(
            f"Macaulay matrix would have {width} columns ({n} variables "
            f"below degree {bound}), over MACAULAY_COLUMN_CAP = "
            f"{MACAULAY_COLUMN_CAP}")
    return width


class _MacaulayEchelon:
    """One side's relations around the point, expanded and echeloned once.

    The columns are the monomials t^a of degree below the bound in the
    shifted variables t = x - v, in grevlex order, so by ascending degree.
    Every relation f contributes the row t^a * f(t + v), cut below the
    bound, for every column t^a.  The RowSpace pivots on the first
    nonzero column, and t^a * f vanishes below degree j once |a| >= j, so
    the degree < j prefix of this one echelon form is the echelon form of
    level j: its non-pivot columns of degree < j are a basis of
    R/(I + m^j) over the residue field, and the prefix of a normal form
    is the level-j normal form.
    """

    def __init__(self, pres: Presentation, p: EvalPoint, bound: int) -> None:
        if p.rank != pres.rank:
            raise ValueError("point rank does not match presentation rank")
        n = pres.num_vars
        width = _macaulay_width(pres, bound)
        self.values = [evaluate_poly(p, img) for img in pres.laurent_values()]
        self.kappa_degree = _conjugate_count(self.values)
        self.columns = sorted(
            (tuple(combo.count(k) for k in range(n))
             for deg in range(bound)
             for combo in combinations_with_replacement(range(n), deg)),
            key=grevlex_key)
        index = {e: i for i, e in enumerate(self.columns)}
        self.index = index
        zero = (0,) * n
        self.shift = [LaurentPoly(n, {tuple(int(i == k) for i in range(n)): 1,
                                      zero: v})
                      for k, v in enumerate(self.values)]
        self.space = RowSpace(width)
        for f in pres.relations:
            expanded = _expand(f, self.shift, bound)
            for a in self.columns:
                row = [0] * width
                for e, c in expanded.terms.items():
                    col = index.get(tuple(x + y for x, y in zip(a, e)))
                    if col is not None:
                        row[col] = c
                self.space.add(row)
        pivots = set(self.space.pivots)
        self.free = [i for i in range(width) if i not in pivots]

    def free_below(self, level: int) -> list[int]:
        """Non-pivot columns of degree < level: a prefix of self.free."""
        return [i for i in self.free if sum(self.columns[i]) < level]

    def report(self, level: int) -> TruncationReport:
        monos = tuple(self.columns[i] for i in self.free_below(level))
        return TruncationReport(level=level,
                                dimension=len(monos) * self.kappa_degree,
                                monomials=monos)

    def normal_form(self, f: LaurentPoly) -> list:
        """Coordinates of f, cut below the bound, on the non-pivot columns."""
        reduced = self.space.reduce(coefficient_row(f, self.index))
        return [reduced[i] for i in self.free]


def truncated_quotient(pres: Presentation, p: EvalPoint,
                       level: int) -> TruncationReport:
    """The quotient of the presented ring by the level-th power of m_p.

    The variables are shifted to the point's values, t = x - v, with v a
    Fraction or a Cyclo at one conjugate, and the relations are echeloned
    as a Macaulay matrix on the monomials of degree below the level (see
    _MacaulayEchelon).  The non-pivot monomials are a basis over the
    residue field kappa.  Over Q(zeta) the ideal m_p splits by CRT into
    the maximal ideals of the Galois conjugates of v, all with quotients
    of the same dimension, so the dimension over Q is the basis size
    times [kappa:Q], the number of distinct conjugates of v.
    """
    if level < 1:
        raise ValueError("truncation level must be at least 1")
    return _MacaulayEchelon(pres, p, level).report(level)


@dataclass(frozen=True)
class LevelReport:
    """Comparison of one truncation level on both sides of restriction."""

    level: int
    dim_source: int
    dim_target: int
    surjective: bool

    @property
    def isomorphic(self) -> bool:
        return self.surjective and self.dim_source == self.dim_target


@dataclass(frozen=True)
class LocalIsoReport:
    """Outcome of the truncated local comparison at an evaluation point."""

    point: EvalPoint
    levi: LeviDatum
    restriction_valid: bool
    levels: tuple[LevelReport, ...]

    @property
    def all_passed(self) -> bool:
        return self.restriction_valid and all(l.isomorphic for l in self.levels)


def local_isomorphism_check(d: RootDatum, p: EvalPoint,
                            source: Presentation, target: Presentation,
                            restriction: list, j_max: int) -> LocalIsoReport:
    """Compare completions of the two presented rings at the point.

    The source presents the full invariant ring, the target presents the
    invariants of the centralizer subsystem of the point's support, and
    the restriction list gives the image of each source generator as a
    polynomial (or string) in the target's variables.  For each level j
    up to j_max, both sides are truncated by the j-th power of the
    point's maximal ideal and the induced map is checked to be a
    surjection between spaces of equal dimension, hence an isomorphism.
    The support must be connected, otherwise no subtorus centralizer
    controls the point and the comparison is refused.

    Each side is expanded around the point once, as one shifted Macaulay
    echelon at degree j_max (see _MacaulayEchelon), and every level is
    read off the degree < j prefix of it.  Dimensions over Q are the
    non-pivot counts times [kappa:Q], as in truncated_quotient.  The map
    sends the source's shifted variables to the restriction images
    expanded around the point, with the u-variables going to truncated
    geometric-series inverses; surjectivity is the rank of the reduced
    images of the source's non-pivot monomials.  Either side's Macaulay
    matrix is capped at MACAULAY_COLUMN_CAP columns (ResourceCapError).
    """
    if j_max < 1:
        raise ValueError("need at least one truncation level")
    sup = support(p)
    if not sup.connected:
        raise ValueError("point support is disconnected; "
                         "no centralizer comparison is available")
    levi = centralizer_subsystem(d, sup.kernel_lattice)
    rest = [target.parse(t) if isinstance(t, str) else t for t in restriction]
    if len(rest) != source.num_gens:
        raise ValueError("need one restriction image per source generator")
    # The restriction must reproduce each source generator exactly once
    # the target generators are substituted in.
    valid = all(target.to_laurent(r) == img
                for r, img in zip(rest, source.images))

    for pres in (source, target):
        _macaulay_width(pres, j_max)
    src = _MacaulayEchelon(source, p, j_max)
    tgt = _MacaulayEchelon(target, p, j_max)
    # Images of the source's shifted variables, expanded around the point
    # in the target's: the restriction images for the y-variables, their
    # inverses for the u-variables, each minus the source value.
    var_images = [_expand(r, tgt.shift, j_max) for r in rest]
    target_nonzero = bool(tgt.free)
    for i in source.inverted:
        var_images.append(_series_inverse(var_images[i - 1], j_max, target_nonzero))
    t_images = [img - v for img, v in zip(var_images, src.values)]
    images: dict[Monomial, LaurentPoly] = {}
    for e in src.columns:
        k = next((k for k, x in enumerate(e) if x), None)
        if k is None:
            images[e] = LaurentPoly.one(target.num_vars)
        else:
            prev = tuple(x - (i == k) for i, x in enumerate(e))
            images[e] = _cut(images[prev] * t_images[k], j_max)
    coords = [tgt.normal_form(images[src.columns[i]]) for i in src.free]
    levels = []
    for j in range(1, j_max + 1):
        trunc_s = src.report(j)
        trunc_t = tgt.report(j)
        width = len(trunc_t.monomials)
        rows = [row[:width] for row in coords[:len(trunc_s.monomials)]]
        # Over Q(zeta) both sides split into Galois-conjugate factors, and
        # the map is surjective exactly when it is on the factor at v.  A
        # local ring cannot map onto a product of several nonzero factors,
        # so a target with more conjugates than the source is not reached.
        surj = matrix_rank(rows) == width and (
            width == 0 or src.kappa_degree == tgt.kappa_degree)
        levels.append(LevelReport(level=j, dim_source=trunc_s.dimension,
                                  dim_target=trunc_t.dimension,
                                  surjective=surj))
    return LocalIsoReport(point=p, levi=levi, restriction_valid=valid,
                          levels=tuple(levels))


def load_case_config(path: str) -> dict:
    """Load a comparison case: datum, point, both presentations, map.

    The JSON object needs "datum" ({"type","rank","variant"}), "point"
    (list of coordinate literals), "source_presentation" and
    "target_presentation" (see presentation_from_config), "restriction"
    (list of polynomial strings in the target variables), and "j_max".
    """
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not isinstance(cfg.get("datum"), dict):
        raise ValueError('a case must be a JSON object with a "datum" object')
    dd = cfg["datum"]
    try:
        rank, j_max = int(dd["rank"]), int(cfg["j_max"])
    except TypeError as exc:
        raise ValueError(f"malformed case: {exc}") from None
    d = standard_datum(str(dd["type"]), rank, str(dd.get("variant", "simply_connected")))
    p = parse_point(",".join(_strings(cfg["point"], "point")), d.rank)
    big = weyl_group(d)
    source = presentation_from_config(cfg["source_presentation"], d.rank, big)
    sup = support(p)
    if not sup.connected:
        raise ValueError("case point has disconnected support")
    levi = centralizer_subsystem(d, sup.kernel_lattice)
    target = presentation_from_config(cfg["target_presentation"], d.rank,
                                      levi.weyl_subgroup)
    return {
        "datum": d,
        "point": p,
        "source": source,
        "target": target,
        "levi": levi,
        "restriction": _strings(cfg["restriction"], "restriction"),
        "j_max": j_max,
    }
