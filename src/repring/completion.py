"""Finite presentations of invariant rings and their local truncations.

A presentation names a few invariant Laurent polynomials as generators,
possibly inverting some of them, and records polynomial relations among
them.  Around an evaluation point this data gives the quotients by powers
of the point's maximal ideal exactly, and so a finite certificate that
restriction to a centralizer subsystem is an isomorphism on each
truncation level, by linear algebra on the relations expanded around the
point as dense truncated series: a truncated Macaulay matrix, as in Dayton
and Zeng's and Mourrain's treatments of local multiplicity structure.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import Cyclo
from .errors import ResourceCapError
from .invariants import dominant_weights_in_box, orbit_sum
from .laurent import LaurentPoly, Span, inverse_monomial
from .linalg import RowSpace
from .poly import Poly, monomial_values, monomials_below, parse_poly
from .rootdata import (LeviDatum, RootDatum, centralizer_subsystem, is_invariant, json_int,
                       orbit, standard_datum)
from .spectrum import EvalPoint, _evaluate, _prepare, parse_point, support

# Columns of one side's Macaulay matrix (monomials in its variables of
# degree below j_max) beyond which the echelon form is refused.
MACAULAY_COLUMN_CAP = 1_000


class Presentation(namedtuple("Presentation", "rank images inverted relations")):
    """Invariant generators with relations, some generators inverted.

    Polynomial variables are y1..yg for the generators, followed by u{i}
    for each inverted generator i (1-based), in increasing order of i.
    The inversion relations u{i}*y{i} - 1 are stored alongside any
    user-supplied relations.  Inverted generators must have monomial
    images, so their Laurent inverses exist termwise.
    """

    __slots__ = ()

    def __new__(cls, rank: int, images: tuple[LaurentPoly, ...], inverted: tuple[int, ...],
                relations: tuple[Poly, ...]):
        self = super().__new__(cls, rank, images, inverted, relations)
        g = len(self.images)
        if g == 0:
            raise ValueError("a presentation needs at least one generator")
        if any(f.rank != self.rank for f in self.images):
            raise ValueError("generator image rank mismatch")
        if list(self.inverted) != sorted(set(self.inverted)):
            raise ValueError("inverted indices must be strictly increasing")
        for i in self.inverted:
            if not 1 <= i <= g:
                raise ValueError(f"inverted index {i} out of range 1..{g}")
            if len(self.images[i - 1].terms) != 1:
                raise ValueError(f"inverted generator {i} must have a monomial image")
        if any(rel.nvars != self.num_vars for rel in self.relations):
            raise ValueError("relation variable count mismatch")
        return self

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
        return [*self.images, *(inverse_monomial(self.images[i - 1]) for i in self.inverted)]

    def to_laurent(self, f: Poly) -> LaurentPoly:
        """Substitute generator images into a polynomial in the variables."""
        if f.nvars != self.num_vars:
            raise ValueError("polynomial variable count mismatch")
        return _substitute(f, self.laurent_values(), self.rank)

    def parse(self, text: str) -> Poly:
        return parse_poly(text, self.var_names)


def _strings(value, field: str) -> list[str]:
    """A config field that must be a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f'"{field}" must be a list of strings')
    return value


def inversion_relations(num_gens: int, inverted: tuple[int, ...]) -> list[Poly]:
    nv = num_gens + len(inverted)
    return [Poly(nv, {tuple(int(k in (i - 1, num_gens + pos)) for k in range(nv)): 1,
                      (0,) * nv: -1}) for pos, i in enumerate(inverted)]


def _image_from_spec(spec: dict, d: RootDatum) -> LaurentPoly:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"image spec must be a one-key object, got {spec!r}")
    key, value = next(iter(spec.items()))
    if key not in ("monomial", "terms", "orbit_sum"):
        raise ValueError(f"unknown image spec kind {key!r}")
    try:
        if key == "terms":
            return LaurentPoly(d.rank, [([json_int(x, key) for x in exps], Fraction(str(c)))
                                        for c, exps in value])
        vec = tuple(json_int(x, key) for x in value)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {key} image spec: {exc}") from None
    if key == "monomial":
        return LaurentPoly.monomial(vec, rank=d.rank)
    return LaurentPoly(d.rank, dict.fromkeys(orbit(d, vec), Fraction(1)))


def presentation_from_config(cfg: dict, d: RootDatum) -> Presentation:
    """A presentation on the character lattice of d from plain data.

    The config holds "images" (a list of one-key specs: "monomial",
    "terms", or "orbit_sum"), an optional "inverted" list of 1-based
    generator indices, and optional "relations" strings over y1..yg and
    the u-variables.  Orbit sums are taken over the Weyl group of d.
    """
    if not isinstance(cfg, dict) or not isinstance(cfg.get("images"), list):
        raise ValueError('a presentation must be a JSON object with an "images" list')
    images = tuple(_image_from_spec(s, d) for s in cfg["images"])
    try:
        inverted = tuple(sorted(json_int(i, "inverted") for i in cfg.get("inverted", [])))
    except TypeError as exc:
        raise ValueError(f'malformed "inverted": {exc}') from None
    if not all(1 <= i <= len(images) for i in inverted):
        raise ValueError(f'"inverted" indices must lie in 1..{len(images)}')
    names = [f"y{i + 1}" for i in range(len(images))] + [f"u{i}" for i in inverted]
    rels = [parse_poly(t, names) for t in _strings(cfg.get("relations", []), "relations")]
    rels.extend(inversion_relations(len(images), inverted))
    return Presentation(rank=d.rank, images=images, inverted=inverted, relations=tuple(rels))


class PresentationReport(namedtuple("PresentationReport", "images_invariant relations_vanish "
                                    "spans_orbit_sums degree_bound all_passed")):
    """Validation outcome for a presentation against a root datum."""

    __slots__ = ()


def validate_presentation(pres: Presentation, d: RootDatum,
                          height_bound: int) -> PresentationReport:
    """Check a presentation really presents the invariant subring of d.

    Three independent checks: every generator image is fixed by the
    simple reflections, every relation maps to zero in the Laurent ring,
    and every orbit sum of height up to the bound is a rational linear
    combination of variable monomials of bounded total degree.  That
    degree bound grows with the height and the largest generator height,
    so a failed span check means the generators are inadequate at that
    degree, not merely that the search stopped early.
    """
    if pres.rank != d.rank:
        raise ValueError("presentation rank does not match datum rank")
    invariant = all(is_invariant(d, img.terms) for img in pres.images)
    vanish = all(pres.to_laurent(rel).is_zero() for rel in pres.relations)

    bound = height_bound * (1 + max(img.height() for img in pres.images))
    # Variable monomials of total degree at most the bound.
    span = Span(monomial_values(pres.laurent_values(),
                                monomials_below(pres.num_vars, bound + 1)))

    # Orbit sums of height at most the bound, one per orbit.  Such an
    # orbit lies in the coordinate box, so its dominant weight does too;
    # orbits that leave the box are filtered out by their actual height.
    sums = (orbit_sum(d, lam) for lam in dominant_weights_in_box(d, height_bound))
    targets = [t for t in sums if t.height() <= height_bound]
    spans = all(t in span for t in targets)

    return PresentationReport(images_invariant=invariant, relations_vanish=vanish,
                              spans_orbit_sums=spans, degree_bound=bound,
                              all_passed=invariant and vanish and spans)


class TruncationReport(namedtuple("TruncationReport", "level dimension monomials")):
    """One quotient by a power of the maximal ideal: `monomials`, a basis
    over the residue field kappa of monomials in t = x - v in grevlex order,
    and `dimension` over Q, that basis size times [kappa:Q]."""

    __slots__ = ()


def _substitute(f: Poly, values: list[LaurentPoly], rank: int) -> LaurentPoly:
    """f at the given variable values of a Laurent rank, each monomial's
    value read from the table of monomial_values."""
    monos = monomial_values(values, f.terms)
    return LaurentPoly(rank, ((e, a * c) for m, c in zip(monos, f.terms.values())
                              for e, a in m.terms.items()))


class _SeriesRing:
    """Power series in n shifted variables t, cut below a degree bound.

    A series is one coefficient per column of monomials_below(n, bound),
    by ascending degree: ints at a rational point, numerators over a
    denominator kept beside them where the scale matters, and some Cyclo
    at a cyclotomic point.  table[i] lists the column of t^i * t^j for each
    column j of degree below the bound minus that of i, a prefix of them.
    """

    def __init__(self, n: int, bound: int) -> None:
        self.bound, self.columns = bound, monomials_below(n, bound)
        self.degrees = [sum(e) for e in self.columns]
        self.below = [bisect_left(self.degrees, d) for d in range(bound + 1)]
        self.one = [1] + [0] * (len(self.columns) - 1)
        # Exponents below the bound as radix-bound digits: codes add as exponents do.
        codes = [sum(x * bound ** k for k, x in enumerate(e)) for e in self.columns]
        self.code_column = {c: i for i, c in enumerate(codes)}
        self.table = [[self.code_column[c + c2] for c2 in codes[:self.below[bound - d]]]
                      for c, d in zip(codes, self.degrees)]

    def mul(self, f: list, g: list) -> list:
        """f * g cut below the bound; g's terms are listed once, so put the sparser second."""
        out, terms = [0] * len(f), [(j, b) for j, b in enumerate(g) if b]
        for a, row in zip(f, self.table):
            if a:
                lim = len(row)
                for j, b in terms:
                    if j >= lim:
                        break
                    out[row[j]] += a * b
        return out

    def variable(self, k: int, v) -> tuple:
        """x_k = t_k + v as (numerators, denominator), a Cyclo v over 1."""
        x = [0] * len(self.columns)
        x[0], den = (v, 1) if isinstance(v, Cyclo) else (v.numerator, v.denominator)
        if self.bound > 1:
            x[self.code_column[self.bound ** k]] = den
        return x, den

    def expand(self, f: Poly, shift: list[tuple]) -> tuple:
        """f(t + v) as (numerators, int denominator), given each variable."""
        monos = monomial_values([x for x, _ in shift], f.terms, self.one, self.mul)
        dens = [c.denominator * math.prod(d ** k for (_, d), k in zip(shift, e))
                for e, c in f.terms.items()]
        den, out = math.lcm(*dens), [0] * len(self.columns)
        for mono, d, c in zip(monos, dens, f.terms.values()):
            scale = c.numerator * (den // d)
            for i, x in enumerate(mono):
                if x:
                    out[i] += scale * x
        return out, den

    def inverse(self, f: tuple, nonzero_ring: bool) -> tuple:
        """1/f by the geometric series, as (numerators, denominator): with
        f = (c + h) / den, 1/f = den * sum_{k<bound} (-h)^k c^(bound-1-k) /
        c^bound, by Horner's rule.  c = 0 puts f in the maximal ideal, which
        is only invertible in the zero quotient, where any series serves."""
        (c, *h), den = f
        if not c and nonzero_ring:
            raise ValueError("element is not invertible in the truncated quotient")
        minus_h, acc, power = [0] + [-x for x in h], self.one, c
        for _ in range(1, self.bound):
            acc = self.mul(acc, minus_h)
            acc[0] += power
            power = power * c
        return [den * x for x in acc], power


def _conjugate_count(values: list) -> int:
    """[Q(v):Q] for a tuple of point values: the size of its Galois orbit."""
    cyclos = [v for v in values if isinstance(v, Cyclo)]
    order = math.lcm(*(c.order for c in cyclos))
    cyclos = [c.promote(order) for c in cyclos]
    return len({tuple(c.galois(k).coords for c in cyclos)
                for k in range(1, order + 1) if math.gcd(k, order) == 1})


def _check_width(pres: Presentation, bound: int) -> None:
    """Refuse a side whose Macaulay matrix has over MACAULAY_COLUMN_CAP
    columns, C(n + bound - 1, n), before its series ring is built."""
    n = pres.num_vars
    if (width := math.comb(n + bound - 1, n)) > MACAULAY_COLUMN_CAP:
        raise ResourceCapError(
            f"Macaulay matrix would have {width} columns ({n} variables "
            f"below degree {bound}), over MACAULAY_COLUMN_CAP = "
            f"{MACAULAY_COLUMN_CAP}")


class _MacaulayEchelon:
    """One side's relations around the point, expanded and echeloned once.

    The columns are those of the side's series ring: the monomials t^a of
    degree below the bound in t = x - v, by ascending degree.  Every
    relation f gives the row t^a * f(t + v), its numerators placed by the
    product table, for every t^a of degree below the bound minus the least
    degree of f(t + v); the cut leaves the other rows zero.  The RowSpace
    pivots on the first nonzero column, and t^a * f vanishes below degree
    j once |a| >= j, so the degree < j prefix of this one echelon form is
    that of level j: its non-pivot columns of degree < j are a basis of
    R/(I + m^j) over the residue field, and a normal form's prefix is the
    level-j normal form.
    """

    def __init__(self, pres: Presentation, p: EvalPoint, ring: _SeriesRing) -> None:
        if p.rank != pres.rank:
            raise ValueError("point rank does not match presentation rank")
        self.values = _evaluate(p, _prepare(pres.laurent_values()))
        self.kappa_degree = _conjugate_count(self.values)
        self.ring, self.columns = ring, ring.columns
        self.shift = [ring.variable(k, v) for k, v in enumerate(self.values)]
        width = len(self.columns)
        self.space = RowSpace(width)
        for f in pres.relations:
            terms = [(i, c) for i, c in enumerate(ring.expand(f, self.shift)[0]) if c]
            low = ring.bound - ring.degrees[terms[0][0]] if terms else 0
            for products in ring.table[:ring.below[low]]:
                row = [0] * width
                for i, c in terms:
                    if i >= len(products):
                        break
                    row[products[i]] = c
                self.space.add(row)
        pivots = set(self.space.pivots)
        self.free = [i for i in range(width) if i not in pivots]

    def free_below(self, level: int) -> list[int]:
        """Non-pivot columns of degree < level: a prefix of self.free."""
        return [i for i in self.free if i < self.ring.below[level]]

    def report(self, level: int) -> TruncationReport:
        monos = tuple(self.columns[i] for i in self.free_below(level))
        return TruncationReport(level, len(monos) * self.kappa_degree, monos)

    def normal_form(self, f: list) -> list:
        """A nonzero multiple of a series' normal form, on the non-pivot columns."""
        reduced = self.space.reduce(f)
        return [reduced[i] for i in self.free]


def truncated_quotient(pres: Presentation, p: EvalPoint,
                       level: int) -> TruncationReport:
    """The quotient of the presented ring by the level-th power of m_p, from
    the Macaulay echelon at the point's values v, each a Fraction or a Cyclo
    at one conjugate.  Over Q(zeta), m_p splits by CRT into the maximal
    ideals of the conjugates of v, with quotients of equal dimension, so the
    dimension over Q is the basis size times [kappa:Q], the number of
    distinct conjugates of v."""
    if level < 1:
        raise ValueError("truncation level must be at least 1")
    _check_width(pres, level)
    return _MacaulayEchelon(pres, p, _SeriesRing(pres.num_vars, level)).report(level)


class LevelReport(namedtuple("LevelReport", "level dim_source dim_target surjective")):
    """Comparison of one truncation level on both sides of restriction."""

    __slots__ = ()

    @property
    def isomorphic(self) -> bool:
        return self.surjective and self.dim_source == self.dim_target


class LocalIsoReport(namedtuple("LocalIsoReport", "levi restriction_valid levels")):
    """Outcome of the truncated local comparison at an evaluation point:
    the LeviDatum of the target, and one LevelReport per level."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return self.restriction_valid and all(l.isomorphic for l in self.levels)


def local_isomorphism_check(d: RootDatum, p: EvalPoint, source: Presentation,
                            target: Presentation, restriction: list, j_max: int,
                            levi: LeviDatum | None = None) -> LocalIsoReport:
    """Compare completions of the two presented rings at the point.

    The source presents the full invariant ring, the target presents the
    invariants of the centralizer subsystem of the point's support, and
    the restriction list gives the image of each source generator as a
    polynomial (or string) in the target's variables.  For each level j
    up to j_max, both sides are truncated by the j-th power of the
    point's maximal ideal and the induced map is checked to be a
    surjection between spaces of equal dimension, hence an isomorphism.
    A disconnected support, which no subtorus centralizer controls, is
    refused; a caller holding the centralizer (load_case_config) passes levi.

    Each side is one shifted Macaulay echelon at degree j_max, and level j
    is its degree < j prefix, with dimensions as in truncated_quotient.
    The source's shifted variables map to the restriction images expanded
    around the point, the u-variables to geometric-series inverses, all as
    dense series of the target's ring; surjectivity is the rank of the
    reduced images of the source's non-pivot monomials, every level's read
    off one echelon.  Either side's Macaulay matrix is capped at
    MACAULAY_COLUMN_CAP columns (ResourceCapError), checked before any
    series ring is built.
    """
    if j_max < 1:
        raise ValueError("need at least one truncation level")
    if levi is None:
        if not (sup := support(p)).connected:
            raise ValueError("point support is disconnected; "
                             "no centralizer comparison is available")
        levi = centralizer_subsystem(d, sup.kernel_lattice)
    rest = [target.parse(t) if isinstance(t, str) else t for t in restriction]
    if len(rest) != source.num_gens:
        raise ValueError("need one restriction image per source generator")
    # The restriction must reproduce each source generator exactly once
    # the target generators are substituted in.
    valid = all(target.to_laurent(r) == img for r, img in zip(rest, source.images))

    for pres in (source, target):
        _check_width(pres, j_max)
    rings = {n: _SeriesRing(n, j_max) for n in {source.num_vars, target.num_vars}}
    src = _MacaulayEchelon(source, p, rings[source.num_vars])
    tgt = _MacaulayEchelon(target, p, rings[target.num_vars])
    # Images of the source's shifted variables, expanded around the point
    # in the target's: the restriction images for the y-variables, their
    # inverses for the u-variables, each minus the source value (the
    # constant of the source's x = t + v).  Only the images' powers are
    # reduced, so each is kept up to a scalar.
    var_images = [tgt.ring.expand(r, tgt.shift) for r in rest]
    for i in source.inverted:
        var_images.append(tgt.ring.inverse(var_images[i - 1], bool(tgt.free)))
    t_images = [[nums[0] * v_den - x[0] * den] + [y * v_den for y in nums[1:]]
                for (nums, den), (x, v_den) in zip(var_images, src.shift)]
    images = monomial_values(t_images, [src.columns[i] for i in src.free],
                             tgt.ring.one, tgt.ring.mul)
    # One echelon of the images' normal forms, fed level by level: its rows
    # are zero left of their pivots, so level j's rank (n_s(j) rows cut to
    # n_t(j) columns) is the number of pivots left of n_t(j).
    space = RowSpace(len(tgt.free))
    levels = []
    for j in range(1, j_max + 1):
        trunc_s, trunc_t = src.report(j), tgt.report(j)
        width = len(trunc_t.monomials)
        for img in images[len(src.free_below(j - 1)):len(trunc_s.monomials)]:
            space.add(tgt.normal_form(img))
        # Over Q(zeta) both sides split into Galois-conjugate factors, and
        # the map is surjective exactly when it is on the factor at v.  A
        # local ring cannot map onto a product of several nonzero factors,
        # so a target with more conjugates than the source is not reached.
        surj = sum(col < width for col in space.pivots) == width and (
            width == 0 or src.kappa_degree == tgt.kappa_degree)
        levels.append(LevelReport(j, trunc_s.dimension, trunc_t.dimension, surj))
    return LocalIsoReport(levi=levi, restriction_valid=valid, levels=tuple(levels))


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
    rank, j_max = json_int(dd["rank"], "rank"), json_int(cfg["j_max"], "j_max")
    d = standard_datum(str(dd["type"]), rank, str(dd.get("variant", "simply_connected")))
    coords = _strings(cfg["point"], "point")
    if len(coords) != d.rank:
        raise ValueError(f"expected {d.rank} coordinates, got {len(coords)}")
    p = parse_point(",".join(coords), d.rank)
    source = presentation_from_config(cfg["source_presentation"], d)
    sup = support(p)
    if not sup.connected:
        raise ValueError("case point has disconnected support")
    levi = centralizer_subsystem(d, sup.kernel_lattice)
    target = presentation_from_config(cfg["target_presentation"], levi.datum)
    return {"datum": d, "point": p, "source": source, "target": target, "levi": levi,
            "restriction": _strings(cfg["restriction"], "restriction"), "j_max": j_max}
