"""Presentations, point ideals, truncations, and the local comparison.

Point ideals with root-of-unity values are checked through reduced
Groebner bases, which are unique for a fixed order, so ideal equality
is decided exactly.  Truncation dimensions are compared against the
closed forms for smooth points: dim R/m^j = j in one variable and
j(j+1)/2 in two.  The shifted Macaulay echelon behind the local
comparison is checked level by level against the Groebner path in
`groebner_oracle`, and its one echelon of the restriction images, from
which every level's rank is read, against the pivot-1 reference of
`rowspace_oracle` ranking each level's block afresh.
"""

import pathlib
import random
from fractions import Fraction

import pytest

CASES_DIR = pathlib.Path(__file__).resolve().parent.parent / "cases"

from repring.completion import (LocalIsoReport, Presentation, _MacaulayEchelon, _SeriesRing,
                                inversion_relations, load_case_config,
                                local_isomorphism_check, presentation_from_config,
                                truncated_quotient, validate_presentation)
from repring.groebner import groebner, ideal_membership, reduce_poly
from repring.invariants import orbit_sum
from repring.laurent import LaurentPoly
from repring.linalg import RowSpace
from repring.poly import Poly, parse_poly
from repring.rootdata import standard_datum, torus_datum
from repring.spectrum import EvalPoint, parse_point

from groebner_oracle import (groebner_levels, groebner_truncation, point_ideal, quotient_inverse,
                             substitute)
from rowspace_oracle import rank as oracle_rank
from series_oracle import cut, shifted


def sl2_presentation():
    d = standard_datum("A", 1)
    return Presentation(rank=1, images=(orbit_sum(d, (1,)),),
                        inverted=(), relations=())


def sl3_presentation():
    d = standard_datum("A", 2)
    return Presentation(rank=2, images=(orbit_sum(d, (1, 0)),
                                        orbit_sum(d, (0, 1))),
                        inverted=(), relations=())


def torus_presentation():
    return Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                        inverted=(1,),
                        relations=tuple(inversion_relations(1, (1,))))


def same_ideal(gens_a, gens_b):
    return list(groebner(gens_a).polys) == list(groebner(gens_b).polys)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(rank=1, images=(), inverted=(), relations=())
    with pytest.raises(ValueError):
        Presentation(rank=2, images=(LaurentPoly.one(1),), inverted=(),
                     relations=())
    img = LaurentPoly.monomial([1])
    with pytest.raises(ValueError):
        Presentation(rank=1, images=(img,), inverted=(2,), relations=())
    with pytest.raises(ValueError):
        Presentation(rank=1, images=(img,), inverted=(1, 1), relations=())
    two_terms = LaurentPoly(1, {(1,): 1, (-1,): 1})
    with pytest.raises(ValueError):
        Presentation(rank=1, images=(two_terms,), inverted=(1,), relations=())
    with pytest.raises(ValueError):
        Presentation(rank=1, images=(img,), inverted=(),
                     relations=(Poly.variable(2, 0),))


def test_presentation_variables_and_values():
    pres = torus_presentation()
    assert pres.num_gens == 1
    assert pres.num_vars == 2
    assert pres.var_names == ["y1", "u1"]
    vals = pres.laurent_values()
    assert vals[0] == LaurentPoly.monomial([1])
    assert vals[1] == LaurentPoly.monomial([-1])
    rel = pres.relations[0]
    assert pres.to_laurent(rel).is_zero()


def test_to_laurent_substitution():
    pres = sl2_presentation()
    f = pres.parse("y1^2 - 2")
    c = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert pres.to_laurent(f) == c * c - LaurentPoly.one(1) * 2


def test_point_ideal_rational_values():
    pres = sl2_presentation()
    nv = pres.num_vars
    assert point_ideal(pres, EvalPoint.all_ones(1)) == [
        Poly.variable(nv, 0) - Poly.constant(nv, 2)]
    assert point_ideal(pres, parse_point("2", 1)) == [
        Poly.variable(nv, 0) - Poly.constant(nv, Fraction(5, 2))]
    # zeta(3) + zeta(3)^-1 is already rational, so no elimination runs.
    assert point_ideal(pres, parse_point("zeta(3)^1", 1)) == [
        Poly.variable(nv, 0) + Poly.constant(nv, 1)]


def test_point_ideal_cyclotomic_values():
    plain = Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                         inverted=(), relations=())
    got = point_ideal(plain, parse_point("zeta(4)^1", 1))
    assert same_ideal(got, [parse_poly("y1^2 + 1", ["y1"])])
    got = point_ideal(plain, parse_point("zeta(3)^1*2", 1))
    assert same_ideal(got, [parse_poly("y1^2 + 2*y1 + 4", ["y1"])])


def test_point_ideal_cyclotomic_with_inverse():
    pres = torus_presentation()
    names = pres.var_names
    got = point_ideal(pres, parse_point("zeta(4)^1", 1))
    expected = [parse_poly("y1^2 + 1", names), parse_poly("u1 + y1", names)]
    assert same_ideal(got, expected)


def test_point_ideal_rank_mismatch():
    with pytest.raises(ValueError):
        point_ideal(sl2_presentation(), EvalPoint.all_ones(2))


def test_truncated_dimensions_one_variable():
    pres = sl2_presentation()
    for j in range(1, 5):
        rep = truncated_quotient(pres, parse_point("2", 1), j)
        assert rep.dimension == j
        assert len(rep.monomials) == j


def test_truncated_dimensions_two_variables():
    pres = sl3_presentation()
    m = point_ideal(pres, parse_point("2,4", 2))
    assert m == [
        Poly.variable(2, 0) - Poly.constant(2, Fraction(17, 4)),
        Poly.variable(2, 1) - Poly.constant(2, 5),
    ]
    for j in range(1, 4):
        rep = truncated_quotient(pres, parse_point("2,4", 2), j)
        assert rep.dimension == j * (j + 1) // 2


def test_truncated_quotient_validation():
    pres = sl2_presentation()
    with pytest.raises(ValueError):
        truncated_quotient(pres, parse_point("2", 1), 0)
    with pytest.raises(ValueError):
        truncated_quotient(pres, EvalPoint.all_ones(3), 1)


def test_quotient_inverse_frozen():
    names = ["y1"]
    gb = groebner([parse_poly("y1^2 - 4*y1 + 4", names)])
    from repring.groebner import standard_monomials
    monos = tuple(standard_monomials(gb))
    inv = quotient_inverse(parse_poly("y1", names), gb, monos)
    assert inv == parse_poly("1 - 1/4*y1", names)
    prod = reduce_poly(inv * parse_poly("y1", names), list(gb.polys))
    assert prod == Poly.constant(1, 1)
    with pytest.raises(ValueError):
        quotient_inverse(parse_poly("y1 - 2", names), gb, monos)


def test_validate_presentation_sl2():
    d = standard_datum("A", 1)
    report = validate_presentation(sl2_presentation(), d, 3)
    assert report.images_invariant
    assert report.relations_vanish
    assert report.spans_orbit_sums
    assert report.all_passed


def test_validate_presentation_sl3():
    d = standard_datum("A", 2)
    report = validate_presentation(sl3_presentation(), d, 3)
    assert report.all_passed


def test_validate_presentation_catches_non_invariant_image():
    d = standard_datum("A", 1)
    bad = Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                       inverted=(), relations=())
    report = validate_presentation(bad, d, 2)
    assert not report.images_invariant
    assert not report.all_passed


def test_validate_presentation_catches_missing_span():
    # Without inverting the generator, negative powers are unreachable.
    t = torus_datum(1)
    pres = Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                        inverted=(), relations=())
    report = validate_presentation(pres, t, 2)
    assert report.images_invariant and report.relations_vanish
    assert not report.spans_orbit_sums
    assert not report.all_passed
    # Inverting it makes the span complete.
    good = torus_presentation()
    assert validate_presentation(good, t, 2).all_passed


def test_validate_presentation_catches_false_relation():
    pres = Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                        inverted=(), relations=(parse_poly("y1 - 2", ["y1"]),))
    report = validate_presentation(pres, torus_datum(1), 1)
    assert not report.relations_vanish


def test_presentation_from_config_specs():
    d = standard_datum("A", 2)
    cfg = {"images": [{"orbit_sum": [1, 0]}, {"orbit_sum": [0, 1]}]}
    pres = presentation_from_config(cfg, d)
    assert pres.images == sl3_presentation().images
    t = torus_datum(1)
    cfg2 = {"images": [{"terms": [["1", [1]], ["1", [-1]]]}]}
    pres2 = presentation_from_config(cfg2, t)
    assert pres2.images[0] == LaurentPoly(1, {(1,): 1, (-1,): 1})
    cfg3 = {"images": [{"monomial": [1]}], "inverted": [1]}
    pres3 = presentation_from_config(cfg3, t)
    assert pres3.relations == torus_presentation().relations
    with pytest.raises(ValueError):
        presentation_from_config({"images": [{"mystery": [1]}]}, t)
    # An orbit_sum weight of the wrong length has no orbit under d.
    with pytest.raises(ValueError):
        presentation_from_config({"images": [{"orbit_sum": [1]}]}, d)


def test_local_iso_trivial_centralizer():
    d = standard_datum("A", 1)
    pres = sl2_presentation()
    report = local_isomorphism_check(d, EvalPoint.all_ones(1),
                                     pres, pres, ["y1"], 4)
    assert isinstance(report, LocalIsoReport)
    assert report.restriction_valid
    assert len(report.levi.roots) == 2
    for lvl in report.levels:
        assert lvl.isomorphic
    assert report.all_passed


def test_local_iso_sl2_generic_point():
    d = standard_datum("A", 1)
    source = sl2_presentation()
    target = torus_presentation()
    report = local_isomorphism_check(d, parse_point("2", 1),
                                     source, target, ["y1 + u1"], 4)
    assert report.restriction_valid
    assert report.levi.roots == ()
    for j, lvl in enumerate(report.levels, start=1):
        assert lvl.level == j
        assert lvl.dim_source == j
        assert lvl.dim_target == j
        assert lvl.surjective
    assert report.all_passed


def test_local_iso_exercises_quotient_inverses():
    d = torus_datum(1)
    pres = torus_presentation()
    report = local_isomorphism_check(d, parse_point("2", 1),
                                     pres, pres, ["y1"], 3)
    assert report.all_passed


def test_local_iso_flags_wrong_restriction():
    d = standard_datum("A", 1)
    source = sl2_presentation()
    target = torus_presentation()
    report = local_isomorphism_check(d, parse_point("2", 1),
                                     source, target, ["y1"], 2)
    assert not report.restriction_valid
    assert not report.all_passed


def test_local_iso_rejects_disconnected_point():
    d = standard_datum("A", 1)
    pres = sl2_presentation()
    with pytest.raises(ValueError):
        local_isomorphism_check(d, parse_point("zeta(2)^1", 1),
                                pres, pres, ["y1"], 2)


def test_curated_levi_case():
    case = load_case_config(str(CASES_DIR / "sl3_levi.json"))
    assert case["j_max"] == 3
    assert case["datum"].rank == 2
    report = local_isomorphism_check(case["datum"], case["point"],
                                     case["source"], case["target"],
                                     case["restriction"], case["j_max"])
    assert report.restriction_valid
    dims = [(lvl.dim_source, lvl.dim_target) for lvl in report.levels]
    assert dims == [(1, 1), (3, 3), (6, 6)]
    assert report.all_passed


def levels_of(report):
    return [(lv.dim_source, lv.dim_target, lv.surjective) for lv in report.levels]


def test_macaulay_matches_groebner_on_curated_case():
    case = load_case_config(str(CASES_DIR / "sl3_levi.json"))
    args = (case["source"], case["target"], case["point"], case["restriction"], 5)
    report = local_isomorphism_check(case["datum"], case["point"],
                                     case["source"], case["target"],
                                     case["restriction"], 5)
    assert levels_of(report) == groebner_levels(*args)


@pytest.mark.parametrize("datum, source, target, point, restriction, valid, j_max", [
    ("A1", "sl2", "torus", "2", ["y1 + u1"], True, 4),
    ("T1", "torus", "torus", "2", ["y1"], True, 4),
    ("A1", "sl2", "torus", "2", ["y1"], False, 3),
    ("A1", "sl2", "torus", "zeta(3)^1*2", ["y1 + u1"], True, 4),
    ("A1", "sl2", "torus", "zeta(5)^2*2", ["y1 + u1"], True, 3),
    ("T1", "torus", "torus", "zeta(4)^1*3", ["y1"], True, 4),
])
def test_macaulay_matches_groebner_rank_one(datum, source, target, point,
                                            restriction, valid, j_max):
    d = standard_datum("A", 1) if datum == "A1" else torus_datum(1)
    pres = {"sl2": sl2_presentation(), "torus": torus_presentation()}
    p = parse_point(point, 1)
    report = local_isomorphism_check(d, p, pres[source], pres[target],
                                     restriction, j_max)
    got = levels_of(report)
    assert got == groebner_levels(pres[source], pres[target], p,
                                  restriction, j_max)
    # Closed forms: one smooth variable over a residue field of degree
    # [kappa:Q] = 1, 2 or 4.
    degree = {"2": 1, "zeta(3)^1*2": 2, "zeta(5)^2*2": 4, "zeta(4)^1*3": 2}[point]
    assert [(s, t) for s, t, _ in got] == [(degree * j, degree * j)
                                           for j in range(1, j_max + 1)]
    assert report.restriction_valid == valid


def test_macaulay_matches_groebner_rank_two_cyclotomic():
    d = torus_datum(2)
    p = parse_point("zeta(3)^1*2,zeta(3)^2*3", 2)
    torus = Presentation(rank=2, images=(LaurentPoly.monomial([1, 0]),
                                         LaurentPoly.monomial([0, 1])),
                         inverted=(1, 2),
                         relations=tuple(inversion_relations(2, (1, 2))))
    report = local_isomorphism_check(d, p, torus, torus, ["y1", "y2"], 3)
    assert levels_of(report) == [(2, 2, True), (6, 6, True), (12, 12, True)]
    # The Groebner oracle's elimination is slow here, so it checks two levels.
    assert levels_of(report)[:2] == groebner_levels(torus, torus, p, ["y1", "y2"], 2)
    # The source's value y1*y2 = 6 is rational while the target's are not:
    # the target has two conjugate factors, so the map cannot be onto.
    line = Presentation(rank=2, images=(LaurentPoly.monomial([1, 1]),),
                        inverted=(1,),
                        relations=tuple(inversion_relations(1, (1,))))
    report = local_isomorphism_check(d, p, line, torus, ["y1*y2"], 3)
    assert report.restriction_valid
    assert levels_of(report) == [(1, 2, False), (2, 6, False), (3, 12, False)]
    assert levels_of(report)[:2] == groebner_levels(line, torus, p, ["y1*y2"], 2)


def test_truncated_quotient_matches_standard_monomial_counts():
    case = load_case_config(str(CASES_DIR / "sl3_levi.json"))
    for pres in (case["source"], case["target"]):
        m = point_ideal(pres, case["point"])
        for j in range(1, 5):
            rep = truncated_quotient(pres, case["point"], j)
            assert rep.level == j
            assert rep.dimension == len(groebner_truncation(pres, m, j)[1])
            assert list(rep.monomials) == sorted(rep.monomials, key=sum)
    pres = torus_presentation()
    p = parse_point("zeta(5)^2*2", 1)
    rep = truncated_quotient(pres, p, 3)
    assert rep.dimension == 4 * len(rep.monomials) == 12
    assert rep.dimension == len(groebner_truncation(pres, point_ideal(pres, p), 3)[1])


def test_non_invertible_restriction_image_is_input_error():
    # The image y1 - 2 of the inverted source generator vanishes at the
    # point, so it lies in the maximal ideal and has no inverse.
    d = torus_datum(1)
    pres = torus_presentation()
    p = parse_point("2", 1)
    with pytest.raises(ValueError, match="not invertible in the truncated quotient"):
        local_isomorphism_check(d, p, pres, pres, ["y1 - 2"], 2)
    with pytest.raises(ValueError, match="not invertible in the truncated quotient"):
        groebner_levels(pres, pres, p, ["y1 - 2"], 2)


def singular_presentations():
    """30 seeded presentations whose extra relations lie in m or m^2 of a
    point, so their local rings there are not smooth, with that point."""
    rng = random.Random(2024)
    values = ["2", "3/2", "1", "zeta(3)^1*2", "zeta(4)^1*3", "zeta(6)^1*5"]
    for _ in range(30):
        rank = rng.choice([1, 2])
        images = []
        for _ in range(rank):
            e = tuple(rng.randint(-1, 1) for _ in range(rank))
            if not any(e):
                e = (1,) + (0,) * (rank - 1)
            images.append(LaurentPoly.monomial(list(e)) if rng.random() < 0.5
                          else LaurentPoly(rank, {e: 1, tuple(-x for x in e): 1}))
        inverted = tuple(i + 1 for i, img in enumerate(images)
                         if len(img.terms) == 1 and rng.random() < 0.5)
        base = Presentation(rank=rank, images=tuple(images), inverted=inverted,
                            relations=tuple(inversion_relations(rank, inverted)))
        p = parse_point(",".join(rng.choice(values) for _ in range(rank)), rank)
        m = point_ideal(base, p)
        nv = base.num_vars
        extra = []
        for _ in range(rng.randint(1, 2)):
            f = Poly.variable(nv, rng.randrange(nv)) + rng.randint(-2, 2)
            f = f * rng.choice(m)
            if rng.random() < 0.5:
                f = f * rng.choice(m)
            if not f.is_zero():
                extra.append(f)
        pres = Presentation(rank=rank, images=base.images, inverted=inverted,
                            relations=base.relations + tuple(extra))
        yield pres, p, m


def test_truncation_matches_groebner_on_random_singular_relations():
    # Extra relations in m or m^2 make the local rings non-smooth, so the
    # prefix reading is checked where relations start above degree one.
    for pres, p, m in singular_presentations():
        for j in range(1, 4 if pres.num_vars <= 3 else 3):
            assert (truncated_quotient(pres, p, j).dimension
                    == len(groebner_truncation(pres, m, j)[1]))


def test_the_macaulay_echelon_adds_no_row_the_cut_leaves_zero(monkeypatch):
    # Columns t^a with |a| + (least degree of f(t + v)) >= the bound give
    # rows the cut leaves zero, so they are not added: the pivots and free
    # columns are those of the echelon of every column's row, on both sides
    # of the curated case up to j_max 10.  Those rows are built here from
    # the LaurentPoly references (the oracles' substitute, shifted and cut),
    # not from the echelon's dense series.
    case = load_case_config(str(CASES_DIR / "sl3_levi.json"))
    added = []
    real_add = RowSpace.add

    def record_add(self, vec):
        added.append(any(vec))
        return real_add(self, vec)

    checked = 0
    for pres in (case["source"], case["target"]):
        for bound in range(1, 11):
            monkeypatch.setattr(RowSpace, "add", record_add)
            echelon = _MacaulayEchelon(pres, case["point"], _SeriesRing(pres.num_vars, bound))
            monkeypatch.undo()
            every = RowSpace(len(echelon.columns))
            for f in pres.relations:
                expanded = cut(substitute(f, shifted(echelon.values)), bound)
                for a in echelon.columns:
                    every.add([expanded.terms.get(tuple(x - y for x, y in zip(e, a)), 0)
                               for e in echelon.columns])
            assert echelon.space.pivots == every.pivots, bound
            assert echelon.free == [i for i in range(len(echelon.columns))
                                    if i not in every.pivots], bound
            checked += 1
    assert checked == 20 and added and all(added)


def oracle_levels(monkeypatch, d, p, source, target, restriction, j_max):
    """Each level's surjective flag, and the same flag recomputed from the
    recorded normal-form rows: the oracle's rank of the level's block,
    the first n_s rows cut to the first n_t columns, computed afresh."""
    echelons, rows = [], []
    init, normal_form = _MacaulayEchelon.__init__, _MacaulayEchelon.normal_form

    def record_init(self, *args):
        init(self, *args)
        echelons.append(self)

    def record_normal_form(self, f):
        rows.append(normal_form(self, f))
        return rows[-1]

    monkeypatch.setattr(_MacaulayEchelon, "__init__", record_init)
    monkeypatch.setattr(_MacaulayEchelon, "normal_form", record_normal_form)
    report = local_isomorphism_check(d, p, source, target, restriction, j_max)
    monkeypatch.undo()
    src, tgt = echelons
    got, expected = [], []
    for lvl in report.levels:
        n_s, n_t = len(src.free_below(lvl.level)), len(tgt.free_below(lvl.level))
        full = oracle_rank([row[:n_t] for row in rows[:n_s]]) == n_t
        expected.append(full and (n_t == 0 or src.kappa_degree == tgt.kappa_degree))
        got.append(lvl.surjective)
    return got, expected


def test_one_echelon_levels_match_oracle_ranks_on_curated_cases(monkeypatch):
    case = load_case_config(str(CASES_DIR / "sl3_levi.json"))
    got, expected = oracle_levels(monkeypatch, case["datum"], case["point"], case["source"],
                                  case["target"], case["restriction"], 8)
    assert got == expected == [True] * 8
    # At the central point 1, y1 - 2 maps to (x - 1)^2 / x in m^2: from
    # level two on its row's pivot lies right of the level's columns.
    got, expected = oracle_levels(monkeypatch, standard_datum("A", 1), parse_point("1", 1),
                                  sl2_presentation(), torus_presentation(), ["y1 + u1"], 5)
    assert got == expected == [True] + [False] * 4


def test_one_echelon_levels_match_oracle_ranks_on_random_singular_relations(monkeypatch):
    # Each presentation maps onto itself, and a line maps into it through
    # the product of its first and last generators: onto some targets at
    # every level, onto others at level one only, onto some at none.
    flags = set()
    for pres, p, _ in singular_presentations():
        d, g = torus_datum(pres.rank), pres.num_gens
        line = Presentation(rank=pres.rank, images=(pres.images[0] * pres.images[-1],),
                            inverted=(), relations=())
        for source, restriction in ((pres, [f"y{i + 1}" for i in range(g)]),
                                    (line, [f"y1*y{g}"])):
            got, expected = oracle_levels(monkeypatch, d, p, source, pres, restriction, 5)
            assert got == expected
            flags.add(tuple(got))
    assert {(True,) * 5, (True,) + (False,) * 4, (False,) * 5} <= flags
