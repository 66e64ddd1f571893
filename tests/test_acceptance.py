"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line and enforces its own wall-time
budget.  Everything is exact arithmetic; there are no tolerances.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from orbit_oracle import stabilizers, subsystem_elements, weyl_group
from reflection_oracle import det

from repring.cli import run as cli_run
from repring.completion import (Presentation, inversion_relations,
                                load_case_config, local_isomorphism_check,
                                validate_presentation)
from repring.invariants import (dominance_leq, dominant_weights_in_box,
                                fundamental_character_probe, orbit_sum)
from repring.lattice import (FinAbGroup, Sublattice, full_lattice,
                             hermite_normal_form, mat_mul, saturate,
                             smith_normal_form)
from repring.laurent import LaurentPoly, exact_divide
from repring.rootdata import (fundamental_group, gl_datum, positive_roots,
                              standard_datum, torus_datum)
from repring.spectrum import (EvalPoint, fiber_over_RG, parse_point,
                              stabilizer_check, support)
from repring.twist import (twist_augmentation_check,
                           twist_multiplicativity_check)

SC_BUILTINS = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
               ("B", 2), ("B", 3), ("B", 4),
               ("C", 2), ("C", 3), ("C", 4),
               ("D", 3), ("D", 4), ("G", 2)]

SL3_CASE = str(pathlib.Path(__file__).resolve().parent.parent
               / "cases" / "sl3_levi.json")


def finish(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    if elapsed >= limit:
        print(f"criterion {number}: FAIL  {label} "
              f"({elapsed:.2f} s, limit {limit:.0f} s)")
        raise AssertionError(f"criterion {number} exceeded {limit} s")
    print(f"criterion {number}: PASS  {label} ({elapsed:.2f} s)")


def sample_point(rng, rank):
    torsion = []
    rational = []
    for _ in range(rank):
        if rng.random() < 0.5:
            m = rng.choice([2, 3, 4, 5, 6])
            choices = [k for k in range(1, m) if Fraction(k, m).denominator == m]
            torsion.append(Fraction(rng.choice(choices), m))
        else:
            torsion.append(Fraction(0))
        coord = {}
        for prime in (2, 3, 5):
            if rng.random() < 0.4:
                coord[prime] = rng.choice([-2, -1, 1, 2])
        rational.append(coord)
    return EvalPoint.from_parts(torsion, rational)


def sl2_presentation():
    d = standard_datum("A", 1)
    return Presentation(rank=1, images=(orbit_sum(d, (1,)),),
                        inverted=(), relations=())


def sl3_presentation():
    d = standard_datum("A", 2)
    return Presentation(rank=2, images=(orbit_sum(d, (1, 0)),
                                        orbit_sum(d, (0, 1))),
                        inverted=(), relations=())


def test_criterion_1_fundamental_group_table():
    t0 = time.monotonic()
    for r in (1, 2, 3):
        assert fundamental_group(torus_datum(r)) == FinAbGroup(r, ())
    for n in (1, 2, 3, 4):
        assert fundamental_group(standard_datum("A", n)) == FinAbGroup(0, ())
    assert fundamental_group(standard_datum("A", 1, "adjoint")) == FinAbGroup(0, (2,))
    for n in (1, 2, 3, 4):
        assert fundamental_group(gl_datum(n)) == FinAbGroup(1, ())
    assert fundamental_group(standard_datum("C", 2)) == FinAbGroup(0, ())
    finish(1, "fundamental group table", t0, 1.0)


def test_criterion_2_simply_connected_centralizer_sweep():
    t0 = time.monotonic()
    checked = 0
    for label, rank in SC_BUILTINS:
        d = standard_datum(label, rank)
        roots = [list(a) for a, _ in positive_roots(d)]
        # Every rational span of a root subset is spanned by an
        # independent subset of at most `rank` roots, so subsets up to
        # that size reach every saturated sublattice exhaustively.
        seen = set()
        lattices = []
        for size in range(rank + 1):
            for subset in itertools.combinations(roots, size):
                sat = saturate(Sublattice(d.rank, list(subset)))
                if sat.hnf_rows not in seen:
                    seen.add(sat.hnf_rows)
                    lattices.append(sat)
        from repring.rootdata import centralizer_subsystem
        for sat in lattices:
            levi = centralizer_subsystem(d, sat)
            assert not levi.saturation_applied
            pi1 = fundamental_group(levi.datum)
            assert pi1.invariant_factors == (), (
                f"{d.name}: Levi at {sat.hnf_rows} has torsion {pi1}")
            checked += 1
    assert checked > 100
    finish(2, f"centralizer sweep over {checked} saturated sublattices", t0, 60.0)


def test_criterion_3_stabilizers_and_fibers():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    sampled = 0
    saw_torsion = False
    saw_rational = False
    for label, rank in [("A", 1), ("A", 2), ("C", 2)]:
        d = standard_datum(label, rank)
        w_order = weyl_group(d).order
        per_datum = 0
        attempts = 0
        while per_datum < 8 and attempts < 400:
            attempts += 1
            p = sample_point(rng, rank)
            if not support(p).connected:
                continue
            per_datum += 1
            sampled += 1
            saw_torsion = saw_torsion or any(t != 0 for t in p.torsion)
            saw_rational = saw_rational or any(p.rational)
            report = stabilizer_check(d, p)
            assert report.agree
            geo, idl = stabilizers(d, p)
            sub = subsystem_elements(d, p)
            assert report.geometric_order == report.ideal_order == report.subsystem_order
            assert (report.geometric_order, report.ideal_order,
                    report.subsystem_order) == (len(geo), len(idl), len(sub))
            assert set(geo) == set(idl) == sub
            fiber = fiber_over_RG(d, p)
            assert len(fiber) * report.geometric_order == w_order
        assert per_datum == 8
    assert sampled >= 20 and saw_torsion and saw_rational
    finish(3, f"stabilizer agreement on {sampled} connected points", t0, 60.0)


def test_criterion_4_support_identification():
    t0 = time.monotonic()
    for r in (1, 2, 3, 4):
        desc = support(EvalPoint.all_ones(r))
        assert desc.kernel_lattice == full_lattice(r)
        assert desc.quotient == FinAbGroup(0, ())
        assert desc.connected
    quarter = support(parse_point("zeta(4)^1,1", 2))
    assert quarter.quotient == FinAbGroup(0, (4,))
    assert not quarter.connected
    generic = support(parse_point("2", 1))
    assert generic.kernel_lattice == Sublattice(1, [])
    assert generic.quotient == FinAbGroup(1, ())
    assert generic.connected
    finish(4, "support identification", t0, 1.0)


def test_criterion_5_twist_checks():
    t0 = time.monotonic()
    rng = random.Random(550)
    all_sums = {}
    for label, rank in [("A", 1), ("A", 2), ("C", 2)]:
        d = standard_datum(label, rank)
        sums = [orbit_sum(d, lam) for lam in dominant_weights_in_box(d, 3)]
        all_sums[(label, rank)] = sums
        points = [sample_point(rng, rank) for _ in range(10)]
        for f in sums:
            for p in points:
                assert twist_augmentation_check(f, p)
    pairs = 0
    while pairs < 50:
        label, rank = rng.choice([("A", 1), ("A", 2), ("C", 2)])
        sums = all_sums[(label, rank)]
        f = rng.choice(sums)
        g = rng.choice(sums)
        p = sample_point(rng, rank)
        assert twist_multiplicativity_check(f, g, p)
        pairs += 1
    finish(5, f"twist augmentation and multiplicativity ({pairs} pairs)", t0, 60.0)


def test_criterion_6_local_truncation_comparison():
    t0 = time.monotonic()
    # (a) The trivial case: the all-ones point is central, the
    # centralizer is the whole group, and restriction is the identity.
    d = standard_datum("A", 1)
    pres = sl2_presentation()
    trivial = local_isomorphism_check(d, EvalPoint.all_ones(1),
                                      pres, pres, ["y1"], 4)
    assert trivial.all_passed
    assert [lv.level for lv in trivial.levels] == [1, 2, 3, 4]
    # (b) The generic rank-one point: centralizer is the torus.
    torus_pres = Presentation(rank=1, images=(LaurentPoly.monomial([1]),),
                              inverted=(1,),
                              relations=tuple(inversion_relations(1, (1,))))
    generic = local_isomorphism_check(d, parse_point("2", 1), pres,
                                      torus_pres, ["y1 + u1"], 4)
    assert generic.restriction_valid
    for j, lv in enumerate(generic.levels, start=1):
        assert lv.dim_source == j
        assert lv.dim_target == j
        assert lv.surjective
    assert generic.all_passed
    # (c) The curated rank-two Levi case.
    case = load_case_config(SL3_CASE)
    report = local_isomorphism_check(case["datum"], case["point"],
                                     case["source"], case["target"],
                                     case["restriction"], case["j_max"])
    assert case["j_max"] == 3
    assert report.all_passed
    finish(6, "local truncation comparisons", t0, 120.0)


def test_criterion_7_presentations_and_transition():
    t0 = time.monotonic()
    d1 = standard_datum("A", 1)
    d2 = standard_datum("A", 2)
    assert validate_presentation(sl2_presentation(), d1, 3).all_passed
    assert validate_presentation(sl3_presentation(), d2, 3).all_passed
    for d, bound in [(d1, 3), (d2, 2)]:
        probe = fundamental_character_probe(d, bound)
        assert probe.all_passed
        cols = {lam: j for j, lam in enumerate(probe.column_weights)}
        for i, lam in enumerate(probe.weights):
            row = probe.transition[i]
            assert row[cols[lam]] == 1
            for mu, j in cols.items():
                if row[j] != 0 and mu != lam:
                    assert dominance_leq(d, mu, lam) and not dominance_leq(d, lam, mu)
    finish(7, "presentation validation and unitriangular transition", t0, 60.0)


def test_criterion_8_oracle_suites():
    t0 = time.monotonic()
    rng = random.Random(880)
    for _ in range(110):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        u, dmat, v = smith_normal_form(a)
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert mat_mul(mat_mul(u, a), v) == dmat
        diag = [dmat[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert dmat[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and (x == 0 or y % x == 0)
        h, uh = hermite_normal_form(a)
        assert abs(det(uh)) == 1
        assert mat_mul(uh, a) == h
        nonzero = [row for row in h if any(row)]
        assert h == nonzero + [[0] * n] * (m - len(nonzero))
        last_pivot = -1
        for i, row in enumerate(nonzero):
            j = next(k for k, x in enumerate(row) if x)
            assert j > last_pivot
            last_pivot = j
            assert row[j] > 0
            for above in nonzero[:i]:
                assert 0 <= above[j] < row[j]
    for label, rank, order in [("A", 1, 2), ("A", 2, 6), ("C", 2, 8), ("G", 2, 12)]:
        assert weyl_group(standard_datum(label, rank)).order == order
    divisions = 0
    while divisions < 100:
        rank = rng.randint(1, 3)
        f = LaurentPoly(rank, {tuple(rng.randint(-3, 3) for _ in range(rank)):
                               Fraction(rng.randint(-5, 5))
                               for _ in range(rng.randint(1, 4))})
        g = LaurentPoly(rank, {tuple(rng.randint(-3, 3) for _ in range(rank)):
                               Fraction(rng.randint(-5, 5))
                               for _ in range(rng.randint(1, 3))})
        if f.is_zero() or g.is_zero():
            continue
        q = exact_divide(f * g, g)
        assert q == f
        divisions += 1
    finish(8, "normal form, Weyl order, and division oracles", t0, 60.0)


def test_criterion_9_cli_golden_outputs(capsys, tmp_path):
    t0 = time.monotonic()
    pres = tmp_path / "sl2_pres.json"
    pres.write_text(json.dumps({"images": [{"orbit_sum": [1]}]}), encoding="utf-8")
    expected = [
        (["pi1", "--type", "A", "--rank", "1", "--variant", "adjoint"],
         '{"command":"pi1","inputs_echo":{"datum":"A1-adjoint"},'
         '"result":{"free_rank":0,"invariant_factors":[2]}}\n'),
        (["support", "--type", "A", "--rank", "1",
          "--variant", "simply_connected", "--point", "1"],
         '{"command":"support","inputs_echo":'
         '{"datum":"A1-simply_connected","point":"1"},'
         '"result":{"connected":true,"kernel_lattice":[[1]],'
         '"quotient":{"free_rank":0,"invariant_factors":[]}}}\n'),
        (["twist-check", "--type", "A", "--rank", "1",
          "--variant", "simply_connected", "--point", "2", "--height", "3"],
         '{"command":"twist-check","inputs_echo":'
         '{"datum":"A1-simply_connected","height":3,"point":"2"},'
         '"result":{"all_passed":true}}\n'),
        (["roots", "--type", "A", "--rank", "1"],
         '{"command":"roots","inputs_echo":{"datum":"A1-simply_connected"},'
         '"result":{"coroots":[[-1],[1]],"count":2,"roots":[[-2],[2]]}}\n'),
        (["orbit", "--type", "A", "--rank", "2", "--weight", "1,0"],
         '{"command":"orbit","inputs_echo":'
         '{"datum":"A2-simply_connected","weight":"1,0"},'
         '"result":{"dominant_representative":[1,0],'
         '"orbit":[[-1,1],[0,-1],[1,0]],"size":3}}\n'),
        (["centralizer", "--type", "A", "--rank", "2", "--point", "2,4"],
         '{"command":"centralizer","inputs_echo":'
         '{"datum":"A2-simply_connected","point":"2,4"},'
         '"result":{"base_roots":[[2,-1]],"roots":[[-2,1],[2,-1]],'
         '"saturation_applied":false,"weyl_order":2}}\n'),
        (["fiber", "--type", "A", "--rank", "1", "--point", "2"],
         '{"command":"fiber","inputs_echo":'
         '{"datum":"A1-simply_connected","point":"2"},'
         '"result":{"points":["1/2","2"],"size":2}}\n'),
        (["stabilizer", "--type", "A", "--rank", "2", "--point", "2,4"],
         '{"command":"stabilizer","inputs_echo":'
         '{"datum":"A2-simply_connected","point":"2,4"},'
         '"result":{"agree":true,"geometric_order":2,"ideal_order":2,'
         '"subsystem_order":2}}\n'),
        (["character", "--type", "A", "--rank", "2", "--weight", "1,0"],
         '{"command":"character","inputs_echo":'
         '{"datum":"A2-simply_connected","weight":"1,0"},'
         '"result":{"character":"x1^-1*x2^1 + x2^-1 + x1^1","dimension":3}}\n'),
        (["nal-check", "--case", SL3_CASE, "--j-max", "2"],
         '{"command":"nal-check","inputs_echo":'
         f'{{"case":{json.dumps(SL3_CASE)},"datum":"A2-simply_connected","j_max":2}},'
         '"result":{"all_passed":true,"levels":['
         '{"dim_source":1,"dim_target":1,"isomorphic":true,"level":1,"surjective":true},'
         '{"dim_source":3,"dim_target":3,"isomorphic":true,"level":2,"surjective":true}],'
         '"restriction_valid":true}}\n'),
        (["validate", "--type", "A", "--rank", "1",
          "--presentation-file", str(pres), "--height", "3"],
         '{"command":"validate","inputs_echo":{"datum":"A1-simply_connected",'
         f'"height":3,"presentation_file":{json.dumps(str(pres))}}},'
         '"result":{"datum_ok":true,"fundamental_group":'
         '{"free_rank":0,"invariant_factors":[]},"presentation":'
         '{"all_passed":true,"degree_bound":6,"images_invariant":true,'
         '"relations_vanish":true,"spans_orbit_sums":true},'
         '"rank":1,"roots_count":2,"weyl_order":2}}\n'),
    ]
    for argv, golden in expected:
        code = cli_run(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == golden
        json.loads(out)
    with capsys.disabled():
        finish(9, "CLI golden outputs", t0, 10.0)
