"""Root data, reflection groups, and subsystem extraction.

Closed-form oracles: root counts n(n+1), 2n^2, 2n(n-1), 12 and Weyl
orders (n+1)!, 2^n n!, 2^(n-1) n!, 12 for the classical families, the
orbit-stabilizer identity, and recomposition of roots from their
simple-root coefficients.  The orbit closure and the group closure, which
apply reflections as rank-one updates, are compared with dense matrix
products over the whole group.
"""

import math
import random
import threading

import pytest

from repring import rootdata
from repring.errors import ResourceCapError
from repring.invariants import decompose_into_orbit_sums
from repring.laurent import LaurentPoly
from repring.lattice import Sublattice, full_lattice, mat_mul, mat_vec, transpose
from repring.rootdata import (RootDatum, all_roots, centralizer_subsystem,
                              datum_from_dict, dominant_representative,
                              dual_reflection_matrix, fundamental_group,
                              gl_datum, is_derived_simply_connected,
                              is_dominant, orbit, positive_roots, product,
                              reflection_matrix, root_coefficients, sign,
                              simple_reflections, stabilizer, standard_datum,
                              torus_datum, two_rho, weyl_group)


def test_cartan_matrices_frozen():
    assert standard_datum("A", 2).cartan_matrix() == [[2, -1], [-1, 2]]
    assert standard_datum("C", 2).cartan_matrix() == [[2, -1], [-2, 2]]
    assert standard_datum("B", 2).cartan_matrix() == [[2, -2], [-1, 2]]
    assert standard_datum("G", 2).cartan_matrix() == [[2, -1], [-3, 2]]
    assert standard_datum("B", 3).cartan_matrix() == [
        [2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert standard_datum("D", 4).cartan_matrix() == [
        [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def test_variants_share_the_cartan_matrix():
    for label, rank in [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        sc = standard_datum(label, rank, "simply_connected")
        ad = standard_datum(label, rank, "adjoint")
        assert sc.cartan_matrix() == ad.cartan_matrix()
        assert sc.name.endswith("simply_connected")
        assert ad.name.endswith("adjoint")


def test_datum_validation():
    with pytest.raises(ValueError):
        RootDatum(1, ((1,),), ((1,),))  # pairing is 1, not 2
    with pytest.raises(ValueError):
        standard_datum("E", 8)
    with pytest.raises(ValueError):
        standard_datum("G", 3)
    d = datum_from_dict({"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]})
    assert d.rank == 1
    with pytest.raises(ValueError):
        datum_from_dict({"rank": 1, "simple_roots": [[3]], "simple_coroots": [[1]]})


def root_count_formula(label, rank):
    if label == "A":
        return rank * (rank + 1)
    if label in ("B", "C"):
        return 2 * rank * rank
    if label == "D":
        return 2 * rank * (rank - 1)
    if label == "G":
        return 12
    raise AssertionError(label)


def weyl_order_formula(label, rank):
    if label == "A":
        return math.factorial(rank + 1)
    if label in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if label == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if label == "G":
        return 12
    raise AssertionError(label)


ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("C", 2), ("C", 3),
             ("D", 3), ("D", 4), ("G", 2)]


def test_root_counts_match_closed_forms():
    for label, rank in ALL_TYPES:
        for variant in ("simply_connected", "adjoint"):
            d = standard_datum(label, rank, variant)
            pairs = all_roots(d)
            assert len(pairs) == root_count_formula(label, rank)
            for a, av in pairs:
                assert d.pairing(a, av) == 2


def test_weyl_orders_match_closed_forms():
    for label, rank in ALL_TYPES:
        d = standard_datum(label, rank)
        assert weyl_group(d).order == weyl_order_formula(label, rank)


def test_weyl_group_is_a_group_of_signed_matrices():
    d = standard_datum("C", 2)
    w = weyl_group(d)
    assert len(set(w.elements)) == w.order
    signs = [sign(m) for m in w.elements]
    assert signs.count(1) == signs.count(-1) == w.order // 2
    for s in simple_reflections(d):
        assert s in w
        assert sign(s) == -1


def test_reflections_square_to_identity_and_negate_their_root():
    for label, rank in [("A", 2), ("B", 3), ("G", 2)]:
        d = standard_datum(label, rank)
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank))
                      for i in range(rank))
        for a, av in zip(d.simple_roots, d.simple_coroots):
            s = reflection_matrix(rank, a, av)
            prod = tuple(tuple(sum(s[i][k] * s[k][j] for k in range(rank))
                               for j in range(rank)) for i in range(rank))
            assert prod == ident
            image = tuple(sum(s[i][k] * a[k] for k in range(rank))
                          for i in range(rank))
            assert image == tuple(-x for x in a)


def test_dual_reflection_preserves_the_pairing():
    rng = random.Random(7171)
    d = standard_datum("G", 2)
    for a, av in zip(d.simple_roots, d.simple_coroots):
        s = reflection_matrix(2, a, av)
        sv = dual_reflection_matrix(2, a, av)
        for _ in range(20):
            x = [rng.randint(-5, 5) for _ in range(2)]
            y = [rng.randint(-5, 5) for _ in range(2)]
            sx = [sum(s[i][k] * x[k] for k in range(2)) for i in range(2)]
            svy = [sum(sv[i][k] * y[k] for k in range(2)) for i in range(2)]
            assert d.pairing(sx, svy) == d.pairing(x, y)


def test_positive_roots_split_the_system():
    for label, rank in [("A", 2), ("C", 2), ("G", 2), ("A", 3)]:
        d = standard_datum(label, rank)
        pos = positive_roots(d)
        pairs = all_roots(d)
        assert len(pos) * 2 == len(pairs)
        roots = {a for a, _ in pairs}
        for a, _ in pos:
            assert a in roots
            assert tuple(-x for x in a) in roots
            assert tuple(-x for x in a) not in {b for b, _ in pos}


def test_two_rho_pairs_to_two_on_simple_coroots():
    for label, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2)]:
        d = standard_datum(label, rank)
        r2 = two_rho(d)
        for av in d.simple_coroots:
            assert d.pairing(r2, av) == 2


def test_root_coefficients_recompose():
    for label, rank in [("A", 3), ("C", 2), ("G", 2)]:
        d = standard_datum(label, rank)
        for a, _ in positive_roots(d):
            coeffs = root_coefficients(d, a)
            assert all(c >= 0 and c == int(c) for c in coeffs)
            rebuilt = [0] * d.rank
            for c, alpha in zip(coeffs, d.simple_roots):
                rebuilt = [r + int(c) * x for r, x in zip(rebuilt, alpha)]
            assert tuple(rebuilt) == a


def test_orbit_stabilizer_identity():
    rng = random.Random(40320)
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        d = standard_datum(label, rank)
        w = weyl_group(d)
        # A centralizer's Weyl group, generated by all its reflections.
        sub = centralizer_subsystem(d, Sublattice(rank, d.simple_roots[:-1])).weyl_subgroup
        for group, gens in ((w, simple_reflections(d)), (sub, sub.generators)):
            for _ in range(12):
                v = [rng.randint(-3, 3) for _ in range(rank)]
                orb = sorted({tuple(mat_vec(m, v)) for m in group.elements})
                stab = stabilizer(group, v)
                assert len(orb) * stab.order == group.order
                assert orbit(gens, v) == orb


BUILTINS = [(label, rank, variant)
            for label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
                                ("G", 2)]
            for variant in ("simply_connected", "adjoint")]


def centralizer_groups(d, rng, count):
    """Weyl groups of centralizers cut out by two random roots; each is
    generated by the reflections of all its roots, most of them not simple."""
    roots = [a for a, _ in all_roots(d)]
    return [centralizer_subsystem(d, Sublattice(d.rank, rng.sample(roots, 2))).weyl_subgroup
            for _ in range(count)]


def test_orbit_matches_the_whole_group_on_every_builtin():
    rng = random.Random(362880)
    for label, rank, variant in BUILTINS:
        d = standard_datum(label, rank, variant)
        w = weyl_group(d)
        assert w.order <= 384
        groups = [(w, simple_reflections(d))]
        groups += [(g, g.generators) for g in centralizer_groups(d, rng, 2)]
        for group, gens in groups:
            for _ in range(3):
                v = [rng.randint(-2, 2) for _ in range(rank)]
                whole = sorted({tuple(mat_vec(m, v)) for m in group.elements})
                assert orbit(gens, v) == whole, (label, rank, variant, v)
    with pytest.raises(ValueError, match="reflections"):
        orbit([((0, -1), (1, 0))], (1, 0))


def test_group_closure_matches_dense_products():
    rng = random.Random(5040)
    for label, rank, variant in BUILTINS:
        d = standard_datum(label, rank, variant)
        ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for group in [weyl_group(d)] + centralizer_groups(d, rng, 1):
            inv_t = dict(zip(group.elements, group.inverse_transposes))
            assert len(inv_t) == group.order == len(group.inverse_transposes)
            reached = {tuple(map(tuple, ident))}
            frontier = list(reached)
            while frontier:
                m = frontier.pop()
                assert mat_mul(m, transpose(inv_t[m])) == ident
                for g in group.generators:
                    prod = tuple(map(tuple, mat_mul(m, g)))
                    assert inv_t[prod] == tuple(map(tuple, mat_mul(inv_t[m], transpose(g))))
                    if prod not in reached:
                        reached.add(prod)
                        frontier.append(prod)
            assert reached == set(group.elements), (label, rank, variant)


def test_dominant_representative_is_the_unique_dominant_orbit_point():
    rng = random.Random(6174)
    d = standard_datum("C", 2)
    w = weyl_group(d)
    for _ in range(25):
        v = [rng.randint(-4, 4) for _ in range(2)]
        rep = dominant_representative(d, v)
        assert is_dominant(d, rep)
        orb = sorted({tuple(mat_vec(m, v)) for m in w.elements})
        assert rep in orb
        assert [x for x in orb if is_dominant(d, x)] == [rep]


def test_fundamental_group_table():
    for r in (1, 2, 3):
        g = fundamental_group(torus_datum(r))
        assert (g.free_rank, g.invariant_factors) == (r, ())
    for n in (1, 2, 3):
        g = fundamental_group(standard_datum("A", n))
        assert (g.free_rank, g.invariant_factors) == (0, ())
    g = fundamental_group(standard_datum("A", 1, "adjoint"))
    assert (g.free_rank, g.invariant_factors) == (0, (2,))
    g = fundamental_group(standard_datum("A", 2, "adjoint"))
    assert (g.free_rank, g.invariant_factors) == (0, (3,))
    for n in (2, 3):
        g = fundamental_group(gl_datum(n))
        assert (g.free_rank, g.invariant_factors) == (1, ())
    g = fundamental_group(standard_datum("C", 2))
    assert (g.free_rank, g.invariant_factors) == (0, ())
    g = fundamental_group(standard_datum("B", 2, "adjoint"))
    assert (g.free_rank, g.invariant_factors) == (0, (2,))


def test_simply_connected_detection():
    assert is_derived_simply_connected(standard_datum("A", 2))
    assert is_derived_simply_connected(standard_datum("C", 2))
    assert not is_derived_simply_connected(standard_datum("A", 1, "adjoint"))
    assert is_derived_simply_connected(gl_datum(3))
    assert is_derived_simply_connected(torus_datum(2))


def test_product_datum():
    d = product(standard_datum("A", 1), torus_datum(1))
    assert d.rank == 2
    assert len(all_roots(d)) == 2
    g = fundamental_group(d)
    assert (g.free_rank, g.invariant_factors) == (1, ())
    both = product(standard_datum("A", 1), standard_datum("C", 2))
    assert weyl_group(both).order == 2 * 8
    assert len(all_roots(both)) == 2 + 8


def test_centralizer_subsystem_cases():
    d = standard_datum("A", 2)
    alpha1 = d.simple_roots[0]

    levi = centralizer_subsystem(d, Sublattice(2, [list(alpha1)]))
    assert len(levi.root_subset) == 2
    assert levi.weyl_subgroup.order == 2
    assert not levi.saturation_applied
    assert set(levi.roots) == {alpha1, tuple(-x for x in alpha1)}

    # The highest root alpha1 + alpha2 spans its own subsystem.
    high = tuple(a + b for a, b in zip(d.simple_roots[0], d.simple_roots[1]))
    levi_high = centralizer_subsystem(d, Sublattice(2, [list(high)]))
    assert len(levi_high.root_subset) == 2
    assert levi_high.weyl_subgroup.order == 2

    full = centralizer_subsystem(d, full_lattice(2))
    assert len(full.root_subset) == 6
    assert full.weyl_subgroup.order == 6

    empty = centralizer_subsystem(d, Sublattice(2, []))
    assert len(empty.root_subset) == 0
    assert empty.weyl_subgroup.order == 1
    assert empty.datum.num_simple == 0


def test_centralizer_saturates_non_primitive_input():
    d = standard_datum("A", 2)
    alpha1 = d.simple_roots[0]
    doubled = Sublattice(2, [[2 * x for x in alpha1]])
    levi = centralizer_subsystem(d, doubled)
    assert levi.saturation_applied
    assert set(levi.roots) == {alpha1, tuple(-x for x in alpha1)}


def test_resource_caps_raise():
    d = standard_datum("A", 2)
    with pytest.raises(ResourceCapError):
        weyl_group(d, cap=3)
    with pytest.raises(ResourceCapError):
        all_roots(d, cap=2)


def test_orbit_closure_is_capped(monkeypatch):
    # The affine A1 datum generates an infinite reflection group.
    d = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 50)
    with pytest.raises(ResourceCapError, match="WEYL_ORDER_CAP = 50"):
        orbit(simple_reflections(d), (1, 0))
    # A finite orbit of exactly the cap's size still closes.
    b2 = standard_datum("B", 2)
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 8)
    assert len(orbit(simple_reflections(b2), (1, 1))) == 8
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 7)
    with pytest.raises(ResourceCapError):
        orbit(simple_reflections(b2), (1, 1))


def test_dominant_descent_is_capped_on_an_infinite_datum():
    # On the affine A1 datum the descent from (-1, 0) never reaches a
    # dominant vector.  Each call runs in a daemon thread, so that a
    # descent that does not stop fails the test instead of hanging it.
    d = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
    for call in (lambda: dominant_representative(d, (-1, 0)),
                 lambda: decompose_into_orbit_sums(d, LaurentPoly(2, {(-1, 0): 1}))):
        errors = []

        def descend():
            try:
                call()
            except ResourceCapError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=descend, daemon=True)
        worker.start()
        worker.join(2.0)
        assert not worker.is_alive(), "the descent was still running after 2 s"
        assert errors == ["dominant descent exceeded ROOT_CLOSURE_CAP = 10000 steps"]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_dominant_descent_takes_one_step_per_positive_root(monkeypatch, family, rank):
    # -2 rho is regular and antidominant: its descent is a reduced word of
    # the longest element, which has one letter per positive root.
    d = standard_datum(family, rank)
    steps = len(positive_roots(d))
    start = tuple(-x for x in two_rho(d))
    monkeypatch.setattr(rootdata, "ROOT_CLOSURE_CAP", steps)
    assert dominant_representative(d, start) == two_rho(d)
    monkeypatch.setattr(rootdata, "ROOT_CLOSURE_CAP", steps - 1)
    with pytest.raises(ResourceCapError, match="ROOT_CLOSURE_CAP"):
        dominant_representative(d, start)


def test_generalized_cartan_sign_conditions_are_enforced():
    with pytest.raises(ValueError, match="generalized Cartan matrix"):
        RootDatum(2, ((2, 1), (3, 2)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="generalized Cartan matrix"):
        RootDatum(2, ((2, 0), (-1, 2)), ((1, 0), (0, 1)))
    # Affine type passes the sign conditions; its root closure is refused.
    affine = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="inconsistent coroot"):
        all_roots(affine)


def test_root_coefficients_outside_the_root_span():
    d = gl_datum(3)
    assert root_coefficients(d, (1, 0, -1)) == [1, 1]
    with pytest.raises(ValueError, match="not in the span"):
        root_coefficients(d, (1, 0, 0))
    with pytest.raises(ValueError, match="not in the span"):
        root_coefficients(torus_datum(2), (0, 1))
