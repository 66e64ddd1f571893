"""Root data, reflection groups, and subsystem extraction.

Closed-form oracles: root counts n(n+1), 2n^2, 2n(n-1), 12 and Weyl
orders (n+1)!, 2^n n!, 2^(n-1) n!, 12 for the classical families, the
orbit-stabilizer identity, and recomposition of roots from their
simple-root coefficients.  The orbit closure and the group closure, which
apply reflections as rank-one updates, are compared with dense matrix
products over the whole group; a centralizer's Weyl group, closed from
the base of its subsystem, with the dense closure of all its reflections.
|W| from the heights of the positive roots is compared with the size of
the orbit of 2 rho (tests/orbit_oracle.py).
"""

import itertools
import math
import random
import threading
from fractions import Fraction

import pytest
from orbit_oracle import weyl_group, weyl_order_by_orbit
from reflection_oracle import det, mat_vec, reflection_matrix, simple_reflections

from repring import rootdata
from repring.errors import ResourceCapError
from repring.invariants import decompose_into_orbit_sums
from repring.laurent import LaurentPoly
from repring.lattice import (Sublattice, full_lattice, is_member, mat_mul, quotient_group,
                             saturate, transpose)
from repring.linalg import solve_coordinates
from repring.rootdata import (RootDatum, all_roots, centralizer_subsystem,
                              datum_from_dict, dominant_representative,
                              fundamental_group, gl_datum, is_dominant, orbit,
                              positive_roots, product, standard_datum,
                              torus_datum, two_rho, weyl_order, weyl_walk)


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
        assert weyl_group(d).order == weyl_order(d) == weyl_order_formula(label, rank)


SC_BUILTINS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
               ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G", 2)]


def test_weyl_order_is_the_size_of_the_orbit_of_two_rho():
    data = [standard_datum(label, rank, variant) for label, rank in SC_BUILTINS
            for variant in ("simply_connected", "adjoint")]
    data += [product(standard_datum("B", 2), standard_datum("G", 2)),
             product(standard_datum("A", 2), standard_datum("A", 1)),
             gl_datum(4), torus_datum(3)]
    for d in data:
        assert weyl_order(d) == weyl_order_by_orbit(d), d.name


def test_weyl_order_of_every_centralizer_of_the_acceptance_sweep():
    # The saturated sublattices spanned by positive roots, as in the
    # acceptance criterion's centralizer sweep.
    checked = 0
    for label, rank in SC_BUILTINS:
        d = standard_datum(label, rank)
        roots = [list(a) for a, _ in positive_roots(d)]
        seen = set()
        for size in range(rank + 1):
            for subset in itertools.combinations(roots, size):
                sat = saturate(Sublattice(d.rank, list(subset)))
                if sat.hnf_rows not in seen:
                    seen.add(sat.hnf_rows)
                    levi = centralizer_subsystem(d, sat).datum
                    assert weyl_order(levi) == weyl_order_by_orbit(levi), (d.name, sat)
                    checked += 1
    assert checked > 100


def test_weyl_order_cap_bounds_the_order(monkeypatch):
    b3 = standard_datum("B", 3)
    assert weyl_order(b3, 48) == 48
    with pytest.raises(ResourceCapError, match="order 48 exceeds the cap 47"):
        weyl_order(b3, 47)
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 47)
    with pytest.raises(ResourceCapError, match="WEYL_ORDER_CAP = 47"):
        weyl_order(b3)
    # The trivial group passes any cap.
    assert weyl_order(torus_datum(2), 0) == weyl_order(gl_datum(1), -1) == 1


def test_weyl_order_refuses_linearly_dependent_simple_roots():
    # Affine A2 on Z^2: the three simple roots sum to 0, so the root
    # closure finds the six roots of A2 and accepts, but no base exists.
    d = RootDatum(2, ((2, -1), (-1, 2), (-1, -1)), ((1, 0), (0, 1), (-1, -1)))
    assert len(all_roots(d)) == 6
    for reader in (weyl_order, positive_roots, weyl_group, two_rho):
        with pytest.raises(ValueError, match="linearly dependent"):
            reader(d)
    with pytest.raises(ValueError, match="linearly dependent"):
        centralizer_subsystem(d, full_lattice(2))


def test_pairing_is_exact_on_rational_vectors():
    d = standard_datum("A", 2)
    assert d.pairing((Fraction(-1, 2), 0), (1, 0)) == Fraction(-1, 2)
    assert not is_dominant(d, (Fraction(-1, 2), Fraction(1, 2)))
    assert is_dominant(d, (Fraction(1, 2), 0))
    assert d.pairing((2, -1), (1, 3)) == -1


def test_weyl_group_is_a_group_of_signed_matrices():
    d = standard_datum("C", 2)
    w = weyl_group(d)
    assert len(set(w.elements)) == w.order
    signs = [det(m) for m in w.elements]
    assert signs.count(1) == signs.count(-1) == w.order // 2
    for s in simple_reflections(d):
        assert s in w.elements
        assert det(s) == -1


def test_reflections_square_to_identity_and_negate_their_root():
    for label, rank in [("A", 2), ("B", 3), ("G", 2)]:
        d = standard_datum(label, rank)
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank))
                      for i in range(rank))
        for a, av in zip(d.simple_roots, d.simple_coroots):
            s = reflection_matrix(a, av)
            prod = tuple(tuple(sum(s[i][k] * s[k][j] for k in range(rank))
                               for j in range(rank)) for i in range(rank))
            assert prod == ident
            image = tuple(sum(s[i][k] * a[k] for k in range(rank))
                          for i in range(rank))
            assert image == tuple(-x for x in a)


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
            coeffs = solve_coordinates(d.simple_roots, list(a))
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
        # A centralizer's Weyl group, closed from the base of its subsystem.
        levi = centralizer_subsystem(d, Sublattice(rank, d.simple_roots[:-1]))
        for group, datum in ((w, d), (levi_group(levi), levi.datum)):
            for _ in range(12):
                v = [rng.randint(-3, 3) for _ in range(rank)]
                orb = sorted({tuple(mat_vec(m, v)) for m in group.elements})
                stab = [m for m in group.elements if mat_vec(m, v) == v]
                assert len(orb) * len(stab) == group.order
                assert orbit(datum, v) == orb


BUILTINS = [(label, rank, variant)
            for label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
                                ("G", 2)]
            for variant in ("simply_connected", "adjoint")]


def levi_group(levi):
    """The Weyl group of a centralizer, closed from its base pairs."""
    return weyl_group(levi.datum)


def centralizer_groups(d, rng, count):
    """(Weyl group, datum) of centralizers cut out by two random roots;
    most of their base roots are not simple roots of d."""
    roots = [a for a, _ in all_roots(d)]
    levis = [centralizer_subsystem(d, Sublattice(d.rank, rng.sample(roots, 2)))
             for _ in range(count)]
    return [(levi_group(levi), levi.datum) for levi in levis]


def test_orbit_matches_the_whole_group_on_every_builtin():
    rng = random.Random(362880)
    for label, rank, variant in BUILTINS:
        d = standard_datum(label, rank, variant)
        w = weyl_group(d)
        assert w.order <= 384
        for group, datum in [(w, d)] + centralizer_groups(d, rng, 2):
            for _ in range(3):
                v = [rng.randint(-2, 2) for _ in range(rank)]
                whole = sorted({tuple(mat_vec(m, v)) for m in group.elements})
                assert orbit(datum, v) == whole, (label, rank, variant, v)
    with pytest.raises(ValueError, match="datum rank"):
        orbit(standard_datum("A", 2), (1, 0, 0))


def test_group_closure_matches_dense_products():
    rng = random.Random(5040)
    for label, rank, variant in BUILTINS:
        d = standard_datum(label, rank, variant)
        ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for group, datum in [(weyl_group(d), d)] + centralizer_groups(d, rng, 1):
            # The walk carries the standard basis as rows: m's are m^-T e_j,
            # the columns of m^-T.
            walk = weyl_walk(datum, ident)
            inv_t = {m: tuple(zip(*rows)) for m, rows in walk}
            assert list(inv_t) == list(group.elements)
            assert len(inv_t) == group.order == len(walk)
            reached = {tuple(map(tuple, ident))}
            frontier = list(reached)
            while frontier:
                m = frontier.pop()
                assert mat_mul(m, transpose(inv_t[m])) == ident
                for g in simple_reflections(datum):
                    prod = tuple(map(tuple, mat_mul(m, g)))
                    assert inv_t[prod] == tuple(map(tuple, mat_mul(inv_t[m], transpose(g))))
                    if prod not in reached:
                        reached.add(prod)
                        frontier.append(prod)
            assert reached == set(group.elements), (label, rank, variant)


def test_centralizer_weyl_groups_match_the_closure_of_all_their_reflections():
    # The oracle is the closure that centralizer_subsystem used to run: dense
    # products of the reflections of all 2N roots of the subsystem, both
    # signs.  The library reads W_Z off the base pairs of levi.datum.
    rng = random.Random(1729)
    for label, rank, variant in BUILTINS:
        d = standard_datum(label, rank, variant)
        pairs = all_roots(d)
        roots = [a for a, _ in pairs]
        kernels = [full_lattice(rank), Sublattice(rank, [])]
        kernels += [Sublattice(rank, rng.sample(roots, k)) for k in (1, 2)]
        kernels.append(Sublattice(rank, [[rng.randint(-2, 2) for _ in range(rank)]
                                         for _ in range(rank - 1)]))
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        for k in kernels:
            levi = centralizer_subsystem(d, k)
            inside = [(a, av) for a, av in pairs if is_member(levi.kernel, a)]
            assert list(levi.pairs) == inside
            gens = [reflection_matrix(*p) for p in inside]
            oracle = {ident}
            frontier = [ident]
            while frontier:
                m = frontier.pop()
                for g in gens:
                    prod = tuple(map(tuple, mat_mul(m, g)))
                    if prod not in oracle:
                        oracle.add(prod)
                        frontier.append(prod)
            case = (label, rank, variant, k.hnf_rows)
            assert set(levi_group(levi).elements) == oracle, case
            assert weyl_order(levi.datum) == len(oracle), case
            for _ in range(3):
                v = [rng.randint(-2, 2) for _ in range(rank)]
                assert orbit(levi.datum, v) == sorted(
                    {tuple(mat_vec(m, v)) for m in oracle}), case


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


def test_fundamental_group_is_the_quotient_by_all_coroots():
    # fundamental_group divides by the simple coroots alone; they must
    # span what every coroot of the closure spans.
    affine_a2 = datum_from_dict({"rank": 2,
                                 "simple_roots": [[2, -1], [-1, 2], [-1, -1]],
                                 "simple_coroots": [[1, 0], [0, 1], [-1, -1]]})
    data = [standard_datum(label, rank, variant) for label, rank, variant in BUILTINS]
    data += [gl_datum(n) for n in (1, 2, 3)] + [torus_datum(r) for r in (0, 1, 3)]
    data += [product(standard_datum("B", 2, "adjoint"), gl_datum(2)), affine_a2]
    for d in data:
        coroots = Sublattice(d.rank, [av for _, av in all_roots(d)])
        assert fundamental_group(d) == quotient_group(d.rank, coroots), d.name


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
    assert len(levi.pairs) == 2
    assert weyl_order(levi.datum) == levi_group(levi).order == 2
    assert not levi.saturation_applied
    assert set(levi.roots) == {alpha1, tuple(-x for x in alpha1)}

    # The highest root alpha1 + alpha2 spans its own subsystem.
    high = tuple(a + b for a, b in zip(d.simple_roots[0], d.simple_roots[1]))
    levi_high = centralizer_subsystem(d, Sublattice(2, [list(high)]))
    assert len(levi_high.pairs) == 2
    assert weyl_order(levi_high.datum) == levi_group(levi_high).order == 2

    full = centralizer_subsystem(d, full_lattice(2))
    assert len(full.pairs) == 6
    assert weyl_order(full.datum) == levi_group(full).order == 6

    empty = centralizer_subsystem(d, Sublattice(2, []))
    assert len(empty.pairs) == 0
    assert weyl_order(empty.datum) == levi_group(empty).order == 1
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


def test_weyl_group_cap_counts_elements_exactly():
    # The closure refuses the (cap + 1)-th element, whatever order it
    # reaches them in: a cap of |W| closes W, one less refuses it.
    for d in (standard_datum("C", 4), product(standard_datum("B", 2), standard_datum("G", 2)),
              gl_datum(4)):
        order = weyl_order(d)
        assert weyl_group(d, cap=order).order == order
        with pytest.raises(ResourceCapError, match=f"group enumeration exceeded cap {order - 1}$"):
            weyl_group(d, cap=order - 1)


def test_weyl_group_is_whole_where_the_coroot_sum_has_zero_entries():
    # The walk over W names each element m by m 2rho, which is regular even
    # where some of its coordinates are 0 (or all of them, on a torus), as
    # an earlier walk named it by the sum of the positive coroots, which
    # pairs nonzero with every root; on these data both have zero entries
    # at the same places, and GL4's, (3, 1, -1, -3), have none.
    data = [torus_datum(0), torus_datum(3), gl_datum(3), gl_datum(4), gl_datum(5),
            product(standard_datum("A", 2), torus_datum(1))]
    zeros = []
    for d in data:
        u = [sum(col) for col in zip([0] * d.rank, *(av for _, av in positive_roots(d)))]
        if 0 in u:
            zeros.append(d.name)
        assert (0 in u) == (0 in two_rho(d)), d.name
        w = weyl_group(d)
        ident = [[int(i == j) for j in range(d.rank)] for i in range(d.rank)]
        assert len(w.elements) == len(set(w.elements)) == weyl_order(d), d.name
        assert list(w.elements) == sorted(w.elements)
        walk = weyl_walk(d, ident)
        assert [m for m, _ in walk] == list(w.elements)
        for m, rows in walk:
            assert mat_mul(m, rows) == ident
    assert zeros == ["torus3", "GL3", "GL5", "A2-simply_connectedxtorus1"]


def test_the_kept_root_closure_still_honours_every_cap():
    # A closure that fails is not kept, so a full one still succeeds after
    # it; one that is kept is still refused under a cap below its size.
    d = standard_datum("A", 2)
    with pytest.raises(ResourceCapError, match="root closure exceeded cap 2"):
        all_roots(d, cap=2)
    assert len(all_roots(d)) == 6
    with pytest.raises(ResourceCapError, match="root closure exceeded cap 2"):
        all_roots(d, cap=2)
    with pytest.raises(ResourceCapError, match="root closure exceeded cap 5"):
        all_roots(d, cap=5)
    assert len(all_roots(d, cap=6)) == 6


def test_closure_heights_are_the_coefficient_sums_over_the_simple_roots():
    data = [standard_datum(label, rank, variant) for label, rank, variant in BUILTINS]
    data += [product(standard_datum("B", 2), standard_datum("G", 2)),
             product(standard_datum("A", 2), standard_datum("A", 1)), gl_datum(4)]
    for d in data:
        closed = rootdata._root_closure(d)
        assert [(a, av) for a, av, _ in closed] == all_roots(d), d.name
        for a, _, height in closed:
            assert sum(solve_coordinates(d.simple_roots, list(a))) == height, (d.name, a)
        assert 2 * sum(h > 0 for _, _, h in closed) == len(closed), d.name


def test_only_the_first_orbit_on_a_datum_checks_its_simple_roots(monkeypatch):
    # The verdict that the simple roots are independent is kept on the
    # datum, so further orbits on it build no lattice.
    built = []

    def counting(*args):
        built.append(args)
        return Sublattice(*args)

    monkeypatch.setattr(rootdata, "Sublattice", counting)
    d = standard_datum("C", 3)
    for v in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
        orbit(d, v)
    assert len(built) == 1


def test_orbit_closure_is_capped(monkeypatch):
    # The affine A1 datum generates an infinite reflection group: its root
    # closure refuses it before any orbit closure, under any cap.
    d = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 50)
    with pytest.raises(ValueError, match="not of finite type"):
        orbit(d, (1, 0))
    # A finite orbit of exactly the cap's size still closes.
    b2 = standard_datum("B", 2)
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 8)
    assert len(orbit(b2, (1, 1))) == 8
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 7)
    with pytest.raises(ResourceCapError):
        orbit(b2, (1, 1))


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
    assert solve_coordinates(d.simple_roots, [1, 0, -1]) == [1, 1]
    assert solve_coordinates(d.simple_roots, [1, 0, 0]) is None
    assert solve_coordinates(torus_datum(2).simple_roots, [0, 1]) is None
