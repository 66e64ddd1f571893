"""Root data on a fixed character lattice, and their Weyl groups.

A root datum is stored in coordinates: the character lattice is Z^rank
with the pairing between characters and cocharacters given by the dot
product.  Simple roots live in the character lattice, simple coroots in
the cocharacter lattice, and dot(root_i, coroot_i) == 2 is enforced.

Weyl group elements are rank x rank integer matrices acting on the
character lattice (columns act on coordinate vectors).  All enumerations
are exact and guarded by caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError
from .lattice import (FinAbGroup, Sublattice, det, is_member, mat_mul, mat_vec,
                      quotient_group, saturate, transpose)
from .linalg import solve_coordinates

MatrixT = tuple[tuple[int, ...], ...]

WEYL_ORDER_CAP = 10 ** 6
ROOT_CLOSURE_CAP = 10 ** 4


@dataclass(frozen=True)
class RootDatum:
    """A root datum in standard coordinates on Z^rank."""

    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[tuple[int, ...], ...]
    name: str = "datum"
    variant: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValueError("need equally many simple roots and coroots")
        for a, av in zip(self.simple_roots, self.simple_coroots):
            if len(a) != self.rank or len(av) != self.rank:
                raise ValueError("root/coroot length does not match rank")
            if sum(x * y for x, y in zip(a, av)) != 2:
                raise ValueError(f"dot(root, coroot) must be 2, got {a} . {av}")
        c = self.cartan_matrix()
        for i, row in enumerate(c):
            for j, x in enumerate(row):
                if i != j and (x > 0 or (x == 0) != (c[j][i] == 0)):
                    raise ValueError(
                        f"pairings do not form a generalized Cartan matrix: "
                        f"entry ({i}, {j}) is {x} and ({j}, {i}) is {c[j][i]}")

    @property
    def num_simple(self) -> int:
        return len(self.simple_roots)

    def pairing(self, chi, cochar) -> int:
        return sum(int(x) * int(y) for x, y in zip(chi, cochar))

    def cartan_matrix(self) -> list[list[int]]:
        return [[self.pairing(a, bv) for bv in self.simple_coroots]
                for a in self.simple_roots]


def _cartan(type_label: str, rank: int) -> list[list[int]]:
    t = type_label.upper()
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if t == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
    elif t in ("B", "C"):
        if rank < 2:
            raise ValueError(f"type {t} needs rank >= 2")
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        if t == "B":
            # short last root: its coroot is long
            c[rank - 2][rank - 1] = -2
            c[rank - 1][rank - 2] = -1
        else:
            c[rank - 2][rank - 1] = -1
            c[rank - 1][rank - 2] = -2
    elif t == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        for i in range(rank - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    elif t in ("G", "G2"):
        if rank != 2:
            raise ValueError("type G2 has rank exactly 2")
        c[0][1] = -1
        c[1][0] = -3
    else:
        raise ValueError(f"unknown type label {type_label!r}")
    return c


def standard_datum(type_label: str, rank: int, variant: str = "simply_connected") -> RootDatum:
    """Built-in datum of the given Cartan type.

    The simply connected variant uses the fundamental-weight basis: the
    j-th simple coroot is the j-th standard basis vector and the j-th
    simple root collects its pairings with all simple coroots.  The
    adjoint variant swaps the two roles.  In both cases the dot-product
    pairing reproduces the Cartan matrix.
    """
    c = _cartan(type_label, rank)
    basis = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if variant == "simply_connected":
        roots = [tuple(c[j]) for j in range(rank)]
        coroots = [tuple(basis[j]) for j in range(rank)]
    elif variant == "adjoint":
        roots = [tuple(basis[j]) for j in range(rank)]
        coroots = [tuple(c[i][j] for i in range(rank)) for j in range(rank)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    letter = type_label.upper().rstrip("0123456789")
    label = f"{letter}{rank}"
    return RootDatum(rank, tuple(roots), tuple(coroots),
                     name=f"{label}-{variant}", variant=variant)


def datum_from_dict(data: dict) -> RootDatum:
    """Build a datum from plain data: rank, simple roots, simple coroots.

    This is the on-disk JSON shape for custom data; name and variant are
    optional.  All root-datum axioms are checked by the constructor; data
    of the wrong shape raise ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a datum must be a JSON object")
    try:
        rank = int(data["rank"])
        roots = tuple(tuple(map(int, v)) for v in data["simple_roots"])
        coroots = tuple(tuple(map(int, v)) for v in data["simple_coroots"])
    except TypeError as exc:
        raise ValueError(f"malformed datum: {exc}") from None
    return RootDatum(rank, roots, coroots,
                     name=str(data.get("name", "custom")),
                     variant=data.get("variant"))


def torus_datum(rank: int, name: str | None = None) -> RootDatum:
    return RootDatum(rank, (), (), name=name or f"torus{rank}")


def gl_datum(n: int) -> RootDatum:
    """The general-linear datum on Z^n: roots and coroots e_i - e_j."""
    if n < 1:
        raise ValueError("gl datum needs n >= 1")
    roots = []
    coroots = []
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        v[i + 1] = -1
        roots.append(tuple(v))
        coroots.append(tuple(v))
    return RootDatum(n, tuple(roots), tuple(coroots), name=f"GL{n}")


def product(d1: RootDatum, d2: RootDatum) -> RootDatum:
    """Block sum of two data on the concatenated lattice."""
    r1, r2 = d1.rank, d2.rank

    def pad_left(v):
        return tuple(v) + (0,) * r2

    def pad_right(v):
        return (0,) * r1 + tuple(v)

    roots = tuple(pad_left(a) for a in d1.simple_roots) + \
        tuple(pad_right(a) for a in d2.simple_roots)
    coroots = tuple(pad_left(a) for a in d1.simple_coroots) + \
        tuple(pad_right(a) for a in d2.simple_coroots)
    return RootDatum(r1 + r2, roots, coroots, name=f"{d1.name}x{d2.name}")


def reflection_matrix(rank: int, root, coroot) -> MatrixT:
    """The reflection chi -> chi - <chi, coroot> root as a matrix on Z^rank."""
    return tuple(tuple((1 if r == c else 0) - root[r] * coroot[c] for c in range(rank))
                 for r in range(rank))


def simple_reflections(d: RootDatum) -> list[MatrixT]:
    return [reflection_matrix(d.rank, a, av)
            for a, av in zip(d.simple_roots, d.simple_coroots)]


def dual_reflection_matrix(rank: int, root, coroot) -> MatrixT:
    """The same reflection acting on the cocharacter lattice."""
    return tuple(tuple((1 if r == c else 0) - coroot[r] * root[c] for c in range(rank))
                 for r in range(rank))


def all_roots(d: RootDatum, cap: int = ROOT_CLOSURE_CAP) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (root, coroot) pairs: the closure of the simple pairs under
    simple reflections.  Returned sorted by root vector."""
    refl = simple_reflections(d)
    dual = [dual_reflection_matrix(d.rank, a, av)
            for a, av in zip(d.simple_roots, d.simple_coroots)]
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    queue: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for a, av in zip(d.simple_roots, d.simple_coroots):
        if a not in found:
            found[a] = av
            queue.append((a, av))
    while queue:
        a, av = queue.pop()
        for s, sv in zip(refl, dual):
            b = tuple(mat_vec(s, a))
            bv = tuple(mat_vec(sv, av))
            known = found.get(b)
            if known is None:
                if len(found) >= cap:
                    raise ResourceCapError(f"root closure exceeded cap {cap}")
                found[b] = bv
                queue.append((b, bv))
            elif known != bv:
                raise ValueError("inconsistent coroot produced by reflection closure; "
                                 "the datum is not of finite type")
    return sorted(found.items())


@dataclass(frozen=True)
class WeylGroup:
    """A finite reflection group given by explicit matrices; one closed from
    its generators also carries inverse_transposes[i] = elements[i]^-T."""

    rank: int
    elements: tuple[MatrixT, ...]
    generators: tuple[MatrixT, ...]
    inverse_transposes: tuple[MatrixT, ...] = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: MatrixT) -> bool:
        return m in set(self.elements)


def _close_group(rank: int, generators: list[MatrixT], cap: int) -> WeylGroup:
    """Close the reflections, carrying inverse-transposes: (m g)^-T = m^-T g^T,
    since a reflection is its own inverse."""
    ident: MatrixT = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    gen_inv_t = [transpose(g) for g in generators]
    seen = {ident: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g, g_inv_t in zip(generators, gen_inv_t):
                prod = tuple(tuple(r) for r in mat_mul(m, g))
                if prod not in seen:
                    if len(seen) >= cap:
                        raise ResourceCapError(f"group enumeration exceeded cap {cap}")
                    seen[prod] = tuple(tuple(r) for r in mat_mul(seen[m], g_inv_t))
                    nxt.append(prod)
        frontier = nxt
    elements = tuple(sorted(seen))
    return WeylGroup(rank, elements, tuple(generators),
                     tuple(seen[m] for m in elements))


def weyl_group(d: RootDatum, cap: int = WEYL_ORDER_CAP) -> WeylGroup:
    all_roots(d)  # refuses a datum of infinite type before closing its group
    return _close_group(d.rank, simple_reflections(d), cap)


def reflection_subgroup(rank: int, pairs, cap: int = WEYL_ORDER_CAP) -> WeylGroup:
    """Group generated by the reflections of the given (root, coroot) pairs."""
    gens = [reflection_matrix(rank, a, av) for a, av in pairs]
    return _close_group(rank, gens, cap)


def orbit(generators, v, cap: int | None = None) -> list[tuple[int, ...]]:
    """The orbit of a character vector under the group generated by the
    given matrices, sorted: a closure under the generators, without
    enumerating the group.  Capped at cap points (WEYL_ORDER_CAP, read
    at call time, when not given), since an infinite reflection group has
    infinite orbits."""
    limit = WEYL_ORDER_CAP if cap is None else cap
    start = tuple(map(int, v))
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in generators:
            y = tuple(mat_vec(g, x))
            if y not in seen:
                if len(seen) >= limit:
                    name = "WEYL_ORDER_CAP = " if cap is None else ""
                    raise ResourceCapError(f"orbit closure exceeded {name}{limit} points")
                seen.add(y)
                queue.append(y)
    return sorted(seen)


def stabilizer(w: WeylGroup, v) -> WeylGroup:
    vec = list(map(int, v))
    elems = tuple(sorted(m for m in w.elements
                         if mat_vec(m, vec) == vec))
    return WeylGroup(w.rank, elems, elems)


def sign(m: MatrixT) -> int:
    s = det(m)
    if s not in (1, -1):
        raise ValueError("matrix is not orthogonal-unimodular")
    return s


def is_dominant(d: RootDatum, v) -> bool:
    return all(d.pairing(v, av) >= 0 for av in d.simple_coroots)


def dominant_representative(d: RootDatum, v) -> tuple[int, ...]:
    """The unique dominant vector in the orbit of v, by descent.

    A datum of finite type needs at most one step per positive root; the
    descent stops after ROOT_CLOSURE_CAP steps with ResourceCapError,
    which on a datum of infinite type it would otherwise never leave.
    """
    cur = list(map(int, v))
    for _ in range(ROOT_CLOSURE_CAP + 1):
        for a, av in zip(d.simple_roots, d.simple_coroots):
            k = d.pairing(cur, av)
            if k < 0:
                cur = [x - k * y for x, y in zip(cur, a)]
                break
        else:
            return tuple(cur)
    raise ResourceCapError(f"dominant descent exceeded ROOT_CLOSURE_CAP = "
                           f"{ROOT_CLOSURE_CAP} steps")


def coroot_lattice(d: RootDatum) -> Sublattice:
    """Sublattice of the cocharacter lattice spanned by all coroots."""
    pairs = all_roots(d)
    return Sublattice(d.rank, [av for _, av in pairs])


def fundamental_group(d: RootDatum) -> FinAbGroup:
    """Cocharacters modulo the coroot lattice, in invariant-factor form."""
    return quotient_group(d.rank, coroot_lattice(d))


def is_derived_simply_connected(d: RootDatum) -> bool:
    return fundamental_group(d).is_torsion_free


def positive_roots(d: RootDatum) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (root, coroot) pairs whose root is a nonnegative combination
    of the simple roots.  These roots are the closure of the simple ones
    under s_i applied to roots other than a_i, since s_i permutes those
    positive roots and every positive root descends to a simple one that
    way (Humphreys 10.2); all_roots runs first to refuse infinite type."""
    pairs = all_roots(d)
    steps = list(zip(d.simple_roots, simple_reflections(d)))
    pos = set(d.simple_roots)
    stack = list(pos)
    while stack:
        b = stack.pop()
        for c in (tuple(mat_vec(s, b)) for a, s in steps if a != b):
            if c not in pos:
                pos.add(c)
                stack.append(c)
    return [(a, av) for a, av in pairs if a in pos]


def root_coefficients(d: RootDatum, root) -> list[Fraction]:
    """Coefficients of a root over the simple roots (exact).  Raises
    ValueError when the vector is outside their span."""
    coeffs = solve_coordinates(d.simple_roots, list(root))
    if coeffs is None:
        raise ValueError(f"{tuple(root)} is not in the span of the simple roots")
    return coeffs


def two_rho(d: RootDatum) -> tuple[int, ...]:
    """Sum of the positive roots (twice the Weyl vector; always integral)."""
    acc = [0] * d.rank
    for a, _ in positive_roots(d):
        acc = [x + y for x, y in zip(acc, a)]
    return tuple(acc)


@dataclass(frozen=True)
class LeviDatum:
    """The root subsystem cut out by a sublattice of the character lattice."""

    parent: RootDatum
    kernel: Sublattice
    root_subset: tuple[int, ...]
    weyl_subgroup: WeylGroup
    datum: RootDatum
    saturation_applied: bool

    @property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        pairs = all_roots(self.parent)
        return tuple(pairs[i][0] for i in self.root_subset)


def centralizer_subsystem(d: RootDatum, k: Sublattice) -> LeviDatum:
    """Roots of d lying in the (saturated) sublattice k, as a root datum.

    The subsystem consists of the roots vanishing on the subtorus whose
    character-kernel is k.  A non-saturated input is saturated first and
    flagged, since only the saturation is the kernel of a subtorus.
    """
    if k.ambient_rank != d.rank:
        raise ValueError("sublattice rank does not match datum rank")
    sat = saturate(k)
    flagged = sat != k
    pairs = all_roots(d)
    subset = tuple(i for i, (a, _) in enumerate(pairs) if is_member(sat, a))
    sub_pairs = [pairs[i] for i in subset]
    pos = [(a, av) for a, av in positive_roots(d) if is_member(sat, a)]
    pos_set = {a for a, _ in pos}
    base = []
    for a, av in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(a, b)) in pos_set and tuple(x - y for x, y in zip(a, b)) != a
            for b in pos_set if b != a
        )
        if not decomposable:
            base.append((a, av))
    base.sort()
    w_sub = reflection_subgroup(d.rank, sub_pairs) if sub_pairs else \
        _close_group(d.rank, [], WEYL_ORDER_CAP)
    levi = RootDatum(d.rank,
                     tuple(a for a, _ in base),
                     tuple(av for _, av in base),
                     name=f"{d.name}-centralizer")
    return LeviDatum(parent=d, kernel=sat, root_subset=subset,
                     weyl_subgroup=w_sub, datum=levi, saturation_applied=flagged)
