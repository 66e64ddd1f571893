"""Root data on a fixed character lattice, and their Weyl groups.

A root datum is stored in coordinates: the character lattice is Z^rank
with the pairing between characters and cocharacters given by the dot
product.  Simple roots live in the character lattice, simple coroots in
the cocharacter lattice, and dot(root_i, coroot_i) == 2 is enforced.

A reflection is a (root, coroot) pair, applied to a character as the
rank-one update x -> x - <x, coroot> root, and to a cocharacter row by
its transpose; orbits, invariance checks and walks over W run on a
datum's simple pairs, compiled once, each transpose checked adjoint to
its reflection (a point's rows move by one compiled transpose over all of
them).  A datum's roots, coroots and heights are closed once and
kept on it; positive roots, a centralizer's base and |W| (from the
heights by Kostant's theorem) read it.  A whole Weyl group, as
rank x rank integer matrices acting on the character lattice (columns
act on coordinate vectors), is walked only where a fiber reads its
elements.
All enumerations are exact and guarded by caps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import prod
from operator import index, mul, sub

from .errors import ResourceCapError
from .lattice import FinAbGroup, Sublattice, is_member, quotient_group, saturate

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

    @property
    def simple_pairs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The (root, coroot) pairs of the simple reflections."""
        return tuple(zip(self.simple_roots, self.simple_coroots))

    def pairing(self, chi, cochar):
        return sum(map(mul, chi, cochar))

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


def json_int(value, field: str) -> int:
    """A JSON input field that must be an integer: a float (even 2.0), a
    boolean or a string raises ValueError naming the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f'"{field}" must be an integer, got {value!r}')
    return value


def datum_from_dict(data: dict) -> RootDatum:
    """Build a datum from plain data: rank, simple roots, simple coroots.

    This is the on-disk JSON shape for custom data; name and variant are
    optional.  All root-datum axioms are checked by the constructor; data
    of the wrong shape raise ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a datum must be a JSON object")
    try:
        rank = json_int(data["rank"], "rank")
        roots, coroots = (tuple(tuple(json_int(x, field) for x in v) for v in data[field])
                          for field in ("simple_roots", "simple_coroots"))
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
    roots = tuple(tuple(int(k == i) - int(k == i + 1) for k in range(n)) for i in range(n - 1))
    return RootDatum(n, roots, roots, name=f"GL{n}")


def product(d1: RootDatum, d2: RootDatum) -> RootDatum:
    """Block sum of two data on the concatenated lattice."""
    r1, r2 = d1.rank, d2.rank

    def pad(first, second):
        return (tuple(tuple(v) + (0,) * r2 for v in first)
                + tuple((0,) * r1 + tuple(v) for v in second))

    return RootDatum(r1 + r2, pad(d1.simple_roots, d2.simple_roots),
                     pad(d1.simple_coroots, d2.simple_coroots), name=f"{d1.name}x{d2.name}")


@lru_cache(maxsize=4096)
def _compile(root: tuple[int, ...], coroot: tuple[int, ...], copies: int = 1, modulus: int = 0):
    """x -> x - <x, coroot> root on integer tuples as one generated expression
    that reads only the nonzero entries of coroot, writes only those of root
    and returns x where every pairing is 0, compiled (some hundred calls) once
    per pair; x may hold copies vectors end to end, the first's new entries mod modulus."""
    n, pairings, image = len(root), [], ""
    for b in range(copies):
        terms = " + ".join(f"x[{b * n + i}] * {index(c)}" for i, c in enumerate(coroot) if c)
        pairings.append(f"(k{b} := {terms or 0})")
        for i, r in enumerate(root):
            entry = f"x[{b * n + i}] - k{b} * {index(r)}" if r else f"x[{b * n + i}]"
            image += f"({entry}) % {modulus}, " if r and modulus and not b else entry + ", "
    return eval(f"lambda x: ({image}) if {' | '.join(pairings)} else x")


@lru_cache(maxsize=4096)
def _adjoint(s, s_t, rank: int, copies: int = 1, modulus: int = 0):
    """s_t, once per compiled move in a process, after checking on the
    coordinate vectors that it is the transpose of s, <s_t e_j, e_i> =
    <e_j, s e_i>, on each of copies rows laid end to end, taking the first
    mod modulus (if not 0)."""
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    images = list(zip(*map(s, basis)))
    for b in range(copies):
        pad, rest = (0,) * rank * b, (0,) * rank * (copies - b - 1)
        for e, image in zip(basis, images):
            image = tuple(y % modulus for y in image) if modulus and not b else image
            if s_t(pad + e + rest) != pad + image + rest:
                raise AssertionError("a compiled reflection's transpose is not adjoint to it")
    return s_t


def _reflections(d: RootDatum) -> tuple[tuple, tuple]:
    """d's simple reflections s and their transposes s^T, which act on
    cocharacter rows, compiled, checked adjoint and kept on d."""
    if "_reflections" not in vars(d):
        pairs = [(tuple(a), tuple(av)) for a, av in d.simple_pairs]
        simple = [_compile(a, av) for a, av in pairs]
        object.__setattr__(d, "_reflections", (simple, [
            _adjoint(s, _compile(av, a), d.rank) for s, (a, av) in zip(simple, pairs)]))
    return d._reflections


def _close(start, moves, cap: int, refusal: str, value=None, carry=None) -> dict:
    """Every state reached from start by moves, with the value carry(value,
    i) gives it from the one that first reached it by the i-th move (value
    at start).  A state beyond the cap-th raises ResourceCapError(refusal)."""
    seen = {start: value}
    queue = [start]
    while queue:
        x = queue.pop()
        for i, move in enumerate(moves):
            y = move(x)
            if y not in seen:
                if len(seen) >= cap:
                    raise ResourceCapError(refusal)
                seen[y] = carry(seen[x], i) if carry else None
                queue.append(y)
    return seen


def _close_roots(d: RootDatum, cap: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Every (root, coroot, height) of d, sorted by root: the closure of the
    simple pairs under simple reflections, which act on coroots by the dual
    reflections and on heights, the coefficient sums over the simple roots,
    by height(s_i b) = height(b) - <b, a_i'>, negative roots included."""
    simple = list(zip(d.simple_coroots, *_reflections(d)))
    found: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for a, av in d.simple_pairs:
        found.setdefault(a, (av, 1))
    queue = list(found)
    while queue:
        a = queue.pop()
        av, height = found[a]
        for sv, s, s_t in simple:
            b, bv = s(a), s_t(av)
            known = found.get(b)
            if known is None:
                if len(found) >= cap:
                    raise ResourceCapError(f"root closure exceeded cap {cap}")
                found[b] = (bv, height - sum(map(mul, a, sv)))
                queue.append(b)
            elif known[0] != bv:
                raise ValueError("inconsistent coroot produced by reflection closure; "
                                 "the datum is not of finite type")
    return tuple(sorted((a, av, h) for a, (av, h) in found.items()))


def _root_closure(d: RootDatum, cap: int = ROOT_CLOSURE_CAP):
    """d's closure, run once and kept on d; only a closure that succeeds is
    kept, and one of more than cap roots is refused whether kept or not."""
    closed = vars(d).get("_closure")
    if closed is None:
        closed = _close_roots(d, cap)
        object.__setattr__(d, "_closure", closed)
    if len(closed) > cap:
        raise ResourceCapError(f"root closure exceeded cap {cap}")
    return closed


def _base_closure(d: RootDatum):
    """d's closure for a reader of a base, of |W| or of an orbit: after the
    closure has refused infinite type, dependent simple roots are refused
    too.  Only the verdict that they are independent is kept on d."""
    closed = _root_closure(d)
    if not vars(d).get("_independent"):
        if Sublattice(d.rank, d.simple_roots).rank != d.num_simple:
            raise ValueError("the simple roots are linearly dependent; "
                             "the datum is not of finite type")
        object.__setattr__(d, "_independent", True)
    return closed


def all_roots(d: RootDatum, cap: int = ROOT_CLOSURE_CAP) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (root, coroot) pairs, sorted by root vector; more than cap
    roots raise ResourceCapError."""
    return [(a, av) for a, av, _ in _root_closure(d, cap)]


def _order(d: RootDatum, cap, refusal="group enumeration exceeded cap {cap}") -> int:
    """|W| as weyl_order states it, after the root closure; over cap
    (WEYL_ORDER_CAP, read at call time, when not given), which the trivial
    group always passes, refusal is raised, given the order and the cap."""
    limit = WEYL_ORDER_CAP if cap is None else cap
    count = Counter(h for _, _, h in _base_closure(d) if h > 0)
    order = prod((k + 1) ** (n - count[k + 1]) for k, n in count.items())
    if order > max(limit, 1):
        raise ResourceCapError(refusal.format(order=order, cap=limit))
    return order


def _step(reflections, value, i: int):
    """s_i m's columns and rows from m's: s_i maps each column, s_i^T each row."""
    return tuple(map(reflections[0][i], value[0])), tuple(map(reflections[1][i], value[1]))


def weyl_walk(d: RootDatum, rows=(), cap: int | None = None) -> list[tuple[MatrixT, tuple]]:
    """Each element m of W, sorted, with m^-T r for each cocharacter row r
    of rows, as a point's rows map to its translate by m (the torsion row
    unreduced); refused over cap as _order refuses.  W is walked by left
    multiplication.  m is named by m 2rho, 2rho being regular, so a step to
    s m reflects one vector, and only a new element's columns and rows
    ((s m)^-T = s^T m^-T) are mapped (_step)."""
    order = _order(d, cap)
    reflections = _reflections(d)
    ident = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    seen = _close(two_rho(d), reflections[0], order, f"walk exceeded |W| = {order}",
                  (ident, tuple(map(tuple, rows))), partial(_step, reflections))
    return sorted((tuple(zip(*columns)), mapped) for columns, mapped in seen.values())


def orbit(d: RootDatum, v) -> list[tuple[int, ...]]:
    """The Weyl orbit of a character vector, sorted: its closure under the
    simple reflections of d (for a centralizer, pass its LeviDatum's
    datum).  A datum of infinite type is refused first, as by every reader
    of a base; the closure is still capped at WEYL_ORDER_CAP points (read
    at call time)."""
    start = tuple(map(int, v))
    if len(start) != d.rank:
        raise ValueError("vector length does not match the datum rank")
    _base_closure(d)
    return sorted(_close(start, _reflections(d)[0], WEYL_ORDER_CAP,
                         f"orbit closure exceeded WEYL_ORDER_CAP = {WEYL_ORDER_CAP} points"))


def row_orbit(d: RootDatum, rows, modulus: int):
    """The W-orbit of a tuple of cocharacter rows, on which s acts by s^T,
    the first taken mod modulus (a point's torsion and prime rows), as a
    set-like view of the rows laid end to end, by one compiled move per
    simple reflection.  Refused up front over WEYL_ORDER_CAP as _order is."""
    order, n = _order(d, None), len(rows)
    start = tuple(chain([x % modulus for x in rows[0]], *rows[1:]))
    modulus = modulus if modulus > 1 else 0  # m = 1 leaves the first row 0, as every step does
    moves = [_adjoint(s, _compile(tuple(av), tuple(a), n, modulus), d.rank, n, modulus)
             for s, (a, av) in zip(_reflections(d)[0], d.simple_pairs)]
    return _close(start, moves, order, f"orbit exceeded |W| = {order} points").keys()


def is_invariant(d: RootDatum, terms) -> bool:
    """Whether a finitely supported function on the character lattice, a
    mapping from exponent vectors to coefficients such as LaurentPoly.terms,
    is fixed by the Weyl group: every simple reflection carries each
    exponent to one with the same coefficient."""
    simple = _reflections(d)[0]
    return all(terms.get(s(e)) == c for e, c in terms.items() for s in simple)


def is_dominant(d: RootDatum, v) -> bool:
    return all(d.pairing(v, av) >= 0 for av in d.simple_coroots)


def dominant_representative(d: RootDatum, v) -> tuple[int, ...]:
    """The unique dominant vector in the orbit of v, by descent.

    A datum of finite type needs at most one step per positive root; the
    descent stops after ROOT_CLOSURE_CAP steps with ResourceCapError,
    which on a datum of infinite type it would otherwise never leave.
    """
    cur, simple = tuple(map(int, v)), list(zip(d.simple_coroots, _reflections(d)[0]))
    for _ in range(ROOT_CLOSURE_CAP + 1):
        s = next((s for av, s in simple if sum(map(mul, cur, av)) < 0), None)
        if s is None:
            return cur
        cur = s(cur)
    raise ResourceCapError(f"dominant descent exceeded ROOT_CLOSURE_CAP = "
                           f"{ROOT_CLOSURE_CAP} steps")


def fundamental_group(d: RootDatum) -> FinAbGroup:
    """Cocharacters modulo the coroot lattice, in invariant-factor form.  The
    closure runs first, to refuse what it refuses, but the simple coroots span
    the lattice: each closure step adds a multiple of one to a coroot."""
    all_roots(d)
    return quotient_group(d.rank, Sublattice(d.rank, d.simple_coroots))


def positive_roots(d: RootDatum) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (root, coroot) pairs whose root is a nonnegative combination
    of the simple roots: those of positive height."""
    return [(a, av) for a, av, h in _base_closure(d) if h > 0]


def two_rho(d: RootDatum) -> tuple[int, ...]:
    """Sum of the positive roots (twice the Weyl vector; always integral)."""
    return tuple(map(sum, zip([0] * d.rank, *(a for a, _ in positive_roots(d)))))


def weyl_order(d: RootDatum, cap: int | None = None) -> int:
    """|W| = prod (k + 1)^(n_k - n_(k+1)), n_k the number of positive roots
    of height k: the exponents of W are the partition dual to the heights
    (Kostant, Amer. J. Math. 81, 1959; Humphreys 3.20).  Infinite type is
    refused, also where dependent simple roots leave the root closure
    finite.  Capped at cap as _order caps it."""
    name = "WEYL_ORDER_CAP = " if cap is None else "the cap "
    return _order(d, cap, "Weyl group order {order} exceeds " + name + "{cap}")


@dataclass(frozen=True)
class LeviDatum:
    """The root subsystem cut out by a sublattice of the character lattice:
    the parent's (root, coroot) pairs inside it, and the datum of their base."""

    parent: RootDatum
    kernel: Sublattice
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    datum: RootDatum
    saturation_applied: bool

    @property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a for a, _ in self.pairs)


def centralizer_subsystem(d: RootDatum, k: Sublattice) -> LeviDatum:
    """Roots of d lying in the (saturated) sublattice k, as a root datum.

    The subsystem consists of the roots vanishing on the subtorus whose
    character-kernel is k.  A non-saturated input is saturated first and
    flagged, since only the saturation is the kernel of a subtorus.
    """
    if k.ambient_rank != d.rank:
        raise ValueError("sublattice rank does not match datum rank")
    sat = saturate(k)
    inside = [(a, av, h) for a, av, h in _base_closure(d) if is_member(sat, a)]
    pos = {a: av for a, av, h in inside if h > 0}
    # The base: the positive roots that are no sum of two others.
    base = sorted((a, av) for a, av in pos.items()
                  if not any(tuple(map(sub, a, b)) in pos for b in pos))
    levi = RootDatum(d.rank,
                     tuple(a for a, _ in base),
                     tuple(av for _, av in base),
                     name=f"{d.name}-centralizer")
    return LeviDatum(parent=d, kernel=sat, pairs=tuple((a, av) for a, av, _ in inside),
                     datum=levi, saturation_applied=sat != k)
