"""Exact arithmetic with integer matrices and sublattices of Z^n.

Matrices are row-major sequences of integer rows with arbitrary-precision
entries: lists and tuples are both accepted, and results are lists.  The
row Hermite form is the one integer elimination: the Smith form and
kernels are read off Hermite forms, and so are the lattice operations
built on top of them: saturation, membership tests, and finitely
generated abelian quotients in invariant-factor form.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul


Matrix = list[list[int]]


def _shape(a: Matrix) -> tuple[int, int]:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for r in a:
        if len(r) != cols:
            raise ValueError("matrix rows have unequal lengths")
    return rows, cols


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = _shape(a)
    rb, cb = _shape(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def transpose(a: Matrix) -> Matrix:
    rows, cols = _shape(a)
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with D = U * a * V diagonal.

    U and V are unimodular.  The diagonal of D is nonnegative and each
    entry divides the next.  Row and column Hermite forms alternate until
    the matrix is diagonal (Kannan & Bachem 1979).  A diagonal entry that
    does not divide the next gets the next column added to its own, and
    the alternation resumes: the next row Hermite form puts their gcd in
    its place.  (Adding the next row instead would be reduced away by
    that same row Hermite form.)
    """
    m, n = _shape(a)
    d, u, v = [list(row) for row in a], identity_matrix(m), identity_matrix(n)
    if not (m and n):
        return u, d, v
    while True:
        d, p = hermite_normal_form(d)
        dt, q = hermite_normal_form(transpose(d))
        d, u, v = transpose(dt), mat_mul(p, u), mat_mul(v, transpose(q))
        if any(d[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        k = next((i for i in range(min(m, n) - 1)
                  if d[i][i] and d[i + 1][i + 1] % d[i][i]), None)
        if k is None:
            return u, d, v
        for row in (*d, *v):
            row[k] += row[k + 1]


def hermite_normal_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """Return (H, U) with H = U * a in row Hermite normal form.

    U is unimodular.  H is in row-echelon shape with positive pivots and
    every entry above a pivot reduced into [0, pivot).  Zero rows sink to
    the bottom.  This is the canonical form used for sublattice equality.
    """
    m, n = _shape(a)
    h = [list(row) for row in a]
    u = identity_matrix(m)

    def add_row(dst: int, src: int, q: int) -> None:
        h[dst] = [x + q * y for x, y in zip(h[dst], h[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    row = 0
    for col in range(n):
        if row == m:
            break
        while True:
            cands = [(abs(h[i][col]), i) for i in range(row, m) if h[i][col] != 0]
            if not cands:
                break
            _, p = min(cands)
            if p != row:
                h[row], h[p] = h[p], h[row]
                u[row], u[p] = u[p], u[row]
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            done = True
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    add_row(i, row, -(h[i][col] // h[row][col]))
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] == 0:
            continue
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                add_row(i, row, -q)
        row += 1
    return h, u


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and f % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = f

    @property
    def is_torsion_free(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


class Sublattice:
    """A sublattice of Z^ambient_rank given by generating row vectors.

    Equality and hashing go through the canonical form: the row Hermite
    normal form of the generator matrix with zero rows dropped.
    """

    __slots__ = ("ambient_rank", "hnf_rows")

    def __init__(self, ambient_rank: int, generators) -> None:
        if ambient_rank < 0:
            raise ValueError("ambient rank must be nonnegative")
        gens = [list(map(int, g)) for g in generators]
        for g in gens:
            if len(g) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
        self.ambient_rank = ambient_rank
        if gens:
            h, _ = hermite_normal_form(gens)
            rows = tuple(tuple(r) for r in h if any(r))
        else:
            rows = ()
        self.hnf_rows = rows

    @property
    def rank(self) -> int:
        return len(self.hnf_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sublattice):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.hnf_rows == other.hnf_rows

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.hnf_rows))

    def __repr__(self) -> str:
        return f"Sublattice({self.ambient_rank}, {list(map(list, self.hnf_rows))})"


def full_lattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, identity_matrix(ambient_rank))


def kernel(a: Matrix) -> Sublattice:
    """The saturated sublattice {v : a @ v = 0} of Z^ncols: the rows of
    U, where U * a^T = H is the Hermite form, that meet zero rows of H."""
    m, n = _shape(a)
    if m == 0:
        raise ValueError("kernel of an empty matrix needs an explicit width; "
                         "use full_lattice instead")
    h, u = hermite_normal_form(transpose(a))
    return Sublattice(n, [row for row, hrow in zip(u, h) if not any(hrow)])


def saturate(s: Sublattice) -> Sublattice:
    """Smallest saturated sublattice containing s: (Q*s) intersect Z^n."""
    n = s.ambient_rank
    if not s.hnf_rows:
        return Sublattice(n, [])
    ortho = kernel(s.hnf_rows)
    if not ortho.hnf_rows:
        return full_lattice(n)
    return kernel(ortho.hnf_rows)


def quotient_group(ambient_rank: int, s: Sublattice) -> FinAbGroup:
    """Z^ambient_rank modulo s, in invariant-factor form."""
    if s.ambient_rank != ambient_rank:
        raise ValueError("sublattice lives in a different ambient rank")
    if not s.hnf_rows:
        return FinAbGroup(ambient_rank, ())
    _, d, _ = smith_normal_form(s.hnf_rows)
    k = len(s.hnf_rows)
    diag = [d[i][i] for i in range(min(k, ambient_rank))]
    nonzero = [x for x in diag if x != 0]
    return FinAbGroup(ambient_rank - len(nonzero),
                      tuple(x for x in nonzero if x > 1))


def is_member(s: Sublattice, v) -> bool:
    """Whether the integer vector v lies in the sublattice s."""
    return not any(coset_representative(s, v))


def coset_representative(s: Sublattice, v) -> tuple[int, ...]:
    """Canonical representative of v + s, by reduction against the HNF rows.

    Two vectors reduce to the same representative exactly when they lie
    in the same coset.
    """
    w = list(map(int, v))
    if len(w) != s.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    for row in s.hnf_rows:
        piv = next(j for j, x in enumerate(row) if x != 0)
        q = w[piv] // row[piv]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)
