"""Independent expected values for the benchmark's correctness checks.

Nothing here imports repring: every value comes from closed forms or
from a few lines of root-system arithmetic written from the textbook
definitions, so a defect in the program cannot hide behind the same
defect in its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

def cartan(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entry [j][i] = <alpha_j, alpha_i^vee>.

    Bourbaki numbering: in B the last simple root is short, in C it is
    long, and in D the last two nodes hang off node rank-2.
    """
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = rank - 1 if letter in "ABC" else rank - 2 if letter == "D" else 1
    for i in range(chain):
        c[i][i + 1] = c[i + 1][i] = -1
    if letter == "B":
        c[rank - 2][rank - 1] = -2
    elif letter == "C":
        c[rank - 1][rank - 2] = -2
    elif letter == "D":
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    elif letter == "G":
        c[1][0] = -3
    return c


def weyl_order(letter: str, rank: int) -> int:
    """|W| in closed form (Humphreys, Reflection Groups, table 2.11)."""
    if letter == "A":
        return factorial(rank + 1)
    if letter in "BC":
        return 2 ** rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return 12


def root_count(letter: str, rank: int) -> int:
    """|Phi|, the number of roots, in closed form."""
    if letter == "A":
        return rank * (rank + 1)
    if letter in "BC":
        return 2 * rank * rank
    if letter == "D":
        return 2 * rank * (rank - 1)
    return 12


def pi1_factors(letter: str, rank: int, variant: str) -> list[int]:
    """Invariant factors of pi1: trivial for simply connected data, the
    centre of the simply connected group for adjoint ones."""
    if variant == "simply_connected" or letter == "G":
        return []
    if letter == "A":
        return [rank + 1]
    if letter in "BC":
        return [2]
    return [2, 2] if rank % 2 == 0 else [4]


def fundamental_coords(letter: str, rank: int, variant: str, weight) -> list[int]:
    """Pairings <weight, alpha_i^vee> with the simple coroots.

    The built-in simply connected datum is written in the fundamental
    weight basis, the adjoint one in the simple root basis.
    """
    if variant == "simply_connected":
        return list(weight)
    c = cartan(letter, rank)
    return [sum(w * c[j][i] for j, w in enumerate(weight)) for i in range(rank)]


def positive_coroots(letter: str, rank: int) -> list[tuple[int, ...]]:
    """Positive coroots in simple-coroot coordinates, by reflection closure.

    s_i(b) = b - <alpha_i, b> alpha_i^vee with <alpha_i, b> = sum_j b_j c[i][j].
    """
    c = cartan(letter, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = set(simple)
    queue = list(simple)
    while queue:
        b = queue.pop()
        for i in range(rank):
            k = sum(b[j] * c[i][j] for j in range(rank))
            img = tuple(x - k * (j == i) for j, x in enumerate(b))
            if img not in found:
                found.add(img)
                queue.append(img)
    return sorted(b for b in found if all(x >= 0 for x in b))


def weyl_dimension(letter: str, rank: int, variant: str, weight) -> int:
    """Weyl's dimension formula, prod <lambda+rho, b> / <rho, b> over b > 0."""
    lam = fundamental_coords(letter, rank, variant, weight)
    dim = Fraction(1)
    for b in positive_coroots(letter, rank):
        dim *= Fraction(sum(k * (x + 1) for k, x in zip(b, lam)), sum(b))
    if dim.denominator != 1:
        raise ValueError(f"weight {weight} is not integral for {letter}{rank}")
    return int(dim)


def is_dominant(letter: str, rank: int, variant: str, weight) -> bool:
    return all(x >= 0 for x in fundamental_coords(letter, rank, variant, weight))


def integer_kernel(rows: list[list[int]], width: int) -> list[list[int]]:
    """A Z-basis of {n in Z^width : row . n = 0 for every row}.

    Unimodular column operations bring the matrix to column echelon
    form while the same operations act on an identity matrix; the
    columns beyond the last pivot then span the integer kernel.
    """
    cols = [[row[c] for row in rows] for c in range(width)]
    unimod = [[int(i == c) for i in range(width)] for c in range(width)]
    pivot = 0
    for r in range(len(rows)):
        while True:
            live = [c for c in range(pivot, width) if cols[c][r]]
            if not live:
                break
            best = min(live, key=lambda c: abs(cols[c][r]))
            cols[pivot], cols[best] = cols[best], cols[pivot]
            unimod[pivot], unimod[best] = unimod[best], unimod[pivot]
            if len(live) == 1:
                pivot += 1
                break
            for c in range(pivot + 1, width):
                q = cols[c][r] // cols[pivot][r]
                if q:
                    cols[c] = [x - q * y for x, y in zip(cols[c], cols[pivot])]
                    unimod[c] = [x - q * y for x, y in zip(unimod[c], unimod[pivot])]
    return unimod[pivot:]


def support_connected(torsion: list[Fraction], rational: list[dict[int, int]]) -> bool:
    """Whether the characters killed by the point form a saturated lattice.

    The kernel K = {n : t.n in Z, e_p.n = 0 for each prime p} has finite
    index in the saturated lattice L = ker(e), so X/K is torsion-free
    exactly when K = L, i.e. when t.b is integral on a basis b of L.
    """
    primes = sorted({p for coord in rational for p in coord})
    rows = [[coord.get(p, 0) for coord in rational] for p in primes]
    return all(sum(t * b for t, b in zip(torsion, vec)).denominator == 1
               for vec in integer_kernel(rows, len(torsion)))


def nal_levels(j_max: int) -> list[dict]:
    """Expected nal-check levels for the sl3 Levi case: both truncations
    of a smooth surface point have dimension j(j+1)/2 at level j."""
    return [{"level": j, "dim_source": j * (j + 1) // 2,
             "dim_target": j * (j + 1) // 2,
             "surjective": True, "isomorphic": True}
            for j in range(1, j_max + 1)]


def divides(a: int, b: int) -> bool:
    return a > 0 and b % a == 0
