"""The evaluation twist of the character ring and isotypic splitting.

Twisting by a point rescales every monomial by the point's value on it:
e^n -> p(n) e^n.  It is a ring automorphism of the group algebra over a
large enough cyclotomic field, interchanges evaluation at the point with
the augmentation, and respects the splitting of a polynomial into coset
classes modulo a sublattice.
"""

from __future__ import annotations

from .lattice import Sublattice, coset_representative
from .laurent import LaurentPoly, augmentation
from .spectrum import EvalPoint, evaluate_char, evaluate_poly


def isotypic_decompose(f: LaurentPoly, k: Sublattice) -> dict[tuple[int, ...], LaurentPoly]:
    """The terms of f grouped by their coset modulo k, one piece per coset.

    Keys are canonical coset representatives, in sorted order, so two
    decompositions against the same sublattice are directly comparable.
    """
    if f.rank != k.ambient_rank:
        raise ValueError("polynomial rank does not match sublattice rank")
    pieces: dict[tuple[int, ...], dict] = {}
    for e, c in f.terms.items():
        key = coset_representative(k, e)
        pieces.setdefault(key, {})[e] = c
    return {key: LaurentPoly(f.rank, terms) for key, terms in sorted(pieces.items())}


def twist_element(f: LaurentPoly, p: EvalPoint) -> LaurentPoly:
    """Rescale each term of f by the point's value on its exponent."""
    if f.rank != p.rank:
        raise ValueError("polynomial rank does not match point rank")
    out: dict[tuple[int, ...], object] = {}
    for e, c in f.terms.items():
        out[e] = c * evaluate_char(p, e)
    return LaurentPoly(f.rank, out)


def twist_augmentation_check(f: LaurentPoly, p: EvalPoint) -> bool:
    """Augmentation after twisting must equal direct evaluation at p.

    Both sides are computed exactly: the left through twist_element plus
    coefficient summation, the right through evaluate_poly's slot sum.
    Both read the point's value on each exponent from its integer form.
    """
    left = augmentation(twist_element(f, p))
    right = evaluate_poly(p, f)
    return left == right


def twist_multiplicativity_check(f: LaurentPoly, g: LaurentPoly, p: EvalPoint) -> bool:
    """twist(f * g) must equal twist(f) * twist(g), exactly."""
    lhs = twist_element(f * g, p)
    rhs = twist_element(f, p) * twist_element(g, p)
    return lhs == rhs


def inverse_point(p: EvalPoint) -> EvalPoint:
    """The pointwise inverse: negated torsion and negated exponents."""
    torsion = [(-t) % 1 for t in p.torsion]
    maps = [{prime: -e for prime, e in coord} for coord in p.rational]
    return EvalPoint.from_parts(torsion, maps)
