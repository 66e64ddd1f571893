"""The twist term by term: the reference for repring.twist's integer kernel.

Each term is rescaled by its value from evaluate_char, a Fraction or a
Cyclo, and both checks compare LaurentPoly products and sums of those
values, as the kernel's own twist did before it ran in integers.
"""

from repring.laurent import LaurentPoly, augmentation
from repring.spectrum import evaluate_char, evaluate_poly


def twist_by_terms(f: LaurentPoly, p) -> LaurentPoly:
    if f.rank != p.rank:
        raise ValueError("polynomial rank does not match point rank")
    return LaurentPoly(f.rank, {e: c * evaluate_char(p, e) for e, c in f.terms.items()})


def augmentation_holds(f: LaurentPoly, p) -> bool:
    return augmentation(twist_by_terms(f, p)) == evaluate_poly(p, f)


def product_holds(f: LaurentPoly, g: LaurentPoly, p) -> bool:
    return twist_by_terms(f * g, p) == twist_by_terms(f, p) * twist_by_terms(g, p)
