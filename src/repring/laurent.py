"""Sparse multivariate Laurent polynomials with exact coefficients.

A polynomial of rank r maps exponent vectors in Z^r to nonzero
coefficients in cyclotomic.demote's normal form (an int, a non-integral
Fraction, or a cyclotomic number), so integer polynomials stay in ints.
This is the character-ring workhorse: the augmentation sums
coefficients, and exact division by leading-term cancellation recovers
quotients such as Weyl characters.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from operator import add, neg, sub

from .cyclotomic import Cyclo, demote
from .linalg import RowSpace


class LaurentPoly:
    """A Laurent polynomial in rank variables, keyed by exponent vector.

    terms is a dict from exponent vectors to coefficients, or an iterable
    of (exponent, coefficient) pairs whose coefficients sum over equal
    exponents.  Arithmetic builds results of type(self), so a subclass
    that restricts exponents or coefficients (poly.Poly) inherits it
    unchanged.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.rank = rank
        self.terms = _sum_terms({}, _exponents(
            terms.items() if isinstance(terms, dict) else terms or (), rank))

    @classmethod
    def _normal(cls, rank: int, terms: dict) -> "LaurentPoly":
        """terms kept as they are, its caller vouching they are in normal form."""
        f = cls.__new__(cls)
        f.rank, f.terms = rank, terms
        return f

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: Fraction(1)})

    @classmethod
    def monomial(cls, exponents, coeff=1, rank: int | None = None) -> "LaurentPoly":
        e = tuple(map(int, exponents))
        r = len(e) if rank is None else rank
        return cls(r, {e: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents):
        return self.terms.get(tuple(map(int, exponents)), Fraction(0))

    def _binary(self, other, op):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = LaurentPoly(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return op(other)

    def __add__(self, other):
        return self._binary(other, lambda o: type(self)(
            self.rank, chain(self.terms.items(), o.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c0 = demote(other)
            return type(self)(self.rank, ((e, c * c0) for e, c in self.terms.items()))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return type(self)(self.rank, ((tuple(map(add, e1, e2)), c1 * c2)
                                      for e1, c1 in self.terms.items()
                                      for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def height(self) -> int:
        """Largest absolute exponent entry over the support (0 for constants)."""
        h = 0
        for e in self.terms:
            for x in e:
                if abs(x) > h:
                    h = abs(x)
        return h

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rank}, {self.terms!r})"

    def __str__(self) -> str:
        return render(self)


def render(f: LaurentPoly) -> str:
    """Canonical text form: terms in ascending lexicographic exponent order.

    Exponents print as x1^a1*...*xr^ar with zero exponents omitted;
    rational coefficients print as exact fractions, cyclotomic ones in
    parentheses.  The output is bit-stable for equal inputs.
    """
    names = [f"x{i}^" for i in range(1, f.rank + 1)]
    parts: list[str] = []
    for e in sorted(f.terms):
        c = f.terms[e]
        mono = "*".join([x + str(a) for x, a in zip(names, e) if a])
        if isinstance(c, Cyclo):
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        elif not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join([" - " + p[1:] if p[0] == "-" else " + " + p for p in parts[1:]])


def _exponents(pairs, rank: int):
    """The (exponent, coefficient) pairs with each exponent made an int tuple,
    refused unless its length is rank."""
    for exps, c in pairs:
        e = tuple(map(int, exps))
        if len(e) != rank:
            raise ValueError("exponent length does not match rank")
        yield e, c


def _sum_terms(out: dict, pairs) -> dict:
    """Add (exponent, coefficient) pairs, exponents int tuples of the rank,
    into out, the one place where terms are summed: each coefficient is kept
    in demote's normal form, and those that sum to zero are dropped."""
    for e, c in pairs:
        acc = out.get(e)
        c = demote(c if acc is None else acc + c)
        if c:
            out[e] = c
        elif acc is not None:
            del out[e]
    return out


def coefficient_row(f: LaurentPoly, index: dict) -> list:
    """The coefficients of f as a dense row, one column per exponent of index."""
    row = [0] * len(index)
    for e, c in f.terms.items():
        row[index[e]] = c
    return row


class Span:
    """The linear span of some Laurent polynomials: their coefficient rows,
    over the exponents they use, in one RowSpace.  A polynomial lies in
    the span exactly when its exponents are among those and its row
    reduces to zero.  The columns are the exponents in sorted order, so
    each pivot is a row's least exponent and the rows stay sparse."""

    def __init__(self, polys) -> None:
        polys = list(polys)
        self.index = {e: i for i, e in enumerate(sorted({e for f in polys for e in f.terms}))}
        self.space = RowSpace(len(self.index))
        for f in polys:
            self.space.add(coefficient_row(f, self.index))

    def __contains__(self, f: LaurentPoly) -> bool:
        return (all(e in self.index for e in f.terms)
                and self.space.contains(coefficient_row(f, self.index)))


def augmentation(f: LaurentPoly):
    """Sum of coefficients; the ring map killing every monomial to 1."""
    return demote(sum(f.terms.values()))


def inverse_monomial(f: LaurentPoly) -> LaurentPoly:
    """Invert a single-term Laurent polynomial."""
    if len(f.terms) != 1:
        raise ValueError("only monomials are invertible in the Laurent ring")
    (e, c), = f.terms.items()
    return LaurentPoly(f.rank, {tuple(-x for x in e): Fraction(1) / c})


def exact_divide(num: LaurentPoly, den: LaurentPoly, step_cap: int = 200_000) -> LaurentPoly:
    """Exact quotient num / den, or ValueError when den does not divide num.

    Division runs by cancelling the lexicographically largest term of the
    remainder, popped from a heap of its negated exponents, against the
    largest term of the divisor.  Every quotient exponent of a true quotient
    is bounded below (lex) by min(num) - min(den); crossing that bound
    proves non-divisibility.
    """
    if num.rank != den.rank:
        raise ValueError("rank mismatch")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.rank)
    den_lead = max(den.terms)
    inv = demote(Fraction(1) / den.terms[den_lead])  # an int for a leading +-1
    lower_bound = tuple(map(sub, min(num.terms), min(den.terms)))
    rem = dict(num.terms)
    heap = sorted(tuple(map(neg, e)) for e in rem)  # a sorted list is a heap
    minus_den = [(e, -c) for e, c in den.terms.items()]
    quot: dict[tuple[int, ...], object] = {}
    for _ in range(step_cap):
        if not rem:
            return LaurentPoly(num.rank, quot)
        while (lead := tuple(map(neg, heappop(heap)))) not in rem:
            pass  # cancelled since it was pushed
        q_exp = tuple(map(sub, lead, den_lead))
        if q_exp < lower_bound:
            raise ValueError("not divisible: quotient term fell below the exponent bound")
        q_coeff = rem[lead] * inv
        quot[q_exp] = q_coeff
        step = [(tuple(map(add, q_exp, e)), q_coeff * c) for e, c in minus_den]
        for e in [e for e, _ in step if e not in rem]:
            heappush(heap, tuple(map(neg, e)))
        _sum_terms(rem, step)  # int tuples of the rank by construction
    raise ValueError("division did not terminate within the step cap; "
                     "inputs are most likely not divisible")
