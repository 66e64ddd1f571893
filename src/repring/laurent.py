"""Sparse multivariate Laurent polynomials with exact coefficients.

A polynomial of rank r maps exponent vectors in Z^r to nonzero
coefficients, each either a Fraction or a cyclotomic number.  This is
the character-ring workhorse: group elements act by relabelling
exponents, the augmentation sums coefficients, and exact division by
leading-term cancellation recovers quotients such as Weyl characters.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclo, coeff_is_zero, demote
from .lattice import Matrix, mat_vec


def _normalize_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, Cyclo)):
        return demote(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class LaurentPoly:
    """A Laurent polynomial in rank variables, keyed by exponent vector.

    Arithmetic builds results of type(self), so a subclass that restricts
    exponents or coefficients (poly.Poly) inherits it unchanged.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.rank = rank
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in (terms or {}).items():
            e = tuple(map(int, exps))
            if len(e) != rank:
                raise ValueError("exponent length does not match rank")
            c = _normalize_coeff(c)
            if not coeff_is_zero(c):
                acc = clean.get(e)
                clean[e] = c if acc is None else acc + c
                if coeff_is_zero(clean[e]):
                    del clean[e]
        self.terms = clean

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
        def add(o):
            out = dict(self.terms)
            for e, c in o.terms.items():
                acc = out.get(e)
                s = c if acc is None else acc + c
                if coeff_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
            return type(self)(self.rank, out)
        return self._binary(other, add)

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
            c0 = _normalize_coeff(other)
            if coeff_is_zero(c0):
                return type(self).zero(self.rank)
            return type(self)(self.rank, {e: c * c0 for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                s = prod if acc is None else acc + prod
                if coeff_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return type(self)(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            base = inverse_monomial(self)
            n = -n
        else:
            base = self
        result = type(self).one(self.rank)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.rank != other.rank or set(self.terms) != set(other.terms):
            return False
        return all(coeff_is_zero(self.terms[e] - other.terms[e]) for e in self.terms)

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
    if not f.terms:
        return "0"
    parts: list[str] = []
    for e in sorted(f.terms):
        c = f.terms[e]
        mono = "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e) if a != 0)
        if isinstance(c, Cyclo):
            cs = f"({c})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        elif not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def weyl_act(matrix: Matrix, f: LaurentPoly) -> LaurentPoly:
    """Relabel exponents by an integer matrix: e^n -> e^(matrix @ n)."""
    out: dict[tuple[int, ...], object] = {}
    for e, c in f.terms.items():
        e2 = tuple(mat_vec(matrix, list(e)))
        acc = out.get(e2)
        s = c if acc is None else acc + c
        if coeff_is_zero(s):
            out.pop(e2, None)
        else:
            out[e2] = s
    return LaurentPoly(f.rank, out)


def coefficient_row(f: LaurentPoly, index: dict) -> list:
    """The coefficients of f as a dense row, one column per exponent of index."""
    row = [Fraction(0)] * len(index)
    for e, c in f.terms.items():
        row[index[e]] = c
    return row


def augmentation(f: LaurentPoly):
    """Sum of coefficients; the ring map killing every monomial to 1."""
    total: object = Fraction(0)
    for c in f.terms.values():
        total = total + c
    return demote(total)


def inverse_monomial(f: LaurentPoly) -> LaurentPoly:
    """Invert a single-term Laurent polynomial."""
    if len(f.terms) != 1:
        raise ValueError("only monomials are invertible in the Laurent ring")
    (e, c), = f.terms.items()
    inv = (1 / c) if isinstance(c, Fraction) else c.inverse()
    return LaurentPoly(f.rank, {tuple(-x for x in e): inv})


def exact_divide(num: LaurentPoly, den: LaurentPoly, step_cap: int = 200_000) -> LaurentPoly:
    """Exact quotient num / den, or ValueError when den does not divide num.

    Division runs by cancelling the lexicographically largest term of the
    remainder against the largest term of the divisor.  Every quotient
    exponent of a true quotient is bounded below (lex) by
    min(num) - min(den); crossing that bound proves non-divisibility.
    """
    if num.rank != den.rank:
        raise ValueError("rank mismatch")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.rank)
    den_lead = max(den.terms)
    den_lead_coeff = den.terms[den_lead]
    lower_bound = tuple(a - b for a, b in zip(min(num.terms), min(den.terms)))
    rem = dict(num.terms)
    quot: dict[tuple[int, ...], object] = {}
    for _ in range(step_cap):
        if not rem:
            return LaurentPoly(num.rank, quot)
        lead = max(rem)
        q_exp = tuple(a - b for a, b in zip(lead, den_lead))
        if q_exp < lower_bound:
            raise ValueError("not divisible: quotient term fell below the exponent bound")
        inv = (1 / den_lead_coeff) if isinstance(den_lead_coeff, Fraction) \
            else den_lead_coeff.inverse()
        q_coeff = rem[lead] * inv
        quot[q_exp] = q_coeff
        for e, c in den.terms.items():
            e2 = tuple(a + b for a, b in zip(q_exp, e))
            delta = q_coeff * c
            acc = rem.get(e2)
            s = -delta if acc is None else acc - delta
            if coeff_is_zero(s):
                rem.pop(e2, None)
            else:
                rem[e2] = s
    raise ValueError("division did not terminate within the step cap; "
                     "inputs are most likely not divisible")
