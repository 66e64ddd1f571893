"""The text form of a Laurent polynomial as `laurent.render` first built it:
terms joined by growing one string.  The reference for `render`."""

from repring.cyclotomic import Cyclo
from repring.laurent import LaurentPoly


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
