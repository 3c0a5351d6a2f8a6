"""Grammar-conforming expression printer.

to_str(parse_expr(s)) round-trips: the output uses only the surface syntax
the parser accepts, with deterministic term and factor order.
"""

from sympy import S, Symbol

from ..errors import InternalError
from .atoms import ATOM_HEADS

_ADD, _MUL, _NEG, _POW, _ATOM = 10, 20, 15, 30, 40


def _prec(e):
    if e.is_Add:
        return _ADD
    if e.is_Mul:
        return _NEG if e.could_extract_minus_sign() else _MUL
    if e.is_Pow:
        return _POW
    if e.is_Integer:
        return _ATOM if e >= 0 else _NEG
    if e.is_Rational:
        return _MUL if e >= 0 else _NEG
    return _ATOM


def _paren(e, ctx):
    s = to_str(e)
    return f"({s})" if _prec(e) < ctx else s


def to_str(e):
    if e is S.Zero:
        return "0"
    if e.is_Integer:
        return str(int(e))
    if e.is_Rational:
        return f"{e.p}/{e.q}"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, ATOM_HEADS):
        return f"{e.fname}({to_str(e.args[0])})"
    if e.is_Add:
        terms = e.as_ordered_terms()
        out = [to_str(terms[0])]
        for term in terms[1:]:
            if term.could_extract_minus_sign():
                out.append(f" - {to_str(-term)}")
            else:
                out.append(f" + {to_str(term)}")
        return "".join(out)
    if e.is_Mul:
        coeff, rest = e.as_coeff_Mul()
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        factors = rest.as_ordered_factors() if rest is not S.One else []
        parts = []
        if coeff != 1 or not factors:
            parts.append(to_str(coeff))
        parts.extend(_paren(f, _MUL + 1) for f in factors)
        return sign + "*".join(parts)
    if e.is_Pow:
        base, expo = e.args
        bs = _paren(base, _POW + 1)
        es = _paren(expo, _POW)
        return f"{bs}^{es}"
    raise InternalError(f"cannot print node of type {type(e).__name__}: {e!r}")
