"""Grammar-conforming expression printer.

to_str(parse_expr(s)) round-trips: the output uses only the surface syntax
the parser accepts, with deterministic term and factor order.

A sum's terms come in the order of sympy's Expr.as_ordered_terms, computed
here without evalf: exact numbers give their float and their sign
themselves, and only an irrational number factor such as 2^(1/3) is
evaluated by complex().
"""

from mpmath.libmp import from_rational, normalize, round_nearest, to_float
from sympy import Mul, S, Symbol, default_sort_key
from sympy.core.exprtools import decompose_power

from ..errors import InternalError
from .atoms import ATOM_HEADS, minus_sign, number_sign

_ADD, _MUL, _NEG, _POW, _ATOM = 10, 20, 15, 30, 40


def _prec(e):
    if e.is_Add:
        return _ADD
    if e.is_Mul:
        return _NEG if minus_sign(e) else _MUL
    if e.is_Pow:
        return _POW
    if e.is_Integer:
        return _NEG if number_sign(e) < 0 else _ATOM
    if e.is_Rational:
        return _NEG if number_sign(e) < 0 else _MUL
    return _ATOM


def _paren(e, ctx):
    s = to_str(e)
    return f"({s})" if _prec(e) < ctx else s


def _rational_float(c):
    """The float that complex() gives the Rational c: evalf rounds p/q down
    to 57 bits and Float rounds that to nearest at 53, so it differs from
    the correctly rounded p / q in about one case in thirty."""
    sign, man, exp, bc = from_rational(c.p, c.q, 57)
    return to_float(normalize(sign, man, exp, bc, 53, round_nearest))


def ordered_terms(e):
    """e.as_ordered_terms() of a sum of exact terms.

    sympy's key: the exponent vector over the generators sorted by
    default_sort_key, negated, then (re, im) of the term's numeric value,
    the coefficient times every number factor; the sort is stable over
    e.args.  A positive number plus a number times one factor stays in
    that order, as 1 - x."""
    args = e.args
    if len(args) == 2:
        a, b = args
        if (
            a.is_Rational
            and b.is_Mul
            and len(b.args) == 2
            and b.args[0].is_Rational
            and number_sign(a) > 0
            and number_sign(b.args[0]) < 0
        ):
            return list(args)
    gens = set()
    terms = []
    for term in args:
        coeff, rest = term.as_coeff_Mul()
        value = complex(_rational_float(coeff))
        powers = {}
        if rest is not S.One:
            for f in Mul.make_args(rest):
                if f.is_number:
                    # a number factor without a value, such as exp(1/4)
                    # here, is a generator, as in sympy
                    try:
                        value *= complex(f)
                        continue
                    except (TypeError, ValueError):
                        pass
                base, k = decompose_power(f)
                powers[base] = k
                gens.add(base)
        terms.append((term, value, powers))
    gens = sorted(gens, key=default_sort_key)

    def key(item):
        _term, v, powers = item
        monom = tuple(-powers.get(g, 0) for g in gens)
        return monom, ((bool(v.imag), v.imag), (v.real, v.imag))

    return [term for term, _v, _p in sorted(terms, key=key)]


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
        terms = ordered_terms(e)
        out = [to_str(terms[0])]
        for term in terms[1:]:
            if minus_sign(term):
                out.append(f" - {to_str(-term)}")
            else:
                out.append(f" + {to_str(term)}")
        return "".join(out)
    if e.is_Mul:
        coeff, rest = e.as_coeff_Mul()
        sign = ""
        if number_sign(coeff) < 0:
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
