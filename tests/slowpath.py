"""Slow paths kept as oracles for the normal form.

normal_form: normalize turns an expression into num/den dicts with one
recursive converter to a polynomial ring.  The code below is the path it
replaced: canonicalize atom arguments, put the expression over one
denominator with sympy's together(expand(e), deep=True), expand numerator
and denominator again term by term and canonicalize each monomial.  The back
half (ring cancellation, scaling, domain notes) is shared, so any difference
between the two is a difference of the front halves.

common_numerators: the library multiplies the stored num_terms/den_terms of
normal forms; the oracle converts num and den back into ring polynomials and
multiplies those.
"""

from sympy import Add, Mul, S, expand, together

from evolsym.errors import UnsupportedError
from evolsym.kernel.atoms import ATOM_HEADS, Exp
from evolsym.kernel.normalform import (
    _ZERO,
    _accumulate,
    _canon_monomial,
    _canon_terms,
    _Converter,
    _finish,
    _key,
    _reduce_cos,
    _v_mul,
    as_exact,
    dict_to_expr,
    normalize,
)


def canonical_atom_args(e):
    # exp arguments are left to _canon_monomial
    if e.is_Atom or isinstance(e, Exp):
        return e
    if isinstance(e, ATOM_HEADS):
        return type(e)(normalize(e.args[0]).as_expr())
    return e.func(*(canonical_atom_args(a) for a in e.args))


def term_parts(term):
    coeff = S.One
    factors = []
    for f in Mul.make_args(term):
        if f.is_Rational:
            coeff *= f
        else:
            factors.append(f.as_base_exp())
    return coeff, factors


def mono_dict(e):
    """Canonical polynomial dict of expand(e), re-expanded to a fixpoint."""
    terms = [term_parts(term) for term in Add.make_args(expand(e))]
    for _round in range(6):
        out = {}
        for coeff, factors in terms:
            if coeff == 0:
                continue
            coeff, fmap = _canon_monomial(coeff, factors)
            _accumulate(out, _key(fmap), coeff)
        _reduce_cos(out)
        if not any(
            base.is_Add and e2.is_Integer and e2 > 0 for key in out for base, e2 in key
        ):
            return out
        terms = [term_parts(term) for term in Add.make_args(expand(dict_to_expr(out)))]
    raise UnsupportedError("monomial canonicalization did not stabilize")


def normal_form(e):
    """normalize(e) computed through together(expand(e), deep=True)."""
    e = canonical_atom_args(as_exact(e))
    n0, d0 = together(expand(e), deep=True).as_numer_denom()
    dn = mono_dict(n0)
    if not dn:
        return _ZERO
    return _finish(dn, mono_dict(d0))


def common_numerators(nfs):
    """Numerator dicts over the product of the distinct denominators,
    computed by converting num and den of each normal form again."""
    dens = []
    for nf in nfs:
        if nf.den != 1 and nf.den not in dens:
            dens.append(nf.den)
    conv = _Converter(canonical=False)
    nums = [conv.rewrite(nf.num) for nf in nfs]
    dnodes = [conv.rewrite(d) for d in dens]
    conv.start()
    dens = [(d, conv.evaluate(node)) for d, node in zip(dens, dnodes)]
    out = []
    for nf, node in zip(nfs, nums):
        value = conv.evaluate(node)
        for d, dvalue in dens:
            if d != nf.den:
                value = _v_mul(conv.R, value, dvalue)
        out.append(_canon_terms(conv.value_terms(value)))
    return out
