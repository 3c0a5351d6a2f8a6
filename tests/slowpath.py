"""Slow paths kept as oracles for the normal form and numeric evaluation.

normal_form: normalize turns an expression into num/den dicts with one
recursive converter to a polynomial ring.  The code below is the path it
replaced: canonicalize atom arguments, put the expression over one
denominator with sympy's together(expand(e), deep=True), expand numerator
and denominator again term by term and canonicalize each monomial.  The back
half (ring cancellation and scaling) is shared, so any difference
between the two is a difference of the front halves.

common_numerators: the library multiplies the stored num_terms/den_terms of
normal forms; the oracle converts num and den back into ring polynomials and
multiplies those.

eval_numeric: the library compiles each expression once into closures and
evaluates those at every point; the oracle walks the validated tree
recursively at every call.  Both must give the same float bit for bit, or
raise the same error.
"""

import math

from sympy import Add, Mul, S, Symbol, expand, together

from evolsym.errors import EvalDomainError, InputError, UnsupportedError
from evolsym.kernel.atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin
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
from evolsym.kernel.numeric import ZERO_TOL


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


def eval_numeric(e, point):
    """eval_numeric by a recursive walk of as_exact(e) at every call."""
    e = as_exact(e)
    env = {}
    for k, v in point.items():
        env[k if isinstance(k, str) else k.name] = float(v)
    try:
        return _ev(e, env)
    except OverflowError:
        raise EvalDomainError("numeric overflow") from None


def _ev(e, env):
    zt = ZERO_TOL
    if e.is_Rational:
        return e.p / e.q
    if isinstance(e, Symbol):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(f"unbound symbol {e.name!r}") from None
    if e.is_Add:
        return math.fsum(_ev(a, env) for a in e.args)
    if e.is_Mul:
        v = 1.0
        for a in e.args:
            v *= _ev(a, env)
        return v
    if e.is_Pow:
        base, expo = e.args
        b = _ev(base, env)
        if expo.is_Integer:
            n = int(expo)
            if n < 0 and abs(b) <= zt:
                raise EvalDomainError("division by zero within tolerance")
            return b**n
        if expo.is_Rational:
            p, q = expo.p, expo.q
            if p < 0 and abs(b) <= zt:
                raise EvalDomainError("division by zero within tolerance")
            if b < 0:
                if q % 2 == 0:
                    raise EvalDomainError("even root of a negative value")
                # real odd root
                return (-1.0) ** p * abs(b) ** (p / q)
            return b ** (p / q)
        ev = _ev(expo, env)
        if b < 0:
            raise EvalDomainError("negative base under symbolic exponent")
        if abs(b) <= zt and ev < 0:
            raise EvalDomainError("division by zero within tolerance")
        return b**ev
    if isinstance(e, Exp):
        return math.exp(_ev(e.args[0], env))
    if isinstance(e, Ln):
        v = _ev(e.args[0], env)
        if v <= zt:
            raise EvalDomainError("ln of a nonpositive value")
        return math.log(v)
    if isinstance(e, Sin):
        return math.sin(_ev(e.args[0], env))
    if isinstance(e, Cos):
        return math.cos(_ev(e.args[0], env))
    if isinstance(e, AbsV):
        return abs(_ev(e.args[0], env))
    if isinstance(e, Sgn):
        v = _ev(e.args[0], env)
        return 0.0 if v == 0 else math.copysign(1.0, v)
    raise InputError(f"cannot evaluate node of type {type(e).__name__}")
