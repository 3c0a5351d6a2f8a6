"""Differentiation, substitution and the closed-form integration catalog."""

from functools import lru_cache

from sympy import Add, Dummy, Mul, Pow, Rational, S, apart

from ..errors import InputError
from .atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin, sym
from .normalform import _exact_input, as_exact, dict_to_expr, normalize, polynomial


def _as_sym(var):
    return sym(var) if isinstance(var, str) else var


def differentiate(e, var, n=1):
    """n-fold partial derivative, returned normalized.

    Each step is read off the stored terms of the normal form: the product
    rule over the factors of every monomial, with one table of base
    derivatives, and the result normalized once.  abs and sgn are
    differentiated away from their zero locus (d/dt abs(t) is sgn(t),
    d/dt sgn(t) is 0); the result does not record that restriction.  The
    n-th derivative is built from n memoized single steps, so asking for
    orders 0..r of one expression costs r steps in all.
    """
    if not (isinstance(n, int) and n >= 0):
        raise InputError("derivative order must be a nonnegative integer")
    var = _as_sym(var)
    d = _exact_input(e)
    if n == 0:
        return normalize(d).as_expr()
    for _ in range(n):
        d = _derivative(d, var)
    return d


@lru_cache(maxsize=4096)
def _derivative(e, var):
    """One step, read off the stored terms of e's normal form and
    normalized once; normalize validates e on a miss.

    The quotient is N' D^-1 + N (D^-1)'.  A monomial D is inverted factor
    by factor, so a root's powers stay on its generator; otherwise
    (D^-1)' is -D' D^-2, not folded into (N' D - N D') / D^2, over which
    exp(2 t)/(exp(t) - 1) and (exp(2 t) - 1)/(exp(t) - 1) would get
    different normal forms."""
    nf = normalize(e)
    if len(nf.den_terms) == 1:
        ((key, c),) = nf.den_terms.items()
        inv_terms = {tuple((b, -q) for b, q in key): 1 / c}
        inv = dict_to_expr(inv_terms)
        dinv = _terms_derivative(inv_terms, var)
    else:
        inv = Pow(nf.den, -1)
        dden = _terms_derivative(nf.den_terms, var)
        dinv = S.Zero if dden is S.Zero else -dden * inv**2
    # a zero part is left out, as in derivative_terms
    dnum = _terms_derivative(nf.num_terms, var)
    parts = [a * b for a, b in ((dnum, inv), (nf.num, dinv)) if 0 not in (a, b)]
    return normalize(Add(*parts)).as_expr()


def derivative_terms(coeffs, e, var):
    """The products coeffs[k] * (d/dvar)^k e that are not zero, k from 0.
    A zero factor is left out, not multiplied: sympy asks the other
    factor of 0 * expr whether it is finite."""
    var = _as_sym(var)
    return [
        c * dk
        for k, c in enumerate(coeffs)
        if c != 0 and (dk := differentiate(e, var, k)) != 0
    ]


def _terms_derivative(terms, var):
    """Product rule over a polynomial dict {key: coeff}: each factor of a
    monomial is differentiated in turn, in place."""
    out = []
    for key, c in terms.items():
        factors = [Pow(b, q) for b, q in key]
        for i, f in enumerate(factors):
            if var in f.free_symbols:
                d = _factor_derivative(f, var)
                if d != 0:
                    out.append(Mul(c, *factors[:i], d, *factors[i + 1 :]))
    return Add(*out)


def _factor_derivative(f, var):
    """d/dvar of one factor b^q as sympy evaluates it.  A power takes
    sympy's Pow rule b^q (q' ln b + q b'/b), in the shape Expr.diff built.
    Anything else is a generator (a first power, or exp(a)^q, which is
    exp(q a)) and takes its own rule: exp(a) by the Pow rule would leave
    exp(a) exp(-a) unmerged."""
    if not f.is_Pow:
        return _base_derivative(f, var)
    b, q = f.args
    db = _base_derivative(b, var)
    parts = []
    if not q.is_Rational and (dq := _derivative(q, var)) is not S.Zero:
        parts.append(dq * Ln(b))
    if db is not S.Zero:
        parts.append(db * q / b)
    return f * Add(*parts) if parts else S.Zero


# d/da of head(a), as a function of the atom and its argument
_BASE_RULES = {
    Exp: lambda atom, a: atom,
    Ln: lambda atom, a: 1 / a,
    Sin: lambda atom, a: Cos(a),
    Cos: lambda atom, a: -Sin(a),
    # away from the zero locus of a; sgn is constant there
    AbsV: lambda atom, a: Sgn(a),
}


def _base_derivative(b, var):
    """d/dvar of a generator: a symbol, a surd's prime, an atom, or an
    opaque base (a sum under a root, an unsound nested power), which
    recurses like an atom's argument."""
    if b.is_Symbol:
        return S.One if b == var else S.Zero
    if b.is_Rational or isinstance(b, Sgn):
        return S.Zero
    rule = _BASE_RULES.get(type(b))
    if rule is None:
        return _derivative(b, var)
    a = b.args[0]
    da = _derivative(a, var)
    if da == 0:
        return S.Zero
    return rule(b, a) * da


def substitute(e, bindings):
    """Simultaneous single-pass substitution: replacements are not
    re-substituted, so bindings may mention the bound symbols."""
    e = as_exact(e)
    bmap = {}
    for k, v in bindings.items():
        bmap[_as_sym(k)] = as_exact(v)
    return normalize(e.xreplace(bmap)).as_expr()


def integrate(e, var):
    """Antiderivative in var for the supported families, else None.

    Families: sums of rational powers of var, rational functions whose
    denominator splits into linear factors (so c/var gives c ln(var)), and
    p(var) * exp(linear) * optional {sin, cos}(linear).  No integration
    constant is added.
    """
    var = _as_sym(var)
    nf = normalize(e)
    num, den, expr = nf.num, nf.den, nf.as_expr()
    if var not in expr.free_symbols:
        return normalize(expr * var).as_expr() if expr != 0 else S.Zero
    if var in den.free_symbols:
        if any(var in a.free_symbols for a in expr.atoms(*ATOM_HEADS)):
            return None
        return _integrate_rational(expr, var)
    parts = []
    for term in Add.make_args(num):
        anti = _integrate_term(term, var)
        if anti is None:
            return None
        parts.append(anti)
    return normalize(Add(*parts) / den).as_expr()


def _integrate_rational(expr, var):
    # encode non-polynomial var-free factors so apart sees a plain rational
    # function of var over a parameter field
    amap = {}
    for a in expr.atoms(*ATOM_HEADS):
        amap[a] = Dummy(positive=True)
    for a in expr.atoms(Pow):
        b, q = a.as_base_exp()
        if b.is_Rational and not q.is_Integer:
            amap[a] = Dummy(positive=True)
    enc = expr.xreplace(amap) if amap else expr
    try:
        split = apart(enc, var)
    except Exception:
        return None
    dec = {v: k for k, v in amap.items()}
    parts = []
    for term in Add.make_args(split):
        n, d = term.as_numer_denom()
        if var not in d.free_symbols:
            anti = _integrate_term(term.xreplace(dec) if dec else term, var)
            if anti is None:
                return None
            parts.append(anti)
            continue
        base, m = d.as_base_exp()
        if not m.is_Integer or m < 1:
            return None
        dpoly = normalize(base)
        if dpoly.den != 1:
            return None
        coeffs = polynomial(dpoly.num_terms, (var,))
        if coeffs is None or max(coeffs)[0] > 1:
            return None
        a, b = (Rational(coeffs.get((k,), 0)) for k in (1, 0))
        if a == 0 or var in n.free_symbols:
            return None
        n = n.xreplace(dec) if dec else n
        lin = a * var + b
        if m == 1:
            parts.append(n / a * Ln(lin))
        else:
            parts.append(n * Pow(lin, 1 - m) / (a * (1 - m)))
    return normalize(Add(*parts)).as_expr()


def _integrate_term(term, var):
    coeff = []
    k = None
    exp_arg = None
    trig = None
    for f in Mul.make_args(term):
        b, e = f.as_base_exp()
        if var not in f.free_symbols:
            coeff.append(f)
        elif b == var and e.is_Rational and var not in e.free_symbols:
            if k is not None:
                return None
            k = e
        elif isinstance(b, Exp) and e == 1:
            a = differentiate(b.args[0], var)
            if var in a.free_symbols or exp_arg is not None:
                return None
            exp_arg = b.args[0]
        elif isinstance(b, (Sin, Cos)) and e == 1:
            w = differentiate(b.args[0], var)
            if var in w.free_symbols or trig is not None:
                return None
            trig = b
        else:
            return None
    c = Mul(*coeff)
    if exp_arg is None and trig is None:
        if k is None:
            return c * var
        return c * Pow(var, k + 1) / (k + 1)
    if k is not None and not (k.is_Integer and k >= 0):
        return None
    # var^deg e^(a var) times cos or sin(w var), or neither (w = 0, as cos):
    # e^(a var) (q1 cos + q2 sin), polynomials q1, q2 by downward recurrence
    deg = int(k) if k is not None else 0
    a = differentiate(exp_arg, var) if exp_arg is not None else S.Zero
    w = differentiate(trig.args[0], var) if trig is not None else S.Zero
    det = a * a + w * w
    if det == 0:
        return None
    pc = [S.Zero] * (deg + 1)
    ps = [S.Zero] * (deg + 1)
    if isinstance(trig, Sin):
        ps[deg] = S.One
    else:
        pc[deg] = S.One
    q1 = [S.Zero] * (deg + 2)
    q2 = [S.Zero] * (deg + 2)
    for j in range(deg, -1, -1):
        r1 = pc[j] - (j + 1) * q1[j + 1]
        r2 = ps[j] - (j + 1) * q2[j + 1]
        q1[j] = (a * r1 - w * r2) / det
        q2[j] = (w * r1 + a * r2) / det
    q1poly = Add(*[q1[j] * var**j for j in range(deg + 1)])
    efac = Exp(exp_arg) if exp_arg is not None else S.One
    if trig is None:
        return c * efac * q1poly
    q2poly = Add(*[q2[j] * var**j for j in range(deg + 1)])
    targ = trig.args[0]
    return c * efac * (q1poly * Cos(targ) + q2poly * Sin(targ))
