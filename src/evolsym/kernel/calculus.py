"""Differentiation, substitution and the closed-form integration catalog."""

from functools import lru_cache

from sympy import Add, Dummy, Mul, Pow, S, apart

from ..errors import InputError
from .atoms import ATOM_HEADS, Cos, Exp, Ln, Sin, sym
from .normalform import _exact_input, as_exact, normalize


def _as_sym(var):
    return sym(var) if isinstance(var, str) else var


def differentiate(e, var, n=1):
    """n-fold partial derivative, returned normalized.

    abs and sgn are differentiated away from their zero locus (d/dt abs(t)
    is sgn(t), d/dt sgn(t) is 0); the result does not record that
    restriction.  The n-th derivative is built from n memoized single
    steps, each normalized, so asking for orders 0..r of one expression
    costs r steps in all.
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
    # validated on a miss only, as in normalize
    return normalize(as_exact(e).diff(var)).as_expr()


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

    Families: polynomials (any rational power of var except -1, which gives
    ln), rational functions whose denominator splits into linear factors,
    and p(var) * exp(linear) * optional {sin, cos}(linear).  No integration
    constant is added.
    """
    var = _as_sym(var)
    nf = normalize(e)
    num, den, expr = nf.num, nf.den, nf.as_expr()
    if var not in expr.free_symbols:
        return normalize(expr * var).as_expr()
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
        a = b = S.Zero
        for key, c in dpoly.num_terms.items():
            if key == ():
                b = c
            elif len(key) == 1 and key[0][0] == var and key[0][1] == 1:
                a = c
            else:
                return None
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
            a = b.args[0].diff(var)
            if var in a.free_symbols or exp_arg is not None:
                return None
            exp_arg = b.args[0]
        elif isinstance(b, (Sin, Cos)) and e == 1:
            w = b.args[0].diff(var)
            if var in w.free_symbols or trig is not None:
                return None
            trig = b
        else:
            return None
    c = Mul(*coeff)
    if exp_arg is None and trig is None:
        if k is None:
            return c * var
        if k == -1:
            return c * Ln(var)
        return c * Pow(var, k + 1) / (k + 1)
    if k is not None and not (k.is_Integer and k >= 0):
        return None
    deg = int(k) if k is not None else 0
    a = exp_arg.diff(var) if exp_arg is not None else S.Zero
    if trig is None:
        # solve q' + a*q = var^deg by downward recurrence
        if a == 0:
            return None
        q = [S.Zero] * (deg + 1)
        q[deg] = 1 / a
        for j in range(deg - 1, -1, -1):
            q[j] = -(j + 1) * q[j + 1] / a
        qpoly = Add(*[q[j] * var**j for j in range(deg + 1)])
        return c * qpoly * Exp(exp_arg)
    w = trig.args[0].diff(var)
    det = a * a + w * w
    if det == 0:
        return None
    pc = [S.Zero] * (deg + 1)
    ps = [S.Zero] * (deg + 1)
    if isinstance(trig, Cos):
        pc[deg] = S.One
    else:
        ps[deg] = S.One
    q1 = [S.Zero] * (deg + 2)
    q2 = [S.Zero] * (deg + 2)
    for j in range(deg, -1, -1):
        r1 = pc[j] - (j + 1) * q1[j + 1]
        r2 = ps[j] - (j + 1) * q2[j + 1]
        q1[j] = (a * r1 - w * r2) / det
        q2[j] = (w * r1 + a * r2) / det
    q1poly = Add(*[q1[j] * var**j for j in range(deg + 1)])
    q2poly = Add(*[q2[j] * var**j for j in range(deg + 1)])
    efac = Exp(exp_arg) if exp_arg is not None else S.One
    targ = trig.args[0]
    return c * efac * (q1poly * Cos(targ) + q2poly * Sin(targ))
